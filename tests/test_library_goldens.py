"""Library outputs pinned against recorded goldens.

``library_goldens.json`` holds one SHA-256 per (prey, family) group, over
the records this file plays for that group:

- the stage 1-4 trace JSONL on every network of the family at 0, 4, 13
  and 19 rounds, with and without ``collect_violations`` (with the text of
  every violation collected);
- ``make_advice(...).encode()`` on every network at budgets 1, 3 and 5;
- 16-round stage-4 runs under the next network's advice (in enumeration
  order, wrapping around) and under empty advice;
- the ``run_prune`` fields and the ``analyze`` outcome at budgets 1-5.

Wherever a call raises, the exception's type and text stand in for its
output. Each stage's protocol is built once per group and shared by every
run in it, as the pipeline shares its stage-3 simulations, so a cache that
leaks between networks or prefixes shows up here.

A change that is meant to alter an output regenerates the file with
``python tests/test_library_goldens.py`` (with ``src`` on ``PYTHONPATH``)
and says so; every other change must leave it matching.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from radiolb import (
    AdviceString,
    C2Params,
    analyze,
    build_c2,
    core,
    encode_c2,
    enumerate_c2,
    make_advice,
    pi4_with_advice,
    round_robin,
    run_prune,
    silent_l1,
    transform_chain,
)

from preys import (
    cyclic_prey,
    hash_prey,
    late_payload_prey,
    leaf_ack_prey,
    relay_prey,
    sender_answer_prey,
    sender_hash_prey,
    spontaneous_leaf_prey,
)

GOLDENS = Path(__file__).with_name("library_goldens.json")

PREYS = {
    "round-robin": round_robin,
    "silent": silent_l1,
    "leaf-ack": leaf_ack_prey,
    "relay": relay_prey,
    "hash-0": lambda params: hash_prey(params, 0),
    "hash-34": lambda params: hash_prey(params, 34),
    "sender-answer": sender_answer_prey,
    "sender-hash-123": lambda params: sender_hash_prey(params, 123),
    "cyclic": cyclic_prey,
    "spontaneous-leaf": spontaneous_leaf_prey,
    "late-payload": late_payload_prey,
}
FAMILIES = ((1, 2), (2, 2))
GROUPS = [f"{prey} m={m},k={k}" for prey in PREYS for m, k in FAMILIES]


def _outcome(call):
    """What ``call()`` returns, or the type and text of what it raises."""
    try:
        return call()
    except Exception as exc:  # the exception is the output
        return {"raises": [type(exc).__name__, str(exc)]}


def _trace(net, proto, rounds, collect: bool):
    violations = [] if collect else None
    lines = core.trace_to_jsonl(core.run(net, proto, rounds, collect_violations=violations))
    if collect:
        return {"trace": lines,
                "violations": [[type(v).__name__, str(v)] for v in violations]}
    return lines


def _prune_fields(p3, r, params):
    pr = run_prune(p3, r)
    return {
        "advice": pr.advice.encode(),
        "base": encode_c2(params, pr.base_net),
        "events": [repr(e) for e in pr.event_seq],
        "free_component": pr.free_component,
        "marked": sorted(pr.marked),
        "survivors": [encode_c2(params, tv) for tv in pr.survivors],
    }


def _analysis(p0, r, params):
    outcome = analyze(p0, r, params)
    return {"family": repr(outcome.family), "witness": repr(outcome.witness)}


def records(group: str) -> list[str]:
    """Every record of one group, in a fixed order, as sorted-key JSON."""
    prey, family = group.split(" ")
    m, k = (int(part.split("=")[1]) for part in family.split(","))
    params = C2Params(m, k)
    p0 = PREYS[prey](params)
    staged = {stage: transform_chain(p0, params, stage) for stage in (1, 2, 3, 4)}
    p3 = staged[3]
    vectors = list(enumerate_c2(params))
    out = []

    def emit(*key_and_value):
        out.append(json.dumps(key_and_value, sort_keys=True, separators=(",", ":")))

    for i, tv in enumerate(vectors):
        net, name = build_c2(params, tv), encode_c2(params, tv)
        for stage, proto in staged.items():
            for rounds in (0, 4, 13, 19):
                for collect in (False, True):
                    emit("trace", name, stage, rounds, collect,
                         _outcome(lambda: _trace(net, proto, rounds, collect)))
        for r in (1, 3, 5):
            emit("advice", name, r, _outcome(lambda: make_advice(p3, net, r).encode()))
        nxt = build_c2(params, vectors[(i + 1) % len(vectors)])
        for label, advice in (("next", lambda: make_advice(p3, nxt, 5)),
                              ("empty", lambda: AdviceString(()))):
            emit("advised", name, label,
                 _outcome(lambda: _trace(net, pi4_with_advice(p3, advice()), 16, False)))
    for r in range(1, 6):
        emit("prune", r, _outcome(lambda: _prune_fields(p3, r, params)))
        emit("analyze", r, _outcome(lambda: _analysis(p0, r, params)))
    return out


def digest(group: str) -> dict:
    recs = records(group)
    return {"records": len(recs),
            "sha256": hashlib.sha256("\n".join(recs).encode()).hexdigest()}


@pytest.mark.parametrize("group", GROUPS)
def test_library_outputs_match_the_goldens(group):
    want = json.loads(GOLDENS.read_text(encoding="utf-8"))
    assert sorted(want) == sorted(GROUPS)
    assert digest(group) == want[group]


if __name__ == "__main__":
    goldens = {group: digest(group) for group in GROUPS}
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(goldens)} goldens to {GOLDENS}", file=sys.stderr)
