"""Carried-forward simulations against restart-from-round-0 references.

Pruning keeps one advised stage-4 run per (component, tau) and steps it
on as the advice grows; a stage-3 protocol keeps one echo simulation per
(component, tau), steps it on as the echo script grows and answers a
shorter script that agrees with it from its record. The reference
below is the pruning routine that restarted every component run at round 0
for each t. The round-count tests count the engine rounds played on each
component network and fail for any routine that replays.
"""

from __future__ import annotations

from collections import Counter

import pytest

from radiolb import (
    SOURCE,
    AdviceString,
    C2Params,
    ComponentDesc,
    SetFamily,
    TopologyVector,
    Transmit,
    build_c2,
    core,
    enumerate_c2,
    make_advice,
    pi4_with_advice,
    prune,
    reductions,
    round_robin,
    selfam_driven,
    silent_l1,
    transform_chain,
)
from radiolb.c2 import component_net, component_of
from radiolb.errors import LegalityViolation, SpontaneityViolation
from radiolb.prune import COLLISION, SILENT, Single, _event, _heard, _prune

from preys import (
    cyclic_prey,
    hash_prey,
    leaf_ack_prey,
    relay_prey,
    sender_answer_prey,
    spontaneous_leaf_prey,
)


def restart_prune(p3, vectors, r, params):
    """The survivor rule with every component run restarted at round 0:
    for each t, one run of 3t-1 rounds per (component, tau) among the
    survivors under the advice entries decided so far."""
    survivors, events, entries, tables = list(vectors), [], [], []
    for t in range(1, r):
        p4 = pi4_with_advice(p3, AdviceString(tuple(entries)))
        table = {}
        for i, tau in sorted({(i, tau) for tv in survivors for i, tau in enumerate(tv.taus)}):
            rec = core.run(component_net(params, i, tau), p4, 3 * t - 1).rounds[3 * t - 2]
            table[i, tau] = [x for x, a in rec.actions.items()
                             if x != SOURCE and isinstance(a, Transmit)]
        tables.append(table)
        seen = {tv: _event(_heard(table, tv), tv.taus, params) for tv in survivors}
        singles = [tv for tv in survivors if isinstance(seen[tv], Single)]
        e = COLLISION if COLLISION in seen.values() else seen[min(singles)] if singles else SILENT
        survivors = [tv for tv in survivors if seen[tv] == e]
        events.append(e)
        entries.append(ComponentDesc(e.component, e.tau) if isinstance(e, Single) else None)
    base = min(survivors)
    marked = frozenset(component_of(x, params) for table in tables for x in _heard(table, base)[:2])
    return survivors, tuple(events), AdviceString(tuple(entries)), marked


def preys(params):
    singles = SetFamily(params.k, tuple(1 << j for j in range(params.k)))
    return [
        round_robin(params),
        silent_l1(params),
        selfam_driven(params, singles),
        leaf_ack_prey(params),
        relay_prey(params),
        hash_prey(params, 0),
        hash_prey(params, 1),
        sender_answer_prey(params),
        cyclic_prey(params),
        spontaneous_leaf_prey(params),
    ]


def outcome(fn):
    """What a pruning routine returns, or the legality violation it raises."""
    try:
        return fn()
    except LegalityViolation as exc:
        return exc


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (2, 3), (3, 2)])
def test_carried_prune_matches_restarting_reference(m, k):
    params = C2Params(m, k)
    family = list(enumerate_c2(params))
    for p0 in preys(params):
        # separate stage-3 protocols: neither routine reads the other's echoes
        p3, ref3 = transform_chain(p0, params, 3), transform_chain(p0, params, 3)
        for r in range(1, 7):
            got = outcome(lambda: _prune(p3, family, r, params))
            want = outcome(lambda: restart_prune(ref3, family, r, params))
            # a violation must be of the same kind, on the same node, in the same round
            assert got == want and str(got) == str(want), (p0.name, r)


def test_illegal_prey_fails_on_a_surviving_component():
    # Every leaf transmits in round 5. The first event keeps only tau0 = 1,
    # whose leaf heard node 1 in round 4, so the violation is component
    # 1's leaf (label 6); a run kept for the pruned pair (0, 2) would have
    # reported label 5 first.
    params = C2Params(2, 2)
    p3 = transform_chain(spontaneous_leaf_prey(params), params, 3)
    family = list(enumerate_c2(params))
    want = SpontaneityViolation(6, 5)
    assert outcome(lambda: restart_prune(p3, family, 4, params)) == want
    assert outcome(lambda: _prune(p3, family, 4, params)) == want


def recorded_nets(monkeypatch, module):
    """Record every component network ``module`` builds and count the
    engine rounds played on each, summed per (component, tau)."""
    made = {}  # id(net) -> (component, tau, net); the net keeps its id unique
    rounds = Counter()
    real_net, real_step = module.component_net, core.step_round

    def recording_net(params, i, tau):
        net = real_net(params, i, tau)
        made[id(net)] = (i, tau, net)
        return net

    def counting_step(net, actions, round):
        if id(net) in made:
            rounds[made[id(net)][:2]] += 1
        return real_step(net, actions, round)

    monkeypatch.setattr(module, "component_net", recording_net)
    monkeypatch.setattr(core, "step_round", counting_step)
    return rounds


@pytest.mark.parametrize("r", [3, 5, 6])
def test_pruning_steps_each_component_run_once(monkeypatch, r):
    params = C2Params(2, 3)
    rounds = recorded_nets(monkeypatch, prune)
    for p0 in (round_robin(params), cyclic_prey(params), hash_prey(params, 0)):
        rounds.clear()
        p3 = transform_chain(p0, params, 3)
        _prune(p3, enumerate_c2(params), r, params)
        assert rounds and max(rounds.values()) <= 3 * r - 4, (p0.name, rounds)


def test_echo_rebuild_steps_each_component_once(monkeypatch):
    params = C2Params(2, 2)
    rounds = recorded_nets(monkeypatch, reductions)
    p3 = transform_chain(cyclic_prey(params), params, 3)
    advice = make_advice(p3, build_c2(params, TopologyVector((3, 2))), 24)
    # every entry names a component, each component many times over
    assert None not in advice.entries[1:]
    assert {e.component for e in advice.entries[1:]} == {0, 1}
    assert rounds and max(rounds.values()) <= 3 * 24 + 2, rounds


def test_echo_simulation_ahead_answers_a_shorter_prefix(monkeypatch):
    # Round-robin on (2,2): component 1's middle node 3 transmits alone in
    # base round 3, so on taus (1,1) and (2,1) the source describes it as
    # (1,1) after the same echoes. The (1,1) simulation carried from the
    # first run is ahead of the second run's script and agrees with it, so
    # it answers from its record; rebuilding it would replay 14 rounds
    # more, 22 in all.
    params = C2Params(2, 2)
    rounds = recorded_nets(monkeypatch, reductions)
    p3 = transform_chain(round_robin(params), params, 3)
    core.run(build_c2(params, TopologyVector((1, 1))), p3, 30)
    rounds.clear()
    core.run(build_c2(params, TopologyVector((2, 1))), p3, 30)
    assert sum(rounds.values()) <= 8, rounds


@pytest.mark.parametrize("make_prey", [cyclic_prey, relay_prey, lambda params: hash_prey(params, 1),
                                       lambda params: hash_prey(params, 34)],
                         ids=["cyclic", "relay", "hash-1", "hash-34"])
def test_shared_echo_simulations_match_fresh_ones(make_prey):
    # One stage-3 protocol serves every network in turn, so its echo
    # simulations meet scripts that diverge from the ones they have played.
    # In the A, B, A order hash-34's (1, 3) simulation diverges on B and
    # again on A, and is rebuilt each time, where a stale answer would show
    # in the trace; the last, shorter run on A is answered from the longer
    # script.
    params = C2Params(2, 2)
    a, b = TopologyVector((1, 3)), TopologyVector((2, 3))
    for order in ([(tv, 27) for tv in enumerate_c2(params)], [(a, 27), (b, 27), (a, 27), (a, 12)]):
        shared = transform_chain(make_prey(params), params, 3)
        for tv, rounds in order:
            net = build_c2(params, tv)
            fresh = transform_chain(make_prey(params), params, 3)
            assert core.run(net, shared, rounds) == core.run(net, fresh, rounds), (tv, rounds)
