"""CLI outputs pinned byte for byte against recorded goldens.

``cli_goldens.jsonl`` holds one record per invocation below: its argv, exit
code, stdout and stderr, and the bytes of any file it writes. The
invocations are the README's CLI block, ``transform`` at every stage on two
networks at 0, 1, 4 and 9 rounds, and ``prune`` and ``adversary`` on the
(2,3) and (3,2) families at budgets 1-5.

A change that is meant to alter an output regenerates the file with
``python tests/test_cli_goldens.py`` (with ``src`` on ``PYTHONPATH``) and
says so; every other change must leave it matching.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

from radiolb.cli import main

GOLDENS = Path(__file__).with_name("cli_goldens.jsonl")

# (argv, file the stdout is redirected to or None); "{dir}" is a scratch
# directory shared by one pass over the list, in order.
README = [
    (["simulate", "--net", "c2:m=1,k=1,taus=1", "--protocol", "round-robin", "--rounds", "3"], None),
    (["simulate", "--net", "c2:m=2,k=2,taus=3,1", "--protocol", "round-robin", "--rounds", "6",
      "--trace", "{dir}/out.jsonl"], None),
    (["enumerate", "--m", "2", "--k", "2"], None),
    (["transform", "--protocol", "round-robin", "--stage", "4", "--net", "c2:m=1,k=2,taus=3",
      "--rounds", "9"], None),
    (["prune", "--protocol", "round-robin", "--rounds", "3", "--m", "2", "--k", "2"], None),
    (["adversary", "--protocol", "round-robin", "--budget", "1", "--m", "2", "--k", "4"], None),
    (["adversary", "--protocol", "round-robin", "--budget", "6", "--m", "2", "--k", "2"], None),
    (["selfam", "min", "--n", "2", "--k", "2"], None),
    (["selfam", "greedy", "--n", "4", "--k", "2"], "fam.txt"),
    (["selfam", "verify", "--k", "2", "--family", "{dir}/fam.txt"], None),
    (["selfam", "bound", "--n", "128", "--k", "2"], None),
    (["selfam", "bound", "--n", "2359296"], None),
]
TRANSFORM = [
    (["transform", "--protocol", proto, "--stage", str(stage), "--net", net, "--rounds", str(rounds)],
     None)
    for proto in ("round-robin", "silent")
    for net in ("c2:m=1,k=2,taus=3", "c2:m=2,k=3,taus=5,2")
    for stage in (1, 2, 3, 4)
    for rounds in (0, 1, 4, 9)
]
ANALYSIS = [
    ([verb, "--protocol", proto, flag, str(r), "--m", str(m), "--k", str(k)], None)
    for verb, flag in (("prune", "--rounds"), ("adversary", "--budget"))
    for proto in ("round-robin", "silent")
    for m, k in ((2, 3), (3, 2))
    for r in range(1, 6)
]
INVOCATIONS = README + TRANSFORM + ANALYSIS


def play(argv: list[str], stdout_to: str | None, workdir: Path) -> dict:
    """Run one invocation in-process and record what it printed and wrote."""
    before = set(workdir.iterdir())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([a.replace("{dir}", str(workdir)) for a in argv])
        except SystemExit as exc:
            code = exc.code
    if stdout_to is not None:
        (workdir / stdout_to).write_text(out.getvalue(), encoding="utf-8")
    written = {p.name: p.read_text(encoding="utf-8")
               for p in sorted(set(workdir.iterdir()) - before) if p.name != stdout_to}
    record = {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if written:
        record["files"] = written
    return record


def record_all(workdir: Path) -> list[dict]:
    return [play(argv, stdout_to, workdir) for argv, stdout_to in INVOCATIONS]


def test_cli_outputs_match_the_goldens(tmp_path):
    want = [json.loads(line) for line in GOLDENS.read_text(encoding="utf-8").splitlines()]
    got = record_all(tmp_path)
    assert [g["argv"] for g in got] == [w["argv"] for w in want]
    for g, w in zip(got, want):
        assert g == w, " ".join(g["argv"])


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        records = record_all(Path(tmp))
    GOLDENS.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records),
                       encoding="utf-8")
    print(f"wrote {len(records)} goldens to {GOLDENS}", file=sys.stderr)
