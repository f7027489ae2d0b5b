"""Tests of the benchmark itself: repeatable counts and digests, checks that
catch wrong output, wrappers that leave the program as they found it, and a
metric list that matches BENCHMARK.json.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run as bench  # noqa: E402
import workloads  # noqa: E402
from inputs import PreySpec, build_prey  # noqa: E402
from radiolb import C2Params, build_c2, check_legality, enumerate_c2, family_to_lines  # noqa: E402
from radiolb.cli import main as cli_main  # noqa: E402
from tracing import _ENUMERATORS, _PATCHES, Tracer  # noqa: E402

RR = PreySpec("round-robin", 0)
COUNTS = ("core.node_rounds", "reductions.replay_factor", "prune.networks_per_prune",
          "c2.enumerate_c2.networks", "selfam.subsets_checked")


def small_ops(name: str, seed: int):
    """The quick part of a workload (smallest families, budgets and lengths)
    with the operations' indices in the full list."""
    keep = {
        "pipeline": lambda op: (op.m, op.k) == (2, 3) if isinstance(op, workloads.AnalyzeOp)
        else op.base_rounds == 16,
        "selfam-search": lambda op: op.verb != "greedy" or op.n <= 10,
    }[name]
    ops = workloads.WORKLOADS[name].generate(seed)
    index = [i for i, op in enumerate(ops) if keep(op)]
    return index, [ops[i] for i in index]


def committed_digests(name: str, index: list[int]) -> list[str]:
    with open(bench.DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)["workloads"][name]
    return [digests[i] for i in index]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_repeats_counts_and_committed_digests(name):
    index, ops = small_ops(name, bench.DEFAULT_SEED)
    expected = committed_digests(name, index)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with tracer.install():
            _, digests, problems = bench.run_pass(workloads.WORKLOADS[name], ops, expected, tracer)
        assert problems == []
        assert digests == expected
        metrics = tracer.metrics()
        counts.append({k: v for k, v in metrics.items() if k.endswith(".calls") or k in COUNTS})
    assert counts[0] == counts[1]
    busiest = {
        "pipeline": ("prune.event_sequence.calls", "protocols.base_step.calls"),
        "selfam-search": ("selfam.is_selective.calls",),
    }[name]
    assert all(counts[0][layer] > 0 for layer in busiest)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_other_seed_has_no_failures(name):
    _, ops = small_ops(name, 7)
    _, _, problems = bench.run_pass(workloads.WORKLOADS[name], ops)
    assert problems == []


def test_generated_preys_are_legal():
    specs = set()
    for seed in (bench.DEFAULT_SEED, 7):
        for w in workloads.WORKLOADS.values():
            specs |= {(op.spec, op.m, op.k) for op in w.generate(seed) if hasattr(op, "spec")}
    for spec, m, k in sorted(specs, key=repr):
        params = C2Params(m, k)
        net = build_c2(params, next(enumerate_c2(params)))
        assert check_legality(build_prey(spec, params), net, 3 * params.m * params.k) == [], spec


def test_checks_catch_wrong_output():
    w = workloads.WORKLOADS["pipeline"]
    ops = [workloads.StagedOp(RR, 2, 2, (3, 1), 6, 0), workloads.StagedOp(RR, 2, 2, (3, 1), 6, 1)]
    _, digests, problems = bench.run_pass(w, ops)
    assert problems == []
    _, _, problems = bench.run_pass(w, ops, [digests[0], "00000000"])
    assert problems == ["op 1: output digest differs from the expected digest"]

    # Round-robin's stage-1 columns against the stage-0 run of a prey whose leaves ack.
    memo = {}
    w.check(ops[0], w.execute(workloads.StagedOp(PreySpec("leaf-ack", 5), 2, 2, (3, 1), 6, 0)), memo)
    assert "non-source columns differ" in w.check(ops[1], w.execute(ops[1]), memo)

    minimum = workloads.SelfamOp("min", 4, 2)
    assert workloads.WORKLOADS["selfam-search"].check(minimum, workloads.Outcome(b"", 2), {})


def test_wrappers_restore_every_attribute():
    targets = [(module, attr) for module, attr, *_ in _PATCHES] + list(_ENUMERATORS)
    originals = [getattr(module, attr) for module, attr in targets]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.install():
            assert all(getattr(m, a) is not o for (m, a), o in zip(targets, originals))
            raise RuntimeError("leave the block early")
    assert all(getattr(m, a) is o for (m, a), o in zip(targets, originals))
    assert tracer._gc_callback not in gc.callbacks


def _cli(argv) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(argv) == 0
    return out.getvalue().encode()


def test_outputs_match_the_cli_bytes(tmp_path):
    adv = workloads.WORKLOADS["pipeline"].execute(workloads.AnalyzeOp(RR, 2, 3, 3))
    assert adv.output == _cli(["adversary", "--protocol", "round-robin", "--budget", "3",
                               "--m", "2", "--k", "3"])

    staged = workloads.WORKLOADS["pipeline"].execute(workloads.StagedOp(RR, 2, 2, (3, 1), 10, 4))
    assert staged.output == _cli(["transform", "--protocol", "round-robin", "--stage", "4",
                                  "--net", "c2:m=2,k=2,taus=3,1", "--rounds", "30"])

    sel = workloads.WORKLOADS["selfam-search"]
    greedy = sel.execute(workloads.SelfamOp("greedy", 6, 2))
    assert greedy.output == _cli(["selfam", "greedy", "--n", "6", "--k", "2"])
    assert sel.execute(workloads.SelfamOp("min", 4, 3)).output == _cli(
        ["selfam", "min", "--n", "4", "--k", "3"])
    fam_file = tmp_path / "fam.txt"
    fam_file.write_text("\n".join(family_to_lines(greedy.detail)) + "\n")
    verify = sel.execute(workloads.SelfamOp("verify", 6, 3, greedy.detail))
    assert verify.output == _cli(["selfam", "verify", "--k", "3", "--family", str(fam_file)])


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(40)]
    percentile, value = bench.tail(samples)
    assert percentile == 75.0
    assert sum(s > value for s in samples) == 10


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == bench.WORKLOAD_NAMES
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(per_layer) == set(Tracer().metrics()) | {"bench.cpu_s", "bench.trace_overhead"}
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert set(end_to_end) == {"setup_s", "wall_s", "op_ms.p50", "op_ms.tail", "peak_rss_mb"}
    for name, unit in {**per_layer, **end_to_end}.items():
        assert bench.unit_of(name) == unit, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "selfam-search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert child.returncode != 0
    assert child.stdout == ""
