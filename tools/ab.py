"""Alternating A/B runs of the benchmark on two checkouts. Usage:

    python3 tools/ab.py PARENT CHANGE --workload W [--pairs N]

Each pair runs the ``command`` of ``BENCHMARK.json`` with ``--workload W
--seconds S --trace 0``, S its ``run_seconds``, once in each checkout, as
the working directory; which checkout runs first alternates from pair to
pair. There are at least 10 pairs, so that a ``gain`` can be told. A run
whose last line is not a result object, or reports ``correct`` false or
any failed operation, stops the tool with an error. It prints every run's
end-to-end metrics, then per metric of ``BENCHMARK.json``: both medians,
the change's wins out of all pairs (ties count for neither), the parent's
spread, (Q3 - Q1) / median, and a verdict from the metric's ``better`` and
``bound``:

- ``gain``: the change wins at least 9 of 10 pairs, and its median is
  better than the parent's by more than the parent's quartile distance;
- ``worse``: the change's median is worse by more than bound times the
  parent's median;
- ``unresolved``: the parent's spread exceeds the bound, unless every run
  of the change beats every run of the parent;
- ``within bound`` otherwise.

Exits 1 if any metric is ``worse``. Neither checkout is changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def run_once(checkout: str, bench: dict, workload: str) -> dict[str, float]:
    """One benchmark run in ``checkout``: its end-to-end metrics by name."""
    cmd = [*bench["command"], "--workload", workload,
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    child = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        sys.exit(f"error: {checkout}: exit code {child.returncode}\n{child.stderr}")
    try:
        result = json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"error: {checkout}: correct=false\n{child.stderr}")
        if result["failed"]:
            sys.exit(f"error: {checkout}: {result['failed']} failed operations\n{child.stderr}")
        return {name: m["value"] for name, m in result["metrics"].items()}
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError):  # not a result object
        sys.exit(f"error: {checkout}: last line is not a result: {lines[-1]}")


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Medians, wins, the parent's spread and the verdict of one metric over
    paired runs: ``parent[i]`` and ``change[i]`` form pair i."""
    def beats(a: float, b: float) -> bool:
        return a < b if better == "lower" else a > b

    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    spread = (q3 - q1) / p_med
    wins = sum(beats(c, p) for p, c in zip(parent, change))
    gap = p_med - c_med if better == "lower" else c_med - p_med  # > 0 when the change is better
    if 10 * wins >= 9 * len(parent) and gap > q3 - q1:
        verdict = "gain"
    elif -gap > bound * p_med:
        verdict = "worse"
    elif spread > bound and not all(beats(c, p) for c in change for p in parent):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {"parent": p_med, "change": c_med, "wins": wins, "spread": spread, "verdict": verdict}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 10:
        parser.error("--pairs must be at least 10")
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            metrics = run_once(getattr(args, side), bench, args.workload)
            runs[side].append(metrics)
            print(f"pair {i + 1} {side}: "
                  + " ".join(f"{k}={v:.6g}" for k, v in sorted(metrics.items())), flush=True)

    status = 0
    print(f"\n{'metric':<12} {'parent':>10} {'change':>10} {'wins':>6} {'spread':>7}  verdict")
    for spec in bench["end_to_end"]:
        name = spec["name"]
        s = summarize([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                      spec["better"], spec["bound"])
        print(f"{name:<12} {s['parent']:>10.6g} {s['change']:>10.6g} "
              f"{s['wins']:>3}/{args.pairs:<2} {s['spread']:>7.3f}  {s['verdict']}")
        status |= s["verdict"] == "worse"
    return status


if __name__ == "__main__":
    sys.exit(main())
