"""``tools/ab.py``, the verdict of alternating benchmark runs per metric."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import subprocess

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "ab.py"
spec = importlib.util.spec_from_file_location("ab", TOOL)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

# ten parent runs with median 1.0 and quartiles 0.98 and 1.02 (spread 0.04)
PARENT = [0.97, 0.98, 0.98, 0.99, 1.0, 1.0, 1.01, 1.02, 1.02, 1.03]


def test_nine_wins_and_a_gap_past_the_quartiles_are_a_gain():
    change = [0.9] * 9 + [1.1]
    s = ab.summarize(PARENT, change, "lower", 0.25)
    assert (s["parent"], s["change"], s["wins"], s["verdict"]) == (1.0, 0.9, 9, "gain")
    assert round(s["spread"], 6) == 0.04
    # eight wins are not enough, however far apart the medians lie
    assert ab.summarize(PARENT, [0.5] * 8 + [2.0] * 2, "lower", 0.25)["verdict"] == "within bound"


def test_a_median_past_the_bound_is_worse():
    assert ab.summarize(PARENT, [1.3] * 10, "lower", 0.25)["verdict"] == "worse"
    assert ab.summarize(PARENT, [0.7] * 10, "higher", 0.25)["verdict"] == "worse"
    assert ab.summarize(PARENT, [1.2] * 10, "lower", 0.25)["verdict"] == "within bound"


def test_a_parent_spread_past_the_bound_is_unresolved():
    wide = [0.5, 0.6, 0.7, 0.8, 1.0, 1.0, 1.2, 1.4, 1.5, 1.6]  # spread 0.75
    assert ab.summarize(wide, [1.05] * 10, "lower", 0.25)["verdict"] == "unresolved"
    # unless every change run beats every parent run
    assert ab.summarize(wide, [0.49] * 10, "lower", 0.25)["verdict"] == "within bound"
    assert ab.summarize(wide, [1.61] * 10, "higher", 0.25)["verdict"] == "within bound"


def test_ties_count_for_neither_side():
    s = ab.summarize(PARENT, list(PARENT), "lower", 0.25)
    assert (s["wins"], s["verdict"]) == (0, "within bound")


def test_fewer_than_ten_pairs_are_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        ab.main(["parent", "change", "--workload", "pipeline", "--pairs", "9"])
    assert exc.value.code == 2
    assert "--pairs must be at least 10" in capsys.readouterr().err


@pytest.mark.parametrize("last, message", [
    ({"correct": False, "failed": 0}, "error: here: correct=false\nwhy"),
    ({"correct": True, "failed": 3}, "error: here: 3 failed operations\nwhy"),
    # a string is the raw last line: not JSON, JSON of no object, an object without metrics
    *((line, f"error: here: last line is not a result: {line}")
      for line in ("Killed", "[1, 2]", '{"correct": true, "failed": 0}')),
])
def test_a_bad_run_stops_with_its_own_message(monkeypatch, last, message):
    line = last if isinstance(last, str) else json.dumps(last)
    child = subprocess.CompletedProcess([], 0, stdout=line + "\n", stderr="why")
    monkeypatch.setattr(ab.subprocess, "run", lambda cmd, **kw: child)
    with pytest.raises(SystemExit) as exc:
        ab.run_once("here", {"command": ["python3", "perfbench/run.py"], "run_seconds": 58},
                    "pipeline")
    assert exc.value.code == message
