"""CLI behavior: outputs, exit codes, and byte-for-byte determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from radiolb.cli import main


def invoke(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_simulate_reports_completion(capsys):
    code, out, err = invoke(
        capsys, "simulate", "--net", "c2:m=1,k=1,taus=1",
        "--protocol", "round-robin", "--rounds", "3",
    )
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["completion"] == 2
    assert report["net"] == "c2:m=1,k=1,taus=1"


def test_simulate_writes_trace_file(capsys, tmp_path):
    trace_file = tmp_path / "trace.jsonl"
    code, out, _ = invoke(
        capsys, "simulate", "--net", "c2:m=1,k=2,taus=3",
        "--protocol", "round-robin", "--rounds", "3", "--trace", str(trace_file),
    )
    assert code == 0
    lines = trace_file.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0])["round"] == 0


def test_simulate_accepts_network_file(capsys, tmp_path):
    net_file = tmp_path / "net.txt"
    net_file.write_text("c2:m=1,k=1,taus=1\n", encoding="utf-8")
    code, out, _ = invoke(
        capsys, "simulate", "--net", str(net_file),
        "--protocol", "silent", "--rounds", "2",
    )
    assert code == 0
    assert json.loads(out)["completion"] is None


def test_enumerate_lists_the_family(capsys):
    code, out, _ = invoke(capsys, "enumerate", "--m", "2", "--k", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 9
    assert lines[0] == "c2:m=2,k=2,taus=1,1"
    assert lines[-1] == "c2:m=2,k=2,taus=3,3"


def test_transform_stage4_emits_trace_and_advice(capsys):
    code, out, _ = invoke(
        capsys, "transform", "--protocol", "round-robin", "--stage", "4",
        "--net", "c2:m=1,k=2,taus=3", "--rounds", "9",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 10  # 9 trace rounds + report
    report = json.loads(lines[-1])
    assert report["advice"] == "adv:phi,0:3"
    assert report["completion"] == 5


def test_prune_report(capsys):
    code, out, _ = invoke(
        capsys, "prune", "--protocol", "round-robin", "--rounds", "3",
        "--m", "2", "--k", "2",
    )
    assert code == 0
    assert json.loads(out) == {
        "advice": "adv:phi,0:1",
        "base": "c2:m=2,k=2,taus=1,1",
        "free_component": 1,
        "marked": [0],
        "survivors": 3,
    }


def test_adversary_witness_report(capsys):
    code, out, _ = invoke(
        capsys, "adversary", "--protocol", "round-robin", "--budget", "2",
        "--m", "2", "--k", "4",
    )
    assert code == 0
    lines = out.splitlines()
    assert json.loads(lines[0]) == {
        "budget": 2,
        "network": "c2:m=2,k=4,taus=2,1",
        "verified": True,
        "z": [1],
    }
    # derived family dump, one set per round: only base round 1 fired (index 0)
    assert lines[1:] == ["n=4", "", "0"]


def test_adversary_family_lines_certify_the_witness(capsys, tmp_path):
    # The sets printed after every pipeline witness in the CLI goldens are
    # a certificate: selfam verify on them names the witness's z as the
    # first subset no set selects.
    goldens = Path(__file__).with_name("cli_goldens.jsonl").read_text(encoding="utf-8")
    fam_file = tmp_path / "fam.txt"
    certified = 0
    for record in map(json.loads, goldens.splitlines()):
        argv, lines = record["argv"], record["stdout"].splitlines()
        if argv[0] != "adversary" or len(lines) < 2:
            continue
        fam_file.write_text("\n".join(lines[1:]) + "\n", encoding="utf-8")
        k = argv[argv.index("--k") + 1]
        code, out, err = invoke(capsys, "selfam", "verify", "--k", k, "--family", str(fam_file))
        verdict = {"selective": False, "witness": json.loads(lines[0])["z"]}
        want = json.dumps(verdict, sort_keys=True, separators=(",", ":")) + "\n"
        assert (code, out, err) == (0, want, ""), argv
        certified += 1
    assert certified == 21


def test_adversary_none_is_success(capsys):
    code, out, _ = invoke(
        capsys, "adversary", "--protocol", "round-robin", "--budget", "6",
        "--m", "2", "--k", "2",
    )
    assert code == 0
    assert out == "none\n"


def test_selfam_verbs(capsys, tmp_path):
    code, out, _ = invoke(capsys, "selfam", "min", "--n", "2", "--k", "2")
    assert (code, out) == (0, "2\n")

    code, out, _ = invoke(capsys, "selfam", "bound", "--n", "128", "--k", "2")
    assert code == 0
    assert json.loads(out) == {"in_range": True, "value": 0.5}

    code, out, _ = invoke(capsys, "selfam", "bound", "--n", str(1536**2))
    assert json.loads(out) == {"rounds": 1}

    code, out, _ = invoke(capsys, "selfam", "greedy", "--n", "3", "--k", "2")
    assert code == 0
    fam_file = tmp_path / "fam.txt"
    fam_file.write_text(out, encoding="utf-8")

    code, out, _ = invoke(
        capsys, "selfam", "verify", "--k", "2", "--family", str(fam_file)
    )
    assert code == 0
    assert json.loads(out)["selective"] is True

    bad = tmp_path / "bad.txt"
    bad.write_text("n=2\n0,1\n", encoding="utf-8")
    code, out, _ = invoke(capsys, "selfam", "verify", "--k", "2", "--family", str(bad))
    assert code == 0
    assert json.loads(out) == {"selective": False, "witness": [0, 1]}


def test_domain_errors_exit_one(capsys):
    code, _, err = invoke(
        capsys, "simulate", "--net", "c2:m=1,k=1,taus=0",
        "--protocol", "round-robin", "--rounds", "2",
    )
    assert code == 1 and "error" in err

    code, _, err = invoke(
        capsys, "simulate", "--net", "c2:m=1,k=1,taus=1",
        "--protocol", "no-such", "--rounds", "2",
    )
    assert code == 1


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--net", "c2:m=1,k=1,taus=1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["selfam", "verify", "--k", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_byte_identical_reruns(capsys, tmp_path):
    invocations = [
        ("simulate", "--net", "c2:m=2,k=2,taus=3,1", "--protocol", "round-robin", "--rounds", "6"),
        ("prune", "--protocol", "round-robin", "--rounds", "4", "--m", "2", "--k", "2"),
        ("adversary", "--protocol", "silent", "--budget", "2", "--m", "2", "--k", "2"),
        ("selfam", "greedy", "--n", "4", "--k", "3"),
        ("enumerate", "--m", "1", "--k", "3"),
        ("transform", "--protocol", "silent", "--stage", "2", "--net", "c2:m=1,k=2,taus=2", "--rounds", "6"),
    ]
    for argv in invocations:
        first = invoke(capsys, *argv)
        second = invoke(capsys, *argv)
        assert first == second
        assert first[0] == 0

    t1, t2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for target in (t1, t2):
        invoke(
            capsys, "simulate", "--net", "c2:m=2,k=3,taus=5,2",
            "--protocol", "round-robin", "--rounds", "8", "--trace", str(target),
        )
    assert t1.read_bytes() == t2.read_bytes()


@pytest.mark.parametrize("command", ["simulate", "transform", "prune", "adversary"])
def test_negative_rounds_are_a_usage_error(command, capsys):
    # simulate and transform accept 0 rounds; prune and adversary need at least 1
    flag = "--budget" if command == "adversary" else "--rounds"
    lows = ["-3"] if command in ("simulate", "transform") else ["-3", "0"]
    where = (["--m", "1", "--k", "1"] if command in ("prune", "adversary")
             else ["--net", "c2:m=1,k=1,taus=1"])
    for low in lows:
        argv = [command, "--protocol", "round-robin", flag, low] + where
        argv += ["--stage", "1"] if command == "transform" else []
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["greedy", "min", "bound"])
def test_selfam_search_rejects_k_outside_one_to_n(verb, capsys):
    for k in ("0", "4"):
        code, out, err = invoke(capsys, "selfam", verb, "--n", "3", "--k", k)
        assert (code, out) == (1, "")
        assert err == f"error: need 1 <= k <= n, got k={k}, n=3\n"


def test_bad_family_header_names_the_format(capsys, tmp_path):
    fam_file = tmp_path / "fam.txt"
    fam_file.write_text("n=abc\n0\n", encoding="utf-8")
    code, out, err = invoke(capsys, "selfam", "verify", "--k", "1", "--family", str(fam_file))
    assert (code, out) == (1, "")
    assert err == "error: family file line 1: expected 'n=<n>', got 'n=abc'\n"


def test_bad_enumeration_cap_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("RADIOLB_ENUM_CAP", "abc")
    code, out, err = invoke(capsys, "enumerate", "--m", "1", "--k", "1")
    assert (code, out) == (1, "")
    assert err == "error: RADIOLB_ENUM_CAP must be an integer, got 'abc'\n"


def test_unknown_protocol_is_quoted_once(capsys):
    code, out, err = invoke(
        capsys, "simulate", "--net", "c2:m=1,k=1,taus=1", "--protocol", "nope", "--rounds", "2",
    )
    assert (code, out) == (1, "")
    assert err == "error: unknown protocol 'nope'\n"


def test_adversary_refuses_a_z_sweep_above_the_universe_cap(capsys):
    # 131,071 networks fit the enumeration cap, but 2^17 - 1 subsets Z do
    # not; from budget 2 on, pruning would first run every network's
    # components, so the refusal comes before it
    for budget in ("1", "2"):
        code, out, err = invoke(
            capsys, "adversary", "--m", "1", "--k", "17", "--protocol", "silent", "--budget", budget,
        )
        assert (code, out) == (1, "")
        assert err == "error: Z-sweep over a universe of 17 exceeds cap 16\n"


def test_selfam_greedy_refuses_a_table_above_the_pair_cap(capsys):
    start = time.perf_counter()
    code, out, err = invoke(capsys, "selfam", "greedy", "--n", "16", "--k", "16")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "")
    assert err == "error: greedy over n=16, k=16 tests 4294836225 (f, Z) pairs, cap is 16777216\n"


def test_unreadable_networks_exit_one(capsys, tmp_path):
    missing, empty = tmp_path / "nofile", tmp_path / "empty.txt"
    empty.write_text("\n  \n", encoding="utf-8")
    for net, message in ((missing, f"--net {str(missing)!r} is neither a c2 encoding nor a file"),
                         (empty, f"network file {str(empty)!r} is empty")):
        code, out, err = invoke(
            capsys, "simulate", "--net", str(net), "--protocol", "silent", "--rounds", "2",
        )
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"


def test_selfam_verify_n_must_match_the_family(capsys, tmp_path):
    fam_file = tmp_path / "fam.txt"
    fam_file.write_text("n=2\n0\n1\n", encoding="utf-8")
    code, out, err = invoke(
        capsys, "selfam", "verify", "--n", "3", "--k", "1", "--family", str(fam_file),
    )
    assert (code, out) == (1, "")
    assert err == "error: --n 3 disagrees with family universe 2\n"


@pytest.mark.parametrize("argv, message", [
    (["greedy", "--n", "3"], "selfam greedy requires --n and --k"),
    (["bound", "--k", "2"], "selfam bound requires --n"),
    (["verify", "--family", "fam.txt"], "selfam verify requires --k"),
])
def test_selfam_missing_options_are_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selfam", *argv])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"radiolb: error: {message}\n")


@pytest.mark.parametrize("argv, code, out, err_tail", [
    (["selfam", "min", "--n", "5", "--k", "5"], 0, "5\n", []),
    (["adversary", "--protocol", "round-robin", "--budget", "0", "--m", "1", "--k", "1"], 2, "",
     ["radiolb: error: --budget must be >= 1, got 0"]),
])
def test_module_entry_point(argv, code, out, err_tail):
    # `python -m radiolb` in a child process; err_tail is stderr's last line, if any
    src = Path(__file__).resolve().parents[1] / "src"
    child = subprocess.run([sys.executable, "-m", "radiolb", *argv], capture_output=True,
                           text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert (child.returncode, child.stdout) == (code, out)
    assert child.stderr.splitlines()[-1:] == err_tail
