"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines on a passing run; on failure the line is shown by pytest either way.

Round-accounting note for criterion 2: a base round d is re-enacted across
rounds 3d..3d+2, so the staged delivery that completes broadcast lands
inside that window of round indices, and staged completion_round equals
3c - 1 for a base completion_round of c (never more than the 3c budget).
The window below is asserted on informed-round indices, where the 3d..3d+2
form is exact.
"""

from __future__ import annotations

import random
import time
from itertools import combinations

from radiolb import (
    INACTIVE,
    LISTEN,
    PHI,
    BroadcastPayload,
    C2Params,
    Network,
    Opaque,
    Received,
    SetFamily,
    Transmit,
    build_c2,
    completion_round,
    cross_check,
    enumerate_c2,
    find_witness,
    global_round_bound,
    greedy_selective,
    is_selective,
    last_informed_round,
    make_advice,
    membership,
    min_selective_size,
    round_robin,
    run,
    run_prune,
    selfam_driven,
    silent_l1,
    size_bound,
    step_round,
    to_pi1,
    to_pi2,
    to_pi3,
    to_pi4,
)
from radiolb.cli import main as cli_main

FAMILIES = [C2Params(1, 2), C2Params(2, 2), C2Params(2, 3)]


def prey_protocols(params):
    singles = SetFamily(params.k, tuple(1 << j for j in range(params.k)))
    return [round_robin(params), silent_l1(params), selfam_driven(params, singles)]


def report(number: int, description: str, violations: list, elapsed: float | None = None) -> None:
    status = "PASS" if not violations else "FAIL"
    suffix = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"criterion {number} [{status}]: {description}{suffix}")
    assert not violations, violations[:10]


def test_criterion_1_collision_model_conformance():
    rng = random.Random(20240831)
    messages = [BroadcastPayload(), Opaque(b"a"), Opaque(b"b")]
    violations = []
    start = time.perf_counter()
    for case in range(120):
        n = rng.randint(2, 8)
        labels = list(range(n))
        edges = [
            (a, b)
            for a in labels
            for b in labels
            if a < b and rng.random() < 0.45
        ]
        net = Network(labels, edges, require_connected=False)
        actions = {}
        for x in labels:
            roll = rng.random()
            if roll < 0.45:
                actions[x] = Transmit(rng.choice(messages))
            elif roll < 0.55:
                actions[x] = INACTIVE
            else:
                actions[x] = LISTEN
        rec = step_round(net, actions, 0)
        # independent statement of the rule: deliver iff listener with
        # exactly one transmitting neighbor
        for x in labels:
            talkers = [v for v in net.neighbors(x) if isinstance(actions[v], Transmit)]
            listening = isinstance(actions[x], type(LISTEN))
            expected = (
                Received(talkers[0], actions[talkers[0]].message)
                if listening and len(talkers) == 1
                else PHI
            )
            if rec.deliveries[x] != expected:
                violations.append(f"case {case}: delivery mismatch at {x}")
            if (x in rec.collided_receivers) != (listening and len(talkers) >= 2):
                violations.append(f"case {case}: collision flag mismatch at {x}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        violations.append(f"took {elapsed:.2f}s, budget 1s")
    report(1, "engine matches brute-force collision rule on 120 random graphs", violations, elapsed)


def test_criterion_2_reduction_equivalence_ladder():
    violations = []
    start = time.perf_counter()
    for params in FAMILIES:
        base_horizon = params.m * params.k + 2
        for p0 in prey_protocols(params):
            p1 = to_pi1(p0, params)
            p2 = to_pi2(p1)
            p3 = to_pi3(p2)
            p4 = to_pi4(p3)
            for tv in enumerate_c2(params):
                net = build_c2(params, tv)
                base = run(net, p0, base_horizon)
                c = completion_round(base)
                d = last_informed_round(base)
                for stage, ps in enumerate((p1, p2, p3, p4), start=1):
                    staged = run(net, ps, 3 * base_horizon)
                    cs = completion_round(staged)
                    if c is None:
                        if cs is not None:
                            violations.append(
                                f"{p0.name}/{params}/{tv.taus} stage {stage}: "
                                f"base incomplete, staged completed at {cs}"
                            )
                        continue
                    ds = last_informed_round(staged)
                    if cs is None or not (3 * d <= ds <= 3 * d + 2) or cs > 3 * c:
                        violations.append(
                            f"{p0.name}/{params}/{tv.taus} stage {stage}: "
                            f"c={c} d={d} cs={cs} ds={ds}"
                        )
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        violations.append(f"took {elapsed:.2f}s, budget 30s")
    report(2, "staged completions land in the re-enactment window on 61 networks x 3 preys", violations, elapsed)


def test_criterion_3_prune_uniformity_and_marking():
    violations = []
    start = time.perf_counter()
    for params in FAMILIES:
        vectors = list(enumerate_c2(params))
        for p0 in prey_protocols(params):
            p3 = to_pi3(to_pi2(to_pi1(p0, params)))
            for r in (2, 3, 4):
                pr = run_prune(p3, r)
                if len(pr.marked) > 2 * (r - 1):
                    violations.append(f"{p0.name}/{params}/r={r}: marked too large")
                survivors = set(pr.survivors)
                if pr.base_net not in survivors:
                    violations.append(f"{p0.name}/{params}/r={r}: base not a survivor")
                for tv in pr.survivors:
                    if make_advice(p3, build_c2(params, tv), r) != pr.advice:
                        violations.append(
                            f"{p0.name}/{params}/r={r}: advice differs on {tv.taus}"
                        )
                for tv in vectors:
                    agrees = all(tv.taus[i] == pr.base_net.taus[i] for i in pr.marked)
                    if agrees and tv not in survivors:
                        violations.append(
                            f"{p0.name}/{params}/r={r}: {tv.taus} agrees on marked "
                            "components but was pruned"
                        )
                    if agrees and not membership(p3, tv, pr):
                        violations.append(
                            f"{p0.name}/{params}/r={r}: membership rejects {tv.taus}"
                        )
    elapsed = time.perf_counter() - start
    report(3, "survivors share events+advice; marking guarantee exhaustive; bound holds", violations, elapsed)


def test_criterion_4_adversary_soundness():
    violations = []
    start = time.perf_counter()

    for params in FAMILIES:
        for p0 in prey_protocols(params):
            for budget in range(1, params.m * params.k + 3):
                w = find_witness(p0, budget, params)
                if w is not None and not (w.verified and cross_check(p0, w, params)):
                    violations.append(f"{p0.name}/{params}/budget={budget}: unsound witness")

    params24 = C2Params(2, 4)
    w = find_witness(round_robin(params24), 1, params24)
    if w is None or not w.verified:
        violations.append("round-robin at (2,4) budget 1: expected a verified witness")

    params22 = C2Params(2, 2)
    budget = 2 * params22.k + 2
    if find_witness(round_robin(params22), budget, params22) is not None:
        violations.append(f"round-robin at (2,2) budget {budget}: expected none")
    for tv in enumerate_c2(params22):
        trace = run(build_c2(params22, tv), round_robin(params22), budget)
        if completion_round(trace) is None:
            violations.append(f"direct run incomplete on {tv.taus} at budget {budget}")
    elapsed = time.perf_counter() - start
    report(4, "every witness cross-checks; pinned budgets behave as required", violations, elapsed)


def test_criterion_5_selective_family_scaffolding():
    violations = []
    start = time.perf_counter()

    def brute_min(n, k):
        targets = [z for z in range(1, 1 << n) if bin(z).count("1") <= k]
        for size in range(1, n + 1):
            for family in combinations(range(1, 1 << n), size):
                if all(any(bin(z & f).count("1") == 1 for f in family) for z in targets):
                    return size
        return n

    for (n, k), expected in (((2, 2), 2), ((1, 1), 1)):
        got = min_selective_size(n, k)
        if got != expected or got != brute_min(n, k):
            violations.append(f"min_selective_size({n},{k}) = {got}")

    for n in range(1, 5):
        subsets = list(range(1, 1 << n))
        hits = {f: {z for z in subsets if bin(z & f).count("1") == 1} for f in subsets}
        for family_bits in range(1, 1 << len(subsets)):
            family = tuple(subsets[i] for i in range(len(subsets)) if (family_bits >> i) & 1)
            covered = set()
            for f in family:
                covered |= hits[f]
            previous = True
            for k in range(1, n + 1):
                targets = {z for z in subsets if bin(z).count("1") <= k}
                selective = targets <= covered
                if is_selective(SetFamily(n, family), n, k)[0] != selective:
                    violations.append(f"is_selective disagrees at n={n} fam={family} k={k}")
                if selective and not previous:
                    violations.append(f"downward closure broken at n={n} fam={family} k={k}")
                previous = selective

    for n in range(1, 6):
        for k in range(1, n + 1):
            if is_selective(greedy_selective(n, k), n, k) != (True, None):
                violations.append(f"greedy({n},{k}) does not verify")

    if size_bound(128, 2) != 0.5:
        violations.append(f"size_bound(128,2) = {size_bound(128, 2)}")
    if global_round_bound(1536**2) != 1:
        violations.append(f"global_round_bound(1536^2) = {global_round_bound(1536**2)}")
    elapsed = time.perf_counter() - start
    report(5, "exact minima, downward closure, greedy verification, bound formulas", violations, elapsed)


def test_criterion_6_determinism_goldens(capsys, tmp_path):
    violations = []
    invocations = [
        ["simulate", "--net", "c2:m=1,k=1,taus=1", "--protocol", "round-robin", "--rounds", "3"],
        ["simulate", "--net", "c2:m=2,k=3,taus=5,2", "--protocol", "round-robin", "--rounds", "8"],
        ["enumerate", "--m", "2", "--k", "2"],
        ["transform", "--protocol", "round-robin", "--stage", "4", "--net", "c2:m=1,k=2,taus=3", "--rounds", "9"],
        ["prune", "--protocol", "round-robin", "--rounds", "3", "--m", "2", "--k", "2"],
        ["adversary", "--protocol", "round-robin", "--budget", "1", "--m", "2", "--k", "4"],
        ["adversary", "--protocol", "round-robin", "--budget", "6", "--m", "2", "--k", "2"],
        ["selfam", "min", "--n", "2", "--k", "2"],
        ["selfam", "bound", "--n", "128", "--k", "2"],
        ["selfam", "greedy", "--n", "4", "--k", "2"],
    ]
    for argv in invocations:
        runs = []
        for _ in range(2):
            code = cli_main(list(argv))
            out = capsys.readouterr().out
            runs.append((code, out.encode("utf-8")))
        if runs[0] != runs[1]:
            violations.append(f"non-deterministic output: {argv}")
        if runs[0][0] != 0:
            violations.append(f"nonzero exit: {argv}")

    # trace files must also be byte-identical across runs
    paths = [tmp_path / "t1.jsonl", tmp_path / "t2.jsonl"]
    for path in paths:
        cli_main(
            ["simulate", "--net", "c2:m=2,k=2,taus=3,1", "--protocol", "round-robin",
             "--rounds", "6", "--trace", str(path)]
        )
        capsys.readouterr()
    if paths[0].read_bytes() != paths[1].read_bytes():
        violations.append("trace files differ between runs")
    report(6, "byte-identical CLI output and trace files across reruns", violations)
