"""Selective families: definition checks, constructions, exact minima, bounds."""

from __future__ import annotations

import math
import time
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiolb import (
    SetFamily,
    family_from_lines,
    family_to_lines,
    global_round_bound,
    greedy_selective,
    indices_to_mask,
    is_selective,
    min_selective_size,
    size_bound,
    size_bound_in_range,
)
from radiolb.errors import UniverseTooLarge
from radiolb import selfam
from radiolb.selfam import GREEDY_PAIR_CAP


def fam(n, *sets):
    return SetFamily(n, tuple(indices_to_mask(s) for s in sets))


def test_singleton_pair_is_selective():
    ok, witness = is_selective(fam(2, {0}, {1}), 2, 2)
    assert ok and witness is None


def test_doubleton_alone_fails_with_smallest_witness():
    # {0} and {1} are each hit exactly once; the first unhit Z is {0,1},
    # which meets the doubleton in two elements.
    ok, witness = is_selective(fam(2, {0, 1}), 2, 2)
    assert not ok
    assert witness == indices_to_mask({0, 1})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_all_singletons_selective_for_every_k(n):
    singles = fam(n, *({j} for j in range(n)))
    for k in range(1, n + 1):
        assert is_selective(singles, n, k) == (True, None)


def test_universe_cap():
    with pytest.raises(UniverseTooLarge):
        is_selective(fam(20, {0}), 20, 2)


# ---------------------------------------------------------------------------
# Greedy construction
# ---------------------------------------------------------------------------

def test_greedy_small_values():
    assert len(greedy_selective(2, 2).sets) == 2
    assert len(greedy_selective(4, 4).sets) <= 4
    assert greedy_selective(1, 1).sets == (1,)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 6) for k in range(1, 6) if k <= n])
def test_greedy_always_verifies(n, k):
    g = greedy_selective(n, k)
    assert is_selective(g, n, k) == (True, None)
    assert len(g.sets) <= n  # never worse than all singletons


def set_greedy(n, k):
    """Set-based greedy: the reference the bitmask greedy must match exactly."""
    targets = [z for z in range(1, 1 << n) if bin(z).count("1") <= k]
    selects = {f: {z for z in targets if bin(z & f).count("1") == 1}
               for f in range(1, 1 << n)}
    uncovered = set(targets)
    chosen = []
    while uncovered:
        best = max(selects, key=lambda f: (len(selects[f] & uncovered), -f))
        gained = selects[best] & uncovered
        assert gained, "greedy stalled"
        chosen.append(best)
        uncovered -= gained
    return tuple(chosen)


def test_greedy_matches_set_based_reference():
    for n in range(1, 10):
        for k in range(1, n + 1):
            assert greedy_selective(n, k).sets == set_greedy(n, k), (n, k)


def test_greedy_memory_stays_small():
    # one int per candidate; a Python set per candidate would take about 9.5 MB
    tracemalloc.start()
    try:
        greedy_selective(12, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("n,k,pairs", [(16, 16, 65535 * 65535), (13, 13, 8191 * 8191),
                                       (16, 3, 65535 * 696)])
def test_greedy_refuses_a_table_above_the_pair_cap_at_once(n, k, pairs):
    start = time.perf_counter()
    with pytest.raises(UniverseTooLarge) as err:
        greedy_selective(n, k)
    assert time.perf_counter() - start < 1.0
    assert str(err.value) == (
        f"greedy over n={n}, k={k} tests {pairs} (f, Z) pairs, cap is {GREEDY_PAIR_CAP}")


def test_greedy_pair_cap_admits_a_table_of_exactly_its_size(monkeypatch):
    # (4,2) pairs 15 sets f with 10 targets Z; (12,12), at 4095 * 4095,
    # is the largest n = k table under the real cap
    monkeypatch.setattr(selfam, "GREEDY_PAIR_CAP", 150)
    assert is_selective(greedy_selective(4, 2), 4, 2) == (True, None)
    monkeypatch.setattr(selfam, "GREEDY_PAIR_CAP", 149)
    with pytest.raises(UniverseTooLarge):
        greedy_selective(4, 2)
    assert 4095 * 4095 <= GREEDY_PAIR_CAP < 8191 * 8191


# ---------------------------------------------------------------------------
# Exact minimum: cross-checked against a plain combinations search
# ---------------------------------------------------------------------------

def brute_min(n, k):
    targets = [z for z in range(1, 1 << n) if bin(z).count("1") <= k]
    candidates = list(range(1, 1 << n))
    for size in range(1, n + 1):
        for family in combinations(candidates, size):
            if all(
                any(bin(z & f).count("1") == 1 for f in family) for z in targets
            ):
                return size
    raise AssertionError("unreachable: singletons always work")


def test_min_selective_size_pinned_values():
    assert min_selective_size(1, 1) == 1
    assert min_selective_size(2, 2) == 2
    # Z = {0,1,2} forces a singleton member, whose complement cannot be
    # handled by one further set, so two sets never suffice at (3,3).
    m33 = min_selective_size(3, 3)
    assert m33 >= math.log2(3)
    assert m33 <= 3
    assert m33 == 3


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 2), (4, 4)])
def test_min_matches_brute_force(n, k):
    assert min_selective_size(n, k) == brute_min(n, k)


def test_min_universe_cap():
    with pytest.raises(UniverseTooLarge):
        min_selective_size(6, 2)


def test_min_never_exceeds_greedy():
    for n in range(1, 5):
        for k in range(1, n + 1):
            assert min_selective_size(n, k) <= len(greedy_selective(n, k).sets)


# ---------------------------------------------------------------------------
# Downward closure: (n,k)-selective implies (n,k')-selective for k' <= k.
# Exhaustive over every family of subsets of [n] for n <= 4, using an
# independently-coded hit table.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_downward_closure_exhaustive(n):
    subsets = list(range(1, 1 << n))
    hits = {
        f: {z for z in subsets if bin(z & f).count("1") == 1} for f in subsets
    }
    for family_bits in range(1, 1 << len(subsets)):
        family = [subsets[i] for i in range(len(subsets)) if (family_bits >> i) & 1]
        covered = set()
        for f in family:
            covered |= hits[f]
        selective_at = []
        for k in range(1, n + 1):
            targets = {z for z in subsets if bin(z).count("1") <= k}
            selective_at.append(targets <= covered)
            sf = SetFamily(n, tuple(family))
            assert is_selective(sf, n, k)[0] == (targets <= covered)
        # monotone: once selectivity fails at k, it fails at every larger k
        for small, big in zip(selective_at, selective_at[1:]):
            assert small or not big


@given(st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=60, deadline=None)
def test_downward_closure_random_families(n, data):
    sets = data.draw(
        st.lists(st.integers(min_value=1, max_value=(1 << n) - 1), max_size=6)
    )
    sf = SetFamily(n, tuple(sets))
    for k in range(n, 1, -1):
        if is_selective(sf, n, k)[0]:
            assert is_selective(sf, n, k - 1)[0]


# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------

def test_size_bound_values():
    assert size_bound(128, 2) == 0.5
    assert abs(size_bound(2**20, 2**10) - 2**10 * 10 / 24) < 1e-9
    assert size_bound_in_range(128, 2)
    assert not size_bound_in_range(128, 3)  # k > n/64
    assert not size_bound_in_range(2, 2)


def test_size_bound_consistent_with_exact_minimum():
    # Desk-scale (n,k) never fall inside the bound's stated range, so this
    # can only be checked vacuously: wherever the range predicate holds,
    # the formula must stay below the exact minimum.
    for n in range(2, 5):
        for k in range(1, n + 1):
            if size_bound_in_range(n, k):
                assert min_selective_size(n, k) >= math.ceil(size_bound(n, k))


def test_global_round_bound():
    assert global_round_bound(1536**2) == 1
    assert global_round_bound(4 * 1536**2) == 2
    assert global_round_bound(1) == 1
    assert global_round_bound(1536**2 + 1) == 2


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def test_family_file_round_trip():
    sf = fam(4, {0, 2}, {1}, set(), {3})
    lines = family_to_lines(sf)
    assert lines[0] == "n=4"
    assert family_from_lines(lines) == sf


def test_family_file_rejects_out_of_universe():
    with pytest.raises(ValueError):
        family_from_lines(["n=2", "0,5"])
    with pytest.raises(ValueError):
        family_from_lines(["2", "0"])


def test_family_file_parse_errors_name_line_and_format():
    with pytest.raises(ValueError, match=r"^family file line 1: expected 'n=<n>', got 'n=abc'$"):
        family_from_lines(["n=abc"])
    with pytest.raises(ValueError, match=r"^family file line 3: expected comma-separated indices"):
        family_from_lines(["n=2", "0", "a,b"])
