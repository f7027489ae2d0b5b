"""Selective set families: verification, constructions, exact minima, bounds.

A family F of subsets of [n] is (n,k)-selective when every nonempty subset
Z of [n] with |Z| <= k is hit exactly once by some member of F, i.e. there
is an F_j with |Z & F_j| = 1.

Subsets of [n] are represented as bitmasks. Wherever a canonical scan order
is needed (failure witnesses, searches) subsets are visited in ascending
bitmask order, which is deterministic and total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from .errors import UniverseTooLarge

# Exhaustive subset scans are exponential; fail fast beyond these.
SELECTIVITY_UNIVERSE_CAP = 16
MIN_SEARCH_UNIVERSE_CAP = 5

ROUND_BOUND_DIVISOR = 1536


@dataclass(frozen=True)
class SetFamily:
    """Ordered family of subsets of [universe), each a bitmask."""

    universe: int
    sets: tuple[int, ...]

    def members(self, index: int) -> tuple[int, ...]:
        return mask_to_indices(self.sets[index])


def mask_to_indices(mask: int) -> tuple[int, ...]:
    return tuple(j for j in range(mask.bit_length()) if (mask >> j) & 1)


def indices_to_mask(indices) -> int:
    mask = 0
    for j in indices:
        mask |= 1 << j
    return mask


def _check_universe(n: int, k: int, cap: int) -> None:
    if n > cap:
        raise UniverseTooLarge(f"universe {n} exceeds cap {cap}")
    if n < 1:
        raise ValueError("universe must be positive")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")


def _targets(n: int, k: int) -> list[int]:
    return [z for z in range(1, 1 << n) if bin(z).count("1") <= k]


def is_selective(fam: SetFamily, n: int, k: int) -> tuple[bool, int | None]:
    """Check (n,k)-selectivity; on failure also return the first unhit Z.

    The witness is the smallest failing subset in ascending bitmask order.
    """
    _check_universe(n, k, SELECTIVITY_UNIVERSE_CAP)
    for z in _targets(n, k):
        if not any(bin(z & f).count("1") == 1 for f in fam.sets):
            return False, z
    return True, None


def greedy_selective(n: int, k: int) -> SetFamily:
    """Greedy upper-bound construction: always passes is_selective."""
    _check_universe(n, k, SELECTIVITY_UNIVERSE_CAP)
    targets = _targets(n, k)
    selects = {f: {z for z in targets if bin(z & f).count("1") == 1}
               for f in range(1, 1 << n)}
    uncovered = set(targets)
    chosen: list[int] = []
    while uncovered:
        # Ties break toward the smaller mask so the result is canonical.
        best = max(selects, key=lambda f: (len(selects[f] & uncovered), -f))
        gained = selects[best] & uncovered
        if not gained:
            raise AssertionError("greedy stalled; universe unsatisfiable")
        chosen.append(best)
        uncovered -= gained
    return SetFamily(n, tuple(chosen))


def min_selective_size(n: int, k: int) -> int:
    """Exact minimum family size by iterative-deepening exhaustive search.

    Families are unordered for this purpose, so candidates are combinations;
    a coverage bound prunes branches that cannot finish in the remaining
    depth.
    """
    _check_universe(n, k, MIN_SEARCH_UNIVERSE_CAP)
    targets = _targets(n, k)
    target_bit = {z: 1 << i for i, z in enumerate(targets)}
    full = (1 << len(targets)) - 1
    candidates = list(range(1, 1 << n))
    select_mask = {}
    for f in candidates:
        bits = 0
        for z in targets:
            if bin(z & f).count("1") == 1:
                bits |= target_bit[z]
        select_mask[f] = bits
    best_single = max(bin(b).count("1") for b in select_mask.values())

    def covers(depth: int, covered: int, start: int) -> bool:
        if covered == full:
            return True
        if depth == 0:
            return False
        remaining = bin(full & ~covered).count("1")
        if remaining > depth * best_single:
            return False
        for i in range(start, len(candidates)):
            f = candidates[i]
            add = select_mask[f] & ~covered
            if not add:
                continue
            if covers(depth - 1, covered | select_mask[f], i + 1):
                return True
        return False

    size = 1
    while not covers(size, 0, 0):
        size += 1
    return size


def size_bound(n: int, k: int) -> float:
    """Lower-bound formula k/24 * log2(n/k) for the minimum family size."""
    return k / 24 * math.log2(n / k)


def size_bound_in_range(n: int, k: int) -> bool:
    """Whether (n,k) is in the range where the lower bound is established."""
    return n > 2 and 2 <= k <= n / 64


def global_round_bound(n: int) -> int:
    """ceil(sqrt(n)/1536), the headline round lower bound; report only."""
    if n < 1:
        raise ValueError("n must be positive")
    s = math.isqrt(n)
    q = max(1, -(-s // ROUND_BOUND_DIVISOR))
    while (ROUND_BOUND_DIVISOR * q) ** 2 < n:
        q += 1
    return q


# ---------------------------------------------------------------------------
# Family file format: first line "n=<n>", then one set per line as
# comma-separated indices (blank line = empty set). Order is preserved.
# ---------------------------------------------------------------------------

def family_to_lines(fam: SetFamily) -> list[str]:
    lines = [f"n={fam.universe}"]
    for mask in fam.sets:
        lines.append(",".join(str(j) for j in mask_to_indices(mask)))
    return lines


def family_from_lines(lines) -> SetFamily:
    lines = list(lines)
    if not lines or not lines[0].strip().startswith("n="):
        raise ValueError("family file must start with 'n=<n>'")
    n = int(lines[0].strip()[2:])
    sets = []
    for raw in lines[1:]:
        text = raw.strip()
        if not text:
            sets.append(0)
            continue
        indices = [int(p) for p in text.split(",")]
        if any(j < 0 or j >= n for j in indices):
            raise ValueError(f"set {text!r} outside universe [{n}]")
        sets.append(indices_to_mask(indices))
    return SetFamily(n, tuple(sets))
