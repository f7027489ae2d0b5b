"""Selective set families: verification, constructions, exact minima, bounds.

A family F of subsets of [n] is (n,k)-selective when every nonempty subset
Z of [n] with |Z| <= k is hit exactly once by some member of F, i.e. there
is an F_j with |Z & F_j| = 1.

Subsets of [n] and the relation "f selects Z" are int bitmasks: greedy and
the exact search share one table (`_selections`) mapping each f to the mask
of the targets it selects. Scans that need a canonical order (witnesses,
searches) visit subsets in ascending bitmask order, deterministic and total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from .errors import UniverseTooLarge

# Exhaustive subset scans are exponential; fail fast beyond these.
SELECTIVITY_UNIVERSE_CAP = 16
MIN_SEARCH_UNIVERSE_CAP = 5
# Greedy's selection table tests every (f, Z) pair; (12,12), at 4095 * 4095
# pairs, is the largest n = k it admits.
GREEDY_PAIR_CAP = 1 << 24

ROUND_BOUND_DIVISOR = 1536


@dataclass(frozen=True)
class SetFamily:
    """Ordered family of subsets of [universe), each a bitmask."""

    universe: int
    sets: tuple[int, ...]


def mask_to_indices(mask: int) -> tuple[int, ...]:
    return tuple(j for j in range(mask.bit_length()) if (mask >> j) & 1)


def indices_to_mask(indices) -> int:
    mask = 0
    for j in indices:
        mask |= 1 << j
    return mask


def _check_k(n: int, k: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")


def _check_universe(n: int, k: int, cap: int) -> None:
    if n > cap:
        raise UniverseTooLarge(f"universe {n} exceeds cap {cap}")
    if n < 1:
        raise ValueError("universe must be positive")
    _check_k(n, k)


def _targets(n: int, k: int) -> list[int]:
    return [z for z in range(1, 1 << n) if z.bit_count() <= k]


def _selections(n: int, k: int) -> tuple[int, dict[int, int]]:
    """The mask of all targets, and for every nonempty f (ascending) the
    mask of the targets f selects; bit i is the i-th target."""
    targets = _targets(n, k)
    sel = {
        f: sum(1 << i for i, z in enumerate(targets) if (z & f).bit_count() == 1)
        for f in range(1, 1 << n)
    }
    return (1 << len(targets)) - 1, sel


def is_selective(fam: SetFamily, n: int, k: int) -> tuple[bool, int | None]:
    """Check (n,k)-selectivity; on failure also return the first unhit Z.

    The witness is the smallest failing subset in ascending bitmask order.
    """
    _check_universe(n, k, SELECTIVITY_UNIVERSE_CAP)
    for z in _targets(n, k):
        if not any((z & f).bit_count() == 1 for f in fam.sets):
            return False, z
    return True, None


def greedy_selective(n: int, k: int) -> SetFamily:
    """Greedy upper-bound construction: always passes is_selective."""
    _check_universe(n, k, SELECTIVITY_UNIVERSE_CAP)
    pairs = ((1 << n) - 1) * sum(math.comb(n, i) for i in range(1, k + 1))
    if pairs > GREEDY_PAIR_CAP:
        raise UniverseTooLarge(
            f"greedy over n={n}, k={k} tests {pairs} (f, Z) pairs, cap is {GREEDY_PAIR_CAP}")
    uncovered, sel = _selections(n, k)
    chosen: list[int] = []
    while uncovered:
        # Ties break toward the smaller mask so the result is canonical.
        best = max(sel, key=lambda f: ((sel[f] & uncovered).bit_count(), -f))
        if not sel[best] & uncovered:
            raise AssertionError("greedy stalled; universe unsatisfiable")
        chosen.append(best)
        uncovered &= ~sel[best]
    return SetFamily(n, tuple(chosen))


def min_selective_size(n: int, k: int) -> int:
    """Exact minimum family size by iterative-deepening exhaustive search.

    Families are unordered for this purpose, so candidates are combinations;
    a coverage bound prunes branches that cannot finish in the remaining
    depth.
    """
    _check_universe(n, k, MIN_SEARCH_UNIVERSE_CAP)
    full, sel = _selections(n, k)
    masks = list(sel.values())
    best_single = max(m.bit_count() for m in masks)

    def covers(depth: int, covered: int, start: int) -> bool:
        if covered == full:
            return True
        if depth == 0 or (full & ~covered).bit_count() > depth * best_single:
            return False
        return any(
            masks[i] & ~covered and covers(depth - 1, covered | masks[i], i + 1)
            for i in range(start, len(masks))
        )

    size = 1
    while not covers(size, 0, 0):
        size += 1
    return size


def size_bound(n: int, k: int) -> float:
    """Lower-bound formula k/24 * log2(n/k) for the minimum family size."""
    _check_k(n, k)
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
    lines = [raw.strip() for raw in lines]
    header = lines[0] if lines else ""
    try:
        if not header.startswith("n="):
            raise ValueError
        n = int(header[2:])
    except ValueError:
        raise ValueError(f"family file line 1: expected 'n=<n>', got {header!r}") from None
    sets = []
    for number, text in enumerate(lines[1:], 2):
        try:
            indices = [int(p) for p in text.split(",")] if text else []
        except ValueError:
            raise ValueError(
                f"family file line {number}: expected comma-separated indices, got {text!r}"
            ) from None
        if any(j < 0 or j >= n for j in indices):
            raise ValueError(f"set {text!r} outside universe [{n}]")
        sets.append(indices_to_mask(indices))
    return SetFamily(n, tuple(sets))


def read_family(path: str) -> SetFamily:
    """The family in the file at ``path`` (format above)."""
    with open(path, "r", encoding="utf-8") as fh:
        return family_from_lines(fh.read().splitlines())
