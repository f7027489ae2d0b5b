"""Selective set families: verification, constructions, exact minima, bounds.

A family F of subsets of [n] is (n,k)-selective when every nonempty subset
Z of [n] with |Z| <= k is hit exactly once by some member of F, i.e. there
is an F_j with |Z & F_j| = 1.

Subsets of [n] and the relation "f selects Z" are int bitmasks: greedy and
the exact search share one table (`_selections`) mapping each f to the mask
of the targets it selects. Scans that need a canonical order (witnesses,
greedy's ties) visit subsets in ascending bitmask order, deterministic and
total.
Each subset grows from the one without its top bit, carrying the masks of
the members that hit it exactly once and not at all. The table grows one
subset at a time (`_grow`); `is_selective` grows all subsets of one size at
once, packed side by side into a few big ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from .errors import UniverseTooLarge

# Exhaustive subset scans are exponential; fail fast beyond these.
SELECTIVITY_UNIVERSE_CAP = 16
MIN_SEARCH_UNIVERSE_CAP = 5
# Greedy's selection table holds one bit per (f, Z) pair, so this caps its
# size at 2^24 bits; (12,12), at 4095 * 4095 pairs, is the largest n = k.
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


def _columns(sets, n: int) -> list[int]:
    """For each element j < n, the mask of the indices i with j in sets[i]:
    the members as n-digit binary rows, the last on top, read by column.
    Every member must be a subset of [n]."""
    rows = zip(*(format(s, f"0{n}b") for s in reversed(sets)))
    return [int("".join(col), 2) for col in rows][::-1] or [0] * n


def _grow(cols: list[int], k: int, items: int):
    """Every S of 1 to k column indices, in ascending bitmask order, with the
    mask of the items (``items`` holds them all) in exactly one column of S.
    Each S is grown from S without its top bit t, visited before every set
    with top bit t, by three big-int operations on its masks of the items
    in exactly one and in no column."""
    below = [(0, 0, items)]  # the empty set and every S with |S| < k
    for t, col in enumerate(cols):
        out = items ^ col
        for s, one, none in below[:]:
            s, one, none = s | 1 << t, one & out | none & col, none & out
            yield s, one
            if s.bit_count() < k:
                below.append((s, one, none))


def _selections(n: int, k: int) -> tuple[int, dict[int, int]]:
    """The mask of all targets, and for every nonempty f (ascending) the
    mask of the targets f selects; bit i is the i-th target."""
    targets = [z for z, _ in _grow([0] * n, k, 0)]  # no items: just the targets
    full = (1 << len(targets)) - 1
    return full, dict(_grow(_columns(targets, n), n, full))


def is_selective(fam: SetFamily, n: int, k: int) -> tuple[bool, int | None]:
    """Check (n,k)-selectivity; on failure also return the first unhit Z.

    The witness is the smallest failing subset in ascending bitmask order.
    The family must be over the universe [n].
    """
    _check_universe(n, k, SELECTIVITY_UNIVERSE_CAP)
    if fam.universe != n:
        raise ValueError(f"family universe {fam.universe} disagrees with n={n}")
    for mask in fam.sets:
        if mask < 0:
            raise ValueError(f"set mask {mask} is negative")
        if mask >> n:
            raise ValueError(f"set {mask_to_indices(mask)} outside universe [{n}]")
    f = len(fam.sets)
    w = max(f, n) + 1  # chunk width: f member bits, or n subset bits, and a guard bit
    # Level s packs every s-subset S with top bit below t in ascending order,
    # one w-bit chunk per S, into four ints: a repunit, the S, the members
    # hitting S exactly once and those missing it; then the level's width.
    # Adding t grows every chunk by `_grow`'s recurrence at once.
    levels = [(1, 0, 0, (1 << f) - 1, w)] + [(0, 0, 0, 0, 0)] * (k - 1)
    for t, col in enumerate(_columns(fam.sets, n)):
        unhit = []  # the first unhit S of each size, top bit t
        for s in range(min(t, k - 1), -1, -1):  # grown S join level s + 1 after its turn
            rep, subs, one, none, width = levels[s]
            guard, has = rep << f, col * rep
            out = guard - rep ^ has  # per chunk: the members without t, `has` those with it
            subs, one, none = subs | rep << t, one & out | none & has, none & out
            missing = guard & ~((one | guard) - rep)  # guard bits of chunks hit once by none
            if missing:  # the lowest one sits f bits above its chunk's S
                unhit.append(subs >> (missing & -missing).bit_length() - 1 - f & (1 << n) - 1)
            if s + 1 < k:
                rep2, subs2, one2, none2, at = levels[s + 1]
                levels[s + 1] = (rep2 | rep << at, subs2 | subs << at, one2 | one << at,
                                 none2 | none << at, at + width)
        if unhit:
            return False, min(unhit)
    return True, None


def greedy_selective(n: int, k: int) -> SetFamily:
    """Greedy upper-bound construction: always passes is_selective."""
    _check_universe(n, k, SELECTIVITY_UNIVERSE_CAP)
    pairs = ((1 << n) - 1) * sum(math.comb(n, i) for i in range(1, k + 1))
    if pairs > GREEDY_PAIR_CAP:
        raise UniverseTooLarge(
            f"greedy over n={n}, k={k} tests {pairs} (f, Z) pairs, cap is {GREEDY_PAIR_CAP}")
    uncovered, sel = _selections(n, k)
    candidates, masks = list(sel), list(sel.values())
    chosen: list[int] = []
    while uncovered:
        gains = list(map(int.bit_count, map(uncovered.__and__, masks)))
        best = max(gains)
        if not best:
            raise AssertionError("greedy stalled; universe unsatisfiable")
        # Candidates ascend, so ties break toward the smaller mask.
        i = gains.index(best)
        chosen.append(candidates[i])
        uncovered &= ~masks[i]
    return SetFamily(n, tuple(chosen))


def min_selective_size(n: int, k: int) -> int:
    """Exact minimum family size by breadth-first search over selected targets.

    Level s holds masks of the targets that s members select. Some
    member must select the first target not yet selected, so each mask
    grows only by the candidates that do, and each grown mask is kept once.
    The first target is {0}, and permuting 1..n-1 turns the member holding
    0 into {0..s-1}, so level 1 holds only those n masks. The answer is the
    first level holding every target; growing stops as soon as it appears.
    At (5,5) the search grows 423 masks (5 + 60 + 349 + 9).
    """
    _check_universe(n, k, MIN_SEARCH_UNIVERSE_CAP)
    full, sel = _selections(n, k)
    selecting = [[m for m in sel.values() if m >> i & 1] for i in range(full.bit_length())]
    covered, size = {sel[(1 << s) - 1] for s in range(1, n + 1)}, 1
    while full not in covered:
        size, grown = size + 1, set()
        for c in covered:
            grown.update(map(c.__or__, selecting[(~c & (c + 1)).bit_length() - 1]))
            if full in grown:
                break
        covered = grown
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
    return -(-(math.isqrt(n - 1) + 1) // ROUND_BOUND_DIVISOR)  # isqrt(n-1)+1 = ceil(sqrt(n))


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
