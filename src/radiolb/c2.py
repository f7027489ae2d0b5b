"""Layered two-radius network family: construction, labeling, enumeration.

A family instance has one source node, m components of k middle-layer nodes
each (all adjacent to the source), and one leaf node per component adjacent
to a nonempty subset of that component's middle nodes. The subset is encoded
as a bitmask tau in [1, 2^k): bit j set means middle node j of the component
is adjacent to the component's leaf.

Canonical labeling (fixed for the whole family):
    source                      -> 0
    middle node j of comp i     -> 1 + i*k + j
    leaf node of comp i         -> 1 + m*k + i
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from itertools import product
from typing import Iterator

from .core import Network
from .errors import EnumerationTooLarge, InvalidTau, UnknownLabel

DEFAULT_ENUM_CAP = 10**6
ENUM_CAP_ENV = "RADIOLB_ENUM_CAP"


@dataclass(frozen=True, order=True)
class C2Params:
    m: int  # number of components
    k: int  # middle-layer nodes per component

    def __post_init__(self):
        if self.m < 1 or self.k < 1:
            raise ValueError("m and k must be positive")

    @property
    def n(self) -> int:
        return 1 + self.m * (self.k + 1)


@dataclass(frozen=True, order=True)
class TopologyVector:
    taus: tuple[int, ...]

    def replace(self, component: int, tau: int) -> "TopologyVector":
        taus = list(self.taus)
        taus[component] = tau
        return TopologyVector(tuple(taus))


def l1_label(params: C2Params, component: int, index: int) -> int:
    return 1 + component * params.k + index


def l2_label(params: C2Params, component: int) -> int:
    return 1 + params.m * params.k + component


def layer_of(label: int, params: C2Params) -> int:
    if label < 0 or label >= params.n:
        raise UnknownLabel(f"label {label} outside [0, {params.n})")
    if label == 0:
        return 0
    return 1 if label <= params.m * params.k else 2


def component_of(label: int, params: C2Params) -> int | None:
    """Component index of a label, or None for the source."""
    lay = layer_of(label, params)
    if lay == 0:
        return None
    if lay == 1:
        return (label - 1) // params.k
    return label - 1 - params.m * params.k


def l1_index(label: int, params: C2Params) -> int:
    """Within-component index of a middle-layer label."""
    if layer_of(label, params) != 1:
        raise UnknownLabel(f"label {label} is not in the middle layer")
    return (label - 1) % params.k


def _check_tau(tau: int, k: int) -> None:
    if not 1 <= tau < (1 << k):
        raise InvalidTau(f"tau={tau} outside [1, {1 << k})")


def _check_taus(params: C2Params, taus: tuple[int, ...]) -> None:
    if len(taus) != params.m:
        raise InvalidTau(f"expected {params.m} taus, got {len(taus)}")
    for tau in taus:
        _check_tau(tau, params.k)


def _component_edges(params: C2Params, i: int, tau: int) -> list[tuple[int, int]]:
    mids = [l1_label(params, i, j) for j in range(params.k)]
    leaf = l2_label(params, i)
    return [(0, x) for x in mids] + [(leaf, x) for j, x in enumerate(mids) if (tau >> j) & 1]


def build_c2(params: C2Params, tv: TopologyVector) -> Network:
    _check_taus(params, tv.taus)
    edges = [e for i, tau in enumerate(tv.taus) for e in _component_edges(params, i, tau)]
    return Network(range(params.n), edges, c2_params=params, c2_taus=tv.taus)


def component_net(params: C2Params, i: int, tau: int) -> Network:
    """The source plus component i alone, under the family's labels: the
    network on which pruning, the Z-sweep and stage 3's echo simulations
    run one component (read by ``reductions.middle_tx``)."""
    if not 0 <= i < params.m:
        raise ValueError(f"component {i} outside [0, {params.m})")
    _check_tau(tau, params.k)
    edges = _component_edges(params, i, tau)
    return Network({x for edge in edges for x in edge}, edges, c2_params=params)


def enumeration_cap() -> int:
    raw = os.environ.get(ENUM_CAP_ENV)
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{ENUM_CAP_ENV} must be an integer, got {raw!r}") from None


def family_size(params: C2Params) -> int:
    return ((1 << params.k) - 1) ** params.m


def enumerate_c2(params: C2Params) -> Iterator[TopologyVector]:
    """All topology vectors in lexicographic order, [1,..,1] first."""
    total, limit = family_size(params), enumeration_cap()
    if total > limit:
        raise EnumerationTooLarge(f"family has {total} networks, cap is {limit}")
    return map(TopologyVector, product(range(1, 1 << params.k), repeat=params.m))


def encode_c2(params: C2Params, tv: TopologyVector) -> str:
    taus = ",".join(str(t) for t in tv.taus)
    return f"c2:m={params.m},k={params.k},taus={taus}"


def decode_c2(text: str) -> tuple[C2Params, TopologyVector]:
    match = re.fullmatch(r"c2:m=(\d+),k=(\d+),taus=(\d+(?:,\d+)*)", text.strip())
    if not match:
        raise ValueError(f"malformed c2 encoding: {text!r}")
    taus = tuple(int(t) for t in match.group(3).split(","))
    params = C2Params(int(match.group(1)), int(match.group(2)))
    _check_taus(params, taus)
    return params, TopologyVector(taus)
