"""Event classification, family pruning, marking, and survivor membership.

A stage-3 execution is summarized per source round 3t by one of three
events, determined by how many middle-layer nodes transmitted in round
3t-2: silence (none), collision (two or more), or a single transmitter,
in which case the event carries the descriptor the source sent.

Pruning scans events t = 1..r-1 over the whole enumerated family and keeps
a subset of networks that all share one event sequence, hence one advice
string. Marking then pins the components that the decisive rounds depended
on; every network agreeing with the chosen base on the marked components is
guaranteed to be a survivor, so any unmarked component is free to vary.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import core
from .c2 import C2Params, TopologyVector, build_c2, component_of, enumerate_c2, layer_of
from .core import ComponentDesc, Network, Transmit
from .protocols import Protocol, StageTag
from .reductions import AdviceString, require_stage


@dataclass(frozen=True)
class Silent:
    pass


@dataclass(frozen=True)
class Collision:
    pass


@dataclass(frozen=True)
class Single:
    component: int
    tau: int


Event = Silent | Collision | Single

SILENT = Silent()
COLLISION = Collision()


@dataclass
class PruneResult:
    event_seq: tuple[Event, ...]          # index t-1 holds the event at t
    survivors: list[TopologyVector]
    advice: AdviceString
    base_net: TopologyVector              # lexicographically smallest survivor
    marked: frozenset[int]
    free_component: int | None


def _decisive_transmitters(p3: Protocol, net: Network, r: int, params: C2Params,
                           op: str) -> list[list[int]]:
    """Sorted middle-layer transmitters of each round 3t-2, t = 1..r-1, from
    a single stage-3 run on the network."""
    require_stage(p3, StageTag.PI3, op)
    if r <= 1:
        return []
    trace = core.run(net, p3, 3 * (r - 1) - 2 + 1)  # last inspected round is 3(r-1)-2
    return [
        sorted(
            x
            for x, a in trace.rounds[3 * t - 2].actions.items()
            if isinstance(a, Transmit) and layer_of(x, params) == 1
        )
        for t in range(1, r)
    ]


def event_sequence(p3: Protocol, net: Network, r: int, params: C2Params) -> tuple[Event, ...]:
    """Events at t = 1..r-1 from a single stage-3 run on the network."""
    events: list[Event] = []
    for txs in _decisive_transmitters(p3, net, r, params, "event_sequence"):
        if not txs:
            events.append(SILENT)
        elif len(txs) >= 2:
            events.append(COLLISION)
        else:
            comp = component_of(txs[0], params)
            events.append(Single(comp, net.c2_taus[comp]))
    return tuple(events)


def classify_event(p3: Protocol, net: Network, t: int) -> Event:
    """The event at source round 3t (from the middle-layer round 3t-2)."""
    if t < 1:
        raise ValueError("t must be >= 1")
    params = net.c2_params
    return event_sequence(p3, net, t + 1, params)[t - 1]


def run_prune(p3: Protocol, r: int, params: C2Params) -> PruneResult:
    """Filter the enumerated family down to one shared event sequence.

    Per t: if any survivor shows a collision, keep exactly the collision
    networks; otherwise if any shows a single transmitter, fix the
    lexicographically smallest such survivor and keep the networks with the
    identical event; otherwise (all silent) keep everything. With r = 1 the
    whole family is returned untouched.
    """
    require_stage(p3, StageTag.PI3, "run_prune")
    if r < 1:
        raise ValueError("r must be >= 1")
    vectors = list(enumerate_c2(params))
    seqs = {tv: event_sequence(p3, build_c2(params, tv), r, params) for tv in vectors}

    survivors = vectors
    if r > 1:
        for idx in range(r - 1):
            if any(isinstance(seqs[tv][idx], Collision) for tv in survivors):
                survivors = [tv for tv in survivors if isinstance(seqs[tv][idx], Collision)]
            else:
                with_single = [tv for tv in survivors if isinstance(seqs[tv][idx], Single)]
                if with_single:
                    chosen = min(with_single)
                    survivors = [tv for tv in survivors if seqs[tv][idx] == seqs[chosen][idx]]

    base = min(survivors)
    events = seqs[base]
    advice = AdviceString(
        tuple(
            ComponentDesc(e.component, e.tau) if isinstance(e, Single) else None
            for e in events
        )
    )
    marked = mark_components(p3, build_c2(params, base), r)
    free = next((i for i in range(params.m) if i not in marked), None)
    return PruneResult(events, survivors, advice, base, marked, free)


def mark_components(p3: Protocol, base: Network, r: int) -> frozenset[int]:
    """Components pinned by the decisive rounds of the base network's run.

    Silence marks nothing; a single transmitter marks its component; a
    collision marks the components of the two transmitting nodes with the
    smallest labels (any fixed pair works, so take the canonical one).
    """
    params = base.c2_params
    marked: set[int] = set()
    for txs in _decisive_transmitters(p3, base, r, params, "mark_components"):
        marked.update(component_of(x, params) for x in txs[:2])
    return frozenset(marked)


def membership(
    p3: Protocol,
    candidate: TopologyVector,
    result: PruneResult,
    params: C2Params,
    r: int,
) -> bool:
    """Whether a network would survive pruning: its event sequence matches."""
    seq = event_sequence(p3, build_c2(params, candidate), r, params)
    return seq == result.event_seq
