"""Event classification, family pruning, marking, and survivor membership.

A stage-3 execution is summarized per source round 3t by one of three
events, determined by how many middle-layer nodes transmitted in round
3t-2: silence (none), collision (two or more), or a single transmitter,
in which case the event carries the descriptor the source sent.

Pruning scans events t = 1..r-1 over the whole enumerated family and keeps
a subset of networks that all share one event sequence, hence one advice
string. Survivors share the events before t, hence the advice entries so
far; under a fixed advice the stage-4 source is silent after round 0 and no
edge joins two components, so each component runs on its own
(``c2.component_net``), read by ``reductions.middle_tx``, which yields the
component's transmitters of each round 3j+1. Pruning advances one reader
per (component, tau) among the survivors once per t and then appends the
decided advice entry, so a run plays 3r-4 rounds in all; a survivor's
event is the count of its components' transmitters. A pair drops out once
no survivor uses it. One network is a one-vector family.
Marking then pins the components that the decisive rounds depended on;
every network agreeing with the chosen base on the marked components is
guaranteed to be a survivor, so any unmarked component is free to vary.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .c2 import TopologyVector, build_c2, component_net, enumerate_c2
from .core import ComponentDesc, Network
from .protocols import Protocol, StageTag
from .reductions import AdviceString, c2_taus, middle_tx, pi4_with_advice, require_stage


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


def _first_two(tx: dict, tv: TopologyVector) -> list[int]:
    """Components of ``tv``'s first two transmitters in one round, given
    each (component, tau)'s transmitters then."""
    return [i for i, tau in enumerate(tv.taus) for _ in tx[i, tau]][:2]


def _event(tx: dict, tv: TopologyVector) -> Event:
    hot = _first_two(tx, tv)
    return COLLISION if len(hot) == 2 else Single(hot[0], tv.taus[hot[0]]) if hot else SILENT


def _prune(p3: Protocol, vectors, r: int) -> PruneResult:
    """``run_prune``'s survivor rule on ``vectors`` of ``p3``'s family: the
    survivors, the events and advice they share, the smallest survivor and
    its marks, and the first unmarked component."""
    if r < 1:
        raise ValueError("r must be >= 1")
    survivors, events, entries, tables = list(vectors), [], [], []
    # Every reader plays this one advice, which grows as events are decided: a stage-4
    # middle node reads entry s only in round 3s+1, so entry t follows round 3t-2.
    p4 = pi4_with_advice(p3, AdviceString(entries))
    runs = {}  # (component, tau) -> its reader, carried forward
    for t in range(1, r):
        runs = {key: runs.get(key) or middle_tx(component_net(p3.params, *key), p4)
                for key in sorted({(i, tau) for tv in survivors for i, tau in enumerate(tv.taus)})}
        tx = {key: next(run) for key, run in runs.items()}  # round 3t-2
        tables.append(tx)
        seen = {tv: _event(tx, tv) for tv in survivors}
        singles = [tv for tv in survivors if isinstance(seen[tv], Single)]
        e = COLLISION if COLLISION in seen.values() else seen[min(singles)] if singles else SILENT
        survivors = [tv for tv in survivors if seen[tv] == e]
        events.append(e)
        entries.append(ComponentDesc(e.component, e.tau) if isinstance(e, Single) else None)
    base = min(survivors)
    marked = frozenset(i for tx in tables for i in _first_two(tx, base))
    free = next((i for i in range(p3.params.m) if i not in marked), None)
    return PruneResult(tuple(events), survivors, AdviceString(tuple(entries)), base, marked, free)


def _one(p3: Protocol, net: Network, r: int, op: str) -> PruneResult:
    """Prune the one-vector family of a c2 network under its own family."""
    require_stage(p3, StageTag.PI3, op, net.c2_params)
    return _prune(p3, [TopologyVector(c2_taus(net))], r)


def event_sequence(p3: Protocol, net: Network, r: int) -> tuple[Event, ...]:
    """Events at t = 1..r-1 on one c2 network, under the network's own family,
    which must be ``p3``'s."""
    return _one(p3, net, r, "event_sequence").event_seq


def run_prune(p3: Protocol, r: int) -> PruneResult:
    """Filter ``p3``'s enumerated family down to one shared event sequence.

    Per t: if any survivor shows a collision, keep exactly the collision
    networks; otherwise if any shows a single transmitter, fix the
    lexicographically smallest such survivor and keep the networks with the
    identical event; otherwise (all silent) keep everything. With r = 1 the
    whole family is returned untouched.
    """
    require_stage(p3, StageTag.PI3, "run_prune")
    pr = _prune(p3, enumerate_c2(p3.params), r)
    # the shared events, read again through event_sequence so perfbench's tracing counts it
    return replace(pr, event_seq=event_sequence(p3, build_c2(p3.params, pr.base_net), r))


def mark_components(p3: Protocol, base: Network, r: int) -> frozenset[int]:
    """Components pinned by the decisive rounds of the base network's run.

    Silence marks nothing; a single transmitter marks its component; a
    collision marks the components of the two transmitting nodes with the
    smallest labels (any fixed pair works, so take the canonical one).
    """
    return _one(p3, base, r, "mark_components").marked


def membership(p3: Protocol, candidate: TopologyVector, result: PruneResult) -> bool:
    """Whether a network of ``p3``'s family would survive the pruning that gave
    ``result``: its event sequence over the same budget matches."""
    # event_sequence's own refusal, made before the candidate is built
    require_stage(p3, StageTag.PI3, "event_sequence")
    seq = event_sequence(p3, build_c2(p3.params, candidate), len(result.event_seq) + 1)
    return seq == result.event_seq
