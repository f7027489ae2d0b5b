"""Event classification, family pruning, marking, and survivor membership.

A stage-3 execution is summarized per source round 3t by one of three
events, determined by how many middle-layer nodes transmitted in round
3t-2: silence (none), collision (two or more), or a single transmitter,
in which case the event carries the descriptor the source sent.

Pruning scans events t = 1..r-1 over the whole enumerated family and keeps
a subset of networks that all share one event sequence, hence one advice
string. Survivors share the events before t, hence the advice entries so
far; under a fixed advice the stage-4 source is silent after round 0 and no
edge joins two components, so round 3t-2 of a network is the union of its
components'. Pruning keeps one advised stage-4 run per (component, tau)
among the survivors (``c2.component_net``) and carries it forward: step t
plays rounds 3t-4..3t-2 and then appends the decided advice entry, so a
run plays 3r-4 rounds in all. A pair drops out once no survivor uses it.
One network is a one-vector family.
Marking then pins the components that the decisive rounds depended on;
every network agreeing with the chosen base on the marked components is
guaranteed to be a survivor, so any unmarked component is free to vary.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import core
from .c2 import C2Params, TopologyVector, build_c2, component_net, component_of, enumerate_c2
from .core import SOURCE, ComponentDesc, Network, Transmit
from .errors import ProtocolBindingError
from .protocols import Protocol, StageTag
from .reductions import AdviceString, pi4_with_advice, require_stage


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


def _event(txs: list[int], taus: tuple[int, ...], params: C2Params) -> Event:
    if not txs:
        return SILENT
    if len(txs) >= 2:
        return COLLISION
    comp = component_of(txs[0], params)
    return Single(comp, taus[comp])


def _heard(table: dict, tv: TopologyVector) -> list[int]:
    return sorted(x for i, tau in enumerate(tv.taus) for x in table[i, tau])


def _prune(p3: Protocol, vectors, r: int, params: C2Params, op: str):
    """``run_prune``'s survivor rule on ``vectors``: the survivors, the events
    and advice they share, and the smallest survivor's marks."""
    require_stage(p3, StageTag.PI3, op, params)
    survivors, events, entries, tables = list(vectors), [], [], []
    # Every live run reads this one advice, whose entries grow as events are
    # decided: a stage-4 middle node reads entry s only at its act in round
    # 3s+1, so entry t may be appended once every run has played round 3t-2.
    p4 = pi4_with_advice(p3, AdviceString(entries))
    runs = {}  # (component, tau) -> its advised stage-4 run, carried forward
    for t in range(1, r):
        runs = {key: runs.get(key) for key in sorted(
            {(i, tau) for tv in survivors for i, tau in enumerate(tv.taus)})}
        table = {}  # (component, tau) -> its middle transmitters in round 3t-2
        for key in runs:
            ex = runs[key] = runs[key] or core.Execution(component_net(params, *key), p4, 3 * r - 4)
            while ex.round < 3 * t - 1:
                rec = ex.step()
            table[key] = [x for x, a in rec.actions.items()
                          if x != SOURCE and isinstance(a, Transmit)]
        tables.append(table)
        seen = {tv: _event(_heard(table, tv), tv.taus, params) for tv in survivors}
        singles = [tv for tv in survivors if isinstance(seen[tv], Single)]
        e = COLLISION if COLLISION in seen.values() else seen[min(singles)] if singles else SILENT
        survivors = [tv for tv in survivors if seen[tv] == e]
        events.append(e)
        entries.append(ComponentDesc(e.component, e.tau) if isinstance(e, Single) else None)
    base = min(survivors)
    marked = frozenset(component_of(x, params) for table in tables for x in _heard(table, base)[:2])
    return survivors, tuple(events), AdviceString(tuple(entries)), marked


def _one(p3: Protocol, net: Network, r: int, params: C2Params, op: str):
    """Prune the one-vector family of a c2 network."""
    if net.c2_taus is None:
        raise ProtocolBindingError("stage-3 protocols run only on c2 networks")
    return _prune(p3, [TopologyVector(net.c2_taus)], r, params, op)


def event_sequence(p3: Protocol, net: Network, r: int, params: C2Params) -> tuple[Event, ...]:
    """Events at t = 1..r-1 on one c2 network."""
    return _one(p3, net, r, params, "event_sequence")[1]


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
    require_stage(p3, StageTag.PI3, "run_prune", params)
    if r < 1:
        raise ValueError("r must be >= 1")
    survivors, _, advice, marked = _prune(p3, enumerate_c2(params), r, params, "run_prune")
    base = min(survivors)
    free = next((i for i in range(params.m) if i not in marked), None)
    # the shared events, read through event_sequence so perfbench's tracing counts it
    events = event_sequence(p3, build_c2(params, base), r, params)
    return PruneResult(events, survivors, advice, base, marked, free)


def mark_components(p3: Protocol, base: Network, r: int) -> frozenset[int]:
    """Components pinned by the decisive rounds of the base network's run.

    Silence marks nothing; a single transmitter marks its component; a
    collision marks the components of the two transmitting nodes with the
    smallest labels (any fixed pair works, so take the canonical one).
    """
    return _one(p3, base, r, base.c2_params, "mark_components")[3]


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
