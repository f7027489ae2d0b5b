"""Deterministic protocol abstraction and the reference protocols.

A protocol runs as one node process per node: ``spawn(proto, own,
neighbors)`` returns an object with ``act(round) -> Action`` and
``observe(obs)``, which the engine calls once per round each, in that
order. ``spawn`` refuses a protocol still awaiting its per-network
``setup``. Protocols written as a pure step function from the local view
(own label, neighbor labels, round number, observation history) to an
action run through the ``HistoryNode`` adapter; staged protocols supply
their own ``node(own, neighbors)`` factory instead. All nodes run identical
copies; behavior may differ only through the local view. Family parameters
(m, k) are public constants, so a node can derive its layer and component
from its own label.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from . import core
from .c2 import C2Params, l1_index, layer_of
from .core import (
    LISTEN,
    PAYLOAD,
    SOURCE,
    Action,
    BroadcastPayload,
    Network,
    Observation,
    Received,
    Transmit,
    is_payload,
)
from .errors import IndexOutOfUniverse, ProtocolBindingError
from .selfam import SetFamily, read_family


class StageTag(Enum):
    PI0 = "pi0"
    PI1 = "pi1"
    PI2 = "pi2"
    PI3 = "pi3"
    PI4 = "pi4"


@dataclass(frozen=True)
class ProtocolContext:
    """Everything a node is allowed to see when choosing an action."""

    own_label: int
    neighbor_labels: tuple[int, ...]
    round: int
    history: tuple[Observation, ...]  # index = round, covers rounds < round


@dataclass(frozen=True)
class Protocol:
    """A named deterministic protocol, optionally with per-network setup.

    Either ``step`` is a pure function of the node's context, or ``node``
    builds the node process directly (staged protocols, whose ``step`` is
    None). ``setup(net, max_rounds)`` returns a copy of the protocol
    specialized to the network (privileged inputs such as full topology or
    an advice string live there, never in the per-node view). The engine
    binds at the start of a run; ``spawn`` refuses an unbound protocol.
    """

    name: str
    step: Callable[[ProtocolContext], Action] | None
    setup: Callable[[Network, int], "Protocol"] | None = None
    stage: StageTag = StageTag.PI0
    params: C2Params | None = None
    node: Callable[[int, tuple[int, ...]], object] | None = None


class HistoryNode:
    """Runs a history step function as a node process."""

    def __init__(self, step, own: int, neighbors: tuple[int, ...]):
        self.step, self.own, self.neighbors = step, own, neighbors
        self.history: list[Observation] = []

    def act(self, round: int) -> Action:
        ctx = ProtocolContext(self.own, self.neighbors, round, tuple(self.history))
        return self.step(ctx)

    def observe(self, obs: Observation) -> None:
        self.history.append(obs)


def spawn(proto: Protocol, own: int, neighbors: tuple[int, ...]):
    """The process of node ``own`` running ``proto``, which must be bound."""
    if proto.setup is not None:
        raise ProtocolBindingError(f"{proto.name} is unbound: bind it with setup(net, max_rounds)")
    if proto.node is not None:
        return proto.node(own, neighbors)
    return HistoryNode(proto.step, own, neighbors)


def has_received_payload(history) -> bool:
    return any(
        isinstance(o, Received) and is_payload(o.message) for o in history
    )


def check_legality(proto: Protocol, net: Network, max_rounds: int) -> list:
    """Trial-run the protocol and return all legality violations as data.

    Illegal transmissions are suppressed (turned into Listen) so that the
    probe can keep going and report everything it finds.
    """
    violations: list = []
    core.run(net, proto, max_rounds, collect_violations=violations)
    return violations


# ---------------------------------------------------------------------------
# Reference protocols (test subjects and adversary prey): transmission
# schedules, all built by the one step function of ``_scheduled``
# ---------------------------------------------------------------------------

def _scheduled(name: str, params: C2Params, fires: Callable[[int, int], bool]) -> Protocol:
    """A transmission schedule: the source sends the payload in round 0 and
    listens afterwards; node ``own`` sends it in round t iff ``fires(own, t)``
    and it has received the payload, and listens otherwise."""

    def step(ctx: ProtocolContext) -> Action:
        if ctx.own_label == SOURCE:
            return Transmit(BroadcastPayload(PAYLOAD)) if ctx.round == 0 else LISTEN
        if fires(ctx.own_label, ctx.round) and has_received_payload(ctx.history):
            return Transmit(BroadcastPayload(PAYLOAD))
        return LISTEN

    return Protocol(name, step, params=params)


def round_robin(params: C2Params) -> Protocol:
    """Middle node with label l transmits the payload at round l, once informed."""
    return _scheduled("round-robin", params, lambda own, t: layer_of(own, params) == 1 and t == own)


def silent_l1(params: C2Params) -> Protocol:
    """Nothing ever transmits except the source's round-0 announcement."""
    return _scheduled("silent", params, lambda own, t: False)


def selfam_driven(params: C2Params, fam: SetFamily) -> Protocol:
    """Middle node with within-component index j transmits at round t >= 1
    iff j is in the family's set t-1 (and the node is informed)."""
    if fam.universe != params.k:
        raise IndexOutOfUniverse(
            f"family universe {fam.universe} does not match k={params.k}"
        )

    def fires(own: int, t: int) -> bool:
        return (layer_of(own, params) == 1 and 1 <= t <= len(fam.sets)
                and (fam.sets[t - 1] >> l1_index(own, params)) & 1 == 1)

    return _scheduled("selfam", params, fires)


REGISTRY = {
    "round-robin": round_robin,
    "silent": silent_l1,
}


def get_protocol(name: str, params: C2Params) -> Protocol:
    """Resolve a CLI protocol name; 'selfam:<file>' loads a family file."""
    if name.startswith("selfam:"):
        return selfam_driven(params, read_family(name.split(":", 1)[1]))
    if name not in REGISTRY:
        raise KeyError(f"unknown protocol {name!r}")
    return REGISTRY[name](params)
