"""Synchronous radio round engine.

Collision semantics: a listening node receives a message in a round iff
exactly one of its neighbors transmits in that round. Silence and collision
are indistinguishable to the listener: both observe phi. A node that
transmits or stays inactive also observes phi. Deliveries carry the true
transmitter label (authenticated channel).

Traces additionally record which listeners suffered a collision. Nodes can
never see that; it exists only for the harness and for tests.

``Execution`` is the engine loop, stepped a round at a time, and the one
caller of ``step_round``; ``run`` steps it to the end and keeps every
round's record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .errors import StageMismatch, UnknownLabel, unheard_transmission

SOURCE = 0

# Payload content is immaterial to every procedure in this package; it is
# fixed so that runs are reproducible byte for byte.
PAYLOAD = b"mu"


# ---------------------------------------------------------------------------
# Messages, observations, actions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BroadcastPayload:
    """The broadcast message, optionally carrying a one-shot advice string.

    ``advice`` is opaque to the engine; only advised protocols inspect it.
    """

    data: bytes = PAYLOAD
    advice: object | None = None


@dataclass(frozen=True)
class ComponentDesc:
    """Full description of one component: its index and adjacency bitmask."""

    component: int
    tau: int


@dataclass(frozen=True)
class Opaque:
    """Arbitrary protocol payload; used only by untransformed protocols."""

    data: bytes


Message = BroadcastPayload | ComponentDesc | Opaque


@dataclass(frozen=True)
class Received:
    sender: int
    message: Message


@dataclass(frozen=True)
class Phi:
    """Observed when nothing was received: silence and collision alike."""


PHI = Phi()
Observation = Received | Phi


@dataclass(frozen=True)
class Transmit:
    message: Message


@dataclass(frozen=True)
class Listen:
    pass


@dataclass(frozen=True)
class Inactive:
    pass


LISTEN = Listen()
INACTIVE = Inactive()
Action = Transmit | Listen | Inactive


def is_payload(message: Message) -> bool:
    return isinstance(message, BroadcastPayload)


# ---------------------------------------------------------------------------
# Networks
# ---------------------------------------------------------------------------

class Network:
    """Undirected radio network over non-negative integer labels.

    Adjacency is irreflexive and symmetric. Connectivity is required by
    default (broadcast is meaningless otherwise) but can be waived for
    engine-level unit fixtures.
    """

    def __init__(
        self,
        labels: Iterable[int],
        edges: Iterable[tuple[int, int]],
        *,
        require_connected: bool = True,
        c2_params=None,
    ):
        self.labels = frozenset(int(x) for x in labels)
        if any(x < 0 for x in self.labels):
            raise UnknownLabel("labels must be non-negative")
        nbrs: dict[int, set[int]] = {x: set() for x in self.labels}
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop on {a}")
            if a not in nbrs or b not in nbrs:
                raise UnknownLabel(f"edge ({a},{b}) references a non-node")
            nbrs[a].add(b)
            nbrs[b].add(a)
        self._nbrs = {x: frozenset(s) for x, s in nbrs.items()}
        self.c2_params = c2_params
        if require_connected and len(self.labels) > 1:
            if not self._is_connected():
                raise ValueError("network is not connected")

    def _is_connected(self) -> bool:
        start = min(self.labels)
        seen = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for y in self._nbrs[x]:
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return seen == self.labels

    @property
    def n(self) -> int:
        return len(self.labels)

    def neighbors(self, label: int) -> frozenset[int]:
        try:
            return self._nbrs[label]
        except KeyError:
            raise UnknownLabel(f"no node {label}") from None

    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (a, b) for a in self.labels for b in self._nbrs[a] if a < b
        )

    def __eq__(self, other):
        return (
            isinstance(other, Network)
            and self.labels == other.labels
            and self._nbrs == other._nbrs
        )

    def __repr__(self):
        return f"Network(n={self.n})"


# ---------------------------------------------------------------------------
# Rounds and traces
# ---------------------------------------------------------------------------

@dataclass
class RoundRecord:
    round: int
    actions: dict[int, Action]
    deliveries: dict[int, Observation]
    collided_receivers: frozenset[int]


@dataclass
class Trace:
    network: Network
    rounds: list[RoundRecord]
    informed: dict[int, int]


def step_round(net: Network, actions: dict[int, Action], round: int) -> RoundRecord:
    """Execute one synchronous round, walking each transmitter's neighbours for deliveries.

    Every node of the network must have exactly one action. Raises
    UnknownLabel if the map mentions a node outside the network.
    """
    if actions.keys() != net.labels:
        for x in actions:
            if x not in net.labels:
                raise UnknownLabel(f"action for non-node {x}")
        raise ValueError(f"missing actions for nodes {sorted(net.labels - actions.keys())}")

    sender: dict[int, int] = {}  # node -> its one transmitting neighbour, -1 once two transmit
    for v, a in actions.items():
        if isinstance(a, Transmit):
            for x in net._nbrs[v]:
                sender[x] = -1 if x in sender else v
    deliveries: dict[int, Observation] = dict.fromkeys(net.labels, PHI)
    collided: set[int] = set()
    for x, v in sender.items():
        if isinstance(actions[x], Listen):
            if v < 0:
                collided.add(x)
            else:
                deliveries[x] = Received(v, actions[v].message)
    return RoundRecord(round, dict(actions), deliveries, frozenset(collided))


def require_family(op: str, family, proto) -> None:
    """Refuse a protocol built for other family parameters (when both are set)."""
    if None not in (family, proto.params) and family != proto.params:
        raise StageMismatch(f"{op} on family {family} got a protocol for {proto.params}")


class Execution:
    """A run in progress: each ``step()`` plays one more round and returns
    its record.

    Every node runs its own process (``protocols.spawn``) on its local
    view: each round the execution asks every node for its action, executes
    the round, then hands every node its observation. ``setup`` binds the
    protocol for a run of ``max_rounds`` rounds (it is told that length),
    and the execution stops there. A protocol built for other family
    parameters than the network's is refused.

    Round 0 permits only the source to transmit; at any later round a node
    may transmit only if it is the source or has received at least one
    message. Violations raise; with ``collect_violations`` a list they are
    recorded and the offending transmission is suppressed (legality probes).

    ``informed`` maps each node that holds the payload to the round it got
    it. A caller that needs only a prefix of the run steps that far and may
    come back for more: nothing is replayed.
    """

    def __init__(self, net: Network, proto, max_rounds: int, *,
                 collect_violations: list | None = None):
        if SOURCE not in net.labels:
            raise UnknownLabel("network has no source node (label 0)")
        require_family(proto.name, net.c2_params, proto)
        if proto.setup is not None:
            proto = proto.setup(net, max_rounds)

        from .protocols import spawn  # local import: avoids a cycle

        self.net, self.name, self.max_rounds = net, proto.name, max_rounds
        self.collect_violations = collect_violations
        self.nodes = {x: spawn(proto, x, tuple(sorted(net.neighbors(x))))
                      for x in sorted(net.labels)}
        self.pairs = list(self.nodes.items())  # (label, node) in label order
        self.heard: set[int] = set()  # nodes that have received at least one message
        self.informed: dict[int, int] = {SOURCE: 0}
        self.round = 0  # the next round to play

    def step(self) -> RoundRecord:
        t = self.round
        if t >= self.max_rounds:
            raise ValueError(f"the run was bound for {self.max_rounds} rounds")
        actions: dict[int, Action] = {}
        spoke = []  # transmitters, in label order
        for x, node in self.pairs:
            act = actions[x] = node.act(t)
            if isinstance(act, Transmit):
                spoke.append(x)
            elif not isinstance(act, (Listen, Inactive)):
                raise TypeError(f"{self.name} returned {act!r} for node {x}")

        for x in spoke:
            if x == SOURCE or x in self.heard:
                continue
            err = unheard_transmission(x, t)
            if self.collect_violations is None:
                raise err
            self.collect_violations.append(err)
            actions[x] = LISTEN

        rec = step_round(self.net, actions, t)
        for x, node in self.pairs:
            obs = rec.deliveries[x]
            node.observe(obs)
            if isinstance(obs, Received):
                self.heard.add(x)
                if x not in self.informed and is_payload(obs.message):
                    self.informed[x] = t
        self.round = t + 1
        return rec


def run(
    net: Network,
    proto,
    max_rounds: int,
    *,
    collect_violations: list | None = None,
) -> Trace:
    """Run a protocol for max_rounds rounds and return the full trace: an
    ``Execution`` stepped to its end.

    The run is deterministic: the same (net, proto, max_rounds) always
    yields an identical trace.
    """
    ex = Execution(net, proto, max_rounds, collect_violations=collect_violations)
    rounds = [ex.step() for _ in range(max_rounds)]
    return Trace(net, rounds, ex.informed)


def completion_round(trace: Trace) -> int | None:
    """Smallest r such that every node holds the payload by round r-1.

    Returns None when some node is still uninformed at the end of the trace.
    """
    last = last_informed_round(trace)
    return None if last is None else last + 1


def last_informed_round(trace: Trace) -> int | None:
    """Round index at which the final node became informed, if complete."""
    if set(trace.informed) != trace.network.labels:
        return None
    return max(trace.informed.values())


def recompute_informed(trace: Trace) -> dict[int, int]:
    """Rebuild the informed map from the round records (replay check)."""
    informed = {SOURCE: 0}
    for rec in trace.rounds:
        for x, obs in rec.deliveries.items():
            if (
                x not in informed
                and isinstance(obs, Received)
                and is_payload(obs.message)
            ):
                informed[x] = rec.round
    return informed


# ---------------------------------------------------------------------------
# Trace serialization (line-delimited JSON, bit-exact)
# ---------------------------------------------------------------------------

def _message_fields(msg: Message) -> list:
    if isinstance(msg, BroadcastPayload):
        fields = ["mu", msg.data.hex()]
        if msg.advice is not None:
            fields.append(msg.advice.encode())
        return fields
    if isinstance(msg, ComponentDesc):
        return ["comp", msg.component, msg.tau]
    return ["opaque", msg.data.hex()]


def trace_to_jsonl(trace: Trace) -> list[str]:
    """One JSON object per round; arrays sorted by label for stable bytes."""
    lines = []
    for rec in trace.rounds:
        tx = [
            [x] + _message_fields(rec.actions[x].message)
            for x in sorted(rec.actions)
            if isinstance(rec.actions[x], Transmit)
        ]
        rx = [
            [x, rec.deliveries[x].sender, _message_fields(rec.deliveries[x].message)[0]]
            for x in sorted(rec.deliveries)
            if isinstance(rec.deliveries[x], Received)
        ]
        obj = {
            "round": rec.round,
            "tx": tx,
            "rx": rx,
            "collided": sorted(rec.collided_receivers),
        }
        lines.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    return lines
