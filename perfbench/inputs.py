"""Seeded inputs for the benchmark: prey protocols, networks and set families.

Every generator takes a ``random.Random`` seeded from the workload name and
the run's seed, so one seed always yields the same inputs. ``radiolb``
receives only what these functions build.

The prey kinds re-implement the styles of ``tests/preys.py`` with seeded
parameters. Every kind keeps its source blind to sender labels (it only
announces, parrots message contents, or hashes contents without senders),
which is the condition under which the staged ladder is exact, so the
benchmark may assert identical non-source columns across stages for all of
them.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from radiolb import (
    LISTEN,
    PAYLOAD,
    SOURCE,
    BroadcastPayload,
    C2Params,
    Opaque,
    Protocol,
    Received,
    SetFamily,
    TopologyVector,
    Transmit,
    round_robin,
    selfam_driven,
)
from radiolb.c2 import layer_of
from radiolb.protocols import has_received_payload

@dataclass(frozen=True)
class PreySpec:
    """A prey protocol kind plus the integer all its seeded details derive from."""

    kind: str
    value: int

    @property
    def name(self) -> str:
        if self.kind == "round-robin":
            return "round-robin"
        if self.kind == "schedule":
            return f"selfam:sched-{self.value}"
        return f"{self.kind}-{self.value}"


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def draw_prey(rng: random.Random, kind: str) -> PreySpec:
    return PreySpec(kind, 0 if kind == "round-robin" else rng.randrange(1, 10**6))


def draw_network(rng: random.Random, params: C2Params) -> TopologyVector:
    top = (1 << params.k) - 1
    return TopologyVector(tuple(rng.randint(1, top) for _ in range(params.m)))


def draw_family(rng: random.Random, n: int, size: int) -> SetFamily:
    """``size`` random subsets of [n], each member kept with probability 1/2."""
    return SetFamily(n, tuple(rng.getrandbits(n) for _ in range(size)))


def build_prey(spec: PreySpec, params: C2Params) -> Protocol:
    """A fresh protocol object, as a CLI call would construct one."""
    if spec.kind == "round-robin":
        return round_robin(params)
    rng = random.Random(f"{spec.kind}:{spec.value}:{params.m}:{params.k}")
    if spec.kind == "hash":
        return _hash_prey(params, spec)
    if spec.kind == "schedule":
        # Sets of one size: the seed moves the schedule, hardly its traffic.
        size = (params.k + 1) // 2
        masks = [f for f in range(1, 1 << params.k) if bin(f).count("1") == size]
        sets = tuple(rng.choice(masks) for _ in range(3 * params.k))
        return selfam_driven(params, SetFamily(params.k, sets))
    slots = _slots(rng, params)
    ack = bytes([rng.randrange(256)])
    if spec.kind == "leaf-ack":
        return _leaf_ack_prey(params, spec, slots, ack)
    if spec.kind == "relay":
        return _relay_prey(params, spec, slots, ack)
    raise ValueError(f"unknown prey kind {spec.kind!r}")


def _slots(rng: random.Random, params: C2Params) -> dict[int, int]:
    """A seeded permutation of the round-robin slots: middle node -> round."""
    mids = list(range(1, params.m * params.k + 1))
    rounds = list(mids)
    rng.shuffle(rounds)
    return dict(zip(mids, rounds))


def _leaf_acks(ctx, ack: bytes):
    """Leaf behaviour shared by leaf-ack and relay: ack once, right after the
    first reception."""
    for t, obs in enumerate(ctx.history):
        if isinstance(obs, Received):
            return Transmit(Opaque(ack)) if ctx.round == t + 1 else LISTEN
    return LISTEN


def _leaf_ack_prey(params, spec, slots, ack) -> Protocol:
    def step(ctx):
        own = ctx.own_label
        if own == SOURCE:
            return Transmit(BroadcastPayload(PAYLOAD)) if ctx.round == 0 else LISTEN
        if layer_of(own, params) == 2:
            return _leaf_acks(ctx, ack)
        if ctx.round == slots[own] and has_received_payload(ctx.history):
            return Transmit(BroadcastPayload(PAYLOAD))
        return LISTEN

    return Protocol(spec.name, step, params=params)


def _relay_prey(params, spec, slots, ack) -> Protocol:
    relay = b"relay"

    def step(ctx):
        own = ctx.own_label
        if own == SOURCE:
            if ctx.round == 0:
                return Transmit(BroadcastPayload(PAYLOAD))
            last = ctx.history[-1]
            return Transmit(last.message) if isinstance(last, Received) else LISTEN
        if layer_of(own, params) == 2:
            return _leaf_acks(ctx, ack)
        if ctx.round == slots[own] and has_received_payload(ctx.history):
            return Transmit(BroadcastPayload(PAYLOAD))
        if ctx.history and isinstance(ctx.history[-1], Received):
            last = ctx.history[-1]
            if isinstance(last.message, Opaque):
                if last.message.data == ack and last.sender != SOURCE:
                    return Transmit(Opaque(relay))
                if (
                    last.message.data == relay
                    and last.sender == SOURCE
                    and has_received_payload(ctx.history)
                ):
                    return Transmit(BroadcastPayload(PAYLOAD))
        return LISTEN

    return Protocol(spec.name, step, params=params)


def _hash_prey(params, spec) -> Protocol:
    def fingerprint(history) -> str:
        parts = []
        for obs in history:
            if isinstance(obs, Received):
                msg = obs.message
                if isinstance(msg, BroadcastPayload):
                    parts.append("mu" + msg.data.hex())
                elif isinstance(msg, Opaque):
                    parts.append("op" + msg.data.hex())
                else:
                    parts.append(f"cd{msg.component}:{msg.tau}")
            else:
                parts.append("phi")
        return ",".join(parts)

    def step(ctx):
        if ctx.round == 0:
            return Transmit(BroadcastPayload(PAYLOAD)) if ctx.own_label == SOURCE else LISTEN
        allowed = ctx.own_label == SOURCE or any(
            isinstance(o, Received) for o in ctx.history
        )
        if not allowed:
            return LISTEN
        text = f"{spec.value}:{ctx.own_label}:{ctx.round}:{fingerprint(ctx.history)}"
        digest = hashlib.blake2b(text.encode(), digest_size=2).digest()
        roll = digest[0] % 4
        if roll == 0:
            return Transmit(BroadcastPayload(PAYLOAD + bytes([digest[1] % 7])))
        if roll == 1:
            return Transmit(Opaque(bytes([digest[1]])))
        return LISTEN

    return Protocol(spec.name, step, params=params)
