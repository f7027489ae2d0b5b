"""Extra prey protocols for the transformer tests.

These exercise paths the registry protocols never touch: leaf
transmissions, an active source, content-dependent middle-layer behavior,
sources that branch on sender identity, a component named again and again
by descriptors, pseudo-random but deterministic schedules, a source that
sends the payload late, and four protocols that break legality.
"""

from __future__ import annotations

from radiolb import (
    LISTEN,
    PAYLOAD,
    PHI,
    SOURCE,
    BroadcastPayload,
    C2Params,
    Opaque,
    Protocol,
    Received,
    Transmit,
)
from radiolb.c2 import l1_index, layer_of
from radiolb.protocols import has_received_payload


def leaf_ack_prey(params: C2Params) -> Protocol:
    """Round-robin middle layer plus a one-shot leaf acknowledgement.

    Exercises leaf-to-middle deliveries inside the transformers: the leaf
    transmits an opaque ack in the round right after it is informed.
    """

    def step(ctx):
        own = ctx.own_label
        if own == SOURCE:
            return Transmit(BroadcastPayload(PAYLOAD)) if ctx.round == 0 else LISTEN
        if layer_of(own, params) == 2:
            for t, obs in enumerate(ctx.history):
                if isinstance(obs, Received):
                    if ctx.round == t + 1:
                        return Transmit(Opaque(b"ack"))
                    break
            return LISTEN
        if ctx.round == own and has_received_payload(ctx.history):
            return Transmit(BroadcastPayload(PAYLOAD))
        return LISTEN

    return Protocol("leaf-ack", step, params=params)


def hash_prey(params: C2Params, seed: int, *, source_sees_senders: bool = False) -> Protocol:
    """Pseudo-random but fully deterministic prey.

    Every informed node (and the source at any time) decides each round
    from a hash of (seed, own label, round, observed message contents), so
    arbitrary transmission patterns arise: active sources, leaf chatter,
    simultaneous source+leaf rounds, non-payload traffic. Sender labels are
    deliberately left out of the hash: a bare echo cannot preserve them, so
    source behavior must not depend on them. ``source_sees_senders`` puts
    them back into the source's hash (see ``sender_hash_prey``).
    """
    import hashlib

    def fingerprint(history, senders: bool) -> str:
        parts = []
        for obs in history:
            if isinstance(obs, Received):
                msg = obs.message
                if isinstance(msg, BroadcastPayload):
                    part = "mu" + msg.data.hex()
                elif isinstance(msg, Opaque):
                    part = "op" + msg.data.hex()
                else:
                    part = f"cd{msg.component}:{msg.tau}"
                parts.append(f"{part}@{obs.sender}" if senders else part)
            else:
                parts.append("phi")
        return ",".join(parts)

    def step(ctx):
        if ctx.round == 0:
            if ctx.own_label == SOURCE:
                return Transmit(BroadcastPayload(PAYLOAD))
            return LISTEN
        allowed = ctx.own_label == SOURCE or any(
            isinstance(o, Received) for o in ctx.history
        )
        if not allowed:
            return LISTEN
        senders = source_sees_senders and ctx.own_label == SOURCE
        text = f"{seed}:{ctx.own_label}:{ctx.round}:{fingerprint(ctx.history, senders)}"
        digest = hashlib.blake2b(text.encode(), digest_size=2).digest()
        roll = digest[0] % 4
        if roll == 0:
            return Transmit(BroadcastPayload(PAYLOAD + bytes([digest[1] % 7])))
        if roll == 1:
            return Transmit(Opaque(bytes([digest[1]])))
        return LISTEN

    name = f"sender-hash-{seed}" if source_sees_senders else f"hash-{seed}"
    return Protocol(name, step, params=params)


def sender_hash_prey(params: C2Params, seed: int) -> Protocol:
    """``hash_prey`` whose source also hashes the sender of each reception
    (``@<sender>``). Legal, and sender-sensitive in the source only: a
    stage-2 echo cannot carry the sender, so the staged ladder is not exact
    for it."""
    return hash_prey(params, seed, source_sees_senders=True)


def relay_prey(params: C2Params) -> Protocol:
    """A topology-sensitive prey: the source parrots whatever it hears,
    leaves acknowledge once, and middle nodes relay acks upward and react
    to parroted relays. Middle-layer behavior then genuinely depends on the
    source's stream, which makes stage-4 runs advice-sensitive.
    """

    def step(ctx):
        own = ctx.own_label
        if own == SOURCE:
            if ctx.round == 0:
                return Transmit(BroadcastPayload(PAYLOAD))
            last = ctx.history[-1]
            return Transmit(last.message) if isinstance(last, Received) else LISTEN
        if layer_of(own, params) == 2:
            for t, obs in enumerate(ctx.history):
                if isinstance(obs, Received):
                    if ctx.round == t + 1:
                        return Transmit(Opaque(b"ack"))
                    break
            return LISTEN
        if ctx.round == own and has_received_payload(ctx.history):
            return Transmit(BroadcastPayload(PAYLOAD))
        if ctx.history and isinstance(ctx.history[-1], Received):
            last = ctx.history[-1]
            if isinstance(last.message, Opaque):
                if last.message.data == b"ack" and last.sender != SOURCE:
                    return Transmit(Opaque(b"relay"))
                if (
                    last.message.data == b"relay"
                    and last.sender == SOURCE
                    and has_received_payload(ctx.history)
                ):
                    return Transmit(BroadcastPayload(PAYLOAD))
        return LISTEN

    return Protocol("relay", step, params=params)


def sender_answer_prey(params: C2Params) -> Protocol:
    """A source that branches on sender identity: it sends an opaque answer
    in the round after it hears label 2, and only then. An informed middle
    node sends the payload in the round equal to its own label and in the
    round after it hears that answer. Leaves only listen.
    """

    def step(ctx):
        own = ctx.own_label
        last = ctx.history[-1] if ctx.history else PHI
        if own == SOURCE:
            if ctx.round == 0:
                return Transmit(BroadcastPayload(PAYLOAD))
            if isinstance(last, Received) and last.sender == 2:
                return Transmit(Opaque(b"ans"))
            return LISTEN
        if layer_of(own, params) == 1 and has_received_payload(ctx.history):
            if ctx.round == own or (isinstance(last, Received) and last.message == Opaque(b"ans")):
                return Transmit(BroadcastPayload(PAYLOAD))
        return LISTEN

    return Protocol("sender-answer", step, params=params)


def cyclic_prey(params: C2Params) -> Protocol:
    """Middle nodes take turns forever: an informed middle node sends the
    payload in every round t >= 1 with t = own label (mod m*k). Exactly one
    node transmits per round, so the stage-3 source names a component in
    every round and each component again and again."""
    period = params.m * params.k

    def step(ctx):
        own = ctx.own_label
        if own == SOURCE:
            return Transmit(BroadcastPayload(PAYLOAD)) if ctx.round == 0 else LISTEN
        if (layer_of(own, params) == 1 and ctx.round >= 1
                and (ctx.round - own) % period == 0 and has_received_payload(ctx.history)):
            return Transmit(BroadcastPayload(PAYLOAD))
        return LISTEN

    return Protocol("cyclic", step, params=params)


def spontaneous_leaf_prey(params: C2Params) -> Protocol:
    """An illegal prey: round-robin middle nodes, and every leaf transmits
    in round 1 whether or not it has heard anything. A leaf that middle
    node 1 does not reach breaks the spontaneity rule."""

    def step(ctx):
        own = ctx.own_label
        if own == SOURCE:
            return Transmit(BroadcastPayload(PAYLOAD)) if ctx.round == 0 else LISTEN
        if layer_of(own, params) == 2:
            return Transmit(Opaque(b"early")) if ctx.round == 1 else LISTEN
        if ctx.round == own and has_received_payload(ctx.history):
            return Transmit(BroadcastPayload(PAYLOAD))
        return LISTEN

    return Protocol("spontaneous-leaf", step, params=params)


def counting_leaf_prey(params: C2Params) -> Protocol:
    """An illegal prey for some adjacency subsets only: round-robin middle
    nodes, and every leaf transmits once, in the round equal to its number
    of neighbours, whether or not it has heard anything. Whether a leaf
    breaks the spontaneity rule, and in which round, depends on which
    middle nodes it is adjacent to."""

    def step(ctx):
        own = ctx.own_label
        if own == SOURCE:
            return Transmit(BroadcastPayload(PAYLOAD)) if ctx.round == 0 else LISTEN
        if layer_of(own, params) == 2:
            return Transmit(Opaque(b"early")) if ctx.round == len(ctx.neighbor_labels) else LISTEN
        if ctx.round == own and has_received_payload(ctx.history):
            return Transmit(BroadcastPayload(PAYLOAD))
        return LISTEN

    return Protocol("counting-leaf", step, params=params)


def echo_leaf_prey(params: C2Params) -> Protocol:
    """An illegal prey whose middle nodes answer the source: the source
    parrots its last reception, every leaf transmits in round 0 before it
    has heard anything, and an informed middle node sends the payload in
    the round equal to its label and otherwise, from round 1, an opaque
    note whenever its last observation is a reception from the source.
    Once the leaf's act is suppressed, a component simulation that played
    it would rebuild the wrong echoes."""

    def step(ctx):
        own = ctx.own_label
        last = ctx.history[-1] if ctx.history else PHI
        if own == SOURCE:
            if ctx.round == 0:
                return Transmit(BroadcastPayload(PAYLOAD))
            return Transmit(last.message) if isinstance(last, Received) else LISTEN
        if layer_of(own, params) == 2:
            return Transmit(Opaque(b"early")) if ctx.round == 0 else LISTEN
        if ctx.round == own and has_received_payload(ctx.history):
            return Transmit(BroadcastPayload(PAYLOAD))
        if ctx.round >= 1 and isinstance(last, Received) and last.sender == SOURCE:
            return Transmit(Opaque(b"heard-source"))
        return LISTEN

    return Protocol("echo-leaf", step, params=params)


def late_payload_prey(params: C2Params) -> Protocol:
    """A prey that misses its budget with every leaf informed: the source
    sends an opaque note in round 0 and the payload in round 2, when middle
    index 1 sends an opaque note of its own and so misses the payload.
    Informed middle nodes relay the payload in round 3 + their index;
    leaves listen."""

    def step(ctx):
        own = ctx.own_label
        if own == SOURCE:
            if ctx.round in (0, 2):
                return Transmit(BroadcastPayload(PAYLOAD) if ctx.round else Opaque(b"note"))
            return LISTEN
        if layer_of(own, params) == 2:
            return LISTEN
        index = l1_index(own, params)
        if ctx.round == 2 and index == 1:
            return Transmit(Opaque(b"note"))
        if ctx.round == 3 + index and has_received_payload(ctx.history):
            return Transmit(BroadcastPayload(PAYLOAD))
        return LISTEN

    return Protocol("late-payload", step, params=params)


def round_zero_middle_prey(params: C2Params) -> Protocol:
    """An illegal prey whose middle nodes all send an opaque note in round
    0, alongside the source's payload; an informed middle node then sends
    the payload in the round equal to its label, and leaves listen. A
    staged middle node acts in sub-round 1, after it has heard the source,
    so only the untransformed protocol breaks the round-0 rule."""

    def step(ctx):
        own = ctx.own_label
        if own == SOURCE:
            return Transmit(BroadcastPayload(PAYLOAD)) if ctx.round == 0 else LISTEN
        if layer_of(own, params) == 2:
            return LISTEN
        if ctx.round == 0:
            return Transmit(Opaque(b"early"))
        if ctx.round == own and has_received_payload(ctx.history):
            return Transmit(BroadcastPayload(PAYLOAD))
        return LISTEN

    return Protocol("round-zero-middle", step, params=params)
