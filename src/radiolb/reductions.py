"""Behavior-preserving protocol transformers and advice-string machinery.

Four transformers, applied in order, progressively restrict what the source
contributes while preserving per-network outcomes of the middle and leaf
layers:

  stage 1  phase separation: base round t is re-enacted over rounds
           3t, 3t+1, 3t+2, with the source, middle and leaf layers acting
           in sub-rounds 0, 1, 2. Cross-layer collisions disappear.
  stage 2  the source stops computing: at round 3t it just retransmits
           whatever it received in round 3t-2 (or stays silent). Middle
           nodes run a stage-1 replica of the source on the echo stream.
  stage 3  the source (given the full topology as a privileged input) sends
           only component descriptors <i, tau>. Middle nodes rebuild each
           echo by simulating the named component against the echoes so
           far.
  stage 4  the source transmits the whole descriptor sequence once, as an
           advice string attached to the round-0 payload, then stays silent.

For sources that ignore sender labels, middle- and leaf-layer
transmissions are identical round for round across the stages; only the
source's column of the trace changes. Stage 2 matches stage 1 on any
network over the c2 labels whose source is adjacent to exactly the middle
layer. Stages 3 and 4 match it on c2 networks: they rebuild echoes by
simulating one component alone, which ignores any other edge.

Every staged node but a stage 2-4 source is one ``_Phased``: its base node
process, fed one collapsed observation per round triple at its next act. A
stage 2-4 middle node also has a column, one step per stage above 1, that
rebuilds what the stage-1 source sent from advice (stage 4), descriptors
(stage 3) and echoes (stage 2); leaves run their stage-1 selves. The one
cache is each stage-3 protocol's set of component simulations, at most one
per (component, tau): each records the echo it rebuilt after every prefix
of its script, so a prefix it has played is answered from the record and a
longer one by stepping on. The simulations are shared by all the
protocol's runs and dropped with it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

from . import core
from .c2 import C2Params, component_net, component_of, layer_of
from .core import (
    LISTEN,
    PAYLOAD,
    PHI,
    SOURCE,
    BroadcastPayload,
    ComponentDesc,
    Message,
    Network,
    Received,
    Transmit,
)
from .errors import ProtocolBindingError, StageMismatch
from .protocols import Protocol, StageTag, spawn

# A bare echo carries the message but not who originally sent it, so the
# source replica sees receptions under this pseudo-label. Exact for every
# source step that does not branch on sender identity.
UNKNOWN_SENDER = -1


@dataclass(frozen=True)
class AdviceString:
    """Per-round source messages for rounds 3t, t = 1..r-1: descriptor or phi.

    ``entries`` is a tuple, except inside pruning, whose carried-forward
    runs share one advice with a list of entries that grows as the events
    are decided.
    """

    entries: Sequence[ComponentDesc | None]

    def entry(self, t: int) -> ComponentDesc | None:
        return self.entries[t - 1]

    def encode(self) -> str:
        body = ",".join(
            "phi" if e is None else f"{e.component}:{e.tau}" for e in self.entries
        )
        return "adv:" + body

    @staticmethod
    def decode(text: str) -> "AdviceString":
        if not text.startswith("adv:"):
            raise ValueError(f"not an advice encoding: {text!r}")
        body = text[4:]
        entries: list[ComponentDesc | None] = []
        for part in body.split(",") if body else ():
            if part == "phi":
                entries.append(None)
            else:
                i, tau = part.split(":")
                entries.append(ComponentDesc(int(i), int(tau)))
        return AdviceString(tuple(entries))


def require_stage(proto: Protocol, stage: StageTag, op: str, params=None) -> None:
    if proto.stage is not stage:
        raise StageMismatch(f"{op} needs a {stage.value} protocol, got {proto.stage.value}")
    if proto.params is None:
        raise StageMismatch(f"{op} needs a protocol carrying family parameters")
    core.require_family(op, params, proto)


# ---------------------------------------------------------------------------
# Stage 1: phase separation
# ---------------------------------------------------------------------------

class _Phased:
    """A staged node: acts only in its layer's sub-round, as its base self
    would in the re-enacted base round. Observations wait in ``pending``
    until its next act, which hands them on in round order, collapsing each
    round triple as a single base round would: phi if the base self
    transmitted, else the triple's unique reception (phi for none or several).

    A stage 2-4 middle node has a ``column``, one step per stage above 1,
    the current stage's first. Each step takes ``(s, obs)`` for the
    observation of round 3s, round 0 included, and hands the next what a
    source one stage lower would have sent; the last yields the stage-1
    source's message. Every other observation is handed on as the network
    delivered it. The column's checks raise at the act that hands them on,
    which the advice budget counts on: a stage-4 node reads advice entry s
    only at its act in round 3s+1, so a run that stops after round 3s needs
    no entry s.
    """

    def __init__(self, base, layer: int, column: tuple = ()):
        self.base, self.layer, self.column = base, layer, column
        self.action = None  # the base action of the current triple
        self.got: list[Received] = []
        self.pending: list = []

    def act(self, round: int):
        t, phase = divmod(round, 3)
        if phase != self.layer:
            return LISTEN
        for r, obs in enumerate(self.pending, round - len(self.pending)):
            if r % 3 == 0:
                for step in self.column:
                    obs = step(r // 3, obs)
            if isinstance(obs, Received):
                self.got.append(obs)
            if r % 3 == 2:
                alone = len(self.got) == 1 and not isinstance(self.action, Transmit)
                self.base.observe(self.got[0] if alone else PHI)
                self.got = []
        self.pending.clear()
        self.action = self.base.act(t)
        return self.action if isinstance(self.action, Transmit) else LISTEN

    def observe(self, obs) -> None:
        self.pending.append(obs)


def to_pi1(p0: Protocol, params: C2Params) -> Protocol:
    """Phase-separate a base protocol over round triples (stage 1). One built
    for other family parameters is refused here: runs see only ``params``."""
    core.require_family("to_pi1", params, p0)

    def node(own, neighbors):
        return _Phased(spawn(p0, own, neighbors), layer_of(own, params))

    return Protocol(f"pi1[{p0.name}]", None, stage=StageTag.PI1, params=params, node=node)


# ---------------------------------------------------------------------------
# Stages 2-4: the source's column, rebuilt by each middle node
# ---------------------------------------------------------------------------

class _Source:
    """Stage 2-4 source: ``first`` in round 0; in each round 3s, s >= 1,
    ``relay`` of what it received in round 3s-2 (if anything and if
    ``relay`` is given); silence otherwise."""

    def __init__(self, first, relay=None):
        self.first, self.relay = first, relay
        self.heard, self.rounds = PHI, 0

    def act(self, round: int):
        if round == 0:
            return Transmit(self.first)
        if round % 3 == 0 and self.relay is not None and isinstance(self.heard, Received):
            return Transmit(self.relay(self.heard))
        return LISTEN

    def observe(self, obs) -> None:
        if self.rounds % 3 == 1:
            self.heard = obs
        self.rounds += 1


def _staged(inner: Protocol, stage: StageTag, source, step, setup=None) -> Protocol:
    """A stage 2-4 protocol over ``inner``: ``source()`` builds the source's
    node, a middle node takes its previous-stage self's base and column and
    puts ``step()`` in front, and a leaf is its previous-stage self. That
    self comes from ``inner.node``: pruning's stage 4 runs over an unbound
    stage 3, and only a source needs binding (``source`` is None until then)."""
    params = inner.params

    def node(own, neighbors):
        lay = layer_of(own, params)
        if lay == 0:
            return source()
        me = inner.node(own, neighbors)
        if lay == 2:
            return me
        return _Phased(me.base, 1, (step(), *me.column))

    return Protocol(f"{stage.value}[{inner.name}]", None, setup=setup, stage=stage,
                    params=params, node=node)


# ---------------------------------------------------------------------------
# Stage 2: echoing source
# ---------------------------------------------------------------------------

class _Echo:
    """Stage-2 column step: replays the stage-1 source from the echo
    stream. In round 3s the echo tells what the source received in round
    3s-2; its other sub-rounds are necessarily phi (no neighbor of the
    source transmits there)."""

    def __init__(self, source):
        self.source = source
        source.act(0)  # whether it transmits in round 0 decides how triple 0 collapses

    def __call__(self, s: int, obs):
        if s == 0:
            return obs
        echoed = Received(UNKNOWN_SENDER, obs.message) if isinstance(obs, Received) else PHI
        for seen in (PHI, echoed, PHI):
            self.source.observe(seen)
        act = self.source.act(3 * s)
        return Received(SOURCE, act.message) if isinstance(act, Transmit) else PHI


def to_pi2(p1: Protocol) -> Protocol:
    """Make the source a pure repeater (stage 2). For a source that ignores
    sender labels, middle and leaf columns match stage 1's on any network
    over the c2 labels whose source is adjacent to exactly the middle layer."""
    require_stage(p1, StageTag.PI1, "to_pi2")
    params = p1.params
    all_l1 = tuple(range(1, params.m * params.k + 1))
    return _staged(
        p1, StageTag.PI2,
        lambda: _Source(BroadcastPayload(PAYLOAD), lambda heard: heard.message),
        lambda: _Echo(spawn(p1, SOURCE, all_l1)),
    )


# ---------------------------------------------------------------------------
# Stage 3: topology descriptors
# ---------------------------------------------------------------------------

class _EchoSim:
    """One component run against a scripted source, carried forward.

    The script: payload at round 0, then ``script[s-1]`` (or silence) at
    round 3s. Middle nodes and the leaf run stage 2 on what they observe of
    the script and of each other, which matches their real behavior on any
    network where the script matches the source. ``script`` holds the
    entries played so far, and ``heard[s]`` the message of the lone
    middle-layer transmitter in round 3s+1 (None when zero or several
    transmit) for every s played. It checks no legality, since the script
    may be another network's (see ``core``).
    """

    def __init__(self, p2: Protocol, params: C2Params, desc: ComponentDesc):
        self.net = component_net(params, desc.component, desc.tau)
        self.nodes = {x: spawn(p2, x, tuple(sorted(self.net.neighbors(x))))
                      for x in sorted(self.net.labels - {SOURCE})}
        self.script: list = []
        self.heard: list = []
        self.round = 0

    def advance(self, echoes: list) -> Message | None:
        """``heard[len(echoes)]`` under script ``echoes``, which must agree
        with ``script`` on their common prefix; plays on through round
        3*len(echoes)+1 if that round is still ahead."""
        for r in range(self.round, 3 * len(echoes) + 2):
            actions = {x: node.act(r) for x, node in self.nodes.items()}
            if r % 3 == 0 and r > 0:
                self.script.append(echoes[r // 3 - 1])
            msg = BroadcastPayload(PAYLOAD) if r == 0 else self.script[-1] if r % 3 == 0 else None
            actions[SOURCE] = LISTEN if msg is None else Transmit(msg)
            rec = core.step_round(self.net, actions, r)
            for x, node in self.nodes.items():
                node.observe(rec.deliveries[x])
            if r % 3 == 1:  # only middle nodes can transmit in sub-round 1
                tx = [a.message for a in rec.actions.values() if isinstance(a, Transmit)]
                self.heard.append(tx[0] if len(tx) == 1 else None)
            self.round = r + 1
        return self.heard[len(echoes)]


def _component_echo(p2: Protocol, params: C2Params, sims: dict, desc: ComponentDesc,
                    echoes: list) -> Message | None:
    """The message of component ``desc``'s lone middle-layer transmitter in
    the round right after script ``echoes`` ends (see ``_EchoSim``), or None
    when zero or several transmit.

    ``sims`` holds at most one simulation per (component, tau). When its
    script and ``echoes`` agree on their common prefix it answers from its
    record, or steps on from where it stopped; otherwise (another
    network's echoes diverged from it) the component is simulated again
    from round 0. A descriptor that does not yield exactly one transmitter
    cannot have come from a matching execution (wrong-network advice); it
    maps to silence, keeping the run total and deterministic.
    """
    key = (desc.component, desc.tau)
    sim = sims.pop(key, None)  # put back only once it has played on cleanly
    if sim is None or sim.script[:len(echoes)] != echoes[:len(sim.script)]:
        sim = _EchoSim(p2, params, desc)
    heard = sim.advance(echoes)
    sims[key] = sim
    return heard


class _Desc:
    """Stage-3 column step: rebuilds the echo stream from the descriptor
    stream. Descriptor s names the component whose lone member was heard in
    round 3s-2, and simulating that component recovers the message itself."""

    def __init__(self, echo):
        self.echo = echo
        self.echoes: list = []

    def __call__(self, s: int, obs):
        if s == 0:
            return obs
        echo = None
        if isinstance(obs, Received):
            if not isinstance(obs.message, ComponentDesc):
                raise ProtocolBindingError(f"expected a component descriptor at round {3 * s}")
            echo = self.echo(obs.message, self.echoes)
        self.echoes.append(echo)
        return PHI if echo is None else Received(SOURCE, echo)


def c2_taus(net: Network) -> tuple[int, ...]:
    """The stage-3 source's private input, which only a c2 network has."""
    if net.c2_taus is None:
        raise ProtocolBindingError("stage-3 protocols run only on c2 networks")
    return net.c2_taus


def to_pi3(p2: Protocol) -> Protocol:
    """Restrict the source to component descriptors (stage 3). The returned
    protocol is unbound; ``setup`` returns the copy whose source describes
    each heard component by the network's topology, its private input. All
    copies share the component simulations that rebuild the echoes."""
    require_stage(p2, StageTag.PI2, "to_pi3")
    params = p2.params
    desc = partial(_Desc, partial(_component_echo, p2, params, {}))

    def setup(net: Network, max_rounds: int) -> Protocol:
        taus = c2_taus(net)

        def describe(heard):
            comp = component_of(heard.sender, params)
            return ComponentDesc(comp, taus[comp])

        return _staged(p2, StageTag.PI3, partial(_Source, BroadcastPayload(PAYLOAD), describe),
                       desc)

    return _staged(p2, StageTag.PI3, None, desc, setup)


# ---------------------------------------------------------------------------
# Stage 4: one-shot advice
# ---------------------------------------------------------------------------

def make_advice(p3: Protocol, net: Network, r: int) -> AdviceString:
    """Advice for a budget of r base rounds: the source's stage-3
    transmissions at rounds 3t, t = 1..r-1, on the given network: the
    whole-network definition that pruning's advice is tested against.
    Pruning's one-vector run plays two rounds fewer, and advice derived
    from it changes the spontaneous-leaf prey's recorded outputs."""
    require_stage(p3, StageTag.PI3, "make_advice")
    if r <= 1:
        return AdviceString(())
    trace = core.run(net, p3, 3 * (r - 1) + 1)
    acts = [trace.rounds[3 * t].actions[SOURCE] for t in range(1, r)]
    entries = tuple(a.message if isinstance(a, Transmit) else None for a in acts)
    if any(e is not None and not isinstance(e, ComponentDesc) for e in entries):
        raise StageMismatch("stage-3 source transmitted a non-descriptor")
    return AdviceString(entries)


class _Advised:
    """Stage-4 column step: the advice is exactly the descriptor stream a
    stage-3 source would have transmitted. It comes with the round-0
    payload, which the stage-3 self sees without it."""

    def __init__(self):
        self.advice = None

    def __call__(self, s: int, obs):
        if s == 0:
            if not (isinstance(obs, Received) and isinstance(obs.message, BroadcastPayload)
                    and isinstance(obs.message.advice, AdviceString)):
                raise ProtocolBindingError("middle node saw no advice in round 0")
            self.advice = obs.message.advice
            return Received(obs.sender, BroadcastPayload(obs.message.data, None))
        if len(self.advice.entries) < s:
            raise ProtocolBindingError(
                f"advice has {len(self.advice.entries)} entries, round {3 * s + 1} needs {s}"
            )
        entry = self.advice.entry(s)
        return PHI if entry is None else Received(SOURCE, entry)


def pi4_with_advice(p3: Protocol, advice: AdviceString) -> Protocol:
    """Stage 4 under a fixed advice string (not necessarily the network's own)."""
    require_stage(p3, StageTag.PI3, "pi4_with_advice")
    return _staged(p3, StageTag.PI4, lambda: _Source(BroadcastPayload(PAYLOAD, advice)),
                   _Advised)


def to_pi4(p3: Protocol) -> Protocol:
    """Advised stage 4, unbound: ``setup`` computes the network's own advice
    and returns ``pi4_with_advice`` under it, whose source transmits the
    advice once with the payload and then stays silent."""
    require_stage(p3, StageTag.PI3, "to_pi4")

    def setup(net: Network, max_rounds: int) -> Protocol:
        # the last sub-round-1 act, in round 3s+1 <= max_rounds-1, reads
        # entry s, the last of a budget of s+1 base rounds
        return pi4_with_advice(p3, make_advice(p3, net, (max_rounds + 1) // 3))

    return Protocol(f"pi4[{p3.name}]", None, setup=setup, stage=StageTag.PI4, params=p3.params)


def transform_chain(p0: Protocol, params: C2Params, stage: int) -> Protocol:
    """Apply the transformer ladder up to the requested stage (1..4)."""
    if not 1 <= stage <= 4:
        raise ValueError("stage must be in 1..4")
    proto = to_pi1(p0, params)
    if stage >= 2:
        proto = to_pi2(proto)
    if stage >= 3:
        proto = to_pi3(proto)
    if stage == 4:
        proto = to_pi4(proto)
    return proto
