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
           echo by simulating the named component at stage 1 against the
           source column they rebuilt so far.
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
rebuilds what the stage-1 source sent, round 0 included, from advice
(stage 4), descriptors (stage 3) and echoes (stage 2); its stage-2 step,
the source replica, keeps it. Leaves run their stage-1 selves.

``middle_tx`` is the one reader of a run on the source plus one component
(``c2.component_net``): it yields the middle nodes' transmissions of each
round 3j+1. Pruning and the Z-sweep read advised stage-4 runs with it, and
stage 3 its component simulations, whose source replays a middle node's
source column and in which an illegal transmission is suppressed.

There are no module-level caches. A bound stage 2-4 protocol keeps one
record of its middle nodes' column, its output for each round 3s so far,
written by the first node to get that far; only that node steps its own.
The record lives exactly as long as the column's input is fixed. Only the
source acts in sub-round 0 and every middle node is adjacent to it (one
that is not is refused when it is spawned), so all of them hear the same
round 3s, and nothing node-specific enters a column. ``to_pi2``,
``to_pi3`` and ``to_pi4`` are unbound and bind a copy, and with it a
record, per run; ``pi4_with_advice``'s source sends its advice in round
0 and is silent afterwards, so it has one record per advice and a whole
prune shares one. And each stage-3 protocol keeps its simulations, shared
by all its runs, at most one per (component, tau): each records the echo
it rebuilt after every prefix of its script, so a prefix it has played is
answered from the record and a longer one by stepping on.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
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

    def encode(self) -> str:
        body = ",".join(
            "phi" if e is None else f"{e.component}:{e.tau}" for e in self.entries
        )
        return "adv:" + body


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

    The middle nodes of one bound protocol share its ``record`` of the
    column, the output of each round 3s so far, since they all hear the
    same round 3s. A node takes entry s where the record has it; at the
    record's end it hands its own steps every input they have not taken,
    and appends the last output. A check that raises is not recorded, so
    every run meets it at the same act, with the same state.
    """

    def __init__(self, base, layer: int, column: tuple = (), record: list | None = None):
        self.base, self.layer, self.column, self.record = base, layer, column, record
        self.action = None  # the base action of the current triple
        self.got: list[Received] = []
        self.pending: list = []
        self.seen: list = []  # the column's inputs, the observations of rounds 3s

    def act(self, round: int):
        t, phase = divmod(round, 3)
        if phase != self.layer:
            return LISTEN
        for r, obs in enumerate(self.pending, round - len(self.pending)):
            if r % 3 == 0 and self.column:
                obs = self._said(r // 3, obs)
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

    def _said(self, s: int, obs):
        """The column's output for round 3s: the record's entry s, or, at
        the record's end, the own steps' output once they have taken every
        input up to ``obs``, which the record gains."""
        self.seen.append(obs)
        if s < len(self.record):
            return self.record[s]
        # the _Echo, the last step, has said one message per input taken
        for i in range(len(self.column[-1].said), s + 1):
            out = self.seen[i]
            for step in self.column:
                out = step(i, out)
        self.record.append(out)
        return out


def to_pi1(p0: Protocol, params: C2Params) -> Protocol:
    """Phase-separate a base protocol over round triples (stage 1). One built
    for other family parameters is refused here: runs see only ``params``."""
    core.require_family("to_pi1", params, p0)

    def node(own, neighbors):
        return _Phased(spawn(p0, own, neighbors), layer_of(own, params))

    return Protocol(f"pi1[{p0.name}]", None, stage=StageTag.PI1, params=params, node=node)


def middle_tx(net: Network, proto: Protocol, rounds=math.inf, **run):
    """Step ``core.Execution(net, proto, rounds, **run)`` on the source plus
    one component and yield, after each round 3j+1, the messages of the
    transmitting middle nodes by index among the source's neighbours in
    label order. Rounds play only as they are asked for."""
    ex = core.Execution(net, proto, rounds, **run)
    mids = sorted(net.neighbors(SOURCE))
    while ex.round < rounds:
        rec = ex.step()
        if rec.round % 3 == 1:  # middle nodes act in sub-round 1
            yield {j: act.message for j, x in enumerate(mids)
                   if isinstance(act := rec.actions[x], Transmit)}


# ---------------------------------------------------------------------------
# Stages 2-4: the source's column, rebuilt by the middle nodes
# ---------------------------------------------------------------------------

class _Source:
    """Stage 2-4 source: ``first`` in round 0; in each round 3s, s >= 1,
    ``say(s, heard)`` of what it observed in round 3s-2; silence otherwise
    and for None. In a component simulation, ``first`` and ``say`` replay
    a stage-1 source's column and illegal acts are suppressed."""

    def __init__(self, first, say=lambda s, heard: None):
        self.first, self.say = first, say
        self.heard, self.rounds = PHI, 0

    def act(self, round: int):
        s, phase = divmod(round, 3)
        msg = None if phase else (self.say(s, self.heard) if s else self.first)
        return LISTEN if msg is None else Transmit(msg)

    def observe(self, obs) -> None:
        if self.rounds % 3 == 1:
            self.heard = obs
        self.rounds += 1


def _staged(inner: Protocol, stage: StageTag, source, step, setup=None) -> Protocol:
    """A stage 2-4 protocol over ``inner``: ``source()`` builds the source's
    node, a middle node is its previous-stage self with ``step(*column)``
    put in front of its column and this protocol's one column record, and
    a leaf is its previous-stage self. That self comes from ``inner.node``:
    each stage runs over the unbound protocol below it, and only a source
    needs binding (``source`` is None until then). A middle node that is
    not adjacent to the source is refused when it is spawned: it would
    hear phi where the others hear the source."""
    params, record = inner.params, []

    def node(own, neighbors):
        lay = layer_of(own, params)
        if lay == 0:
            return source()
        if lay == 1 and SOURCE not in neighbors:
            raise ProtocolBindingError(f"middle node {own} is not adjacent to the source")
        me = inner.node(own, neighbors)
        if lay == 2:
            return me
        return _Phased(me.base, 1, (step(*me.column), *me.column), record)

    return Protocol(f"{stage.value}[{inner.name}]", None, setup=setup, stage=stage,
                    params=params, node=node)


# ---------------------------------------------------------------------------
# Stage 2: echoing source
# ---------------------------------------------------------------------------

class _Echo:
    """Stage-2 column step: a replica of ``p1``'s source fed the echo
    stream, and the stage-1 source's column as its node's own steps
    rebuilt it: ``said[s]`` is its message in round 3s (None for silence),
    round 0 included. The echo of round 3s tells what the source received
    in round 3s-2; its other sub-rounds are necessarily phi (no neighbor of
    the source transmits there). The replica is spawned at step 0, so a
    node that reads only the record never builds one."""

    def __init__(self, p1: Protocol, labels: tuple):
        self.p1, self.labels, self.said = p1, labels, []

    def __call__(self, s: int, obs):
        if s:
            echoed = Received(UNKNOWN_SENDER, obs.message) if isinstance(obs, Received) else PHI
            for seen in (PHI, echoed, PHI):
                self.source.observe(seen)
        else:
            self.source = spawn(self.p1, SOURCE, self.labels)
        act = self.source.act(3 * s)
        self.said.append(act.message if isinstance(act, Transmit) else None)
        return PHI if self.said[-1] is None else Received(SOURCE, self.said[-1])


def to_pi2(p1: Protocol) -> Protocol:
    """Make the source a pure repeater (stage 2). The returned protocol is
    unbound; ``setup`` returns a copy, with its own column record, for one
    run. For a source that ignores sender labels, middle and leaf columns
    match stage 1's on any network over the c2 labels whose source is
    adjacent to exactly the middle layer."""
    require_stage(p1, StageTag.PI1, "to_pi2")
    params = p1.params
    all_l1 = tuple(range(1, params.m * params.k + 1))
    source = partial(_Source, BroadcastPayload(PAYLOAD),
                     lambda s, heard: heard.message if isinstance(heard, Received) else None)
    echo = partial(_Echo, p1, all_l1)
    return _staged(p1, StageTag.PI2, None, echo,
                   lambda net, max_rounds: _staged(p1, StageTag.PI2, source, echo))


# ---------------------------------------------------------------------------
# Stage 3: topology descriptors
# ---------------------------------------------------------------------------

class _EchoSim:
    """One component run against a scripted source, carried forward.

    The run (read by ``middle_tx``) is stage 1 on the component alone,
    whose source is a ``_Source`` replaying a stage-1 source's column:
    ``first`` in round 0, then ``script[s]`` in round 3s. ``script`` holds
    the entries played so far, and ``heard[s]`` the message of the lone
    middle-layer transmitter in round 3s+1 (None when zero or several
    transmit) for every s played. An illegal transmission inside the run
    is suppressed, never raised: the script may be another network's, and
    on the network it comes from the real run meets that act first. Under
    a source silent in round 0 the staged run's middle nodes still heard
    the staged payload, so only the suppression of acts illegal at stage 1
    can differ.
    """

    def __init__(self, p1: Protocol, params: C2Params, desc: ComponentDesc, first):
        script = self.script = []
        self.heard: list = []
        source = _Source(first, lambda s, heard: script[s])
        proto = replace(p1, node=lambda own, nbrs: source if own == SOURCE else p1.node(own, nbrs))
        self.tx = middle_tx(component_net(params, desc.component, desc.tau), proto,
                            collect_violations=[])

    def advance(self, said: list) -> Message | None:
        """The lone transmitter's message in round 3*len(said)-2 under
        script ``said``, which must agree with ``script`` on their common
        prefix; plays on through that round if it is still ahead."""
        self.script.extend(said[len(self.script):])
        while len(self.heard) < len(said):
            tx = [*next(self.tx).values()]
            self.heard.append(tx[0] if len(tx) == 1 else None)
        return self.heard[len(said) - 1]


class _Desc:
    """Stage-3 column step: rebuilds the echo stream from the descriptor
    stream. Descriptor s names the component whose lone member was heard in
    round 3s-2; simulating that component against the source column the
    node rebuilt so far, ``echo.said``, recovers the message itself.

    ``sims``, shared by all the stage-3 protocol's nodes, holds at most one
    ``_EchoSim`` per (component, tau). When its script and the column so
    far agree on their common prefix it answers from its record, or steps
    on from where it stopped; otherwise (another network's column diverged
    from it) the component is simulated again from round 0. A descriptor
    that does not yield exactly one transmitter cannot have come from a
    matching execution (wrong-network advice); it maps to silence, keeping
    the run total and deterministic.
    """

    def __init__(self, params: C2Params, sims: dict, echo: _Echo):
        self.params, self.sims, self.echo = params, sims, echo

    def __call__(self, s: int, obs):
        if not (s and isinstance(obs, Received)):
            return PHI  # round 0 is the _Echo's own
        desc, said = obs.message, self.echo.said
        if not isinstance(desc, ComponentDesc):
            raise ProtocolBindingError(f"expected a component descriptor at round {3 * s}")
        key = (desc.component, desc.tau)
        sim = self.sims.pop(key, None)  # put back only once it has played on cleanly
        if sim is None or sim.script[:len(said)] != said[:len(sim.script)]:
            sim = _EchoSim(self.echo.p1, self.params, desc, said[0])
        echo = sim.advance(said)
        self.sims[key] = sim
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
    desc = partial(_Desc, params, {})

    def setup(net: Network, max_rounds: int) -> Protocol:
        taus = c2_taus(net)

        def describe(s, heard):
            if not isinstance(heard, Received):
                return None
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
    from it changes the spontaneous-leaf prey's recorded outputs. An illegal
    act is suppressed here, not raised: a stage-4 run plays the same column
    at least as far, and raises or collects it there."""
    require_stage(p3, StageTag.PI3, "make_advice")
    if r <= 1:
        return AdviceString(())
    trace = core.run(net, p3, 3 * (r - 1) + 1, collect_violations=[])
    acts = [trace.rounds[3 * t].actions[SOURCE] for t in range(1, r)]
    entries = tuple(a.message if isinstance(a, Transmit) else None for a in acts)
    if any(e is not None and not isinstance(e, ComponentDesc) for e in entries):
        raise StageMismatch("stage-3 source transmitted a non-descriptor")
    return AdviceString(entries)


class _Advised:
    """Stage-4 column step: the advice is exactly the descriptor stream a
    stage-3 source would have transmitted. It comes with the round-0
    payload; what the base self sees in round 0 is the ``_Echo``'s."""

    def __init__(self):
        self.advice = None

    def __call__(self, s: int, obs):
        if s == 0:
            if not (isinstance(obs, Received) and isinstance(obs.message, BroadcastPayload)
                    and isinstance(obs.message.advice, AdviceString)):
                raise ProtocolBindingError("middle node saw no advice in round 0")
            self.advice = obs.message.advice
            return obs
        if len(self.advice.entries) < s:
            raise ProtocolBindingError(
                f"advice has {len(self.advice.entries)} entries, round {3 * s + 1} needs {s}"
            )
        entry = self.advice.entries[s - 1]
        return PHI if entry is None else Received(SOURCE, entry)


def pi4_with_advice(p3: Protocol, advice: AdviceString) -> Protocol:
    """Stage 4 under a fixed advice string (not necessarily the network's own)."""
    require_stage(p3, StageTag.PI3, "pi4_with_advice")
    return _staged(p3, StageTag.PI4, lambda: _Source(BroadcastPayload(PAYLOAD, advice)),
                   lambda *column: _Advised())


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
    for up in (to_pi2, to_pi3, to_pi4)[:stage - 1]:
        proto = up(proto)
    return proto
