"""Transformer correctness: the equivalence ladder and stage contracts.

The central facts under test, for every network of a family and every prey
protocol: middle- and leaf-layer actions are identical round for round
across all four stages, and a node informed in base round d is informed in
round 3d+1 of every staged run, so staged completion lands at exactly
3c - 1 when the base protocol completes at c (and incompleteness is
preserved).
"""

from __future__ import annotations

import dataclasses
import re

import pytest

from radiolb import (
    LISTEN,
    PAYLOAD,
    PHI,
    SOURCE,
    AdviceString,
    BroadcastPayload,
    C2Params,
    ComponentDesc,
    HistoryNode,
    Network,
    Opaque,
    Protocol,
    Received,
    SetFamily,
    StageTag,
    TopologyVector,
    Transmit,
    build_c2,
    check_legality,
    completion_round,
    core,
    enumerate_c2,
    last_informed_round,
    make_advice,
    pi4_with_advice,
    reductions,
    round_robin,
    run,
    selfam_driven,
    silent_l1,
    spawn,
    to_pi1,
    to_pi2,
    to_pi3,
    to_pi4,
    trace_to_jsonl,
)
from radiolb.c2 import layer_of
from radiolb.errors import ProtocolBindingError, StageMismatch
from radiolb.reductions import transform_chain

from preys import hash_prey, leaf_ack_prey, relay_prey


def preys(params: C2Params):
    return [
        round_robin(params),
        silent_l1(params),
        selfam_driven(params, SetFamily(params.k, tuple(1 << j for j in range(params.k)))),
        leaf_ack_prey(params),
        relay_prey(params),
    ]


def chain(p0, params):
    p1 = to_pi1(p0, params)
    p2 = to_pi2(p1)
    p3 = to_pi3(p2)
    p4 = to_pi4(p3)
    return [p1, p2, p3, p4]


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2)])
def test_equivalence_ladder_exact(m, k):
    params = C2Params(m, k)
    base_horizon = params.m * params.k + 4
    for p0 in preys(params):
        staged = chain(p0, params)
        for tv in enumerate_c2(params):
            net = build_c2(params, tv)
            c = completion_round(run(net, p0, base_horizon))
            for ps in staged:
                cs = completion_round(run(net, ps, 3 * base_horizon))
                if c is None:
                    assert cs is None, (p0.name, ps.name, tv)
                else:
                    assert cs == 3 * c - 1, (p0.name, ps.name, tv, c, cs)


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2)])
def test_informed_round_window(m, k):
    # the staged completion delivery lands inside the triple re-enacting
    # the base completion round: 3d <= staged informed round <= 3d+2
    params = C2Params(m, k)
    base_horizon = params.m * params.k + 4
    for p0 in preys(params):
        staged = chain(p0, params)
        for tv in enumerate_c2(params):
            net = build_c2(params, tv)
            d = last_informed_round(run(net, p0, base_horizon))
            if d is None:
                continue
            for ps in staged:
                ds = last_informed_round(run(net, ps, 3 * base_horizon))
                assert 3 * d <= ds <= 3 * d + 2
                assert ds == 3 * d + 1  # deliveries ride the middle sub-round


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2)])
def test_non_source_actions_identical_across_stages(m, k):
    params = C2Params(m, k)
    horizon = 3 * (params.m * params.k + 4)
    for p0 in preys(params):
        staged = chain(p0, params)
        for tv in enumerate_c2(params):
            net = build_c2(params, tv)
            traces = [run(net, ps, horizon) for ps in staged]
            for rnd in range(horizon):
                reference = traces[0].rounds[rnd].actions
                for other in traces[1:]:
                    acts = other.rounds[rnd].actions
                    for x in net.labels:
                        if x != SOURCE:
                            assert acts[x] == reference[x], (p0.name, tv, rnd, x)


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2)])
def test_layer_phase_discipline(m, k):
    params = C2Params(m, k)
    horizon = 3 * (params.m * params.k + 4)
    for p0 in preys(params):
        for ps in chain(p0, params):
            for tv in enumerate_c2(params):
                trace = run(build_c2(params, tv), ps, horizon)
                for rec in trace.rounds:
                    for x, act in rec.actions.items():
                        if isinstance(act, Transmit):
                            assert layer_of(x, params) == rec.round % 3


def test_staged_protocols_stay_legal(params22):
    for p0 in preys(params22):
        for ps in chain(p0, params22):
            for tv in enumerate_c2(params22):
                assert check_legality(ps, build_c2(params22, tv), 18) == []


@pytest.mark.parametrize("seed", range(8))
def test_equivalence_ladder_for_arbitrary_preys(seed, params22):
    # Pseudo-random preys reach states the curated corpus never does:
    # transmitting sources, source+leaf same-round collisions at a middle
    # node, leaves eligible to transmit before they hold the payload.
    #
    # The base-to-staged map is one-sided for such protocols. Every base
    # delivery re-occurs inside its round triple, so a base completion at c
    # forces staged completion within the 3c budget; but phase separation
    # can deliver EARLIER (a leaf transmitting in the decisive base round
    # observes phi there, yet listens in the staged sub-round carrying the
    # payload), so the exact 3c-1 law of listening-leaf protocols does not
    # apply. Stages 1..4 must still be indistinguishable off the source.
    p0 = hash_prey(params22, seed)
    staged = chain(p0, params22)
    base_horizon = 8
    for tv in enumerate_c2(params22):
        net = build_c2(params22, tv)
        c = completion_round(run(net, p0, base_horizon))
        traces = [run(net, ps, 3 * base_horizon) for ps in staged]
        completions = [completion_round(t) for t in traces]
        if c is not None:
            for cs in completions:
                assert cs is not None and cs <= 3 * c, (seed, tv.taus, c, cs)
        assert len(set(completions)) == 1, (seed, tv.taus, completions)
        for rnd in range(3 * base_horizon):
            reference = traces[0].rounds[rnd].actions
            for other in traces[1:]:
                for x in net.labels:
                    if x != SOURCE:
                        assert other.rounds[rnd].actions[x] == reference[x], (
                            seed, tv.taus, rnd, x,
                        )


def test_silent_stays_silent_after_round_zero(params22):
    p1 = to_pi1(silent_l1(params22), params22)
    trace = run(build_c2(params22, TopologyVector((3, 1))), p1, 12)
    txs = [
        (rec.round, x)
        for rec in trace.rounds
        for x, a in rec.actions.items()
        if isinstance(a, Transmit)
    ]
    assert txs == [(0, 0)]


def test_stage_one_steps_each_base_node_once_per_base_round():
    # A stage-1 node carries its base self forward one collapsed triple at a
    # time, so a run of R base rounds asks every node's base self R actions.
    params = C2Params(3, 3)
    p0 = hash_prey(params, seed=7)
    calls = []

    def counted(ctx):
        calls.append(ctx.round)
        return p0.step(ctx)

    net = build_c2(params, TopologyVector((3, 5, 6)))
    base_rounds = 40
    run(net, to_pi1(dataclasses.replace(p0, step=counted), params), 3 * base_rounds)
    assert len(calls) == net.n * base_rounds == 520


# ---------------------------------------------------------------------------
# Stage-2 specifics: the source echoes its last middle-layer reception
# ---------------------------------------------------------------------------

def test_echo_fidelity(params22):
    p2 = to_pi2(to_pi1(relay_prey(params22), params22))
    for tv in ((3, 1), (2, 3), (3, 3)):
        trace = run(build_c2(params22, TopologyVector(tv)), p2, 18)
        for rec in trace.rounds:
            if rec.round == 0 or rec.round % 3 != 0:
                continue
            heard = trace.rounds[rec.round - 2].deliveries[SOURCE]
            act = rec.actions[SOURCE]
            if isinstance(act, Transmit):
                assert act.message == heard.message
            else:
                assert not hasattr(heard, "message")


# ---------------------------------------------------------------------------
# Stage-3 specifics: descriptors name the lone transmitter's component
# ---------------------------------------------------------------------------

def test_descriptor_names_the_transmitting_component(params22):
    p3 = to_pi3(to_pi2(to_pi1(round_robin(params22), params22)))
    net = build_c2(params22, TopologyVector((3, 1)))
    trace = run(net, p3, 15)
    # node 3 (component 1) re-enacts its base round-3 transmission at round 10
    assert isinstance(trace.rounds[10].actions[3], Transmit)
    solo = [x for x, a in trace.rounds[10].actions.items() if isinstance(a, Transmit)]
    assert solo == [3]
    assert trace.rounds[12].actions[SOURCE] == Transmit(ComponentDesc(1, 1))


def test_source_silent_when_no_middle_transmission(params22):
    p3 = to_pi3(to_pi2(to_pi1(silent_l1(params22), params22)))
    trace = run(build_c2(params22, TopologyVector((2, 2))), p3, 12)
    for rec in trace.rounds[1:]:
        assert not isinstance(rec.actions[SOURCE], Transmit)


# ---------------------------------------------------------------------------
# Advice
# ---------------------------------------------------------------------------

def test_advice_of_silent_is_all_phi(params22):
    p3 = to_pi3(to_pi2(to_pi1(silent_l1(params22), params22)))
    adv = make_advice(p3, build_c2(params22, TopologyVector((3, 2))), 4)
    assert adv.entries == (None, None, None)
    assert adv.encode() == "adv:phi,phi,phi"


def test_advice_of_round_robin_has_one_descriptor(params12):
    p3 = to_pi3(to_pi2(to_pi1(round_robin(params12), params12)))
    adv = make_advice(p3, build_c2(params12, TopologyVector((3,))), 3)
    assert adv.entries == (None, ComponentDesc(0, 3))
    assert adv.encode() == "adv:phi,0:3"


def test_advice_degenerate_budget(params12):
    p3 = to_pi3(to_pi2(to_pi1(round_robin(params12), params12)))
    assert make_advice(p3, build_c2(params12, TopologyVector((1,))), 1).entries == ()


def test_advice_matches_observed_source_transmissions(params22):
    p3 = to_pi3(to_pi2(to_pi1(relay_prey(params22), params22)))
    net = build_c2(params22, TopologyVector((3, 2)))
    r = 5
    adv = make_advice(p3, net, r)
    trace = run(net, p3, 3 * r)
    for t in range(1, r):
        act = trace.rounds[3 * t].actions[SOURCE]
        if adv.entries[t - 1] is None:
            assert not isinstance(act, Transmit)
        else:
            assert act == Transmit(adv.entries[t - 1])


def test_advice_encoding_round_trip():
    adv = AdviceString((None, ComponentDesc(1, 5), None, ComponentDesc(0, 2)))
    assert AdviceString.decode(adv.encode()) == adv
    assert AdviceString.decode("adv:") == AdviceString(())
    with pytest.raises(ValueError, match=r"^not an advice encoding: 'phi'$"):
        AdviceString.decode("phi")


def test_advice_of_a_source_sending_a_non_descriptor_is_refused(params12):
    # tagged stage 3, but its source sends an opaque message in round 3
    def step(ctx):
        if ctx.own_label != SOURCE or ctx.round not in (0, 3):
            return LISTEN
        return Transmit(BroadcastPayload(PAYLOAD) if ctx.round == 0 else Opaque(b"x"))

    p3 = Protocol("opaque-source", step, stage=StageTag.PI3, params=params12)
    with pytest.raises(StageMismatch, match=r"^stage-3 source transmitted a non-descriptor$"):
        make_advice(p3, build_c2(params12, TopologyVector((1,))), 2)


# ---------------------------------------------------------------------------
# Stage-4 specifics
# ---------------------------------------------------------------------------

def test_pi4_source_transmits_exactly_once(params22):
    p4 = to_pi4(to_pi3(to_pi2(to_pi1(round_robin(params22), params22))))
    for tv in ((1, 1), (3, 2)):
        trace = run(build_c2(params22, TopologyVector(tv)), p4, 18)
        src_tx = [rec.round for rec in trace.rounds if isinstance(rec.actions[SOURCE], Transmit)]
        assert src_tx == [0]
        first = trace.rounds[0].actions[SOURCE].message
        assert isinstance(first, BroadcastPayload)
        assert isinstance(first.advice, AdviceString)


def test_pi4_completion_parity_with_pi3(params22):
    r = 6
    for p0 in preys(params22):
        p3 = to_pi3(to_pi2(to_pi1(p0, params22)))
        p4 = to_pi4(p3)
        for tv in enumerate_c2(params22):
            net = build_c2(params22, tv)
            done3 = completion_round(run(net, p3, 3 * r)) is not None
            done4 = completion_round(run(net, p4, 3 * r)) is not None
            assert done3 == done4


def test_wrong_advice_changes_behavior_somewhere(params22):
    # Negative control: stage 4 is only guaranteed to track stage 3 under
    # the network's own advice. With a topology-sensitive prey there is a
    # pair of networks where swapped advice visibly diverges.
    p3 = to_pi3(to_pi2(to_pi1(relay_prey(params22), params22)))
    r = 6
    vectors = list(enumerate_c2(params22))
    advices = {tv: make_advice(p3, build_c2(params22, tv), r) for tv in vectors}
    diverged = []
    for n_tv in vectors:
        for m_tv in vectors:
            if n_tv == m_tv or advices[n_tv] == advices[m_tv]:
                continue
            net = build_c2(params22, m_tv)
            own = run(net, pi4_with_advice(p3, advices[m_tv]), 3 * r)
            swapped = run(net, pi4_with_advice(p3, advices[n_tv]), 3 * r)
            if trace_to_jsonl(own) != trace_to_jsonl(swapped):
                diverged.append((n_tv, m_tv))
    assert diverged, "swapped advice never changed any trace"


def test_short_advice_is_refused_at_the_act_that_reads_it(params22):
    # Entry s is read at the middle nodes' act in round 3s+1, so empty
    # advice carries a run through round 3 and is refused in round 4.
    p3 = to_pi3(to_pi2(to_pi1(round_robin(params22), params22)))
    p4 = pi4_with_advice(p3, AdviceString(()))
    net = build_c2(params22, TopologyVector((1, 1)))
    assert len(run(net, p4, 4).rounds) == 4
    with pytest.raises(ProtocolBindingError, match=r"^advice has 0 entries, round 4 needs 1$"):
        run(net, p4, 5)


def test_advice_holding_a_non_descriptor_is_refused(params12):
    # advice entry 1 reaches the stage-3 self as the round-3 observation
    p3 = transform_chain(round_robin(params12), params12, 3)
    p4 = pi4_with_advice(p3, AdviceString((Opaque(b"x"),)))
    net = build_c2(params12, TopologyVector((1,)))
    with pytest.raises(ProtocolBindingError,
                       match=r"^expected a component descriptor at round 3$"):
        run(net, p4, 5)


def test_middle_node_without_advice_refuses_to_act(params22):
    p3 = to_pi3(to_pi2(to_pi1(round_robin(params22), params22)))
    node = spawn(pi4_with_advice(p3, AdviceString(())), 1, (SOURCE, 5))
    assert node.act(0) == LISTEN
    node.observe(PHI)  # the round-0 payload, and the advice with it, never arrived
    with pytest.raises(ProtocolBindingError, match=r"^middle node saw no advice in round 0$"):
        node.act(1)


@pytest.mark.parametrize("stage", [1, 2, 3, 4])
def test_staged_node_holds_its_base_self_directly(stage, params22):
    # Every stage-s middle node and leaf (and the stage-1 source) is one
    # _Phased around its base node process; a middle node's column has one
    # step per stage above 1 and a leaf's is empty, whatever the stage.
    net = build_c2(params22, TopologyVector((1, 1)))
    proto = transform_chain(round_robin(params22), params22, stage)
    if proto.setup is not None:
        proto = proto.setup(net, 9)
    for x in sorted(net.labels):
        node = spawn(proto, x, tuple(sorted(net.neighbors(x))))
        if x == SOURCE and stage > 1:
            assert type(node) is reductions._Source
            continue
        assert type(node) is reductions._Phased
        assert type(node.base) is HistoryNode
        assert len(node.column) == (stage - 1 if layer_of(x, params22) == 1 else 0)


def test_middle_nodes_hear_what_the_network_delivers_at_every_stage(params22):
    # A hand-built edge between middle nodes 1 and 3 delivers node 1's
    # round-4 transmission to node 3. Every stage hands it to node 3's base
    # self: only the sub-round-0 observation is rebuilt by a middle node's
    # column.
    c2net = build_c2(params22, TopologyVector((1, 1)))
    net = Network(c2net.labels, sorted(c2net.edges()) + [(1, 3)], c2_params=params22,
                  c2_taus=(1, 1))
    p0 = round_robin(params22)
    for stage in (1, 2, 3, 4):
        ex = core.Execution(net, transform_chain(p0, params22, stage), 8)
        for _ in range(8):  # triple 1 reaches node 3's base self at its act in round 7
            ex.step()
        assert ex.nodes[3].base.history[1] == Received(1, BroadcastPayload(PAYLOAD)), stage


# ---------------------------------------------------------------------------
# Stage bookkeeping
# ---------------------------------------------------------------------------

def test_stage_mismatch_errors(params12):
    p0 = round_robin(params12)
    p1 = to_pi1(p0, params12)
    p2 = to_pi2(p1)
    with pytest.raises(StageMismatch):
        to_pi2(p0)
    with pytest.raises(StageMismatch):
        to_pi3(p1)
    with pytest.raises(StageMismatch):
        to_pi4(p2)
    with pytest.raises(StageMismatch):
        make_advice(p2, build_c2(params12, TopologyVector((1,))), 2)
    with pytest.raises(StageMismatch):
        pi4_with_advice(p1, AdviceString(()))
    with pytest.raises(StageMismatch, match=r"^to_pi2 needs a protocol carrying family parameters$"):
        to_pi2(dataclasses.replace(p1, params=None))


@pytest.mark.parametrize("stage", [1, 2, 3, 4])
def test_a_run_on_another_familys_network_is_refused(stage):
    # node 3 is a leaf of (1,2) but a middle node of (2,2): the run would
    # complete at round 5 for stages 1 and 3 if the engine let it start
    params = C2Params(2, 2)
    net = build_c2(C2Params(1, 2), TopologyVector((3,)))
    proto = transform_chain(round_robin(params), params, stage)
    msg = f"{proto.name} on family {C2Params(1, 2)} got a protocol for {params}"
    with pytest.raises(StageMismatch, match=f"^{re.escape(msg)}$"):
        run(net, proto, 12)


def test_to_pi1_refuses_a_base_protocol_for_another_family(params12, params22):
    msg = f"to_pi1 on family {params12} got a protocol for {params22}"
    with pytest.raises(StageMismatch, match=f"^{re.escape(msg)}$"):
        to_pi1(round_robin(params22), params12)


def test_only_a_bound_protocol_spawns(params22):
    # spawn is the one place that refuses an unbound protocol: every node of
    # an unbound stage 3 or stage 4, and a run whose setup does not bind
    net = build_c2(params22, TopologyVector((1, 1)))
    p3 = transform_chain(round_robin(params22), params22, 3)
    for proto in (p3, to_pi4(p3)):
        for x in sorted(net.labels):
            with pytest.raises(ProtocolBindingError, match=rf"^{re.escape(proto.name)} is unbound"):
                spawn(proto, x, tuple(sorted(net.neighbors(x))))
    lazy = dataclasses.replace(p3, setup=lambda net, max_rounds: p3)
    with pytest.raises(ProtocolBindingError, match=rf"^{re.escape(p3.name)} is unbound"):
        core.Execution(net, lazy, 3)


def test_transform_chain_stages(params12):
    p0 = round_robin(params12)
    assert transform_chain(p0, params12, 1).stage.value == "pi1"
    assert transform_chain(p0, params12, 4).stage.value == "pi4"
    with pytest.raises(ValueError):
        transform_chain(p0, params12, 5)
