"""Round-engine semantics: the collision rule, legality, traces."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radiolb import (
    INACTIVE,
    LISTEN,
    PAYLOAD,
    PHI,
    BroadcastPayload,
    C2Params,
    Execution,
    Network,
    Opaque,
    Protocol,
    Received,
    TopologyVector,
    Transmit,
    build_c2,
    completion_round,
    recompute_informed,
    round_robin,
    run,
    silent_l1,
    step_round,
    trace_to_jsonl,
)
from radiolb.errors import NonSourceRoundZero, SpontaneityViolation, UnknownLabel

MU = BroadcastPayload(PAYLOAD)


def path3():
    # a=0, b=1, c=2 in a path 0-1-2
    return Network([0, 1, 2], [(0, 1), (1, 2)])


def test_two_transmitting_neighbors_collide():
    net = path3()
    rec = step_round(net, {0: Transmit(MU), 1: LISTEN, 2: Transmit(MU)}, 0)
    assert rec.deliveries[1] == PHI
    assert rec.collided_receivers == frozenset({1})


def test_single_transmitter_delivers():
    # only the 0-1 edge; node 2 is isolated and inactive
    net = Network([0, 1, 2], [(0, 1)], require_connected=False)
    rec = step_round(net, {0: Transmit(MU), 1: LISTEN, 2: INACTIVE}, 5)
    assert rec.deliveries[1] == Received(0, MU)
    assert rec.deliveries[2] == PHI
    assert rec.collided_receivers == frozenset()


def test_all_listen_is_silence():
    net = path3()
    rec = step_round(net, {x: LISTEN for x in net.labels}, 0)
    assert all(obs == PHI for obs in rec.deliveries.values())
    assert rec.collided_receivers == frozenset()


def test_step_round_rejects_unknown_label():
    net = path3()
    with pytest.raises(UnknownLabel):
        step_round(net, {0: LISTEN, 1: LISTEN, 2: LISTEN, 9: LISTEN}, 0)


def test_step_round_requires_total_action_map():
    net = path3()
    with pytest.raises(ValueError):
        step_round(net, {0: LISTEN, 1: LISTEN}, 0)


def test_collision_and_silence_are_the_same_observation():
    net = Network([0, 1, 2, 3], [(0, 1), (1, 2), (1, 3)], require_connected=False)
    silence = step_round(net, {x: LISTEN for x in net.labels}, 0)
    jammed = step_round(
        net, {0: Transmit(MU), 1: LISTEN, 2: Transmit(MU), 3: INACTIVE}, 0
    )
    assert silence.deliveries[1] == jammed.deliveries[1] == PHI


# ---------------------------------------------------------------------------
# run()
# ---------------------------------------------------------------------------

def test_run_round_robin_smallest_family_instance():
    params = C2Params(1, 2)
    net = build_c2(params, TopologyVector((3,)))
    trace = run(net, round_robin(params), 3)
    assert len(trace.rounds) == 3
    round0 = trace.rounds[0]
    assert isinstance(round0.actions[0], Transmit)
    assert all(not isinstance(round0.actions[x], Transmit) for x in (1, 2, 3))
    assert trace.informed == {0: 0, 1: 0, 2: 0, 3: 1}


def test_run_silent_leaves_leaf_uninformed():
    params = C2Params(1, 2)
    net = build_c2(params, TopologyVector((3,)))
    trace = run(net, silent_l1(params), 5)
    transmissions = [
        (rec.round, x)
        for rec in trace.rounds
        for x, a in rec.actions.items()
        if isinstance(a, Transmit)
    ]
    assert transmissions == [(0, 0)]
    assert 3 not in trace.informed
    assert completion_round(trace) is None


def test_run_zero_rounds():
    params = C2Params(1, 2)
    net = build_c2(params, TopologyVector((1,)))
    trace = run(net, round_robin(params), 0)
    assert trace.rounds == []
    assert trace.informed == {0: 0}


def test_execution_steps_the_run_and_stops_at_its_bound(params22):
    net = build_c2(params22, TopologyVector((2, 3)))
    trace = run(net, round_robin(params22), 6)
    ex = Execution(net, round_robin(params22), 6)
    for rec in trace.rounds:
        assert ex.step() == rec
    assert ex.informed == trace.informed
    with pytest.raises(ValueError):
        ex.step()


def test_non_source_round_zero_rejected(params12):
    net = build_c2(params12, TopologyVector((3,)))

    def step(ctx):
        return Transmit(MU) if ctx.own_label == 1 else LISTEN

    from radiolb import Protocol

    with pytest.raises(NonSourceRoundZero):
        run(net, Protocol("rogue", step), 2)


def test_spontaneous_transmission_rejected(params12):
    net = build_c2(params12, TopologyVector((1,)))

    def step(ctx):
        if ctx.own_label == 0 and ctx.round == 0:
            return Transmit(MU)
        # node 2 (leaf, tau=1 means it only hears node 1) never informed
        return Transmit(MU) if ctx.own_label == 3 and ctx.round == 2 else LISTEN

    from radiolb import Protocol

    with pytest.raises(SpontaneityViolation):
        run(net, Protocol("eager", step), 3)


# ---------------------------------------------------------------------------
# Input checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("labels, edges, error, message", [
    ([-1, 0], [(-1, 0)], UnknownLabel, r"^labels must be non-negative$"),
    ([0, 1], [(0, 1), (1, 1)], ValueError, r"^self-loop on 1$"),
    ([0, 1], [(0, 1), (0, 2)], UnknownLabel, r"^edge \(0,2\) references a non-node$"),
    ([0, 1, 2], [(0, 1)], ValueError, r"^network is not connected$"),
])
def test_network_rejects_malformed_input(labels, edges, error, message):
    with pytest.raises(error, match=message):
        Network(labels, edges)


def test_neighbors_of_an_unknown_label_raise():
    with pytest.raises(UnknownLabel, match=r"^no node 3$"):
        path3().neighbors(3)


def test_execution_needs_a_source():
    net = Network([1, 2], [(1, 2)])
    with pytest.raises(UnknownLabel, match=r"^network has no source node \(label 0\)$"):
        Execution(net, silent_l1(C2Params(1, 1)), 1)


def test_equal_violations_collapse_in_a_set():
    found = {SpontaneityViolation(3, 4), SpontaneityViolation(3, 4), NonSourceRoundZero(3),
             SpontaneityViolation(3, 0), SpontaneityViolation(2, 4)}
    assert len(found) == 4


def test_a_step_returning_a_non_action_names_protocol_and_node():
    proto = Protocol("mute", lambda ctx: None if ctx.own_label == 1 else LISTEN)
    ex = Execution(path3(), proto, 1)
    with pytest.raises(TypeError, match=r"^mute returned None for node 1$"):
        ex.step()


# ---------------------------------------------------------------------------
# completion_round
# ---------------------------------------------------------------------------

def test_completion_round_robin_tau1(params12):
    net = build_c2(params12, TopologyVector((1,)))
    trace = run(net, round_robin(params12), 4)
    assert trace.informed[3] == 1
    assert completion_round(trace) == 2


def test_completion_single_edge_network():
    net = Network([0, 7], [(0, 7)])

    def step(ctx):
        return Transmit(MU) if ctx.own_label == 0 and ctx.round == 0 else LISTEN

    from radiolb import Protocol

    trace = run(net, Protocol("announce", step), 1)
    assert completion_round(trace) == 1


# ---------------------------------------------------------------------------
# Determinism, authentication, replay, serialization
# ---------------------------------------------------------------------------

def test_run_is_deterministic(params22):
    net = build_c2(params22, TopologyVector((3, 1)))
    a = run(net, round_robin(params22), 6)
    b = run(net, round_robin(params22), 6)
    assert trace_to_jsonl(a) == trace_to_jsonl(b)
    assert a.informed == b.informed


def test_deliveries_carry_true_transmitter_labels(params22):
    net = build_c2(params22, TopologyVector((3, 2)))
    trace = run(net, round_robin(params22), 6)
    for rec in trace.rounds:
        for x, obs in rec.deliveries.items():
            if isinstance(obs, Received):
                assert isinstance(rec.actions[obs.sender], Transmit)
                assert rec.actions[obs.sender].message == obs.message
                assert obs.sender in net.neighbors(x)


def test_informed_map_matches_replay(params22):
    net = build_c2(params22, TopologyVector((2, 3)))
    trace = run(net, round_robin(params22), 6)
    assert recompute_informed(trace) == trace.informed


def test_trace_serialization_shape(params12):
    net = build_c2(params12, TopologyVector((3,)))
    lines = trace_to_jsonl(run(net, round_robin(params12), 2))
    assert lines[0] == '{"collided":[],"round":0,"rx":[[1,0,"mu"],[2,0,"mu"]],"tx":[[0,"mu","6d75"]]}'
    assert lines[1] == '{"collided":[],"round":1,"rx":[[0,1,"mu"],[3,1,"mu"]],"tx":[[1,"mu","6d75"]]}'


# ---------------------------------------------------------------------------
# Property: the engine agrees with a directly-coded delivery rule
# ---------------------------------------------------------------------------

@st.composite
def graph_and_actions(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    labels = list(range(n))
    possible = [(a, b) for a in labels for b in labels if a < b]
    edges = draw(st.sets(st.sampled_from(possible), max_size=len(possible)))
    net = Network(labels, edges, require_connected=False)
    messages = [MU, Opaque(b"x"), Opaque(b"y")]
    actions = {}
    for x in labels:
        kind = draw(st.integers(min_value=0, max_value=3))
        if kind == 0:
            actions[x] = Transmit(draw(st.sampled_from(messages)))
        elif kind == 1:
            actions[x] = INACTIVE
        else:
            actions[x] = LISTEN
    return net, actions


@given(graph_and_actions())
@settings(max_examples=150, deadline=None)
def test_step_round_matches_brute_force(case):
    net, actions = case
    rec = step_round(net, actions, 0)
    # Brute-force rule, straight from the model: deliver iff listener with
    # exactly one transmitting neighbor.
    for x in net.labels:
        talkers = [
            v for v in net.neighbors(x) if isinstance(actions[v], Transmit)
        ]
        if isinstance(actions[x], type(LISTEN)) and len(talkers) == 1:
            expected = Received(talkers[0], actions[talkers[0]].message)
        else:
            expected = PHI
        assert rec.deliveries[x] == expected
        should_collide = isinstance(actions[x], type(LISTEN)) and len(talkers) >= 2
        assert (x in rec.collided_receivers) == should_collide
