"""Protocol abstraction: legality probe, reference protocols, purity."""

from __future__ import annotations

import copy

import pytest

from radiolb import (
    LISTEN,
    PAYLOAD,
    SOURCE,
    BroadcastPayload,
    C2Params,
    Network,
    Protocol,
    Received,
    SetFamily,
    TopologyVector,
    Transmit,
    build_c2,
    check_legality,
    completion_round,
    enumerate_c2,
    l1_index,
    layer_of,
    mask_to_indices,
    round_robin,
    run,
    selfam_driven,
    silent_l1,
)
from radiolb.errors import IndexOutOfUniverse, NonSourceRoundZero, SpontaneityViolation, UnknownLabel
from radiolb.protocols import ProtocolContext, get_protocol

MU = BroadcastPayload(PAYLOAD)


def test_round_robin_is_legal_on_the_whole_family(params22):
    proto = round_robin(params22)
    for tv in enumerate_c2(params22):
        assert check_legality(proto, build_c2(params22, tv), 8) == []


def test_round_zero_rogue_is_reported(params12):
    def step(ctx):
        if ctx.own_label == 0 and ctx.round == 0:
            return Transmit(MU)
        return Transmit(MU) if ctx.own_label == 1 and ctx.round == 0 else LISTEN

    violations = check_legality(Protocol("rogue", step), build_c2(params12, TopologyVector((3,))), 2)
    assert violations == [NonSourceRoundZero(1)]


def test_uninformed_transmitter_is_reported(params12):
    net = build_c2(params12, TopologyVector((1,)))  # leaf 3 hears only node 1

    def step(ctx):
        if ctx.own_label == 0 and ctx.round == 0:
            return Transmit(MU)
        return Transmit(MU) if ctx.own_label == 3 and ctx.round == 2 else LISTEN

    assert check_legality(Protocol("eager", step), net, 4) == [SpontaneityViolation(3, 2)]


# ---------------------------------------------------------------------------
# The reference schedules
# ---------------------------------------------------------------------------

def test_each_node_transmits_on_its_schedule_once_informed(params22):
    fam = SetFamily(2, (1, 2, 3))
    schedules = [  # (protocol, the rounds t in which middle node x may transmit)
        (round_robin(params22), lambda x, t: t == x),
        (selfam_driven(params22, fam),
         lambda x, t: 1 <= t <= 3 and l1_index(x, params22) in mask_to_indices(fam.sets[t - 1])),
        (silent_l1(params22), lambda x, t: False),
    ]
    for tv in enumerate_c2(params22):
        net = build_c2(params22, tv)
        for proto, scheduled in schedules:
            trace = run(net, proto, 10)
            for rec in trace.rounds:
                t = rec.round
                for x, act in rec.actions.items():
                    if x == SOURCE:
                        want = t == 0
                    elif layer_of(x, params22) == 1:
                        want = scheduled(x, t) and trace.informed.get(x, t) < t
                    else:
                        want = False
                    assert isinstance(act, Transmit) == want, (proto.name, tv, x, t)


def test_silent_alone_runs_where_the_labels_lie_outside_its_family():
    # silent never asks for a node's layer; the others do at its first act
    net, params = Network([0, 9], [(0, 9)]), C2Params(1, 1)
    trace = run(net, silent_l1(params), 3)
    assert (len(trace.rounds), trace.informed) == (3, {0: 0, 9: 0})
    for proto in (round_robin(params), selfam_driven(params, SetFamily(1, (1,)))):
        with pytest.raises(UnknownLabel, match=r"^label 9 outside \[0, 3\)$"):
            run(net, proto, 3)


# ---------------------------------------------------------------------------
# round_robin
# ---------------------------------------------------------------------------

def test_round_robin_completions(params12):
    proto = round_robin(params12)
    by_tau = {}
    for tau in (1, 2, 3):
        trace = run(build_c2(params12, TopologyVector((tau,))), proto, 5)
        first = next(
            obs for rec in trace.rounds
            for x, obs in rec.deliveries.items()
            if x == 3 and isinstance(obs, Received)
        )
        by_tau[tau] = (completion_round(trace), first.sender)
    # tau=2 delays completion to round 3 (leaf adjacent only to node 2);
    # tau=1 and tau=3 both finish at round 2 with node 1 delivering first.
    assert by_tau == {1: (2, 1), 2: (3, 2), 3: (2, 1)}


# ---------------------------------------------------------------------------
# selfam_driven
# ---------------------------------------------------------------------------

def test_selfam_singletons_complete_everywhere(params12):
    fam = SetFamily(2, (0b01, 0b10))
    proto = selfam_driven(params12, fam)
    for tau in (1, 2, 3):
        trace = run(build_c2(params12, TopologyVector((tau,))), proto, 3)
        assert completion_round(trace) is not None
        assert completion_round(trace) <= 3


def test_selfam_pair_collides_forever(params12):
    fam = SetFamily(2, (0b11,))
    trace = run(build_c2(params12, TopologyVector((3,))), selfam_driven(params12, fam), 6)
    assert completion_round(trace) is None
    assert 3 in trace.rounds[1].collided_receivers


def test_selfam_empty_family_never_completes(params12):
    trace = run(
        build_c2(params12, TopologyVector((3,))),
        selfam_driven(params12, SetFamily(2, ())),
        6,
    )
    assert completion_round(trace) is None


def test_selfam_universe_mismatch(params12):
    with pytest.raises(IndexOutOfUniverse):
        selfam_driven(params12, SetFamily(3, (0b1,)))


# ---------------------------------------------------------------------------
# Purity and registry
# ---------------------------------------------------------------------------

def test_steps_are_pure_on_copied_contexts(params22):
    net = build_c2(params22, TopologyVector((3, 2)))
    proto = round_robin(params22)
    trace = run(net, proto, 6)
    history: dict[int, list] = {x: [] for x in net.labels}
    for rec in trace.rounds:
        for x in sorted(net.labels):
            ctx = ProtocolContext(
                x,
                tuple(sorted(net.neighbors(x))),
                rec.round,
                tuple(history[x]),
            )
            assert proto.step(ctx) == proto.step(copy.deepcopy(ctx)) == rec.actions[x]
        for x in net.labels:
            history[x].append(rec.deliveries[x])


def test_registry_round_trip(tmp_path, params12):
    assert get_protocol("round-robin", params12).name == "round-robin"
    assert get_protocol("silent", params12).name == "silent"
    fam_file = tmp_path / "singletons.txt"
    fam_file.write_text("n=2\n0\n1\n", encoding="utf-8")
    proto = get_protocol(f"selfam:{fam_file}", params12)
    trace = run(build_c2(params12, TopologyVector((2,))), proto, 4)
    assert completion_round(trace) == 3
    with pytest.raises(KeyError):
        get_protocol("no-such-protocol", params12)
