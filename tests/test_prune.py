"""Event classification, pruning, the marking rule, and membership."""

from __future__ import annotations

import re

import pytest

from radiolb import (
    COLLISION,
    SILENT,
    AdviceString,
    C2Params,
    SetFamily,
    Single,
    TopologyVector,
    build_c2,
    classify_event,
    enumerate_c2,
    event_sequence,
    make_advice,
    mark_components,
    membership,
    round_robin,
    run_prune,
    selfam_driven,
    silent_l1,
    to_pi1,
    to_pi2,
    to_pi3,
)
from radiolb.errors import StageMismatch


def pi3(p0_factory, params, *args):
    return to_pi3(to_pi2(to_pi1(p0_factory(params, *args), params)))


# ---------------------------------------------------------------------------
# classify_event
# ---------------------------------------------------------------------------

def test_silent_classifies_silent_everywhere(params22):
    p3 = pi3(silent_l1, params22)
    net = build_c2(params22, TopologyVector((3, 1)))
    for t in (1, 2, 3):
        assert classify_event(p3, net, t) == SILENT


def test_pair_family_collides_at_first_active_round(params12):
    p3 = pi3(selfam_driven, params12, SetFamily(2, (0b11,)))
    net = build_c2(params12, TopologyVector((3,)))
    assert classify_event(p3, net, 1) == SILENT  # re-enacts base round 0
    assert classify_event(p3, net, 2) == COLLISION


def test_singleton_family_yields_single_event(params12):
    p3 = pi3(selfam_driven, params12, SetFamily(2, (0b01,)))
    net = build_c2(params12, TopologyVector((1,)))
    assert classify_event(p3, net, 2) == Single(0, 1)


def test_classify_requires_stage_three(params12):
    p1 = to_pi1(round_robin(params12), params12)
    with pytest.raises(StageMismatch):
        classify_event(p1, build_c2(params12, TopologyVector((1,))), 1)


@pytest.mark.parametrize("other", [C2Params(2, 3), C2Params(1, 2)])
def test_event_sequence_prunes_under_the_networks_family(other, params22):
    # The family argument agrees with the protocol but the network does not:
    # pruning its one-vector family under the network's parameters refuses
    # it instead of answering with (2,2) events. Each side is checked.
    p3 = pi3(round_robin, params22)
    net = build_c2(other, TopologyVector((1,) * other.m))
    msg = f"event_sequence on family {other} got a protocol for {params22}"
    with pytest.raises(StageMismatch, match=f"^{re.escape(msg)}$"):
        event_sequence(p3, net, 4, params22)
    with pytest.raises(StageMismatch, match=f"^{re.escape(msg)}$"):
        event_sequence(p3, build_c2(params22, TopologyVector((1, 1))), 4, other)


def test_classify_and_prune_refuse_rounds_below_one(params12):
    p3 = pi3(round_robin, params12)
    with pytest.raises(ValueError, match=r"^t must be >= 1$"):
        classify_event(p3, build_c2(params12, TopologyVector((1,))), 0)
    with pytest.raises(ValueError, match=r"^r must be >= 1$"):
        run_prune(p3, 0, params12)


# ---------------------------------------------------------------------------
# run_prune
# ---------------------------------------------------------------------------

def test_prune_silent_keeps_everything(params22):
    pr = run_prune(pi3(silent_l1, params22), 3, params22)
    assert len(pr.survivors) == 9
    assert pr.advice == AdviceString((None, None))
    assert pr.marked == frozenset()
    assert pr.free_component == 0
    assert pr.base_net.taus == (1, 1)


def test_prune_round_robin_budgets(params22):
    p3 = pi3(round_robin, params22)

    pr2 = run_prune(p3, 2, params22)
    # the only event re-enacts base round 0, where nothing transmits
    assert pr2.event_seq == (SILENT,)
    assert len(pr2.survivors) == 9
    assert pr2.marked == frozenset()
    assert pr2.free_component == 0

    pr3 = run_prune(p3, 3, params22)
    assert pr3.event_seq == (SILENT, Single(0, 1))
    assert sorted(tv.taus for tv in pr3.survivors) == [(1, 1), (1, 2), (1, 3)]
    assert pr3.base_net.taus == (1, 1)
    assert pr3.advice.encode() == "adv:phi,0:1"
    assert pr3.marked == frozenset({0})
    assert pr3.free_component == 1

    pr4 = run_prune(p3, 4, params22)
    assert sorted(tv.taus for tv in pr4.survivors) == [(1, 1), (1, 2), (1, 3)]
    assert pr4.marked == frozenset({0})


def test_prune_budget_one_returns_whole_family(params22):
    pr = run_prune(pi3(round_robin, params22), 1, params22)
    assert len(pr.survivors) == 9
    assert pr.event_seq == ()
    assert pr.advice == AdviceString(())
    assert pr.free_component == 0


def test_prune_collision_branch_keeps_colliders(params22):
    # singletons fire both components' node j simultaneously: the source
    # hears a collision on every network, so everything survives
    fam = SetFamily(2, (0b01, 0b10))
    pr = run_prune(pi3(selfam_driven, params22, fam), 4, params22)
    assert pr.event_seq == (SILENT, COLLISION, COLLISION)
    assert len(pr.survivors) == 9
    assert pr.advice == AdviceString((None, None, None))
    # collisions mark the two smallest transmitters' components
    assert pr.marked == frozenset({0, 1})
    assert pr.free_component is None


def test_marked_is_bounded_by_two_per_event(params22):
    for factory, extra in ((round_robin, ()), (silent_l1, ())):
        p3 = pi3(factory, params22, *extra)
        for r in (2, 3, 4):
            pr = run_prune(p3, r, params22)
            assert len(pr.marked) <= 2 * (r - 1)


def test_uniform_advice_across_survivors(params22):
    for factory in (round_robin, silent_l1):
        p3 = pi3(factory, params22)
        for r in (2, 3, 4):
            pr = run_prune(p3, r, params22)
            for tv in pr.survivors:
                assert make_advice(p3, build_c2(params22, tv), r) == pr.advice


def test_survivors_share_the_event_sequence(params22):
    p3 = pi3(round_robin, params22)
    for r in (2, 3, 4):
        pr = run_prune(p3, r, params22)
        for tv in pr.survivors:
            seq = event_sequence(p3, build_c2(params22, tv), r, params22)
            assert seq == pr.event_seq


# ---------------------------------------------------------------------------
# mark_components
# ---------------------------------------------------------------------------

def test_collision_marks_two_smallest_transmitters(params22):
    fam = SetFamily(2, (0b01, 0b10))
    p3 = pi3(selfam_driven, params22, fam)
    base = build_c2(params22, TopologyVector((1, 1)))
    # base round 1 fires labels 1 and 3: components 0 and 1
    assert mark_components(p3, base, 3) == frozenset({0, 1})


def test_single_marks_its_component(params22):
    p3 = pi3(round_robin, params22)
    base = build_c2(params22, TopologyVector((1, 1)))
    assert mark_components(p3, base, 3) == frozenset({0})
    assert mark_components(p3, base, 2) == frozenset()
    assert mark_components(p3, base, 6) == frozenset({0, 1})


# ---------------------------------------------------------------------------
# membership (the marking guarantee)
# ---------------------------------------------------------------------------

def prey_grid(params):
    yield pi3(round_robin, params)
    yield pi3(silent_l1, params)
    yield pi3(selfam_driven, params, SetFamily(params.k, tuple(1 << j for j in range(params.k))))


@pytest.mark.parametrize("m,k", [(2, 2), (2, 3)])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_marking_guarantee_exhaustive(m, k, r):
    params = C2Params(m, k)
    for p3 in prey_grid(params):
        pr = run_prune(p3, r, params)
        survivors = set(pr.survivors)
        assert pr.base_net in survivors
        for tv in enumerate_c2(params):
            agrees = all(tv.taus[i] == pr.base_net.taus[i] for i in pr.marked)
            if agrees:
                assert tv in survivors
                assert membership(p3, tv, pr, params, r)


@pytest.mark.parametrize("seed", range(4))
def test_marking_guarantee_for_arbitrary_preys(seed, params22):
    # the marking rule is protocol-generic; pseudo-random preys produce
    # event sequences (collisions included) the curated corpus cannot
    from preys import hash_prey

    p3 = to_pi3(to_pi2(to_pi1(hash_prey(params22, seed), params22)))
    for r in (2, 3):
        pr = run_prune(p3, r, params22)
        assert len(pr.marked) <= 2 * (r - 1)
        survivors = set(pr.survivors)
        for tv in enumerate_c2(params22):
            if all(tv.taus[i] == pr.base_net.taus[i] for i in pr.marked):
                assert tv in survivors, (seed, r, tv.taus)


def test_membership_reflexive_and_counterexample(params22):
    p3 = pi3(round_robin, params22)
    pr = run_prune(p3, 3, params22)
    assert membership(p3, pr.base_net, pr, params22, 3)
    # differ in the marked component's tau at the decisive round
    assert 0 in pr.marked
    bad = pr.base_net.replace(0, 2)
    assert not membership(p3, bad, pr, params22, 3)


def test_free_component_closure(params22):
    p3 = pi3(round_robin, params22)
    pr = run_prune(p3, 3, params22)
    free = pr.free_component
    assert free is not None
    survivors = set(pr.survivors)
    for tau in range(1, 1 << params22.k):
        assert pr.base_net.replace(free, tau) in survivors
