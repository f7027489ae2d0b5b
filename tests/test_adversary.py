"""Witness pipeline: derivation, search, soundness, completeness."""

from __future__ import annotations

import gc
import re
import tracemalloc
import weakref

import pytest

from radiolb import (
    AdviceString,
    C2Params,
    Protocol,
    SetFamily,
    StageTag,
    TopologyVector,
    Witness,
    analyze,
    build_c2,
    check_legality,
    classify_event,
    completion_round,
    cross_check,
    derive_family,
    event_sequence,
    find_witness,
    mark_components,
    membership,
    pi4_with_advice,
    round_robin,
    run,
    run_prune,
    selfam_driven,
    silent_l1,
    to_pi1,
    to_pi2,
    to_pi3,
)
from radiolb.c2 import enumerate_c2
from radiolb.errors import (
    FreeComponentMissing,
    StageMismatch,
    UniverseTooLarge,
    WitnessInconsistency,
)
from radiolb.selfam import SELECTIVITY_UNIVERSE_CAP

from preys import hash_prey, leaf_ack_prey, sender_hash_prey


def pi3_of(p0, params):
    return to_pi3(to_pi2(to_pi1(p0, params)))


def singletons(params):
    return selfam_driven(params, SetFamily(params.k, tuple(1 << j for j in range(params.k))))


# ---------------------------------------------------------------------------
# derive_family
# ---------------------------------------------------------------------------

def test_silent_derives_an_empty_family(params22):
    p0 = silent_l1(params22)
    p3 = pi3_of(p0, params22)
    pr = run_prune(p3, 2, params22)
    df = derive_family(pi4_with_advice(p3, pr.advice), pr.free_component, 2, params22)
    assert all(f == 0 for f in df.sets)
    assert all(v is None for v in df.first_success.values())


def test_singletons_recover_their_structure(params22):
    p0 = singletons(params22)
    p3 = pi3_of(p0, params22)
    pr = run_prune(p3, 2, params22)
    assert pr.free_component == 0
    df = derive_family(pi4_with_advice(p3, pr.advice), 0, 2, params22)
    # within budget 2 only base round 1 fires: index 0 of the free component
    assert df.sets == (0, 0b01)
    assert df.first_success[0b01] == 4
    assert df.first_success[0b11] == 4
    assert df.first_success[0b10] is None


def test_derive_family_requires_free_component(params22):
    p0 = singletons(params22)
    p3 = pi3_of(p0, params22)
    pr = run_prune(p3, 4, params22)
    assert pr.free_component is None
    with pytest.raises(FreeComponentMissing):
        derive_family(pi4_with_advice(p3, pr.advice), pr.free_component, 4, params22)


class Simulated(Exception):
    pass


def unrunnable(params):
    """A stage-4 stand-in whose first node process stops the run."""

    def node(own, neighbors):
        raise Simulated

    return Protocol("unrunnable", None, stage=StageTag.PI4, params=params, node=node)


@pytest.mark.parametrize("k", [SELECTIVITY_UNIVERSE_CAP, SELECTIVITY_UNIVERSE_CAP + 1])
def test_z_sweep_fails_fast_above_the_universe_cap(k):
    # 2^k - 1 subsets Z: above is_selective's cap the sweep refuses before
    # its first simulation; at the cap it starts simulating
    params = C2Params(1, k)
    expected = UniverseTooLarge if k > SELECTIVITY_UNIVERSE_CAP else Simulated
    with pytest.raises(expected):
        derive_family(unrunnable(params), 0, 1, params)


def test_success_table_matches_family_selection(params22):
    # first success at 3j+1 for the smallest j with |F_j & Z| == 1, and no
    # success at all iff no round selects Z: the derived family behaves as
    # a selective family against the success relation.
    for p0 in (round_robin(params22), singletons(params22), silent_l1(params22)):
        p3 = pi3_of(p0, params22)
        for r in (2, 3, 4):
            pr = run_prune(p3, r, params22)
            if pr.free_component is None:
                continue
            df = derive_family(pi4_with_advice(p3, pr.advice), pr.free_component, r, params22)
            for z in range(1, 1 << params22.k):
                hits = [j for j, f in enumerate(df.sets) if bin(f & z).count("1") == 1]
                if df.first_success[z] is None:
                    assert not hits
                else:
                    assert df.first_success[z] == 3 * hits[0] + 1


@pytest.mark.parametrize("other", [C2Params(2, 3), C2Params(1, 2)])
@pytest.mark.parametrize("op", ["run_prune", "event_sequence", "classify_event",
                                "mark_components", "membership", "derive_family", "analyze"])
def test_family_parameters_other_than_the_protocols_are_refused(op, other, params22):
    # A protocol built for (2,2) used on another family is refused at entry,
    # naming both parameter sets, instead of failing deep inside a run (an
    # unknown label, a round 0 without advice) or answering for (2,2).
    p0 = round_robin(params22)
    p3 = pi3_of(p0, params22)
    tv = TopologyVector((1,) * other.m)
    net = build_c2(other, tv)
    call = {
        "run_prune": lambda: run_prune(p3, 3, other),
        "event_sequence": lambda: event_sequence(p3, net, 3, other),
        "classify_event": lambda: classify_event(p3, net, 1),
        "mark_components": lambda: mark_components(p3, net, 3),
        "membership": lambda: membership(p3, tv, run_prune(p3, 3, params22), other, 3),
        "derive_family": lambda: derive_family(pi4_with_advice(p3, AdviceString(())), 0, 2, other),
        "analyze": lambda: analyze(p0, 3, other),
    }[op]
    with pytest.raises(StageMismatch, match=re.escape(f"on family {other} got a protocol for {params22}")):
        call()


def test_analyze_refuses_a_budget_below_one(params22):
    with pytest.raises(ValueError, match=r"^budget must be >= 1$"):
        analyze(round_robin(params22), 0, params22)


# ---------------------------------------------------------------------------
# find_witness
# ---------------------------------------------------------------------------

def test_silent_always_loses(params22):
    w = find_witness(silent_l1(params22), 2, params22)
    assert w == Witness(TopologyVector((1, 1)), (0,), 2, True)


def test_round_robin_short_budgets_lose():
    params = C2Params(2, 4)
    w1 = find_witness(round_robin(params), 1, params)
    assert w1 == Witness(TopologyVector((1, 1)), (0,), 1, True)
    w2 = find_witness(round_robin(params), 2, params)
    assert w2 == Witness(TopologyVector((2, 1)), (1,), 2, True)


def test_round_robin_generous_budget_survives(params22):
    budget = 2 * params22.k + 2
    assert find_witness(round_robin(params22), budget, params22) is None
    # exhaustive direct confirmation
    for tv in enumerate_c2(params22):
        trace = run(build_c2(params22, tv), round_robin(params22), budget)
        assert completion_round(trace) is not None
        assert completion_round(trace) <= budget


def test_witness_varies_only_the_free_component(params22):
    p0 = round_robin(params22)
    p3 = pi3_of(p0, params22)
    for budget in (2, 3, 4):
        pr = run_prune(p3, budget, params22)
        w = find_witness(p0, budget, params22)
        if w is None or pr.free_component is None:
            continue
        for i in range(params22.m):
            if i != pr.free_component:
                assert w.network.taus[i] == pr.base_net.taus[i]


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (2, 3)])
def test_sweep_soundness_and_completeness(m, k):
    params = C2Params(m, k)
    protos = [round_robin(params), silent_l1(params), singletons(params)]
    horizon = params.m * params.k + 2
    for p0 in protos:
        for budget in range(1, horizon + 1):
            w = find_witness(p0, budget, params)
            if w is not None:
                assert w.verified
                assert cross_check(p0, w, params)
            else:
                for tv in enumerate_c2(params):
                    trace = run(build_c2(params, tv), p0, budget)
                    assert completion_round(trace) is not None


@pytest.mark.parametrize("seed", range(6))
def test_sweep_soundness_for_arbitrary_preys(seed, params22):
    # The witness conclusion is one-sided and holds for any deterministic
    # protocol: completion within budget forces a staged delivery to the
    # probed leaf, so a silent leaf proves the budget is missed. A search
    # that emits an unverifiable witness raises WitnessInconsistency, so a
    # clean sweep is itself the assertion.
    from preys import hash_prey

    p0 = hash_prey(params22, seed)
    for budget in range(1, 6):
        w = find_witness(p0, budget, params22)
        if w is not None:
            assert w.verified and cross_check(p0, w, params22)


def test_sender_hash_prey_is_legal(params22):
    p0 = sender_hash_prey(params22, 123)
    for tv in enumerate_c2(params22):
        assert check_legality(p0, build_c2(params22, tv), 40) == []


@pytest.mark.xfail(strict=True, raises=WitnessInconsistency,
                   reason="stage 2 echoes drop the sender a sender-sensitive source reads")
def test_sender_sensitive_source_gets_a_witness_or_none(params22):
    # sender-hash-123 is legal on every (2,2) network, but its stage-2
    # source replica hears echoes under UNKNOWN_SENDER, so at budgets 4
    # and 5 the candidate witness (1,1) completes in a direct run and
    # analyze raises. An exact ladder makes every budget verify.
    p0 = sender_hash_prey(params22, 123)
    for budget in range(1, 7):
        w = find_witness(p0, budget, params22)
        assert w is None or (w.verified and cross_check(p0, w, params22))


# ---------------------------------------------------------------------------
# cross_check
# ---------------------------------------------------------------------------

def test_cross_check_rejects_fake_witness(params22):
    # round-robin completes on (1,1) by round 4, so budget 5 is survivable
    fake = Witness(TopologyVector((1, 1)), (0,), 5, False)
    assert not cross_check(round_robin(params22), fake, params22)


def test_cross_check_accepts_true_witness(params22):
    real = Witness(TopologyVector((1, 1)), (0,), 3, False)
    assert cross_check(round_robin(params22), real, params22)
    assert cross_check(silent_l1(params22), Witness(TopologyVector((2, 3)), (1,), 4, False), params22)


def test_analyze_keeps_no_reference_to_the_protocol():
    # Nothing outlives an analysis: no module-level cache holds the
    # protocol (or its stage-3 echo simulations) once the caller drops it.
    params = C2Params(2, 3)
    p0 = leaf_ack_prey(params)
    ref = weakref.ref(p0)
    assert analyze(p0, 5, params).witness is not None
    del p0
    gc.collect()
    assert ref() is None


def test_repeated_analyses_do_not_grow_memory():
    # Carried component runs belong to one prune and live echo simulations
    # to one stage-3 protocol: after the first analysis nothing accumulates.
    params = C2Params(2, 3)
    p0 = hash_prey(params, 0)
    tracemalloc.start()
    try:
        analyze(p0, 5, params)
        gc.collect()
        first = tracemalloc.get_traced_memory()[0]
        for _ in range(49):
            analyze(p0, 5, params)
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - first
    finally:
        tracemalloc.stop()
    assert growth < 16_384
