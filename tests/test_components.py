"""Per-component analysis against whole-network references.

Pruning and the Z-sweep simulate one component at a time (the source plus
component i alone). The references below do what the per-component code
replaces: one whole-network stage-3 run per network for events and marks,
the survivor rule over the whole family's event table, and one
whole-network stage-4 run per Z-variant for the derived family.
"""

from __future__ import annotations

import pytest

from radiolb import (
    AdviceString,
    C2Params,
    ComponentDesc,
    DerivedFamily,
    Network,
    PruneResult,
    Received,
    SetFamily,
    Single,
    Transmit,
    build_c2,
    core,
    derive_family,
    enumerate_c2,
    event_sequence,
    mark_components,
    pi4_with_advice,
    round_robin,
    run_prune,
    selfam_driven,
    silent_l1,
    transform_chain,
)
from radiolb.c2 import component_net, component_of, l1_index, l2_label, layer_of
from radiolb.errors import ProtocolBindingError
from radiolb.prune import COLLISION, SILENT, Collision

from preys import hash_prey, leaf_ack_prey, relay_prey, sender_answer_prey


def protocols(params):
    singles = SetFamily(params.k, tuple(1 << j for j in range(params.k)))
    return [
        round_robin(params),
        silent_l1(params),
        selfam_driven(params, singles),
        leaf_ack_prey(params),
        relay_prey(params),
        hash_prey(params, 0),
        hash_prey(params, 1),
        sender_answer_prey(params),
    ]


def whole_decisive(p3, net, r, params):
    """Sorted middle-layer transmitters of rounds 3t-2, t = 1..r-1, from one
    stage-3 run on the whole network."""
    if r <= 1:
        return []
    trace = core.run(net, p3, 3 * (r - 1) - 1)
    return [
        sorted(x for x, a in trace.rounds[3 * t - 2].actions.items()
               if isinstance(a, Transmit) and layer_of(x, params) == 1)
        for t in range(1, r)
    ]


def whole_events(decisive, taus, params):
    events = []
    for txs in decisive:
        if not txs:
            events.append(SILENT)
        elif len(txs) >= 2:
            events.append(COLLISION)
        else:
            comp = component_of(txs[0], params)
            events.append(Single(comp, taus[comp]))
    return tuple(events)


def whole_marks(decisive, params):
    return frozenset(component_of(x, params) for txs in decisive for x in txs[:2])


def whole_prune(p3, r, params):
    vectors = list(enumerate_c2(params))
    decisive = {tv: whole_decisive(p3, build_c2(params, tv), r, params) for tv in vectors}
    seqs = {tv: whole_events(decisive[tv], tv.taus, params) for tv in vectors}
    survivors = vectors
    for idx in range(r - 1):
        if any(isinstance(seqs[tv][idx], Collision) for tv in survivors):
            survivors = [tv for tv in survivors if isinstance(seqs[tv][idx], Collision)]
        else:
            with_single = [tv for tv in survivors if isinstance(seqs[tv][idx], Single)]
            if with_single:
                chosen = min(with_single)
                survivors = [tv for tv in survivors if seqs[tv][idx] == seqs[chosen][idx]]
    base = min(survivors)
    advice = AdviceString(tuple(
        ComponentDesc(e.component, e.tau) if isinstance(e, Single) else None for e in seqs[base]
    ))
    marked = whole_marks(decisive[base], params)
    free = next((i for i in range(params.m) if i not in marked), None)
    return PruneResult(seqs[base], survivors, advice, base, marked, free)


def whole_derive_family(p4, pr, free, r, params):
    leaf = l2_label(params, free)
    sets = [0] * r
    first_success = {}
    for z in range(1, 1 << params.k):
        net = build_c2(params, pr.base_net.replace(free, z))
        trace = core.run(net, p4, 3 * r)
        success = next((rec.round for rec in trace.rounds
                        if isinstance(rec.deliveries[leaf], Received)), None)
        first_success[z] = success
        cutoff = 3 * r if success is None else success
        for j in range(r):
            if 3 * j + 1 > cutoff:
                break
            for x, act in trace.rounds[3 * j + 1].actions.items():
                if isinstance(act, Transmit) and x in net.neighbors(leaf):
                    sets[j] |= 1 << l1_index(x, params)
    return DerivedFamily(params.k, tuple(sets), first_success)


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (2, 3)])
def test_component_analysis_matches_whole_networks(m, k):
    params = C2Params(m, k)
    budgets = (2, 3, 4) if (m, k) != (2, 3) else (3, 5)
    for p0 in protocols(params):
        p3 = transform_chain(p0, params, 3)
        for r in budgets:
            pr = run_prune(p3, r, params)
            assert pr == whole_prune(p3, r, params), (p0.name, r)
            for tv in enumerate_c2(params):
                net = build_c2(params, tv)
                decisive = whole_decisive(p3, net, r, params)
                assert event_sequence(p3, net, r, params) == whole_events(decisive, tv.taus, params)
                assert mark_components(p3, net, r) == whole_marks(decisive, params)
            p4 = pi4_with_advice(p3, pr.advice)
            for free in range(m):
                assert derive_family(p4, free, r, params) == whole_derive_family(
                    p4, pr, free, r, params), (p0.name, r, free)


def test_event_sequence_needs_a_c2_network(params12):
    p3 = transform_chain(round_robin(params12), params12, 3)
    net = Network(range(4), [(0, 1), (0, 2), (1, 3)])  # c2:m=1,k=2,taus=1 without its tag
    with pytest.raises(ProtocolBindingError):
        event_sequence(p3, net, 3, params12)


def test_stage_three_runs_only_on_c2_networks(params22):
    # a component network carries no topology vector for the source to describe
    p3 = transform_chain(round_robin(params22), params22, 3)
    with pytest.raises(ProtocolBindingError, match=r"^stage-3 protocols run only on c2 networks$"):
        core.run(component_net(params22, 0, 1), p3, 7)


def test_analysis_runs_only_single_components(monkeypatch):
    params = C2Params(2, 3)
    sizes, stepped = [], []  # nodes per core.run call / per core.Execution
    real_run = core.run

    def recording_run(net, proto, max_rounds, **kwargs):
        sizes.append(net.n)
        return real_run(net, proto, max_rounds, **kwargs)

    class RecordingExecution(core.Execution):
        def __init__(self, net, proto, max_rounds, **kwargs):
            stepped.append(net.n)
            super().__init__(net, proto, max_rounds, **kwargs)

    monkeypatch.setattr(core, "run", recording_run)
    monkeypatch.setattr(core, "Execution", RecordingExecution)
    for p0 in (round_robin(params), leaf_ack_prey(params)):
        p3 = transform_chain(p0, params, 3)
        before = len(stepped)
        pr = run_prune(p3, 4, params)
        assert len(stepped) > before  # prune's own runs are recorded
        assert pr.free_component is not None
        derive_family(pi4_with_advice(p3, pr.advice), pr.free_component, 4, params)
    assert sizes and set(sizes) == {params.k + 2}
    assert set(stepped) == {params.k + 2}
