"""Per-component analysis against whole-network references.

Pruning and the Z-sweep simulate one component at a time (the source plus
component i alone). The references below do what the per-component code
replaces: one whole-network stage-3 run per network for events and marks,
the survivor rule over the whole family's event table, and one
whole-network stage-4 run per Z-variant for the derived family. A second
Z-sweep reference runs each Z-variant of the free component alone and
scans the leaf's deliveries and neighbours, sharing nothing with the
sweep's transmitter masks. Both Z-sweep references also return the round
each Z's leaf first heard, which the derived sets must predict.
"""

from __future__ import annotations

import dataclasses

import pytest

from radiolb import (
    AdviceString,
    C2Params,
    ComponentDesc,
    Network,
    Opaque,
    PruneResult,
    Received,
    SetFamily,
    Single,
    TopologyVector,
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
    spawn,
    transform_chain,
)
from radiolb.c2 import component_net, component_of, l1_index, l2_label, layer_of
from radiolb.errors import (
    LegalityViolation,
    ProtocolBindingError,
    RadioLBError,
    SpontaneityViolation,
)
from radiolb.prune import COLLISION, SILENT, Collision

from preys import (
    counting_leaf_prey,
    cyclic_prey,
    hash_prey,
    leaf_ack_prey,
    relay_prey,
    sender_answer_prey,
    spontaneous_leaf_prey,
)


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
    """The derived family and, per Z, the round Z's leaf first heard (None
    if never), from one whole-network stage-4 run per Z-variant."""
    leaf = l2_label(params, free)
    sets = [0] * r
    first_heard = {}
    for z in range(1, 1 << params.k):
        net = build_c2(params, pr.base_net.replace(free, z))
        trace = core.run(net, p4, 3 * r)
        success = next((rec.round for rec in trace.rounds
                        if isinstance(rec.deliveries[leaf], Received)), None)
        first_heard[z] = success
        cutoff = 3 * r if success is None else success
        for j in range(r):
            if 3 * j + 1 > cutoff:
                break
            for x, act in trace.rounds[3 * j + 1].actions.items():
                if isinstance(act, Transmit) and x in net.neighbors(leaf):
                    sets[j] |= 1 << l1_index(x, params)
    return SetFamily(params.k, tuple(sets)), first_heard


def scan_derive_family(p4, free, r, params):
    """The Z-sweep as one ``core.run`` per Z-variant of the free component
    alone, scanning the leaf's deliveries for its first reception and the
    leaf's neighbours for the transmitters of rounds 3j+1 up to it."""
    leaf = l2_label(params, free)
    sets = [0] * r
    first_heard = {}
    for z in range(1, 1 << params.k):
        net = component_net(params, free, z)
        rounds = core.run(net, p4, 3 * r).rounds
        heard = [rec.round for rec in rounds if isinstance(rec.deliveries[leaf], Received)]
        first_heard[z] = heard[0] if heard else None
        for j, rec in enumerate(rounds[1:heard[0] + 1 if heard else 3 * r:3]):
            for x in net.neighbors(leaf):
                if isinstance(rec.actions[x], Transmit):
                    sets[j] |= 1 << l1_index(x, params)
    return SetFamily(params.k, tuple(sets)), first_heard


def assert_selection_predicts_hearing(fam, first_heard):
    """Per Z, the leaf heard nothing iff no set of ``fam`` selects Z, and
    otherwise first heard in round 3j+1 for the first j selecting Z."""
    for z, heard in first_heard.items():
        hits = [j for j, f in enumerate(fam.sets) if (f & z).bit_count() == 1]
        assert heard == (3 * hits[0] + 1 if hits else None), (fam, z)


def outcome(fn, caught=LegalityViolation):
    """What ``fn`` returns, or the ``caught`` error it raises."""
    try:
        return fn()
    except caught as exc:
        return exc


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (2, 3), (1, 5), (2, 4)])
def test_z_sweep_matches_per_variant_scan(m, k):
    # (1,5) and (2,4) check the masks on more than 3 bits. Counting-leaf's
    # leaf is illegal only for some neighbour counts, so it checks that
    # each Z's leaf runs with Z's own neighbours.
    params = C2Params(m, k)
    raised = set()
    illegal = [cyclic_prey(params), spontaneous_leaf_prey(params), counting_leaf_prey(params)]
    for p0 in protocols(params) + illegal:
        # separate stage-3 protocols: neither sweep reads the other's echoes
        p3, ref3 = transform_chain(p0, params, 3), transform_chain(p0, params, 3)
        for r in range(1, 6):
            pr = outcome(lambda: run_prune(p3, r))
            # where pruning itself fails (an illegal prey), sweep under all-phi advice
            advice = pr.advice if isinstance(pr, PruneResult) else AdviceString((None,) * (r - 1))
            for free in range(m):
                got = outcome(lambda: derive_family(pi4_with_advice(p3, advice), free, r))
                want = outcome(lambda: scan_derive_family(
                    pi4_with_advice(ref3, advice), free, r, params))
                if isinstance(want, tuple):
                    want, first_heard = want
                    assert_selection_predicts_hearing(want, first_heard)
                # a SetFamily's text is its repr, so this compares every field
                assert (type(got), str(got)) == (type(want), str(want)), (p0.name, r, free)
                if isinstance(got, LegalityViolation):
                    raised.add(p0.name)
    assert raised == {"spontaneous-leaf", "counting-leaf"}


def test_z_sweep_keeps_the_per_variant_error_order():
    # Advice one entry short: every middle node raises at round 7, in the
    # shared run. Counting-leaf's leaf with one neighbour transmits in round
    # 5. On component 1 nothing is heard before round 10, so Z = 1's leaf
    # raises first; on component 0 it hears in round 4, and the run's error
    # comes before Z = 2's leaf, which raises in round 5.
    params = C2Params(2, 2)
    short = AdviceString((None,))
    p3, ref3 = (transform_chain(counting_leaf_prey(params), params, 3) for _ in range(2))
    for free, error in [(0, ProtocolBindingError), (1, SpontaneityViolation)]:
        got = outcome(lambda: derive_family(pi4_with_advice(p3, short), free, 3),
                      RadioLBError)
        want = outcome(lambda: scan_derive_family(pi4_with_advice(ref3, short), free, 3, params),
                       RadioLBError)
        assert type(got) is error and (type(got), str(got)) == (type(want), str(want)), free


class EarlyLeaf:
    """A node that sends in ``round``, heard or not, and otherwise acts as
    ``inner``."""

    def __init__(self, inner, round):
        self.inner, self.round = inner, round

    def act(self, round):
        return Transmit(Opaque(b"early")) if round == self.round else self.inner.act(round)

    def observe(self, obs):
        self.inner.observe(obs)


def test_z_sweep_plays_a_leaf_round_before_the_next_shared_round():
    # Advice one entry short: the middle nodes raise in round 7, in the
    # shared run. Each leaf is silent_l1's but sends in round 6 before it
    # has heard, so Z = 1's leaf raises there, before the run plays round 7.
    params = C2Params(2, 2)
    p4 = pi4_with_advice(transform_chain(silent_l1(params), params, 3), AdviceString((None,)))
    for free in range(2):
        leaf = l2_label(params, free)
        early = dataclasses.replace(p4, node=lambda own, nbrs: (
            EarlyLeaf(spawn(p4, own, nbrs), 6) if own == leaf else spawn(p4, own, nbrs)))
        got = outcome(lambda: derive_family(early, free, 3), RadioLBError)
        want = outcome(lambda: scan_derive_family(early, free, 3, params), RadioLBError)
        assert (type(got), str(got)) == (type(want), str(want)) == (
            SpontaneityViolation, f"node {leaf} transmitted spontaneously in round 6"), free


@pytest.mark.parametrize("m,k", [(1, 2), (2, 2), (2, 3)])
def test_component_analysis_matches_whole_networks(m, k):
    params = C2Params(m, k)
    budgets = (2, 3, 4) if (m, k) != (2, 3) else (3, 5)
    for p0 in protocols(params):
        p3 = transform_chain(p0, params, 3)
        for r in budgets:
            pr = run_prune(p3, r)
            assert pr == whole_prune(p3, r, params), (p0.name, r)
            for tv in enumerate_c2(params):
                net = build_c2(params, tv)
                decisive = whole_decisive(p3, net, r, params)
                assert event_sequence(p3, net, r) == whole_events(decisive, tv.taus, params)
                assert mark_components(p3, net, r) == whole_marks(decisive, params)
            p4 = pi4_with_advice(p3, pr.advice)
            for free in range(m):
                got = derive_family(p4, free, r)
                want, first_heard = whole_derive_family(p4, pr, free, r, params)
                assert got == want, (p0.name, r, free)
                assert_selection_predicts_hearing(got, first_heard)


def test_event_sequence_needs_a_c2_network(params12):
    p3 = transform_chain(round_robin(params12), params12, 3)
    net = Network(range(4), [(0, 1), (0, 2), (1, 3)])  # c2:m=1,k=2,taus=1 without its tag
    with pytest.raises(ProtocolBindingError):
        event_sequence(p3, net, 3)


def test_stage_three_runs_only_on_c2_networks(params22):
    # a component network carries no topology vector for the source to describe
    p3 = transform_chain(round_robin(params22), params22, 3)
    with pytest.raises(ProtocolBindingError, match=r"^stage-3 protocols run only on c2 networks$"):
        core.run(component_net(params22, 0, 1), p3, 7)


@pytest.mark.parametrize("entry, i", [("component_net", 2), ("derive_family", 3),
                                      ("stage-4 run", 2)])
def test_a_component_outside_the_family_is_refused(entry, i, params22):
    # (2,2) has components 0 and 1; component 2's labels would be the leaves'
    p3 = transform_chain(round_robin(params22), params22, 3)
    call = {
        "component_net": lambda: component_net(params22, i, 1),
        "derive_family": lambda: derive_family(pi4_with_advice(p3, AdviceString(())), i, 3),
        "stage-4 run": lambda: core.run(
            build_c2(params22, TopologyVector((1, 1))),
            pi4_with_advice(p3, AdviceString((ComponentDesc(i, 1), None, None))), 9),
    }[entry]
    with pytest.raises(ValueError, match=rf"^component {i} outside \[0, 2\)$"):
        call()


def test_analysis_runs_only_single_components(monkeypatch):
    params = C2Params(2, 3)
    stepped = []  # nodes per core.Execution

    class RecordingExecution(core.Execution):
        def __init__(self, net, proto, max_rounds, **kwargs):
            stepped.append(net.n)
            super().__init__(net, proto, max_rounds, **kwargs)

    monkeypatch.setattr(core, "Execution", RecordingExecution)
    for p0 in (round_robin(params), leaf_ack_prey(params)):
        p3 = transform_chain(p0, params, 3)
        before = len(stepped)
        pr = run_prune(p3, 4)
        assert len(stepped) > before  # prune's own runs are recorded
        assert pr.free_component is not None
        before = len(stepped)
        derive_family(pi4_with_advice(p3, pr.advice), pr.free_component, 4)
        assert len(stepped) - before == 1  # one run serves every Z
    assert set(stepped) == {params.k + 2}
