"""End-to-end lower-bound witness pipeline.

Given a protocol and a round budget r, the pipeline transforms the protocol
through all four stages, prunes the network family to a subset sharing one
advice string, picks a free component, and checks every nonempty adjacency
subset Z of that component. Z's leaf hears within 3r rounds of the advised
stage-4 run iff a set the sweep derives, one per base round, selects Z, so
the verdict is ``selfam.is_selective`` over those sets: an unselected Z
names a network on which the original protocol provably misses its budget.
One run of the free component, read by ``reductions.middle_tx``, serves
every Z. The pipeline's witness is re-verified by one direct untransformed
run.

When pruning marks every component (budget too large for the family size),
the pipeline falls back to direct exhaustive simulation over the family, so
the answer stays truthful at desk scale. A fallback witness is the verdict
of the direct run that found it, so that run is its verification.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import core, selfam
from .c2 import C2Params, TopologyVector, build_c2, component_net, enumerate_c2, l1_label, l2_label
from .errors import (FreeComponentMissing, UniverseTooLarge, WitnessInconsistency,
                     unheard_transmission)
from .prune import run_prune
from .protocols import Protocol, StageTag, silent_l1, spawn
from .reductions import middle_tx, pi4_with_advice, require_stage, transform_chain
from .selfam import SELECTIVITY_UNIVERSE_CAP, SetFamily, mask_to_indices


@dataclass
class Witness:
    """A network on which the protocol misses ``budget``. ``unhit_z`` is the
    adjacency of the unhit leaf, () when only middle nodes miss the budget;
    ``verified`` says a direct run of the protocol has missed it."""

    network: TopologyVector
    unhit_z: tuple[int, ...]
    budget: int
    verified: bool


@dataclass
class AdversaryOutcome:
    """Witness search result plus the derived family when the descriptor
    pipeline ran (absent on the direct-scan fallback)."""

    witness: Witness | None
    family: SetFamily | None


def _check_sweep_cap(params: C2Params) -> None:
    """The Z-sweep steps a leaf for each of the 2^k - 1 subsets Z, and its
    verdict is ``is_selective`` over the derived sets, so it shares that
    check's cap on the universe."""
    if params.k > SELECTIVITY_UNIVERSE_CAP:
        raise UniverseTooLarge(
            f"Z-sweep over a universe of {params.k} exceeds cap {SELECTIVITY_UNIVERSE_CAP}")


def derive_family(p4: Protocol, free: int, r: int) -> SetFamily:
    """Read one advised stage-4 run of ``p4`` on the free component alone
    (``reductions.middle_tx``, all 3r rounds) under tau = 2^k - 1, its leaf
    held silent. Middle nodes are not adjacent to each other and the source
    is silent after round 0, so until Z's leaf first hears, a middle node
    in Z acts as in the base network's Z-variant. Stage-4 middle nodes
    transmit only in rounds 3j+1, when the leaf listens; so Z's leaf first
    hears in round 3j+1 for the first j whose mask meets Z in one node.
    Set j holds the indices in Z that transmit then on some variant whose
    leaf has not heard before, so set j meets Z as the mask does up to Z's
    hearing round: Z's leaf hears iff some set selects Z, and the returned
    sets over universe k are (k,k)-selective iff every leaf hears.

    Z's own leaf, with Z's middle nodes as its neighbours, is stepped on
    phi through its hearing round, so an illegal leaf raises at the act of
    its variant's run: a round of the shared run plays before the leaf
    acts in it, and the run plays to its end before Z = 2's leaf acts. A
    leaf is not played after it has heard: nothing it does then reaches
    the family, and it can no longer transmit spontaneously.

    Raises ``UniverseTooLarge`` before simulating anything when k exceeds
    the sweep's cap.
    """
    require_stage(p4, StageTag.PI4, "derive_family")
    params = p4.params
    if free is None:
        raise FreeComponentMissing("no free component to vary")
    if r < 1:
        raise ValueError("r must be >= 1")
    _check_sweep_cap(params)
    leaf, silent = l2_label(params, free), silent_l1(params)
    held = replace(p4, node=lambda own, nbrs: spawn(silent if own == leaf else p4, own, nbrs))
    net = component_net(params, free, (1 << params.k) - 1)
    run, masks = (sum(1 << j for j in tx) for tx in middle_tx(net, held, 3 * r)), []
    sets = [0] * r
    for z in range(1, 1 << params.k):
        node = spawn(p4, leaf, tuple(l1_label(params, free, j) for j in mask_to_indices(z)))
        for t in range(3 * r):
            if t % 3 == 1 and len(masks) == t // 3:
                masks.append(next(run))
            if isinstance(node.act(t), core.Transmit):  # it has not heard yet
                raise unheard_transmission(leaf, t)
            hit = masks[t // 3] & z if t % 3 == 1 else 0
            sets[t // 3] |= hit
            if hit.bit_count() == 1:
                break
            node.observe(core.PHI)
        masks += run  # Z = 1's run plays to its end before any other leaf acts
    return SetFamily(params.k, tuple(sets))


def cross_check(p0: Protocol, w: Witness, params: C2Params) -> bool:
    """True iff the untransformed protocol really misses the budget."""
    trace = core.run(build_c2(params, w.network), p0, w.budget)
    return core.completion_round(trace) is None


def _direct_scan(p0: Protocol, r: int, params: C2Params) -> Witness | None:
    """Exhaustive fallback: run the protocol itself on every network. The
    first run to miss the budget is the verdict and the verification of its
    witness; Z is the first uninformed leaf's adjacency, () if none is."""
    for tv in enumerate_c2(params):
        trace = core.run(build_c2(params, tv), p0, r)
        if core.completion_round(trace) is None:
            z = next((mask_to_indices(tau) for i, tau in enumerate(tv.taus)
                      if l2_label(params, i) not in trace.informed), ())
            return Witness(tv, z, r, verified=True)
    return None


def analyze(p0: Protocol, r: int, params: C2Params) -> AdversaryOutcome:
    """Run the full pipeline and report the witness plus derived family.

    A pipeline witness's Z is the first Z that ``is_selective`` finds no
    derived set selecting, so ``family`` certifies it. Every returned
    witness has been confirmed by a direct run of the original protocol: a
    fallback witness by the scan's own run, a pipeline witness by one more
    run (``WitnessInconsistency`` if it completes). A None witness from the
    pipeline means the derived sets are (k,k)-selective, which rules out
    only the networks varying the free component; it is exhaustive only
    after the direct-scan fallback (``family`` None). A k above the
    Z-sweep's cap is refused before anything runs, even where pruning would
    have fallen back to the direct scan.
    """
    if r < 1:
        raise ValueError("budget must be >= 1")
    _check_sweep_cap(params)
    p3 = transform_chain(p0, params, 3)
    pr = run_prune(p3, r)
    if pr.free_component is None:
        # Every component is pinned: the descriptor pipeline has nothing
        # left to vary, so fall back to the direct exhaustive scan.
        return AdversaryOutcome(_direct_scan(p0, r, params), None)
    p4 = pi4_with_advice(p3, pr.advice)
    df = derive_family(p4, pr.free_component, r)
    # called through the module, where a wrapper installed on selfam sees it
    selective, z = selfam.is_selective(df, params.k, params.k)
    if selective:
        return AdversaryOutcome(None, df)
    w = Witness(pr.base_net.replace(pr.free_component, z), mask_to_indices(z), r, True)
    if not cross_check(p0, w, params):
        raise WitnessInconsistency(
            f"candidate witness {w.network} completes within {r}; transformer bug")
    return AdversaryOutcome(w, df)


def find_witness(p0: Protocol, r: int, params: C2Params) -> Witness | None:
    """Search for a network defeating the protocol within r rounds."""
    return analyze(p0, r, params).witness
