"""End-to-end lower-bound witness pipeline.

Given a protocol and a round budget r, the pipeline transforms the protocol
through all four stages, prunes the network family to a subset sharing one
advice string, picks a free component, and checks every nonempty adjacency
subset Z of that component: if some Z-variant network never delivers
anything to the component's leaf within 3r rounds of the advised stage-4
run, then the original protocol provably misses its budget on that network.
The emitted witness is always re-verified by a direct untransformed run.

When pruning marks every component (budget too large for the family size),
the pipeline falls back to direct exhaustive simulation over the family, so
the answer stays truthful at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import core
from .c2 import C2Params, TopologyVector, build_c2, component_net, enumerate_c2, l1_index, l2_label
from .core import Received, Transmit
from .errors import FreeComponentMissing, UniverseTooLarge, WitnessInconsistency
from .prune import run_prune
from .protocols import Protocol, StageTag
from .reductions import pi4_with_advice, require_stage, transform_chain
from .selfam import SELECTIVITY_UNIVERSE_CAP, mask_to_indices


@dataclass
class DerivedFamily:
    """Per-round transmitter sets over the free component's middle indices,
    plus the first round each Z-variant's leaf heard anything."""

    universe: int
    sets: tuple[int, ...]                     # bitmask per j = 0..r-1
    first_success: dict[int, int | None]      # Z mask -> round or None


@dataclass
class Witness:
    network: TopologyVector
    unhit_z: tuple[int, ...]
    budget: int
    verified: bool


@dataclass
class AdversaryOutcome:
    """Witness search result plus the derived family when the descriptor
    pipeline ran (absent on the direct-scan fallback)."""

    witness: Witness | None
    family: DerivedFamily | None


def _check_sweep_cap(params: C2Params) -> None:
    """The Z-sweep covers all 2^k - 1 subsets Z, so it shares
    ``is_selective``'s cap on the universe."""
    if params.k > SELECTIVITY_UNIVERSE_CAP:
        raise UniverseTooLarge(
            f"Z-sweep over a universe of {params.k} exceeds cap {SELECTIVITY_UNIVERSE_CAP}")


def derive_family(p4: Protocol, free: int, r: int, params: C2Params) -> DerivedFamily:
    """Simulate the advised stage-4 protocol ``p4`` on the free component
    alone (``c2.component_net``) for every adjacency subset Z, where it
    acts exactly as in the base network's Z-variant.

    A middle index x joins set j when, on some variant where x is adjacent
    to the leaf, x transmits in round 3j+1 while the leaf has heard nothing
    through round 3j.

    Raises ``UniverseTooLarge`` before simulating anything when k exceeds
    the sweep's cap.
    """
    require_stage(p4, StageTag.PI4, "derive_family", params)
    if free is None:
        raise FreeComponentMissing("no free component to vary")
    _check_sweep_cap(params)
    leaf = l2_label(params, free)
    sets = [0] * r
    first_success: dict[int, int | None] = {}
    for z in range(1, 1 << params.k):
        net = component_net(params, free, z)
        rounds = core.run(net, p4, 3 * r).rounds
        heard = [rec.round for rec in rounds if isinstance(rec.deliveries[leaf], Received)]
        first_success[z] = heard[0] if heard else None
        # rounds 3j+1 through the leaf's first reception
        for j, rec in enumerate(rounds[1:heard[0] + 1 if heard else 3 * r:3]):
            for x in net.neighbors(leaf):
                if isinstance(rec.actions[x], Transmit):
                    sets[j] |= 1 << l1_index(x, params)
    return DerivedFamily(params.k, tuple(sets), first_success)


def cross_check(p0: Protocol, w: Witness, params: C2Params) -> bool:
    """True iff the untransformed protocol really misses the budget."""
    trace = core.run(build_c2(params, w.network), p0, w.budget)
    return core.completion_round(trace) is None


def _verified(p0: Protocol, params: C2Params, tv: TopologyVector,
              z: tuple[int, ...], budget: int) -> Witness:
    w = Witness(tv, z, budget, verified=False)
    if not cross_check(p0, w, params):
        raise WitnessInconsistency(
            f"candidate witness {tv} completes within {budget}; transformer bug"
        )
    return Witness(tv, z, budget, verified=True)


def _direct_scan(p0: Protocol, r: int, params: C2Params) -> Witness | None:
    """Exhaustive fallback: run the protocol itself on every network."""
    for tv in enumerate_c2(params):
        trace = core.run(build_c2(params, tv), p0, r)
        if core.completion_round(trace) is None:
            uninformed = sorted(trace.network.labels - set(trace.informed))
            comp = next(
                (i for i in range(params.m) if l2_label(params, i) in uninformed),
                0,
            )
            z = mask_to_indices(tv.taus[comp])
            return _verified(p0, params, tv, z, r)
    return None


def analyze(p0: Protocol, r: int, params: C2Params) -> AdversaryOutcome:
    """Run the full pipeline and report the witness plus derived family.

    Every returned witness has been confirmed by a direct run of the
    original protocol. A None witness means every probe completed within
    budget (the protocol survives on this family). A k above the Z-sweep's
    cap is refused before anything runs, even where pruning would have
    fallen back to the direct scan.
    """
    if r < 1:
        raise ValueError("budget must be >= 1")
    _check_sweep_cap(params)
    p3 = transform_chain(p0, params, 3)
    pr = run_prune(p3, r, params)
    if pr.free_component is None:
        # Every component is pinned: the descriptor pipeline has nothing
        # left to vary, so fall back to the direct exhaustive scan.
        return AdversaryOutcome(_direct_scan(p0, r, params), None)
    p4 = pi4_with_advice(p3, pr.advice)
    df = derive_family(p4, pr.free_component, r, params)
    for z in range(1, 1 << params.k):
        if df.first_success[z] is None:
            tv = pr.base_net.replace(pr.free_component, z)
            return AdversaryOutcome(_verified(p0, params, tv, mask_to_indices(z), r), df)
    return AdversaryOutcome(None, df)


def find_witness(p0: Protocol, r: int, params: C2Params) -> Witness | None:
    """Search for a network defeating the protocol within r rounds."""
    return analyze(p0, r, params).witness
