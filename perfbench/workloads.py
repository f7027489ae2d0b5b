"""The benchmark's two workloads: seeded operation lists, execution, checks.

An operation is one unit a user would run, such as one ``radiolb adversary``
call. ``execute`` times nothing itself; it returns the operation's output in
the CLI's byte format plus whatever the checks need. Every operation builds
its base protocol anew, as a CLI call does, so the module-global caches of
``radiolb`` never answer one operation with another's entries.

Library functions are called through their module attributes
(``adversary.analyze``, ``core.run`` ...) so that the traced run's wrappers,
which replace those attributes, see every call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from radiolb import LISTEN, SOURCE, C2Params, SetFamily, TopologyVector, Transmit
from radiolb import adversary, c2, core, reductions, selfam
from radiolb.c2 import layer_of

from inputs import PreySpec, build_prey, draw_family, draw_network, draw_prey, rng_for


@dataclass
class Outcome:
    output: bytes  # the bytes the matching CLI command would print
    detail: object = None  # what the correctness checks need


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _text(lines) -> bytes:
    return ("\n".join(lines) + "\n").encode()


def _base(spec: PreySpec, params: C2Params, tracer):
    p0 = build_prey(spec, params)
    return p0 if tracer is None else tracer.base_protocol(p0)


# ---------------------------------------------------------------------------
# The adversary sweep: analyze(p0, r, params), as `radiolb adversary`
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnalyzeOp:
    spec: PreySpec
    m: int
    k: int
    r: int


class AdversarySweep:
    name = "adversary-sweep"
    # Round-robin at fixed points, where nearly all the time goes to prune's
    # per-network stage-3 runs. Every operation of the workload takes under
    # 0.1 s, so that a run times each one on many passes seconds apart.
    FIXED = ((2, 3, 3), (3, 2, 4), (2, 4, 2), (4, 2, 3), (4, 2, 4))
    KINDS = ("hash", "relay", "leaf-ack", "schedule")
    # (m, k, budgets, prey kinds); each entry draws its own seeded preys.
    # Many preys at a few budgets each, so that the seed moves the total work
    # little.
    GRID = (
        (2, 3, (3, 5), KINDS * 2),
        (3, 2, (2, 4), KINDS),
    )

    def generate(self, seed: int) -> list[AnalyzeOp]:
        rng = rng_for(self.name, seed)
        ops = [AnalyzeOp(PreySpec("round-robin", 0), m, k, r) for m, k, r in self.FIXED]
        for m, k, budgets, kinds in self.GRID:
            for kind in kinds:
                spec = draw_prey(rng, kind)
                ops.extend(AnalyzeOp(spec, m, k, r) for r in budgets)
        return ops

    def execute(self, op: AnalyzeOp, tracer=None) -> Outcome:
        params = C2Params(op.m, op.k)
        outcome = adversary.analyze(_base(op.spec, params, tracer), op.r, params)
        w = outcome.witness
        if w is None:
            return Outcome(b"none\n", outcome)
        lines = [_json({
            "budget": w.budget,
            "network": c2.encode_c2(params, w.network),
            "verified": w.verified,
            "z": list(w.unhit_z),
        })]
        if outcome.family is not None:
            lines += selfam.family_to_lines(SetFamily(params.k, outcome.family.sets))
        return Outcome(_text(lines), outcome)

    def check(self, op: AnalyzeOp, out: Outcome, memo: dict) -> str | None:
        w = out.detail.witness
        if w is None:
            return None
        if not w.verified or w.budget != op.r:
            return f"witness not marked verified at budget {op.r}"
        params = C2Params(op.m, op.k)
        direct = core.run(c2.build_c2(params, w.network), build_prey(op.spec, params), op.r)
        if core.completion_round(direct) is not None:
            return "witness completes within budget on a direct run"
        return None


# ---------------------------------------------------------------------------
# The staged runs: transform_chain stages 0-4 on long histories, as `radiolb transform`
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StagedOp:
    spec: PreySpec
    m: int
    k: int
    taus: tuple[int, ...]
    base_rounds: int
    stage: int


class StagedLong:
    name = "staged-long"
    BASE_ROUNDS = (16, 24)
    # Each slot is one seeded network of the family with its own seeded prey.
    SLOTS = ((2, 4, "leaf-ack"), (3, 3, "relay"), (2, 3, "hash"))

    def generate(self, seed: int) -> list[StagedOp]:
        rng = rng_for(self.name, seed)
        ops = []
        for m, k, kind in self.SLOTS:
            tv = draw_network(rng, C2Params(m, k))
            spec = draw_prey(rng, kind)
            for base in self.BASE_ROUNDS:
                ops.extend(StagedOp(spec, m, k, tv.taus, base, s) for s in range(5))
        return ops

    def execute(self, op: StagedOp, tracer=None) -> Outcome:
        params = C2Params(op.m, op.k)
        net = c2.build_c2(params, TopologyVector(op.taus))
        p0 = _base(op.spec, params, tracer)
        if op.stage == 0:
            proto, rounds = p0, op.base_rounds
        else:
            proto = reductions.transform_chain(p0, params, op.stage)
            rounds = 3 * op.base_rounds
        trace = core.run(net, proto, rounds)
        lines = core.trace_to_jsonl(trace)
        report = {
            "completion": core.completion_round(trace),
            "protocol": op.spec.name,
            "stage": op.stage,
        }
        if op.stage == 4:
            budget = 1 if rounds < 2 else (rounds - 2) // 3 + 1
            p3 = reductions.transform_chain(p0, params, 3)
            report["advice"] = reductions.make_advice(p3, net, budget).encode()
        return Outcome(_text(lines + [_json(report)]), trace)

    def check(self, op: StagedOp, out: Outcome, memo: dict) -> str | None:
        problem = _informed_problem(out.detail)
        group = (op.spec, op.taus, op.base_rounds)
        if op.stage == 0:
            memo[group] = out.detail
        elif problem is None:
            base = memo.get(group)
            if base is None:
                problem = "no stage-0 trace to compare against"
            elif not _same_non_source_columns(base, out.detail):
                problem = f"stage {op.stage} non-source columns differ from stage 0"
        return problem


def _informed_problem(trace) -> str | None:
    if core.recompute_informed(trace) != trace.informed:
        return "recompute_informed disagrees with informed"
    return None


def _same_non_source_columns(base, staged) -> bool:
    """Stage s >= 1 re-enacts base round t in rounds 3t..3t+2, each layer in
    its own sub-round: a non-source node x transmits in round 3t + layer(x)
    exactly what it transmitted in base round t, and listens otherwise."""
    params = base.network.c2_params
    if len(staged.rounds) != 3 * len(base.rounds):
        return False
    for rec in staged.rounds:
        t, phase = divmod(rec.round, 3)
        base_actions = base.rounds[t].actions
        for x, act in rec.actions.items():
            if x == SOURCE:
                continue
            was = base_actions[x]
            expected = was if phase == layer_of(x, params) and isinstance(was, Transmit) else LISTEN
            if act != expected:
                return False
    return True


# ---------------------------------------------------------------------------
# pipeline: the adversary sweep, then the staged runs
# ---------------------------------------------------------------------------

class Pipeline:
    """One sequence of radio-pipeline CLI calls: every ``radiolb adversary``
    call of the adversary sweep, then every ``radiolb transform`` run of the
    staged runs. One workload rather than two, so that each run can be long
    enough for the fastest pass to escape minutes-long slow spells of the
    host within the benchmark's time budget."""

    name = "pipeline"
    sweep, staged = AdversarySweep(), StagedLong()

    def generate(self, seed: int) -> list:
        return self.sweep.generate(seed) + self.staged.generate(seed)

    def _part(self, op):
        return self.sweep if isinstance(op, AnalyzeOp) else self.staged

    def execute(self, op, tracer=None) -> Outcome:
        return self._part(op).execute(op, tracer)

    def check(self, op, out: Outcome, memo: dict) -> str | None:
        return self._part(op).check(op, out, memo)


# ---------------------------------------------------------------------------
# selfam-search: greedy construction, verification at the cap, exact minima,
# as `radiolb selfam greedy|verify|min`
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelfamOp:
    verb: str
    n: int
    k: int
    family: SetFamily | None = None


# Exact minima: (1,1) and (2,2) are acceptance criterion 5's pinned values;
# the rest were confirmed by brute force over all combinations of subsets.
MIN_SIZES = {
    (1, 1): 1, (2, 2): 2,
    (4, 1): 1, (4, 2): 3, (4, 3): 3, (4, 4): 4,
    (5, 1): 1, (5, 2): 3, (5, 3): 4, (5, 4): 4, (5, 5): 5,
}


class SelfamSearch:
    name = "selfam-search"
    # Greedy searches whose work does not depend on the seed, each small
    # enough to be timed on many passes of a run.
    GREEDY = ((9, 3), (9, 4), (10, 2), (10, 3), (10, 4), (11, 2), (12, 2))
    CAP = selfam.SELECTIVITY_UNIVERSE_CAP
    VERIFY_KS = (2, 3, 4)
    VERIFY_PER_K = 12

    def generate(self, seed: int) -> list[SelfamOp]:
        rng = rng_for(self.name, seed)
        ops = [SelfamOp("greedy", n, k) for n, k in self.GREEDY]
        for k in self.VERIFY_KS:
            for _ in range(self.VERIFY_PER_K):
                ops.append(SelfamOp("verify", self.CAP, k, draw_family(rng, self.CAP, 10 * k)))
        ops.extend(SelfamOp("min", n, k) for n, k in MIN_SIZES)
        return ops

    def execute(self, op: SelfamOp, tracer=None) -> Outcome:
        if op.verb == "greedy":
            fam = selfam.greedy_selective(op.n, op.k)
            return Outcome(_text(selfam.family_to_lines(fam)), fam)
        if op.verb == "verify":
            ok, witness = selfam.is_selective(op.family, op.n, op.k)
            z = None if witness is None else list(selfam.mask_to_indices(witness))
            return Outcome(_text([_json({"selective": ok, "witness": z})]), witness)
        size = selfam.min_selective_size(op.n, op.k)
        return Outcome(_text([_json(size)]), size)

    def check(self, op: SelfamOp, out: Outcome, memo: dict) -> str | None:
        if op.verb == "greedy":
            if selfam.is_selective(out.detail, op.n, op.k) != (True, None):
                return "greedy family is not selective"
        elif op.verb == "verify":
            z = out.detail
            if z is not None and (
                bin(z).count("1") > op.k or any(bin(z & f).count("1") == 1 for f in op.family.sets)
            ):
                return "reported witness is hit or too large"
        elif out.detail != MIN_SIZES[(op.n, op.k)]:
            return f"minimum size {out.detail} != pinned {MIN_SIZES[(op.n, op.k)]}"
        return None


WORKLOADS = {w.name: w for w in (Pipeline(), SelfamSearch())}
