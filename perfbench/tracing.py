"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces module attributes of ``radiolb`` that are
looked up at call time with timing wrappers and puts every original back on
exit. Each wrapper keeps a stack frame that its children add their duration
to, so a layer's self time is its duration minus the time its child spans
cover.

Coarse calls (engine runs, pruning, analyses, selective-family searches)
become spans that stay in memory and are written as sorted-key JSONL at the
end. The hot per-round and per-step calls (``step_round``, protocol steps,
``build_c2``) are only aggregated into call counts and self time: one span
record each would cost more memory than the run measures.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import time
from collections import Counter
from contextlib import contextmanager
from math import comb

from radiolb import StageTag, adversary, c2, core, prune, reductions, selfam

# (module, attribute, layer name, keep a span record)
_PATCHES = (
    (core, "run", "core.run", True),
    (core, "step_round", "core.step_round", False),
    (core, "trace_to_jsonl", "core.trace_to_jsonl", True),
    (c2, "build_c2", "c2.build_c2", False),
    (prune, "build_c2", "c2.build_c2", False),
    (adversary, "build_c2", "c2.build_c2", False),
    (prune, "event_sequence", "prune.event_sequence", True),
    (prune, "mark_components", "prune.mark_components", True),
    (adversary, "run_prune", "prune.run_prune", True),
    (adversary, "analyze", "adversary.analyze", True),
    (adversary, "derive_family", "adversary.derive_family", True),
    (adversary, "cross_check", "adversary.cross_check", True),
    (reductions, "make_advice", "reductions.make_advice", True),
    (selfam, "is_selective", "selfam.is_selective", True),
    (selfam, "greedy_selective", "selfam.greedy_selective", True),
    (selfam, "min_selective_size", "selfam.min_selective_size", True),
)
_ENUMERATORS = ((c2, "enumerate_c2"), (prune, "enumerate_c2"), (adversary, "enumerate_c2"))

# Layer metrics reported as calls and/or self seconds.
CALLS = (
    "core.run", "core.step_round", "c2.build_c2", "protocols.base_step", "reductions.step",
    "prune.event_sequence", "adversary.derive_family", "adversary.cross_check",
    "selfam.is_selective", "selfam.greedy_selective", "selfam.min_selective_size",
)
SELF = (
    "core.run", "core.step_round", "core.trace_to_jsonl", "c2.build_c2",
    "protocols.base_step", "reductions.step", "reductions.make_advice",
    "prune.run_prune", "prune.event_sequence", "prune.mark_components",
    "adversary.analyze", "adversary.derive_family", "adversary.cross_check",
    "selfam.is_selective", "selfam.greedy_selective", "selfam.min_selective_size",
)


def _targets_up_to(z: int, k: int) -> int:
    """How many masks in [1, z] have at most k bits: the subsets is_selective
    examines before it reports z as its failure witness."""
    count, ones = 0, 0
    for bit in reversed(range(z.bit_length())):
        if (z >> bit) & 1:
            count += sum(comb(bit, i) for i in range(k - ones + 1))
            ones += 1
            if ones > k:
                break
    return count + (ones <= k) - 1


class Tracer:
    def __init__(self):
        self.enabled = True
        self.op = None
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.spans = []
        self._stack = []  # [span id, child seconds] per open call
        self._next_id = 0
        self._run_depth = 0
        self._gc_start = None

    # -- wrappers ----------------------------------------------------------

    def wrap(self, name, fn, keep_span=True, after=None):
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._next_id += 1
            frame = [self._next_id, 0.0]
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
                if keep_span:
                    self.spans.append((frame[0], parent, name, self.op, start, end))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def base_protocol(self, p0):
        """The seeded base protocol with its step traced as protocols.base_step."""
        return dataclasses.replace(p0, step=self.wrap("protocols.base_step", p0.step, False))

    def _staged(self, proto):
        """A staged protocol handed to the engine, with its step traced as
        reductions.step and any protocol its setup returns traced the same way."""
        step = self.wrap("reductions.step", proto.step, False)
        if proto.setup is None:
            return dataclasses.replace(proto, step=step)
        bind = proto.setup

        def setup(net, max_rounds):
            return self._staged(bind(net, max_rounds))

        return dataclasses.replace(proto, step=step, setup=setup)

    def _wrap_run(self, fn):
        timed = self.wrap("core.run", fn, True)

        def run(net, proto, max_rounds, **kwargs):
            if not self.enabled:
                return fn(net, proto, max_rounds, **kwargs)
            base_rounds = max_rounds
            staged = proto.stage is not StageTag.PI0
            if staged:
                proto = self._staged(proto)
                base_rounds = -(-max_rounds // 3)
            self.counts["core.node_rounds"] += net.n * max_rounds
            self.counts["base_node_rounds"] += net.n * base_rounds
            outermost = self._run_depth == 0
            self._run_depth += 1
            start = time.perf_counter()
            try:
                return timed(net, proto, max_rounds, **kwargs)
            finally:
                self._run_depth -= 1
                if outermost:
                    kind = "staged" if staged else "base"
                    self.counts[f"{kind}_run_s"] += time.perf_counter() - start
                    self.counts[f"{kind}_run_node_rounds"] += net.n * base_rounds

        return run

    def _count_networks(self, fn):
        def enumerate_c2(*args, **kwargs):
            vectors = fn(*args, **kwargs)  # raises before the first item, as the original does

            def counted():
                for tv in vectors:
                    if self.enabled:
                        self.counts["c2.enumerate_c2.networks"] += 1
                    yield tv

            return counted()

        return enumerate_c2

    def _after_analyze(self, args, outcome):
        if outcome.family is None:
            self.counts["adversary.fallbacks"] += 1

    def _after_is_selective(self, args, result):
        fam, n, k = args[:3]
        ok, witness = result
        checked = sum(comb(n, i) for i in range(1, k + 1)) if ok else _targets_up_to(witness, k)
        self.counts["selfam.subsets_checked"] += checked

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            self.counts["gc.pause_s"] += time.perf_counter() - self._gc_start
            self.counts["gc.collections"] += 1
            self._gc_start = None

    # -- installation ------------------------------------------------------

    @contextmanager
    def install(self):
        """Replace the traced attributes; restore every original on exit."""
        originals = []
        try:
            for module, attr, name, keep in _PATCHES:
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                if name == "core.run":
                    wrapped = self._wrap_run(fn)
                else:
                    after = {
                        "adversary.analyze": self._after_analyze,
                        "selfam.is_selective": self._after_is_selective,
                    }.get(name)
                    wrapped = self.wrap(name, fn, keep, after)
                setattr(module, attr, wrapped)
            for module, attr in _ENUMERATORS:
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._count_networks(fn))
            gc.callbacks.append(self._gc_callback)
            yield self
        finally:
            if self._gc_callback in gc.callbacks:
                gc.callbacks.remove(self._gc_callback)
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts
        out = {f"{name}.calls": self.calls[name] for name in CALLS}
        out.update({f"{name}.self_s": self.self_s[name] for name in SELF})
        out["core.node_rounds"] = c["core.node_rounds"]
        out["c2.enumerate_c2.networks"] = c["c2.enumerate_c2.networks"]
        out["reductions.replay_factor"] = ratio(self.calls["protocols.base_step"], c["base_node_rounds"])
        out["reductions.staged_over_base"] = ratio(
            ratio(c["staged_run_s"], c["staged_run_node_rounds"]),
            ratio(c["base_run_s"], c["base_run_node_rounds"]),
        )
        out["prune.networks_per_prune"] = ratio(
            self.calls["prune.event_sequence"], self.calls["prune.run_prune"]
        )
        out["adversary.fallback_ratio"] = ratio(c["adversary.fallbacks"], self.calls["adversary.analyze"])
        out["selfam.subsets_checked"] = c["selfam.subsets_checked"]
        out["gc.pause_s"] = c["gc.pause_s"]
        out["gc.collections"] = c["gc.collections"]
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, op, start, end in self.spans:
                record = {"id": span_id, "parent": parent, "name": name, "op": op,
                          "start": start, "end": end}
                fh.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
