"""Span tracing around the benchmark's calls into sslogit.

Nothing inside the package is instrumented. Instead, the tracer replaces a
public function in the module that imports it (for example
``sslogit.select.fit_lambda_batch``, the name ``grid_search`` looks up at
call time) with a wrapper that records a span, then puts the original back
on ``uninstall``. Spans live in memory: name, start, end, the index of the
span that caused it, and the op they belong to.

A span's self time is its duration minus the durations of its direct
children. Every op runs under one root span ``op``, so the self times of an
op's spans add up to the op's traced wall time.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Callable, Optional

import numpy as np

METHODS = ("sslrcs", "lsslr", "slr")

# Spans reported as <name>_s (busy seconds per op), <name>.self_s and
# <name>.calls (per op).
SPANS = (
    "experiments.run_trials",
    "experiments.make_trial",
    "ratios.weights_from_exact",
    "ratios.weights_from_ulsif",
    "em.fit_step1_batch",
    "em.fit_lambda_batch",
    "em.fit_semisupervised",
    "em.predict",
    "gic.gic_score",
    "gic.baseline",
    "cli.main",
    "cli.cmd_fit",
    "cli.cmd_predict",
)

# Counters kept by the wrappers, reported per op.
COUNTERS = (
    "em.newton_iterations",
    "em.em_iterations",
    "em.warm_start_candidates",
    "select.candidates",
    "select.candidates_failed",
    "data.build_design.calls",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced pass reports, with its unit."""
    units: dict[str, str] = {}
    for name in SPANS:
        units[f"{name}_s"] = "s"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for m in METHODS:
        units[f"select.grid_search_s.{m}"] = "s"
    units["select.grid_search.self_s"] = "s"
    units["select.grid_search.calls"] = "count"
    units["op.self_s"] = "s"
    for name in COUNTERS:
        units[name] = "count"
    units["em.moved_from_warm_start_frac"] = "fraction"
    units["trace.op_s_p50_untraced"] = "s"
    units["trace.op_s_p50_traced"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.op_s_mean_untraced"] = "s"
    units["trace.self_s_sum"] = "s"
    return units


class Tracer:
    """In-memory spans and counters, plus the patches that produce them."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self._op: Optional[int] = None

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr: str, name, after: Optional[Callable] = None) -> None:
        """Record a span around ``owner.attr``; ``name`` is a string or a
        function of (args, kwargs). ``after(tracer, args, kwargs, result)``
        runs outside the span to update counters."""
        original = _raw_attr(owner, attr)

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            record = [label, 0.0, 0.0, parent, self._op]
            self.spans.append(record)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                record[1] = start
                self._stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        self._patches.append((owner, attr, original, traced))

    def count_calls(self, owner, attr: str, counter: str) -> None:
        """Count calls to ``owner.attr`` without recording spans."""
        original = _raw_attr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        self._patches.append((owner, attr, original, counted))

    def install(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- ops ---------------------------------------------------------------

    def run_op(self, op: int, fn: Callable, *args):
        """Run one op under the root span; returns (result, seconds)."""
        self._op = op
        idx = len(self.spans)
        record = ["op", 0.0, 0.0, -1, op]
        self.spans.append(record)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            record[2] = time.perf_counter()
            record[1] = start
            self._stack.pop()
            self._op = None
        return result, record[2] - start

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child)]

    def per_op(self, n_ops: int) -> dict[str, float]:
        """Span totals, self times, calls and counters, each per traced op."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), self_s in zip(self.spans, self.self_times()):
            total[name] += end - start
            own[name] += self_s
            calls[name] += 1
        out: dict[str, float] = {}
        for name in SPANS:
            out[f"{name}_s"] = total[name] / n_ops
            out[f"{name}.self_s"] = own[name] / n_ops
            out[f"{name}.calls"] = calls[name] / n_ops
        searches = [f"select.grid_search.{m}" for m in METHODS]
        for m, name in zip(METHODS, searches):
            out[f"select.grid_search_s.{m}"] = total[name] / n_ops
        out["select.grid_search.self_s"] = sum(own[n] for n in searches) / n_ops
        out["select.grid_search.calls"] = sum(calls[n] for n in searches) / n_ops
        out["op.self_s"] = own["op"] / n_ops
        for name in COUNTERS:
            out[name] = self.counts[name] / n_ops
        base = self.counts["em.warm_start_candidates"]
        moved = self.counts["em.moved_from_warm_start"]
        out["em.moved_from_warm_start_frac"] = moved / base if base else 0.0
        return out

    def op_self_sums(self) -> list[float]:
        """Summed self times of every span, per op, in op order."""
        sums: dict[int, float] = defaultdict(float)
        for span, self_s in zip(self.spans, self.self_times()):
            sums[span[4]] += self_s
        return [sums[k] for k in sorted(sums)]

    def write(self, path) -> None:
        """Dump the spans as JSON lines (name, op, parent, start, seconds)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": name, "op": op, "parent": parent,
                    "start": round(start - t0, 9), "seconds": round(end - start, 9),
                }) + "\n")


def _raw_attr(owner, attr: str):
    """The attribute as stored, so a method patched on a class stays a
    plain function (and is bound again when looked up on an instance)."""
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


# ---------------------------------------------------------------------------
# Layer boundaries
# ---------------------------------------------------------------------------


def _search_name(args, kwargs) -> str:
    method = kwargs.get("method", args[3] if len(args) > 3 else "sslrcs")
    return f"select.grid_search.{str(method).lower()}"


def _after_search(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["select.candidates"] += len(result.candidates)
    tracer.counts["select.candidates_failed"] += sum(
        1 for c in result.candidates if c.error is not None
    )


def _after_step1(tracer: Tracer, args, kwargs, state) -> None:
    tracer.counts["em.newton_iterations"] += int(state.iterations.sum())


def _after_lambda_batch(tracer: Tracer, args, kwargs, fits) -> None:
    step1 = kwargs.get("step1")
    for i, model in enumerate(fits.models):
        if model is None:
            continue
        tracer.counts["em.em_iterations"] += model.em_iterations
        tracer.counts["em.newton_iterations"] += model.newton_diagnostics.iterations
        if step1 is not None:
            tracer.counts["em.warm_start_candidates"] += 1
            if not np.array_equal(model.w, step1.w[i]):
                tracer.counts["em.moved_from_warm_start"] += 1


def _after_solo_fit(tracer: Tracer, args, kwargs, model) -> None:
    tracer.counts["em.em_iterations"] += model.em_iterations
    tracer.counts["em.newton_iterations"] += model.newton_diagnostics.iterations


def layer_tracer() -> Tracer:
    """A tracer with every layer boundary the benchmark crosses registered.

    Each function is wrapped where its caller imports it, so only calls
    that cross a module boundary are seen: ``em.fit_lambda_batch`` calling
    its own ``fit_step1_batch`` is not a separate span.
    """
    import sslogit.cli as cli
    import sslogit.em as em
    import sslogit.experiments as ex
    import sslogit.gic as gic
    import sslogit.select as sel

    t = Tracer()
    t.wrap(ex, "run_trials", "experiments.run_trials")
    for cls in (ex.Sim1Experiment, ex.Sim2Experiment):
        t.wrap(cls, "make_trial", "experiments.make_trial")
    t.wrap(ex, "weights_from_exact", "ratios.weights_from_exact")
    t.wrap(ex, "weights_from_ulsif", "ratios.weights_from_ulsif")
    t.wrap(ex, "grid_search", _search_name, after=_after_search)
    t.wrap(ex, "predict", "em.predict")
    t.wrap(sel, "fit_step1_batch", "em.fit_step1_batch", after=_after_step1)
    t.wrap(sel, "fit_lambda_batch", "em.fit_lambda_batch", after=_after_lambda_batch)
    t.wrap(sel, "gic_score", "gic.gic_score")
    t.wrap(sel, "gic_lsslr", "gic.baseline")
    t.wrap(sel, "gic_slr", "gic.baseline")
    t.wrap(cli, "main", "cli.main")
    t.wrap(cli, "cmd_fit", "cli.cmd_fit")
    t.wrap(cli, "cmd_predict", "cli.cmd_predict")
    t.wrap(cli, "weights_from_ulsif", "ratios.weights_from_ulsif")
    t.wrap(cli, "fit_semisupervised", "em.fit_semisupervised", after=_after_solo_fit)
    t.wrap(cli, "predict", "em.predict")
    t.count_calls(gic, "build_design", "data.build_design.calls")
    t.count_calls(em, "build_design", "data.build_design.calls")
    return t
