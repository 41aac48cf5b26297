"""Span recorder that traces smplab from outside the package.

``install`` wraps every public function of the package modules and the
methods ``PolynomialBasis.design``, ``ConditionalFit.__call__`` and
``control_at`` of every ``ControlLaw`` subclass.  Modules bind many of these
names with ``from ... import``, so each wrapper replaces the original under
every ``smplab.*`` module attribute that *is* the original; wrapping only the
defining module would miss most calls.

Spans stay in memory as ``[name, start, end, parent, counts]`` rows (parent is
the index of the enclosing span, -1 at the root) and are written out by the
caller when the run ends.  ``summarize`` turns them into per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("model", "simulate", "malliavin", "bsde", "smp", "lqsolver", "harness")

# (metric name, unit) in the order they are reported.  `.s` is inclusive
# seconds and `.self_s` is `.s` minus the time covered by child spans; both
# (and `.calls`) count only the outermost span of a name, so a SpikedLaw
# delegating to its base law or a recursive `evaluate` is not counted twice.
PER_LAYER = (
    ("simulate.sample_noise.s", "s"),
    ("simulate.sample_noise.calls", "count"),
    ("simulate.sample_noise.paths", "count"),
    ("simulate.euler_forward.s", "s"),
    ("simulate.euler_forward.self_s", "s"),
    ("simulate.euler_forward.calls", "count"),
    ("simulate.euler_forward.path_steps", "count"),
    ("simulate.gamma_process.s", "s"),
    ("model.control_at.s", "s"),
    ("model.control_at.calls", "count"),
    ("malliavin.fit_conditional.s", "s"),
    ("malliavin.fit_conditional.self_s", "s"),
    ("malliavin.fit_conditional.calls", "count"),
    ("malliavin.fit_conditional.rows", "count"),
    ("malliavin.fit_conditional.full_rank_ratio", "ratio"),
    ("malliavin.PolynomialBasis.design.s", "s"),
    ("malliavin.PolynomialBasis.design.calls", "count"),
    ("malliavin.PolynomialBasis.design.cells", "count"),
    ("malliavin.ConditionalFit.call.s", "s"),
    ("malliavin.ConditionalFit.call.calls", "count"),
    ("malliavin.conditional_derivative.s", "s"),
    ("malliavin.conditional_derivative.calls", "count"),
    ("malliavin.evaluate.s", "s"),
    ("bsde.solve_linear_explicit.s", "s"),
    ("bsde.solve_linear_explicit.self_s", "s"),
    ("bsde.solve_regression.s", "s"),
    ("bsde.solve_regression.self_s", "s"),
    ("bsde.extract_qr.s", "s"),
    ("bsde.extract_qr.self_s", "s"),
    ("smp.partials_along.s", "s"),
    ("smp.partials_along.calls", "count"),
    ("smp.performance_values.s", "s"),
    ("smp.performance_values.calls", "count"),
    ("smp.performance_values.redundant_prefix_frac", "ratio"),
    ("smp.check_necessary_condition.self_s", "s"),
    ("lqsolver.solve_constrained.s", "s"),
    ("lqsolver.solve_constrained.self_s", "s"),
    ("lqsolver.solve_constrained.sweeps", "count"),
    ("harness.parse_config.s", "s"),
    ("harness.run.self_s", "s"),
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_sample_noise(args, kwargs, result):
    return {"paths": int(_arg(args, kwargs, 2, "n_paths"))}


def _count_euler_forward(args, kwargs, result):
    from smplab.model import SpikedLaw

    law = _arg(args, kwargs, 1, "law")
    n_paths = result.u.shape[0]
    prefix = 0
    if isinstance(law, SpikedLaw) and law.window.any():
        prefix = n_paths * int(law.window.argmax())
    return {"path_steps": int(result.u.size), "prefix_path_steps": prefix}


def _count_fit_conditional(args, kwargs, result):
    rows = len(_arg(args, kwargs, 0, "values"))
    return {"rows": rows, "full_rank": int(not result.rank_deficient)}


def _count_design(args, kwargs, result):
    return {"cells": int(result.size)}


def _count_solve_constrained(args, kwargs, result):
    return {"sweeps": len(result.residual_history)}


_COUNTERS = {
    "simulate.sample_noise": _count_sample_noise,
    "simulate.euler_forward": _count_euler_forward,
    "malliavin.fit_conditional": _count_fit_conditional,
    "malliavin.PolynomialBasis.design": _count_design,
    "lqsolver.solve_constrained": _count_solve_constrained,
}


class SpanRecorder:
    """In-memory spans of one single-threaded run."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn):
        count = _COUNTERS.get(name)
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return traced


def install() -> SpanRecorder:
    """Wrap the package's public functions and traced methods; returns the recorder."""
    import smplab  # noqa: F401  (imports every package module)
    import smplab.cli  # noqa: F401
    from smplab.malliavin import ConditionalFit, PolynomialBasis
    from smplab.model import ControlLaw

    recorder = SpanRecorder()
    modules = [m for n, m in list(sys.modules.items()) if n == "smplab" or n.startswith("smplab.")]
    for layer in LAYERS:
        mod = sys.modules[f"smplab.{layer}"]
        for fname, fn in list(vars(mod).items()):
            if fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            wrapped = recorder.wrap(f"{layer}.{fname}", fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapped)

    PolynomialBasis.design = recorder.wrap("malliavin.PolynomialBasis.design", PolynomialBasis.design)
    ConditionalFit.__call__ = recorder.wrap("malliavin.ConditionalFit.call", ConditionalFit.__call__)
    pending = [ControlLaw]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "control_at" in vars(cls):
            cls.control_at = recorder.wrap("model.control_at", vars(cls)["control_at"])
    return recorder


def summarize(spans, run_s: float) -> dict:
    """Per-layer metrics of a traced run from its spans.

    ``run_s`` is the wall time of ``harness.run`` measured around the call.
    Returns every ``PER_LAYER`` metric (0 where the workload never calls the
    function) plus ``trace.coverage``: the top-level spans under
    ``harness.run`` plus its self time, as a share of ``run_s``.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start

    def outermost(idx):
        name = spans[idx][0]
        parent = spans[idx][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return False
            parent = spans[parent][3]
        return True

    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    for idx, (name, start, end, parent, span_counts) in enumerate(spans):
        self_time[name] += end - start - covered[idx]
        if not outermost(idx):
            continue
        total[name] += end - start
        calls[name] += 1
        for key, value in (span_counts or {}).items():
            counts[f"{name}.{key}"] += value
        if name == "simulate.euler_forward" and parent >= 0 and spans[parent][0] == "smp.performance_values":
            counts["smp.performance_values.prefix_path_steps"] += span_counts["prefix_path_steps"]

    metrics = {}
    for metric, _ in PER_LAYER:
        base, _, kind = metric.rpartition(".")
        if kind == "s":
            metrics[metric] = total[base]
        elif kind == "self_s":
            metrics[metric] = self_time[base]
        elif kind == "calls":
            metrics[metric] = calls[base]
        else:
            metrics[metric] = counts[metric]
    fits = calls["malliavin.fit_conditional"]
    metrics["malliavin.fit_conditional.full_rank_ratio"] = (
        counts["malliavin.fit_conditional.full_rank"] / fits if fits else 0.0
    )
    path_steps = counts["simulate.euler_forward.path_steps"]
    metrics["smp.performance_values.redundant_prefix_frac"] = (
        counts["smp.performance_values.prefix_path_steps"] / path_steps if path_steps else 0.0
    )

    roots = [i for i, s in enumerate(spans) if s[0] == "harness.run" and s[3] < 0]
    top = sum(s[2] - s[1] for s in spans if s[3] in roots)
    metrics["trace.coverage"] = (top + metrics["harness.run.self_s"]) / run_s if run_s > 0 else 0.0
    return metrics
