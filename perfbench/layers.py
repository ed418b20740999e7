"""Per-layer spans and counters, installed around chowforms for a traced run.

The layers are the modules of ``chowforms``.  During a traced run the
benchmark wraps each module's public functions from outside: a span records
name, start, end, parent span and operation key, and a counter records
calls.  Because modules bind each other's functions with ``from .x import
y``, a function is replaced in every chowforms module that holds it, so
patching ``chowforms.resultant.resultant`` also reaches ``chowforms.chow``
and through it ``degeneration``'s use of ``_contraction_resultant``.

A span's self time is its duration minus the durations of its child spans
(children of one span never overlap: the program is single-threaded).
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import sys
import time
from fractions import Fraction

# ``chowforms.resultant`` names the function once the package is imported,
# so the modules are fetched by their full names.
chow, cli, curves, degeneration, oracle, polynomial, resultant = (
    importlib.import_module(f"chowforms.{m}")
    for m in ("chow", "cli", "curves", "degeneration", "oracle", "polynomial", "resultant")
)

# Functions and methods that get a span, as (span name, owner, attribute).
SPANS = (
    ("resultant.resultant", resultant, "resultant"),
    ("resultant.sylvester", resultant, "sylvester"),
    ("resultant.det_laplace_split", resultant, "det_laplace_split"),
    ("chow.cayley_biform", chow, "cayley_biform"),
    ("chow.normalized", chow.CayleyBiform, "normalized"),
    ("chow.plucker_rewrite", chow, "plucker_rewrite"),
    ("chow.depends_only_on_wedge", chow, "depends_only_on_wedge"),
    ("chow.plucker_expand", chow.PluckerRep, "expand"),
    ("chow.incident", chow, "incident"),
    ("polynomial.content_primitive", polynomial, "content_primitive"),
    ("polynomial.evaluate", polynomial.MPoly, "evaluate"),
    ("polynomial.format_terms", polynomial, "format_terms"),
    ("polynomial.form_gcd", polynomial, "form_gcd"),
    ("polynomial.form_gcd_all", polynomial, "form_gcd_all"),
    ("oracle.incident_oracle", oracle, "incident_oracle"),
    ("oracle.base_locus_free", oracle, "base_locus_free"),
    ("oracle.map_degree", oracle, "map_degree"),
    ("oracle.check_curve", oracle, "check_curve"),
    ("degeneration.family_biform", degeneration, "family_biform"),
    ("degeneration.join_family", degeneration, "join_family"),
    ("degeneration.limit_direction", degeneration, "limit_direction"),
    ("degeneration.boundary_factor_check", degeneration, "boundary_factor_check"),
    ("degeneration.normalize_attachment", degeneration, "normalize_attachment"),
    ("cli.load_curve", cli, "load_curve"),
    ("cli.main", cli, "main"),
)

# Hot methods that only get a call counter, as (counter name, owner, attribute).
COUNTERS = (
    ("mpoly_mul", polynomial.MPoly, "__mul__"),
    ("mpoly_add", polynomial.MPoly, "__add__"),
    ("mpoly_new", polynomial.MPoly, "__init__"),
    ("fraction_new", Fraction, "__new__"),
)

_MAP_DEGREE_TRIALS = inspect.signature(oracle.map_degree).parameters["trials"].default


class Tracer:
    """Spans and counts of the passes of one traced measurement."""

    def __init__(self):
        self.op = None
        self.spans: list = []  # [name, start, end, parent index, op key]
        self._stack: list = []
        self.counts: dict = {}
        self.passes: list = []  # (complete, spans, counts) per pass
        self._undo: list = []

    # -- pass bookkeeping ------------------------------------------------------

    def begin_pass(self) -> None:
        self.spans = []
        self.counts = {}

    def end_pass(self, complete: bool) -> None:
        self.passes.append((complete, self.spans, self.counts))

    def _add(self, name: str, amount=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- wrappers ----------------------------------------------------------------

    def _span(self, name: str, fn):
        post = _POST.get(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if post is not None:
                post(self, result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _counter(self, name: str, fn):
        def wrapper(*args, **kwargs):
            c = self.counts
            c[name] = c.get(name, 0) + 1
            return fn(*args, **kwargs)

        # Fraction.__new__ is a staticmethod in the class dict.
        return staticmethod(wrapper) if name == "fraction_new" else wrapper

    def _point_counter(self, fn):
        """CurveMap.point calls made directly by map_degree: samples drawn."""

        def wrapper(*args, **kwargs):
            stack = self._stack
            if stack and self.spans[stack[-1]][0] == "oracle.map_degree":
                self._add("map_degree_samples")
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall -----------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "chowforms" or name.startswith("chowforms."))
        ]
        for name, owner, attr in SPANS:
            if isinstance(owner, type):
                self._patch_class(owner, attr, lambda fn, name=name: self._span(name, fn))
            else:
                orig = getattr(owner, attr)
                wrapped = self._span(name, orig)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._set(m, key, value, wrapped)
        for name, cls, attr in COUNTERS:
            self._patch_class(cls, attr, lambda fn, name=name: self._counter(name, fn))
        self._patch_class(curves.CurveMap, "point", self._point_counter)

    def _patch_class(self, cls, attr: str, make) -> None:
        raw = cls.__dict__[attr]
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        wrapped = make(fn)
        # ``__rmul__ = __mul__`` and the like: patch every alias of the method.
        for key, value in list(cls.__dict__.items()):
            if value is raw:
                self._set(cls, key, raw, wrapped)

    def _set(self, owner, key: str, old, new) -> None:
        self._undo.append((owner, key, old))
        setattr(owner, key, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, old = self._undo.pop()
            setattr(owner, key, old)


def _post_sylvester(t: Tracer, result, args, kwargs) -> None:
    t.counts["matrix_order_max"] = max(t.counts.get("matrix_order_max", 0), result.size)


def _post_cayley(t: Tracer, result, args, kwargs) -> None:
    t._add("biform_terms", len(result.poly.terms))


def _post_family(t: Tracer, result, args, kwargs) -> None:
    t._add("family_biforms")
    t._add("eps_orders", len({exps[-1] for exps in result.poly.terms}))


def _post_map_degree(t: Tracer, result, args, kwargs) -> None:
    t._add("map_degree_accepted", kwargs.get("trials", args[2] if len(args) > 2 else _MAP_DEGREE_TRIALS))


_POST = {
    "resultant.sylvester": _post_sylvester,
    "chow.cayley_biform": _post_cayley,
    "degeneration.family_biform": _post_family,
    "oracle.map_degree": _post_map_degree,
}


# -- per-layer metrics -------------------------------------------------------------

# (metric, unit, better, how, source, end-to-end metric it should move, workloads)
# ``how``: "total" span time, "self" span self time, "calls" span count,
# "count" counter, "ratio" handled in :func:`layer_metrics`.
LAYER_METRICS = (
    ("resultant.det_laplace_s", "s", "lower", "total", "resultant.det_laplace_split",
     "compute_s, degenerate_s", "build_grid, degen_joins"),
    ("resultant.det_laplace_calls", "count", "lower", "calls", "resultant.det_laplace_split",
     "compute_s, degenerate_s", "build_grid, degen_joins"),
    ("resultant.sylvester_s", "s", "lower", "total", "resultant.sylvester",
     "compute_s, degenerate_s", "build_grid, degen_joins"),
    ("resultant.matrix_order_max", "count", "lower", "count", "matrix_order_max",
     "compute_s, degenerate_s", "build_grid, degen_joins"),
    ("chow.cayley_biform_self_s", "s", "lower", "self", "chow.cayley_biform",
     "compute_s", "build_grid"),
    ("chow.normalized_s", "s", "lower", "total", "chow.normalized", "compute_s", "build_grid"),
    ("chow.biform_terms", "count", "lower", "count", "biform_terms", "compute_s", "build_grid"),
    ("chow.plucker_rewrite_self_s", "s", "lower", "self", "chow.plucker_rewrite",
     "plucker_s, implicitize_s", "build_grid"),
    ("chow.wedge_check_s", "s", "lower", "total", "chow.depends_only_on_wedge",
     "plucker_s, implicitize_s", "build_grid"),
    ("chow.plucker_expand_s", "s", "lower", "total", "chow.plucker_expand",
     "plucker_s, implicitize_s", "build_grid"),
    ("chow.incident_s", "s", "lower", "total", "chow.incident", "incident_chow_s", "query_planes"),
    ("chow.incident_calls", "count", "lower", "calls", "chow.incident", "incident_chow_s", "query_planes"),
    ("polynomial.mpoly_mul_calls", "count", "lower", "count", "mpoly_mul",
     "compute_s, degenerate_s", "build_grid, degen_joins"),
    ("polynomial.mpoly_add_calls", "count", "lower", "count", "mpoly_add",
     "compute_s, degenerate_s", "build_grid, degen_joins"),
    ("polynomial.mpoly_new_calls", "count", "lower", "count", "mpoly_new",
     "compute_s, degenerate_s", "build_grid, degen_joins"),
    ("polynomial.fraction_new_calls", "count", "lower", "count", "fraction_new",
     "compute_s, degenerate_s", "build_grid, degen_joins"),
    ("polynomial.content_primitive_s", "s", "lower", "total", "polynomial.content_primitive",
     "compute_s, degenerate_s", "build_grid, degen_joins"),
    ("polynomial.evaluate_s", "s", "lower", "total", "polynomial.evaluate",
     "incident_chow_s", "query_planes"),
    ("polynomial.format_terms_s", "s", "lower", "total", "polynomial.format_terms",
     "compute_s, plucker_s", "build_grid"),
    ("polynomial.form_gcd_s", "s", "lower", "total", "polynomial.form_gcd",
     "incident_oracle_s, check_s", "query_planes"),
    ("polynomial.form_gcd_calls", "count", "lower", "calls", "polynomial.form_gcd",
     "incident_oracle_s, check_s", "query_planes"),
    ("polynomial.form_gcd_all_s", "s", "lower", "total", "polynomial.form_gcd_all",
     "incident_oracle_s, check_s", "query_planes"),
    ("oracle.incident_oracle_self_s", "s", "lower", "self", "oracle.incident_oracle",
     "incident_oracle_s", "query_planes"),
    ("oracle.base_locus_free_calls", "count", "lower", "calls", "oracle.base_locus_free",
     "incident_oracle_s", "query_planes"),
    ("oracle.map_degree_s", "s", "lower", "total", "oracle.map_degree", "check_s", "query_planes"),
    ("oracle.map_degree_calls", "count", "lower", "calls", "oracle.map_degree", "check_s", "query_planes"),
    ("oracle.map_degree_samples_drawn", "count", "lower", "count", "map_degree_samples",
     "check_s", "query_planes"),
    ("oracle.map_degree_accept_ratio", "ratio", "higher", "ratio", "map_degree_accepted/map_degree_samples",
     "check_s", "query_planes"),
    ("oracle.check_curve_s", "s", "lower", "total", "oracle.check_curve",
     "check_s, implicitize_s", "query_planes, build_grid"),
    ("degeneration.family_biform_self_s", "s", "lower", "self", "degeneration.family_biform",
     "degenerate_s", "degen_joins"),
    ("degeneration.join_family_s", "s", "lower", "total", "degeneration.join_family",
     "degenerate_s", "degen_joins"),
    ("degeneration.limit_direction_s", "s", "lower", "total", "degeneration.limit_direction",
     "degenerate_s", "degen_joins"),
    ("degeneration.boundary_factor_check_s", "s", "lower", "total",
     "degeneration.boundary_factor_check", "degenerate_s", "degen_joins"),
    ("degeneration.normalize_attachment_s", "s", "lower", "total",
     "degeneration.normalize_attachment", "degenerate_s", "degen_joins"),
    ("degeneration.eps_orders_computed", "count", "lower", "count", "eps_orders",
     "degenerate_s", "degen_joins"),
    ("degeneration.eps_order_use_ratio", "ratio", "higher", "ratio", "family_biforms/eps_orders",
     "degenerate_s", "degen_joins"),
    ("cli.load_curve_s", "s", "lower", "total", "cli.load_curve", "op_p50_ms, op_geomean_ref", "build_grid, degen_joins"),
    ("cli.main_self_s", "s", "lower", "self", "cli.main", "op_p50_ms, op_geomean_ref", "build_grid, degen_joins"),
)


def pass_values(spans: list, counts: dict) -> dict:
    """Totals, self times and call counts by span name, plus the counters."""
    total: dict = {}
    calls: dict = {}
    child: list = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child[parent] += dur
    self_t: dict = {}
    for (name, start, end, _, _), c in zip(spans, child):
        self_t[name] = self_t.get(name, 0.0) + (end - start - c)
    out = {}
    for metric, _, _, how, source, _, _ in LAYER_METRICS:
        if how == "total":
            out[metric] = total.get(source, 0.0)
        elif how == "self":
            out[metric] = self_t.get(source, 0.0)
        elif how == "calls":
            out[metric] = calls.get(source, 0)
        elif how == "count":
            out[metric] = counts.get(source, 0)
        else:
            num, den = source.split("/")
            out[metric] = counts.get(num, 0) / counts[den] if counts.get(den) else 0.0
    return out


def layer_metrics(tracer: Tracer) -> tuple[dict, int, bool]:
    """Per-pass layer metrics over the complete traced passes.

    Times are the median over passes; counts and ratios come from the first
    complete pass.  Also returns the number of passes used and whether the
    counts repeated exactly in every complete pass.
    """
    per_pass = [pass_values(spans, counts) for complete, spans, counts in tracer.passes if complete]
    first = per_pass[0]
    out = {}
    repeat = True
    for metric, unit, _, how, _, _, _ in LAYER_METRICS:
        if unit == "s":
            out[metric] = statistics.median(p[metric] for p in per_pass)
        else:
            out[metric] = first[metric]
            repeat = repeat and all(p[metric] == first[metric] for p in per_pass)
    return out, len(per_pass), repeat


def all_spans(tracer: Tracer) -> list:
    """Spans of every pass, as [pass, name, start, end, parent, op]."""
    return [[i + 1] + s for i, (_, spans, _) in enumerate(tracer.passes) for s in spans]
