"""Span tracing around susyrad's public entry points, from outside the package.

``Tracer.install()`` replaces each traced function or method at every place
it is bound (module attributes, re-exports in the package namespace, methods
on classes, the list of verify checks) with a wrapper that records a span:
name, start and end in ``perf_counter_ns``, the enclosing span, the operation
id and, where the call evaluates a grid, its point count.  ``restore()`` puts
every original back.  Spans stay in memory until ``write()``; self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import math
import sys
import warnings
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

STATE_CLASSES = (("coulomb", "CoulombState"), ("oscillator", "OscillatorState"),
                 ("qdt", "DefectState"), ("qdt", "AnharmonicState"))
CONSTRUCTED = STATE_CLASSES + (("qdt", "DefectModel"), ("qdt", "AnharmonicModel"),
                               ("_laguerre_forms", "ExponentialLaguerreForm"),
                               ("_laguerre_forms", "GaussianLaguerreForm"))
EVAL_METHODS = ("value", "__call__", "derivative", "second_derivative", "third_derivative")
BUILDERS = ("spectrum_record", "wavefunction_record", "susy_pair_record", "map_record",
            "trap_frequencies_record", "trap_operating_point_record", "trap_levels_record")
CHECKS = ("hydrogen_spectrum", "radial_residuals", "orthonormality", "susy_structure", "exact_maps",
          "odd_dimension_map", "reduction_limits", "penning_trap", "laguerre_oracle")


def _size(value):
    return int(np.size(value))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name, self.parent, self.op = array("q"), array("q"), array("q")
        self.start, self.end, self.points = array("q"), array("q"), array("q")
        self.stack = [-1]
        self.op_id = -1
        self.counters: Counter = Counter()
        self._patches: list = []
        self._wrapped: dict = {}

    # --- recording ------------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, span, points_arg=None, after=None):
        """fn wrapped in a span; after(result, args) runs once the span has closed."""
        nid = self._id(span)
        tr = self

        def traced(*args, **kwargs):
            idx = len(tr.start)
            tr.name.append(nid)
            tr.parent.append(tr.stack[-1])
            tr.op.append(tr.op_id)
            tr.points.append(_size(args[points_arg]) if points_arg is not None else 0)
            tr.end.append(0)
            tr.stack.append(idx)
            tr.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end[idx] = perf_counter_ns()
                tr.stack.pop()
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    # --- installing -----------------------------------------------------------

    def _patch_function(self, module, attr, span, points_arg=None, after=None, wrapper=None):
        original = getattr(module, attr)
        traced = wrapper or self.wrap(original, span, points_arg, after)
        self._wrapped[original] = traced
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "susyrad" or mod_name.startswith("susyrad.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, traced)

    def _patch_method(self, cls, attr, span, points_arg=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, span, points_arg))

    def _quadrature(self, original):
        tr = self

        def integrate_half_line(fn, quad=None):
            def counted(t):
                tr.counters["quadrature.integrand_points"] += _size(t)
                return fn(t)

            try:
                result = original(counted, quad)
            except Exception:
                tr.counters["quadrature.unconverged"] += 1
                raise
            if not result.converged:
                tr.counters["quadrature.unconverged"] += 1
            return result

        return self.wrap(integrate_half_line, "specfun.quadrature")

    def install(self):
        from susyrad import config, coulomb, maps, output, reports, specfun, susy, verify

        mods = {name: sys.modules[f"susyrad.{name}"] for name in ("coulomb", "oscillator", "qdt", "_laguerre_forms")}
        self._patch_function(specfun, "eval_sonine_laguerre", "specfun.recurrence", points_arg=1)
        self._patch_function(specfun, "eval_sonine_laguerre_derivative", "specfun.recurrence", points_arg=1)
        self._patch_function(specfun, "integrate_half_line", "specfun.quadrature",
                             wrapper=self._quadrature(specfun.integrate_half_line))
        self._patch_function(specfun, "inner_product", "specfun.inner_product")
        for mod, cls in CONSTRUCTED:
            self._patch_method(getattr(mods[mod], cls), "__init__", "states.construct")
        for mod, cls in STATE_CLASSES:
            for method in EVAL_METHODS:
                self._patch_method(getattr(mods[mod], cls), method, "states.eval", points_arg=1)
        self._patch_function(coulomb, "eval_hydrogen_R", "states.eval", points_arg=2)
        self._patch_function(susy, "apply_operator", "susy.apply_operator")
        self._patch_function(susy, "apply_supercharge", "susy.apply_supercharge")

        def solved(result, args):
            self.counters["maps.admissible"] += isinstance(result, maps.MapSpec)

        def verified(result, args):
            self.counters["maps.excluded_points"] += result.excluded_count

        def rendered(result, args):
            self.counters["output.bytes"] += len(result.encode("utf-8"))

        self._patch_function(maps, "solve_map_parameters", "maps.solve", after=solved)
        self._patch_function(maps, "verify_map_identity", "maps.verify_identity", after=verified)
        for builder in BUILDERS:
            self._patch_function(reports, builder, f"reports.{builder}")
        original_render = output.OutputRecord.__dict__["render"]
        self._patches.append((output.OutputRecord, "render", original_render))
        output.OutputRecord.render = self.wrap(original_render, "output.render", after=rendered)
        self._patch_function(config, "parse_config", "config.parse")
        for check in CHECKS:
            self._patch_function(verify, f"check_{check}", f"verify.{check}")
        self._patches.append((verify, "_CHECKS", verify._CHECKS))
        verify._CHECKS = [self._wrapped.get(fn, fn) for fn in verify._CHECKS]

    def restore(self):
        for obj, name, original in reversed(self._patches):
            setattr(obj, name, original)
        self._patches.clear()

    def count_warning(self, category):
        """Count a RuntimeWarning against states.eval when an eval span is open."""
        if issubclass(category, RuntimeWarning):
            eval_id = self._ids.get("states.eval")
            if any(self.name[idx] == eval_id for idx in self.stack[1:]):
                self.counters["states.eval.runtime_warnings"] += 1

    # --- results --------------------------------------------------------------

    def columns(self):
        n = len(self.start)
        cols = {key: np.frombuffer(getattr(self, key), dtype=np.int64)[:n].copy()
                for key in ("name", "parent", "op", "start", "end", "points")}
        dur = cols["end"] - cols["start"]
        has_parent = cols["parent"] >= 0
        covered = np.bincount(cols["parent"][has_parent], weights=dur[has_parent], minlength=n)
        cols["self"] = dur - covered.astype(np.int64)
        return cols

    def aggregate(self):
        """Summable per-span totals plus counters, as plain JSON-ready dicts."""
        cols = self.columns()
        names, dur = cols["name"], cols["end"] - cols["start"]
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        selft = np.bincount(names, weights=cols["self"], minlength=k)
        points = np.bincount(names, weights=cols["points"], minlength=k)
        spans = {name: {"calls": int(calls[i]), "total_ns": float(total[i]), "self_ns": float(selft[i]),
                        "points": float(points[i])} for i, name in enumerate(self.names)}
        counters = dict(self.counters)
        eval_id, rec_id = self._ids.get("states.eval"), self._ids.get("specfun.recurrence")
        if eval_id is not None and rec_id is not None and len(names):
            # a recurrence counts towards an eval call when any ancestor is one
            parent = cols["parent"]
            under = np.zeros(len(names), dtype=bool)
            has_parent = parent >= 0
            while True:
                src = np.where(has_parent, parent, 0)
                nxt = has_parent & ((names[src] == eval_id) | under[src])
                if np.array_equal(nxt, under):
                    break
                under = nxt
            counters["recurrences_under_eval"] = int(np.sum(under & (names == rec_id)))
        return {"spans": spans, "counters": counters}

    def write(self, path):
        cols = self.columns()
        np.savez_compressed(path, names=np.array(self.names), **cols)


def merge(aggregates):
    """Sum aggregate() dicts from several traced processes."""
    spans, counters = {}, Counter()
    for agg in aggregates:
        for name, s in agg["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "total_ns": 0.0, "self_ns": 0.0, "points": 0.0})
            for key in acc:
                acc[key] += s[key]
        counters.update(agg["counters"])
    return {"spans": spans, "counters": dict(counters)}


# Per-layer metric names with their units, in the order they are printed.
# Counts and times are per operation of the traced phase.
PER_LAYER = [
    ("import.total_ms", "ms"), ("import.numpy_ms", "ms"), ("import.scipy_ms", "ms"),
    ("import.click_ms", "ms"), ("import.susyrad_self_ms", "ms"),
    ("cli.main_ms", "ms"), ("cli.interpreter_ms", "ms"),
    ("specfun.recurrence.calls", "count/op"), ("specfun.recurrence.points", "count/op"),
    ("specfun.recurrence.self_ms", "ms/op"), ("specfun.recurrence.ns_per_point", "ns"),
    ("specfun.quadrature.calls", "count/op"), ("specfun.quadrature.integrand_points", "count/op"),
    ("specfun.quadrature.self_ms", "ms/op"), ("specfun.quadrature.unconverged", "count/op"),
    ("specfun.inner_product.calls", "count/op"), ("specfun.inner_product.ms", "ms/op"),
    ("states.construct.calls", "count/op"), ("states.construct.ms", "ms/op"),
    ("states.eval.calls", "count/op"), ("states.eval.points", "count/op"),
    ("states.eval.self_ms", "ms/op"), ("states.eval.ns_per_point", "ns"),
    ("states.eval.runtime_warnings", "count/op"), ("states.eval.recurrences_per_call", "ratio"),
    ("susy.apply_operator.calls", "count/op"), ("susy.apply_operator.self_ms", "ms/op"),
    ("susy.apply_supercharge.calls", "count/op"), ("susy.apply_supercharge.self_ms", "ms/op"),
    ("maps.solve.calls", "count/op"), ("maps.solve.admissible_ratio", "ratio"),
    ("maps.verify_identity.calls", "count/op"), ("maps.verify_identity.self_ms", "ms/op"),
    ("maps.excluded_points", "count/op"),
    ("reports.build.calls", "count/op"), ("reports.build.self_ms", "ms/op"),
    *[(f"reports.{b}.{m}", u) for b in BUILDERS for m, u in (("calls", "count/op"), ("self_ms", "ms/op"))],
    ("output.render.calls", "count/op"), ("output.render.self_ms", "ms/op"), ("output.render.bytes", "bytes/op"),
    ("config.parse.calls", "count/op"), ("config.parse.ms", "ms/op"),
    *[(f"verify.{c}.ms", "ms/op") for c in CHECKS],
    ("trace.overhead_ratio", "ratio"),
]


def layer_metrics(agg, ops, extra):
    """Per-layer metric values from merged aggregates over `ops` operations.

    `extra` supplies the import.*, cli.* and trace.* values measured outside
    the spans; a metric whose layer was not reached reads 0.
    """
    spans, counters = agg["spans"], agg["counters"]
    zero = {"calls": 0, "total_ns": 0.0, "self_ns": 0.0, "points": 0.0}

    def span(name):
        return spans.get(name, zero)

    def per_op(value):
        return value / ops if ops else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    values = dict(extra)
    for layer, name in (("specfun.recurrence", "specfun.recurrence"), ("states.eval", "states.eval")):
        s = span(name)
        values[f"{layer}.calls"] = per_op(s["calls"])
        values[f"{layer}.points"] = per_op(s["points"])
        values[f"{layer}.self_ms"] = per_op(s["self_ns"] / 1e6)
        values[f"{layer}.ns_per_point"] = ratio(s["self_ns"], s["points"])
    q = span("specfun.quadrature")
    values["specfun.quadrature.calls"] = per_op(q["calls"])
    values["specfun.quadrature.integrand_points"] = per_op(counters.get("quadrature.integrand_points", 0))
    values["specfun.quadrature.self_ms"] = per_op(q["self_ns"] / 1e6)
    values["specfun.quadrature.unconverged"] = per_op(counters.get("quadrature.unconverged", 0))
    for name in ("specfun.inner_product", "states.construct", "config.parse"):
        values[f"{name}.calls"] = per_op(span(name)["calls"])
        values[f"{name}.ms"] = per_op(span(name)["total_ns"] / 1e6)
    values["states.eval.runtime_warnings"] = per_op(counters.get("states.eval.runtime_warnings", 0))
    values["states.eval.recurrences_per_call"] = ratio(counters.get("recurrences_under_eval", 0), span("states.eval")["calls"])
    for name in ("susy.apply_operator", "susy.apply_supercharge", "maps.verify_identity", "output.render"):
        values[f"{name}.calls"] = per_op(span(name)["calls"])
        values[f"{name}.self_ms"] = per_op(span(name)["self_ns"] / 1e6)
    values["maps.solve.calls"] = per_op(span("maps.solve")["calls"])
    values["maps.solve.admissible_ratio"] = ratio(counters.get("maps.admissible", 0), span("maps.solve")["calls"])
    values["maps.excluded_points"] = per_op(counters.get("maps.excluded_points", 0))
    values["output.render.bytes"] = per_op(counters.get("output.bytes", 0))
    build_calls = build_self = 0.0
    for b in BUILDERS:
        s = span(f"reports.{b}")
        values[f"reports.{b}.calls"] = per_op(s["calls"])
        values[f"reports.{b}.self_ms"] = per_op(s["self_ns"] / 1e6)
        build_calls += s["calls"]
        build_self += s["self_ns"]
    values["reports.build.calls"] = per_op(build_calls)
    values["reports.build.self_ms"] = per_op(build_self / 1e6)
    for c in CHECKS:
        values[f"verify.{c}.ms"] = per_op(span(f"verify.{c}")["total_ns"] / 1e6)
    out = {}
    for name, unit in PER_LAYER:
        value = float(values.get(name, 0.0))
        out[name] = {"value": value if math.isfinite(value) else 0.0, "unit": unit}
    return out


def install_warning_counter(tracer_ref):
    """Send warnings to a counter instead of stderr; tracer_ref() gives the live tracer or None."""
    warnings.simplefilter("always", RuntimeWarning)

    def showwarning(message, category, filename, lineno, file=None, line=None):
        tracer = tracer_ref()
        if tracer is not None:
            tracer.count_warning(category)

    warnings.showwarning = showwarning
