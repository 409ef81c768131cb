"""Per-layer tracing from outside the package.

Each traced function is replaced, in every ``tsirelson`` module that holds
it, by a wrapper that counts calls and sums busy time while the tracer is
active (the worker activates it only around timed operations).  Recursive
functions are timed at their outermost call.  Span boundaries also keep a
stack of child time so that a self time can be derived; the high-frequency
boundaries (``is_member``, the weight lookups) only aggregate, so that their
cost stays one counter update and two clock reads per call.
"""

from __future__ import annotations

import importlib
import sys
import time
from fractions import Fraction

_perf = time.perf_counter


class Stat:
    __slots__ = ("calls", "busy", "self_time", "items", "depth")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.items = 0
        self.depth = 0


# stat name -> (module, attribute); every module attribute bound to the same
# function object is replaced, so callers are traced wherever they look it up
SPANS = {
    "norm.norm": ("tsirelson.norm", "norm"),
    "norm.admissible_sum": ("tsirelson.norm", "admissible_sum"),
    "norm.flat_norm_table": ("tsirelson.norm", "flat_norm_table"),
    "averages.estimate_equiv_const": ("tsirelson.averages", "estimate_equiv_const"),
    "averages.check_lr_average_bounds": ("tsirelson.averages", "check_lr_average_bounds"),
    "averages.build_averaging_tree": ("tsirelson.averages", "build_averaging_tree"),
    "averages.check_averaging_tree": ("tsirelson.averages", "check_averaging_tree"),
    "averages.audit_tav": ("tsirelson.averages", "audit_tav"),
    "averages.equal_norm_partition": ("tsirelson.averages", "equal_norm_partition"),
    "averages.interval_norm_table": ("tsirelson.averages", "interval_norm_table"),
    "families.max_weight_subset": ("tsirelson.families", "max_weight_subset"),
    "families.decompose": ("tsirelson.families", "decompose"),
    "functionals.eval_functional": ("tsirelson.functionals", "eval_functional"),
    "functionals.validate": ("tsirelson.functionals", "validate"),
    "functionals.split_xk": ("tsirelson.functionals", "split_xk"),
    "functionals.make_comparable": ("tsirelson.functionals", "make_comparable"),
    "functionals.is_comparable": ("tsirelson.functionals", "is_comparable"),
    "functionals.parse_functional": ("tsirelson.functionals", "parse_functional"),
    "audit.sch1": ("tsirelson.audit", "audit_sch1_grid"),
    "audit.inclusion": ("tsirelson.audit", "audit_family_inclusion"),
    "audit.l3": ("tsirelson.audit", "audit_l3"),
    "audit.pest": ("tsirelson.audit", "audit_pest"),
    "audit.kriv": ("tsirelson.audit", "audit_kriv"),
    "audit.domination": ("tsirelson.audit", "estimate_domination"),
}
COUNTERS = {"families.is_member": ("tsirelson.families", "is_member")}
METHOD_COUNTERS = {
    "spaces.theta": ("tsirelson.spaces", "SpaceSpec", ("theta_for_index", "theta_tail_sup")),
}


def _scale_key(engine):
    """|x| up to positive scaling, with the space: equal keys are the same
    norm problem."""
    values = engine.abs_values
    first = values[0]
    if isinstance(first, Fraction):
        ratios = tuple(v / first for v in values)
    else:
        ratios = tuple(float(f"{v / first:.12g}") for v in values)
    return (engine.space, engine.coords, ratios)


class Tracer:
    def __init__(self):
        self.active = False
        self.stats = {}
        self._stack = []  # child time accumulated by each open span
        self.fill_time = {True: 0.0, False: 0.0}  # keyed by space.exact
        self.fill_intervals = {True: 0, False: 0}
        self.fills = 0
        self._fill_keys = set()
        self.rows_checked = 0
        self.rows_failed = 0
        self._audit_depth = 0

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if name == "tsirelson" or name.startswith("tsirelson.")
        ]
        for name, (module, attr) in SPANS.items():
            orig = getattr(importlib.import_module(module), attr)
            if name.startswith("audit."):
                wrapper = self._audit_span(self._stat(name), orig)
            else:
                wrapper = self._span(self._stat(name), orig)
            self._rebind(modules, orig, wrapper)
        for name, (module, attr) in COUNTERS.items():
            orig = getattr(importlib.import_module(module), attr)
            self._rebind(modules, orig, self._counter(self._stat(name), orig))
        for name, (module, cls_name, attrs) in METHOD_COUNTERS.items():
            cls = getattr(importlib.import_module(module), cls_name)
            stat = self._stat(name)
            for attr in attrs:
                setattr(cls, attr, self._counter(stat, getattr(cls, attr)))
        families = importlib.import_module("tsirelson.families")
        orig = families.family_members
        self._rebind(modules, orig, self._generator(self._stat("families.family_members"), orig))
        engine = importlib.import_module("tsirelson.norm")._Engine
        engine.fill = self._fill(self._stat("norm.fill"), engine.fill)
        engine.witness = self._span(self._stat("norm.witness"), engine.witness)

    def _stat(self, name):
        return self.stats.setdefault(name, Stat())

    @staticmethod
    def _rebind(modules, orig, wrapper):
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _enter(self, stat):
        stat.depth = 1
        stat.calls += 1
        self._stack.append(0.0)
        return _perf()

    def _leave(self, stat, start):
        elapsed = _perf() - start
        stat.depth = 0
        stat.busy += elapsed
        stat.self_time += elapsed - self._stack.pop()
        if self._stack:
            self._stack[-1] += elapsed
        return elapsed

    def _span(self, stat, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active or stat.depth:
                return fn(*args, **kwargs)
            start = tracer._enter(stat)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._leave(stat, start)

        return wrapper

    def _audit_span(self, stat, fn):
        """A span that also counts the rows of the outermost audit report."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active or stat.depth:
                return fn(*args, **kwargs)
            start = tracer._enter(stat)
            tracer._audit_depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._audit_depth -= 1
                tracer._leave(stat, start)
            if tracer._audit_depth == 0 and hasattr(result, "checked"):
                tracer.rows_checked += result.checked
                tracer.rows_failed += result.failed
            return result

        return wrapper

    def _counter(self, stat, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stat.calls += 1
            start = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                stat.busy += _perf() - start

        return wrapper

    def _generator(self, stat, fn):
        tracer = self

        def iterate(it):
            while True:
                start = _perf()
                try:
                    item = next(it)
                except StopIteration:
                    stat.busy += _perf() - start
                    return
                stat.busy += _perf() - start
                stat.items += 1
                yield item

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stat.calls += 1
            return iterate(fn(*args, **kwargs))

        return wrapper

    def _fill(self, stat, fn):
        tracer = self

        def wrapper(engine):
            if not tracer.active:
                return fn(engine)
            exact = engine.space.exact
            tracer.fills += 1
            tracer.fill_intervals[exact] += engine.m * (engine.m + 1) // 2
            tracer._fill_keys.add(_scale_key(engine))
            start = tracer._enter(stat)
            try:
                return fn(engine)
            finally:
                tracer.fill_time[exact] += tracer._leave(stat, start)

        return wrapper

    # -- results -----------------------------------------------------------

    def metrics(self, ops: int) -> dict:
        """Per-layer values for the metrics of ``metrics.PER_LAYER`` that the
        tracer itself measures."""
        s = self.stats
        out = {
            "norm.norm.self_s": s["norm.norm"].self_time,
            "norm.fill.calls": s["norm.fill"].calls,
            "norm.fill.exact_s": self.fill_time[True],
            "norm.fill.float_s": self.fill_time[False],
            "norm.witness.busy_s": s["norm.witness"].busy,
            "norm.intervals": sum(self.fill_intervals.values()),
            "norm.distinct_input_ratio": (
                len(self._fill_keys) / self.fills if self.fills else 1.0
            ),
            "averages.fills_per_op": self.fills / ops if ops else 0.0,
            "families.family_members.sets": s["families.family_members"].items,
            "families.family_members.busy_s": s["families.family_members"].busy,
            "audit.rows_checked": self.rows_checked,
            "audit.rows_failed": self.rows_failed,
        }
        for exact, label in ((True, "exact"), (False, "float")):
            busy = self.fill_time[exact]
            out[f"norm.intervals_per_s.{label}"] = (
                self.fill_intervals[exact] / busy if busy else 0.0
            )
        for name in SPANS:
            out[f"{name}.busy_s"] = s[name].busy
            out[f"{name}.calls"] = s[name].calls
        for name in list(COUNTERS) + list(METHOD_COUNTERS):
            out[f"{name}.busy_s"] = s[name].busy
            out[f"{name}.calls"] = s[name].calls
        return out
