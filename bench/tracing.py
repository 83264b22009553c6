"""Per-layer tracing, installed from outside the library.

The tracer replaces the public functions each layer exposes, at the names
the engine calls them by, with wrappers that record spans (name, start,
end, parent) and counts; class constructors and methods are wrapped on the
class.  Nothing inside orthogeo changes.  Spans stay in memory until the
run writes them out.  A layer's self time is its span time minus the time
covered by its child spans.
"""

from __future__ import annotations

import functools
from time import perf_counter

# (span name, [(module, attribute), ...]): functions wrapped in every module
# namespace that calls them
FUNCTIONS = [
    ("poset.stable_ideals", [("poset", "stable_ideals")]),
    ("poset.classify", [("engine", "classify")]),
    ("poset.metric_interval", [("engine", "metric_interval")]),
    ("flow.solve_msip", [("engine", "solve_msip")]),
    ("flow.max_flow", [("flow", "max_flow")]),
    ("arch.xi", [("engine", "xi")]),
    ("arch.extreme_arch", [("engine", "extreme_arch")]),
    ("arch.v_sq", [("engine", "v_sq")]),
    ("frames.build_frame", [("engine", "build_frame")]),
    ("points.check_point", [("engine", "check_point"), ("points", "check_point"), ("frames", "check_point")]),
    ("points.check_b_point", [("engine", "check_b_point"), ("points", "check_b_point")]),
    ("points.level_decomposition", [("points", "level_decomposition"), ("frames", "level_decomposition")]),
]

# (span name, module, class, method)
METHODS = [
    ("poset.Pip", "poset", "Pip", "__init__"),
    ("poset.GradedPoset", "poset", "GradedPoset", "__init__"),
    ("frames.Frame", "frames", "Frame", "__init__"),
    ("points.validate", "points", "PolyPath", "validate"),
    ("points.validate", "points", "BPolyPath", "validate"),
    ("radicals.sign", "radicals", "SqrtSum", "sign"),
]

# (count name, [(module, attribute), ...]): calls counted without a span,
# for helpers too small and frequent to time one by one
COUNTED = [
    ("points.sq_simplex_distance_calls", [("engine", "sq_simplex_distance"), ("arch", "sq_simplex_distance")]),
    ("radicals.frac_sqrt_calls", [("engine", "frac_sqrt")]),
]

# counts taken from a call: span name -> (count name, function of the
# arguments and the result)
RESULT_COUNTS = {
    "poset.metric_interval": ("poset.interval_elements", lambda args, r: len(r.elements)),
    "arch.extreme_arch": ("arch.steps", lambda args, r: r.steps),
    "frames.Frame": ("frames.vertices", lambda args, r: len(args[0].vertices)),
}

QUERY_ROOTS = ("engine.geodesic", "engine.geodesic_median")


class Tracer:
    def __init__(self, og):
        self.og = og
        self.spans = []  # [name, start, end, parent index]
        self.counts = {}
        self._stack = []
        self._saved = []

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def span(self, name, fn, *args, **kwargs):
        """Run fn inside a span; usable for the benchmark's own calls."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append(idx)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx][1] = start
            self.spans[idx][2] = end
        return result

    def _spanned(self, name, fn):
        counted = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if counted:
                self.count(counted[0], counted[1](args, result))
            return result

        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        og = self.og
        for name, sites in FUNCTIONS:
            for mod, attr in sites:
                self._replace(getattr(og, mod), attr, self._spanned(name, getattr(getattr(og, mod), attr)))
        for name, sites in COUNTED:
            for mod, attr in sites:
                self._replace(getattr(og, mod), attr, self._counted(name, getattr(getattr(og, mod), attr)))
        for name, mod, cls_name, meth in METHODS:
            cls = getattr(getattr(og, mod), cls_name)
            self._replace(cls, meth, self._spanned(name, cls.__dict__[meth]))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    # -- derived figures ----------------------------------------------------

    def self_times(self):
        """Self time of every span: its duration minus its children's."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def layer_metrics(self):
        """Total and self milliseconds per span name, plus call counts."""
        total, own, calls = {}, {}, {}
        for s, self_t in zip(self.spans, self.self_times()):
            name = s[0]
            total[name] = total.get(name, 0.0) + (s[2] - s[1]) * 1e3
            own[name] = own.get(name, 0.0) + self_t * 1e3
            calls[name] = calls.get(name, 0) + 1
        return total, own, calls

    def dump(self):
        """Spans as [name, start ms, end ms, parent] relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            [name, round((a - t0) * 1e3, 4), round((b - t0) * 1e3, 4), parent]
            for name, a, b, parent in self.spans
        ]
