"""Span tracing for the traced benchmark run.

`install` rebinds the public library functions named in TARGETS, in every
`disperse_lab` module that holds them, to wrappers that record one span per
call: name, start, end, parent span and the op the call serves.  Integrand
sizes are counted by wrapping the integrand a quadrature routine receives,
so `points` counts evaluation points, which do not depend on the hardware.
Nothing is rebound in the untraced run, and `uninstall` puts every original
back.  A target that a later refactor removes is reported as absent.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

TARGETS = {
    "special": ("bessel_j", "bessel_j_c", "splitting_A", "splitting_B_series",
                "splitting_B_series_conj"),
    "quadrature": ("osc_integral", "rotated_tail", "composite_gl"),
    "propagator": ("evolve_radial",),
    "norms": ("norm_X", "norm_Ym"),
    "blowup": ("chirp_solution", "annulus_lq", "limit_profile", "rescaled_modulus"),
    "appendix": ("singular_psi",),
}
# the integrand is the first argument of these; its evaluations are counted
INTEGRAND_ARG = {"quadrature.osc_integral", "quadrature.rotated_tail",
                 "quadrature.composite_gl"}
PROFILE_FIELDS = (("envelope", "envelope"), ("deriv", "deriv_fn"), ("tail_fn", "tail_fn"))
LARGE_T = 100.0


def _span_metrics(name):
    return [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]


def layer_metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for mod, names in TARGETS.items():
        for fn in names:
            full = f"{mod}.{fn}"
            if full == "propagator.evolve_radial":
                for regime in ("compact", "tail", "large_t"):
                    specs += _span_metrics(f"{full}.{regime}")
                continue
            specs += _span_metrics(full)
            if mod in ("special", "quadrature"):
                specs.append((f"{full}.points", "count", "lower"))
    specs += [("quadrature.osc_integral.useful_ratio", "ratio", "higher"),
              ("quadrature.osc_integral.unconverged", "count", "lower")]
    specs += [(f"profiles.{label}.points", "count", "lower") for label, _ in PROFILE_FIELDS]
    specs.append(("trace.overhead_s", "s", "lower"))
    return specs


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    points: int = 0
    final_points: int = 0        # osc_integral: size of the rule it returned
    unconverged: bool = False


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.op: Optional[int] = None
        self.profile_points: Dict[str, int] = {label: 0 for label, _ in PROFILE_FIELDS}
        self._profile_depth = 0
        self._patches = []
        self.absent: List[str] = []

    # -- spans ---------------------------------------------------------------
    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self.stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span.end = time.perf_counter()
        self.stack.pop()

    def run_op(self, index, call):
        """Run one op under a root span; its spans carry the op's index."""
        self.op = index
        span = self._open("op")
        try:
            return call()
        finally:
            self._close(span)
            self.op = None

    def _wrap(self, full, fn):
        sig = inspect.signature(fn)
        counted = full in INTEGRAND_ARG
        regime_split = full == "propagator.evolve_radial"
        is_special = full.startswith("special.")

        def wrapper(*args, **kwargs):
            name = full
            sizes = []
            if regime_split:
                bound = sig.bind(*args, **kwargs)
                prof, pt = bound.arguments["profile"], bound.arguments["pt"]
                name += (".compact" if prof.support is not None
                         else ".large_t" if pt.t >= LARGE_T else ".tail")
            if counted:
                f = args[0]

                def integrand(x, *a, **k):
                    sizes.append(int(np.size(x)))
                    return f(x, *a, **k)
                args = (integrand,) + args[1:]
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counted:
                span.points = sum(sizes)
            elif is_special:
                span.points = int(np.size(sig.bind(*args, **kwargs).arguments["z"]))
            if full == "quadrature.osc_integral":
                span.final_points = sizes[-1] if sizes else 0
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                value, err = out
                span.unconverged = bool(err > bound.arguments["tol"] * max(1.0, abs(value)))
            return out
        return wrapper

    # -- install / uninstall -------------------------------------------------
    def install(self, lib, profiles=()):
        modules = [m for k, m in list(sys.modules.items())
                   if k == "disperse_lab" or k.startswith("disperse_lab.")]
        for modname, names in TARGETS.items():
            mod = getattr(lib, modname)
            for fn_name in names:
                orig = getattr(mod, fn_name, None)
                if not callable(orig):
                    self.absent.append(f"{modname}.{fn_name}")
                    continue
                wrapper = self._wrap(f"{modname}.{fn_name}", orig)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._patches.append((m, attr, orig))
                            setattr(m, attr, wrapper)
        for prof in profiles:
            for label, attr in PROFILE_FIELDS:
                fn = getattr(prof, attr, None)
                if fn is not None:
                    self._patches.append((prof, attr, fn))
                    setattr(prof, attr, self._count_profile(label, fn))

    def _count_profile(self, label, fn):
        # herglotz mirrors call their base profile; count the outer call only
        def counted(*args):
            if self._profile_depth == 0:
                self.profile_points[label] += int(np.size(args[-1]))
            self._profile_depth += 1
            try:
                return fn(*args)
            finally:
                self._profile_depth -= 1
        return counted

    def uninstall(self):
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches.clear()

    # -- results -------------------------------------------------------------
    def metrics(self, overhead_s: float) -> Dict[str, float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        values = {name: 0 for name, _, _ in layer_metric_specs()}
        values["trace.overhead_s"] = overhead_s
        all_points = final_points = 0
        for s, c in zip(self.spans, child):
            if s.name == "op":
                continue
            values[f"{s.name}.calls"] += 1
            values[f"{s.name}.self_s"] += (s.end - s.start) - c
            if f"{s.name}.points" in values:
                values[f"{s.name}.points"] += s.points
            if s.name == "quadrature.osc_integral":
                all_points += s.points
                final_points += s.final_points
                values["quadrature.osc_integral.unconverged"] += s.unconverged
        values["quadrature.osc_integral.useful_ratio"] = (
            final_points / all_points if all_points else 0.0)
        for label, pts in self.profile_points.items():
            values[f"profiles.{label}.points"] = pts
        return values

    def inclusive_ms(self, group_of) -> Dict[str, list]:
        """{"name[group]": [calls, mean inclusive ms]}, grouping spans by
        group_of(op index): how long a call takes with its children."""
        acc: Dict[str, list] = {}
        for s in self.spans:
            if s.name != "op":
                entry = acc.setdefault(f"{s.name}[{group_of(s.op)}]", [0, 0.0])
                entry[0] += 1
                entry[1] += (s.end - s.start) * 1e3
        return {k: [c, t / c] for k, (c, t) in sorted(acc.items())}

    def counts(self) -> Dict[str, int]:
        """The hardware-independent part of `metrics`."""
        m = self.metrics(0.0)
        return {k: v for k, v in m.items()
                if k.endswith((".calls", ".points", ".unconverged"))}

    def write(self, path):
        rows = [[s.name, s.start, s.end, s.parent, s.op, s.points] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "points"],
                       "spans": rows}, fh)
