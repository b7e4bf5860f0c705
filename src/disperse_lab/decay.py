"""Decay-rate verification for the radial free-Schroedinger flow.

Fits log-log envelope exponents of |psi| along time and space grids,
checks the weighted-norm bounds on superpositions of carrier frequencies,
and verifies integral domination for the decomposed integrand pieces.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import norms
from .norms import DivergentNormError
from .profiles import RadialProfile
from .propagator import EvalPoint, evolve_rows, g_abs_integrals
from .quadrature import linear_fit


# ---------------------------------------------------------------------------
# envelope fits
# ---------------------------------------------------------------------------

@dataclass
class DecayFit:
    axis: str                  # "time" | "space"
    grid: np.ndarray           # strictly increasing, >= 8 pts, >= 3 decades
    fitted_exponent: float
    half_width: float          # 95% band from the regression slope
    max_residual: float        # max |log10 residual| on pooled points

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        if g.size < 8 or np.any(np.diff(g) <= 0):
            raise ValueError("grid must be strictly increasing with >= 8 points")
        if g[-1] / g[0] < 1e3 * (1.0 - 1e-12):
            raise ValueError("grid must span at least 3 decades")


def _envelope_fit(axis: str, grid, vals) -> DecayFit:
    """Exponent of the upper envelope of vals vs grid.

    |psi| oscillates; the bound controls the envelope, so each dyadic block
    of the grid is max-pooled (keeping the abscissa that achieved the max)
    before the log-log regression.
    """
    g = np.asarray(grid, dtype=float)
    v = np.asarray(vals, dtype=float)
    octave = np.floor(np.log2(g / g[0]) * (1.0 - 1e-12)).astype(int)
    xs, ys = [], []
    for o in np.unique(octave):
        blk = octave == o
        i = np.argmax(v[blk])
        xs.append(g[blk][i])
        ys.append(v[blk][i])
    xs, ys = np.array(xs), np.array(ys)
    keep = ys > 0
    xs, ys = xs[keep], ys[keep]
    slope, intercept, stderr = linear_fit(np.log10(xs), np.log10(ys))
    resid = np.log10(ys) - (intercept + slope * np.log10(xs))
    return DecayFit(axis=axis, grid=g, fitted_exponent=float(slope),
                    half_width=float(1.96 * stderr),
                    max_residual=float(np.max(np.abs(resid))))


def _components(datum) -> List[Tuple[complex, RadialProfile]]:
    """Normalize a RadialProfile or DiscreteMeasure to weighted components."""
    if isinstance(datum, RadialProfile):
        return [(1.0 + 0.0j, datum)]
    return list(datum.components)


def _amp(datum, n: int, x_abs, t) -> np.ndarray:
    """|psi| of the datum at the points (x_abs, t), which broadcast against
    each other: one evolve_rows call per component."""
    return np.abs(sum(w * evolve_rows(p, n, x_abs, t)[0] for w, p in _components(datum)))


def time_decay_fit(profile, n: int, m: int, x_abs: float = 1.0,
                   t_grid: Optional[Sequence[float]] = None) -> DecayFit:
    """Envelope exponent of sup_x-probes |psi(x, t)| vs t.

    `profile` may be a RadialProfile or a DiscreteMeasure superposition.
    Requires finite Y_m norms; the fitted exponent should satisfy
    fitted_exponent <= (m - n)/2 + 0.1.  The grid is gated to the
    large-time regime t >= 10 * x_abs * R_support.
    """
    for _, p in _components(profile):
        ym = norms.norm_Ym(p, n, m)
        if not math.isfinite(ym):
            raise DivergentNormError(
                f"Y_{m} norm of {p.label} certified divergent in dimension "
                f"{n}; run norms.membership_scan to locate the finite range")
    gate = 10.0 * x_abs * max(p.support if p.support is not None else max(p.tail_start, 1.0)
                              for _, p in _components(profile))
    if t_grid is None:
        t_lo = max(gate, 0.5)
        t_grid = np.geomspace(t_lo, 1e3 * t_lo, 16)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid[0] < gate * (1.0 - 1e-9):
        raise ValueError(
            f"time grid must start in the large-time regime t >= {gate:g}")
    vals = _amp(profile, n, np.array([x_abs, 2.0 * x_abs]), t_grid[:, None]).max(axis=1)
    return _envelope_fit("time", t_grid, vals)


def space_decay_fit(profile, n: int,
                    t_probes: Optional[Sequence[float]] = None,
                    x_grid: Optional[Sequence[float]] = None) -> DecayFit:
    """Envelope exponent of sup_t-probes |psi(x, t)| vs |x|.

    Requires finite X norms; the fitted exponent should satisfy
    fitted_exponent <= (1 - n)/2 + 0.1.  By default the t probes ride along
    with x (t in {x/2, 2x, 8x}) so the probed amplitudes stay well above the
    quadrature noise floor across the whole grid.
    """
    for _, p in _components(profile):
        x1, x2 = norms.norm_X(p, n)
        if not (math.isfinite(x1) and math.isfinite(x2)):
            raise DivergentNormError(
                f"X norm of {p.label} certified divergent in dimension {n}; "
                "run norms.membership_scan to locate the finite range")
    if x_grid is None:
        # dense enough that each octave's max-pool catches an oscillation peak
        x_grid = np.geomspace(0.5, 500.0, 40)
    x_grid = np.asarray(x_grid, dtype=float)
    ts = (np.asarray(t_probes, dtype=float) if t_probes is not None
          else x_grid[:, None] * np.array([0.5, 2.0, 8.0]))
    vals = _amp(profile, n, x_grid[:, None], ts).max(axis=1)
    return _envelope_fit("space", x_grid, vals)


# ---------------------------------------------------------------------------
# superpositions of carrier frequencies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite superposition  phi(x) = sum_j w_j phi_{omega_j}(|x|) e^{i omega_j |x|}."""
    components: Tuple[Tuple[complex, RadialProfile], ...]

    def __init__(self, components):
        object.__setattr__(self, "components", tuple(
            (complex(w), p) for w, p in components))
        if not self.components:
            raise ValueError("measure needs at least one component")


@dataclass
class SuperpositionReport:
    n: int
    m: int
    norm_sum_space: float      # sum |w_j| (||.||_X + ||.||_{Y_n})
    norm_sum_time: float       # sum |w_j| (||.||_{Y_{n-m}} + ||.||_{Y_n})
    c_space: float             # |psi| <= c_space (1+|x|)^{(1-n)/2} norm_sum_space
    c_time: float              # |psi| <= c_time (1+t)^{-m/2} norm_sum_time
    linearity_err: float
    samples: list = field(default_factory=list)   # (x, t, |psi|)


def superposition_bound(measure: DiscreteMeasure, n: int,
                        pts: Optional[Sequence[Tuple[float, float]]] = None,
                        m: int = 0) -> SuperpositionReport:
    """Domination constants for the two superposition bounds.

    The solution of the superposed datum is the weighted sum of component
    solutions; the report records the smallest constants C with

        |psi(x,t)| <= C (1+|x|)^{(1-n)/2} sum |w_j| (||phi_j||_X + ||phi_j||_{Y_n})
        |psi(x,t)| <= C (1+t)^{-m/2}     sum |w_j| (||phi_j||_{Y_{n-m}} + ||phi_j||_{Y_n})

    over the probe set.
    """
    if not (0 <= m <= n):
        raise ValueError(f"need 0 <= m <= n, got {m}")
    if pts is None:
        pts = [(x, t) for x in (0.5, 2.0, 8.0, 32.0) for t in (0.5, 4.0, 32.0)]
    s_space = s_time = 0.0
    for w, p in measure.components:
        xn = sum(norms.norm_X(p, n))
        yn = norms.norm_Ym(p, n, n)
        ynm = norms.norm_Ym(p, n, n - m)
        if not all(map(math.isfinite, (xn, yn, ynm))):
            raise DivergentNormError(
                f"component {p.label} has a divergent norm in dimension {n}")
        s_space += abs(w) * (xn + yn)
        s_time += abs(w) * (ynm + yn)

    x, t = np.array(pts, dtype=float).reshape(-1, 2).T
    a = _amp(measure, n, x, t)
    # regression guard: scaling a component weight scales its contribution
    w0, p0 = measure.components[0]
    direct = evolve_rows(p0.scale(w0), n, x, t)[0]
    expected = w0 * evolve_rows(p0, n, x, t)[0]
    lin_err = np.abs(direct - expected) / np.maximum(np.abs(expected), 1e-300)
    return SuperpositionReport(
        n=n, m=m, norm_sum_space=s_space, norm_sum_time=s_time,
        c_space=float(np.max(a / ((1.0 + x) ** ((1 - n) / 2.0) * s_space), initial=0.0)),
        c_time=float(np.max(a / ((1.0 + t) ** (-m / 2.0) * s_time), initial=0.0)),
        linearity_err=float(np.max(lin_err, initial=0.0)),
        samples=list(zip(x.tolist(), t.tolist(), a.tolist())))


def theorem_constants(profile: RadialProfile, n: int, m: int,
                      pts: Optional[Sequence[Tuple[float, float]]] = None
                      ) -> Tuple[float, float]:
    """Smallest (c_time, c_space) over the probe set with

        |psi(x,t)| <= c_time  (sqrt t)^{m-n} ||phi||_{Y_m}
        |psi(x,t)| <= c_space |x|^{(1-n)/2}  ||phi||_X

    Both constants are carrier-frequency independent up to sampling noise.
    """
    ym = norms.norm_Ym(profile, n, m)
    xn = sum(norms.norm_X(profile, n))
    if not (math.isfinite(ym) and math.isfinite(xn)):
        raise DivergentNormError(
            f"{profile.label}: both Y_{m} and X must be finite in dimension {n}")
    if pts is None:
        # both bounds take suprema; a carrier of frequency omega transports
        # the bulk to |x| ~ 2 omega t, so probe the moving front as well
        pts = []
        vel = 2.0 * abs(profile.omega)
        for t in (0.5, 4.0, 32.0):
            xs = {0.5, 2.0, 8.0}
            if vel > 0:
                xs |= {0.8 * vel * t, vel * t, 1.2 * vel * t}
            pts.extend((x, t) for x in xs)
    x, t = np.array(pts, dtype=float).reshape(-1, 2).T
    a = _amp(profile, n, x, t)
    return (float(np.max(a / (np.sqrt(t) ** (m - n) * ym), initial=0.0)),
            float(np.max(a / (x ** ((1 - n) / 2.0) * xn), initial=0.0)))


# ---------------------------------------------------------------------------
# integrand-piece domination
# ---------------------------------------------------------------------------

@dataclass
class GjReport:
    n: int
    m: int
    rows: list                 # (pt, j, lhs, rhs, ratio)
    max_ratio: float


def gj_integral_check(profile: RadialProfile, n: int, m: int,
                      pts: Sequence[EvalPoint]) -> GjReport:
    """Checks  int |g_j^{(m)}(rho)| drho  against the closed-form majorants

      j=1, m<n :  |x|^{(n-2)/2} (sqrt t)^{m-n+2} sum_{k<=m} int |phi^{(k)}| r^{n-m+k-1},
                  integrated over r <= 2t/|x| (the compact piece vanishes beyond);
      j=1, m=n :  |x|^{(n-2)/2} t sum_{1<=k<=n} int |phi^{(k)}| r^{k-1}
                  + |x|^{(n+2)/2} t^{-1} int |phi| r,  same restriction;
      j=2,3    :  |x|^{-1/2} (sqrt t)^{1+m} sum_{k<=m} int |phi^{(k)}| r^{(n-1)/2-m+k},
                  integrated over r >= t/|x|.

    The left sides are propagator.g_abs_integrals; per point, both right
    sides are one norms.certified_integrals call on one derivative stack
    per node, with 2t/|x|, t/|x| and the support as panel edges and the
    panels cut at the sign changes of each phi^{(k)}.  All are
    certified on the octave panels and read inf when divergent (ratio 0).

    Records per-point ratios lhs/rhs and their maximum.
    """
    if not (0 <= m <= n):
        raise ValueError(f"need 0 <= m <= n, got {m}")
    k = np.arange(m + 1)
    # exponents p_k of r on the two sides (j = 1, then j = 2, 3)
    p1 = np.where(k == 0, 1.0, k - 1.0) if m == n else n - m + k - 1.0
    p23 = (n - 1) / 2.0 - m + k
    rows = []
    max_ratio = 0.0
    for pt in pts:
        if pt.n != n:
            raise ValueError("probe point dimension mismatch")
        x, t = pt.x_abs, pt.t
        r_turn = 2.0 * t / x                    # r where the compact piece ends
        if m < n:
            w1 = np.full(m + 1, x ** ((n - 2) / 2.0) * math.sqrt(t) ** (m - n + 2))
        else:
            w1 = np.where(k == 0, x ** ((n + 2) / 2.0) / t, x ** ((n - 2) / 2.0) * t)
        w23 = x ** -0.5 * math.sqrt(t) ** (1 + m)

        def columns(r):
            d = np.abs(profile.derivs(m, r))
            return np.concatenate([
                np.where(r <= r_turn, w1[:, None] * d * r ** p1[:, None], 0.0),
                np.where(r >= 0.5 * r_turn, w23 * d * r ** p23[:, None], 0.0)])

        support = math.inf if profile.support is None else profile.support
        totals, _, deltas = norms.certified_integrals(columns, [0.5 * r_turn, r_turn, support],
                                                      kinks=lambda r: profile.derivs(m, r))
        rhs = totals + deltas
        rhs1, rhs23 = float(rhs[:m + 1].sum()), float(rhs[m + 1:].sum())
        lhs = g_abs_integrals(profile, pt, m)

        for j, lhs_j, rhs_j in zip((1, 2, 3), lhs.tolist(), (rhs1, rhs23, rhs23)):
            ratio = 0.0 if lhs_j == 0.0 or math.isinf(rhs_j) else lhs_j / max(rhs_j, 1e-300)
            rows.append((pt, j, lhs_j, rhs_j, ratio))
            max_ratio = max(max_ratio, ratio)
    return GjReport(n=n, m=m, rows=rows, max_ratio=max_ratio)


# ---------------------------------------------------------------------------
# recorded-constant baselines
# ---------------------------------------------------------------------------

def load_baselines() -> dict:
    """Versioned empirical constants recorded by the verification suite."""
    with resources.files("disperse_lab.data").joinpath("baselines.json").open() as fh:
        return json.load(fh)
