"""Weighted radial norms, membership classification, certified integrals.

The X = X1 + X2 and Y_m scales are computed on a geometric grid of octave
panels z = 2^k, k = -20..40.  Each integral or supremand is accumulated per
octave; the octave statistics drive a finite/divergent verdict: a term whose
per-octave contribution keeps growing (or stops decaying) along the grid is
certified divergent, otherwise the geometric tail is extrapolated.
`certified_integrals` gives that verdict for plain integrals int_0^inf; it
serves norm_Ym and the pointwise bounds of propagator and decay.

All panels of a norm are rows of one quadrature.refine_rows call (through
`_panel_integrals`), the package's one panel-doubling loop, and its
integrands are columns evaluated on the same nodes from one derivative
stack per node (`RadialProfile.derivs`): norm_X's three integrands come from
orders 0..1, norm_Ym's integrals (k = k_lo..m) from orders 0..m.  Only the
averaged-mass supremum of Y_n is a second call.  Every panel starts at one
24-node Gauss panel nested in its 49-node Kronrod rule and doubles its
subpanels up to 128; the head panel [0, 2^K_MIN] is integrated in
s = sqrt(r), where the r^{-1/2} of the X2 integrand at even n is smooth.  A
column stops refining a row once its own Gauss and Kronrod sums agree; the
plain integrals (first X2 term, Y_m terms) also stop at the rounding floor
of their total, the supremands, which weight small z up, do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import profiles, special
from .profiles import RadialProfile, oscillating_power  # noqa: F401, re-exported
from .quadrature import linear_fit, refine_rows

K_MIN, K_MAX = -20, 40
_SLOPE_DIV_INT = -0.02     # log2 increment slope above this -> divergent
_SLOPE_DIV_SUP = 0.02      # log2 probe-value slope above this -> divergent
_FIT_WINDOW = 12
# increments this far below an integrand's total are rounding noise
_NOISE = 1e-13


class DivergentNormError(ValueError):
    pass


@dataclass
class NormReport:
    x1: float
    x2: float
    ym: list
    unconverged_panels: int = 0     # norm_X/norm_Ym panels left at the subpanel cap

    @property
    def x(self) -> float:
        return self.x1 + self.x2


# ---------------------------------------------------------------------------
# octave machinery
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _octave_edges(per_octave: int = 1):
    """0, then 2^{k/per_octave} up to 2^K_MAX from 2^K_MIN; read-only."""
    edges = np.array([0.0] + [2.0 ** (k / per_octave)
                              for k in range(per_octave * K_MIN, per_octave * K_MAX + 1)])
    edges.flags.writeable = False
    return edges


def _octave_of(edges, per_octave: int):
    """Octave index of each panel between edges, which refine
    _octave_edges(per_octave): 0 for the head panel [0, 2^K_MIN], then one
    index per octave; np.bincount(index, increments) sums each octave."""
    grid = _octave_edges(per_octave)
    return (np.searchsorted(grid, edges[:-1], side="right") + per_octave - 2) // per_octave


def _panel_integrals(f, edges, floor=False):
    """(integrals, unconverged, deltas), each (panels, C), of the columns of
    f(r), a (C, r.size) array (1-D: one column), over the panels between
    edges: one quadrature.refine_rows call with 24 Gauss nodes (49 Kronrod
    nodes) and 1 to 128 subpanels (|.|-type integrands have kinks), rtol
    1e-10 and, where floor (one flag or one per column) is set, a floor of
    _NOISE times the column's summed coarse |values|.  unconverged marks the
    entries left at 128 subpanels; deltas holds each entry's last
    |Kronrod - Gauss|.

    The first panel is integrated in s = sqrt(r), dr = 2 s ds (row 0 of the
    refine_rows ids), so integrands like r^{-1/2} at 0 (|(f r^{(n-1)/2})'|
    at even n) are smooth in s.
    """
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1].copy(), edges[1:].copy()
    a[0], b[0] = math.sqrt(a[0]), math.sqrt(b[0])

    def g(x, row):
        head = row == 0
        return f(np.where(head, x * x, x)) * np.where(head, 2.0 * x, 1.0)

    vals, deltas, live, _ = refine_rows(g, a, b, 1, 128, 1e-10, nodes=24,
                                        ids=np.arange(a.size), floor=np.where(floor, _NOISE, 0.0))
    return vals, live, deltas


def certified_integrals(f, ends=(), per_octave: int = 4):
    """(totals, capped, deltas), each (C,): int_0^inf of each column of
    f(r), a (C, r.size) array of |.|-type integrands, certified on the
    octave panels of one floored _panel_integrals call.  totals[c] is the
    octave sum plus the geometric tail beyond 2^K_MAX, or math.inf where the
    octave increments certify divergence; capped[c] counts the panels left
    at the subpanel cap and deltas[c] sums their last |change|.  The ends
    (> 0) below 2^K_MAX, a support or the end of an interval an integrand
    is cut to, are panel edges: a cut inside a panel would stall at the cap.
    """
    edges = np.union1d(_octave_edges(per_octave), [e for e in ends if e < 2.0 ** K_MAX])
    inc, capped, deltas = _panel_integrals(f, edges, floor=True)
    octave = _octave_of(edges, per_octave)
    totals = np.array([_certify_integral(np.bincount(octave, col)) for col in inc.real.T])
    return totals, capped.sum(axis=0), np.where(capped, deltas, 0.0).sum(axis=0)


def _fit_slope(vals) -> float:
    """Least-squares slope of log2(vals) against octave index."""
    vals = np.asarray(vals, dtype=float)
    live = vals > 0
    if live.sum() < 4:
        return -math.inf
    return float(linear_fit(np.flatnonzero(live).astype(float), np.log2(vals[live]))[0])


def _beyond_grid_tail(increments):
    """(finite?, extrapolated remainder beyond the last octave)."""
    inc = np.asarray(increments, dtype=float)
    tailwin = inc[-_FIT_WINDOW:]
    # increments at the rounding-noise floor (zero beyond a support) carry
    # no divergence signal
    floor = _NOISE * max(abs(float(inc.sum())), float(np.max(np.abs(inc))), 1e-300)
    if np.max(np.abs(tailwin)) <= max(floor, 1e-300):
        return True, 0.0
    slope = _fit_slope(tailwin)
    if slope > _SLOPE_DIV_INT:
        return False, math.inf
    rho = 2.0 ** slope
    return True, float(tailwin[-1] * rho / (1.0 - rho)) if rho < 1.0 else 0.0


def _certify_integral(increments) -> float:
    """Total from per-octave integral increments; math.inf when divergent."""
    ok, tail = _beyond_grid_tail(increments)
    return float(np.sum(increments)) + tail if ok else math.inf


def _certify_sup(probes, octave_probes=None):
    """(finite?, sup value); divergence judged on per-octave probe growth."""
    v = np.asarray(probes, dtype=float)
    o = v if octave_probes is None else np.asarray(octave_probes, dtype=float)
    if np.max(o[-_FIT_WINDOW:]) <= _NOISE * max(float(o.max()), 1e-300):
        return True, float(v.max())
    slope = _fit_slope(o[-_FIT_WINDOW:])
    if slope > _SLOPE_DIV_SUP:
        return False, math.inf
    return True, float(v.max())


def _check_args(profile: RadialProfile, n: int):
    special.order_from_dim(n)
    if profile.support is None and profile.tail_alpha is None:
        raise DivergentNormError(
            f"profile {profile.label}: unbounded support without tail descriptor")


# ---------------------------------------------------------------------------
# the X norm
# ---------------------------------------------------------------------------

def norm_X(profile: RadialProfile, n: int, report: Optional[NormReport] = None,
           per_octave: int = 4):
    """(x1, x2); either entry is math.inf when certified divergent.

    x1 = sup_z z^{(1-n)/2} int_0^z (|f| r^{n-2} + |f'| r^{n-1}) dr
    x2 = int_0^inf |d/dr(f r^{(n-1)/2})| dr + sup_z z int_z^inf |f| r^{(n-5)/2} dr
    """
    _check_args(profile, n)
    P = per_octave
    edges = _octave_edges(P)

    def columns(r):
        # the X1 inner integral, |(f r^{(n-1)/2})'| and the X2 sup tail
        # |f| r^{(n-5)/2}; the last may be non-integrable at 0 and is only
        # integrated from z >= 2^K_MIN upward, so it is zero on the head panel
        d0, d1 = profile.derivs(1, r)
        a0 = np.abs(d0)
        rk = r ** (n - 2)
        t = np.sqrt(r) ** (n - 5)           # r^{(n-5)/2}
        h = t * r                           # r^{(n-3)/2}
        return np.stack([
            a0 * rk + np.abs(d1) * (rk * r),
            np.abs(d1 * (h * r) + d0 * ((n - 1) / 2.0 * h)),
            np.where(r > edges[1], a0 * t, 0.0)])

    inc, capped, _ = _panel_integrals(columns, edges, floor=(False, True, False))
    inc1, incd, inct = inc.real.T
    if report is not None:
        report.unconverged_panels += int(capped.sum())

    zs = np.array(edges[1:])
    at_octave = slice(0, None, P)          # head edge, then octave edges

    # X1: supremand probed on the fine grid, certified per octave
    sup1 = np.cumsum(inc1) * zs ** ((1 - n) / 2.0)
    ok1, x1 = _certify_sup(sup1, sup1[at_octave])

    # X2 first term: plain integral to infinity
    octave = _octave_of(edges, P)
    i2 = _certify_integral(np.bincount(octave, incd))

    # X2 second term: sup_z z * (tail integral beyond z); reverse cumsum
    # keeps the far-tail remainders free of cancellation
    okt, beyond_grid = _beyond_grid_tail(np.bincount(octave, inct)[1:])
    if not okt:
        return x1 if ok1 else math.inf, math.inf
    tail_beyond = np.cumsum(inct[::-1])[::-1] - inct + beyond_grid
    sup2 = np.maximum(zs * tail_beyond, 0.0)
    ok2b, s2 = _certify_sup(sup2, sup2[at_octave])

    x1v = x1 if ok1 else math.inf
    x2v = (i2 + s2) if ok2b else math.inf
    return x1v, x2v


# ---------------------------------------------------------------------------
# the Y_m scale
# ---------------------------------------------------------------------------

def norm_Ym(profile: RadialProfile, n: int, m: int, per_octave: int = 4,
            report: Optional[NormReport] = None) -> float:
    """||f||_{Y_m}; math.inf when certified divergent.  m = n uses the
    boundary formula with k starting at 1 plus the averaged-mass supremum
    and |f(0)|.  Panels left at the cap add to report.unconverged_panels."""
    _check_args(profile, n)
    if m < 0 or m > n:
        raise ValueError(f"need 0 <= m <= n, got {m}")
    P = per_octave
    k_lo = 1 if m == n else 0

    def integrands(r):
        # |f^{(k)}| r^{n-m+k-1}, k = k_lo..m
        out = np.abs(profile.derivs(m, r)[k_lo:])
        weight = r ** (n - m + k_lo - 1)
        for row in out:
            row *= weight
            weight = weight * r
        return out

    totals, capped, _ = certified_integrals(integrands, per_octave=P)
    total = sum(totals.tolist())
    if report is not None:
        # the columns up to the first divergent one, as refined one by one
        upto = int(np.argmax(np.isinf(totals))) + 1 if math.isinf(total) else totals.size
        report.unconverged_panels += int(capped[:upto].sum())
    if math.isinf(total):
        return math.inf
    if m == n:
        edges = _octave_edges(P)
        inc, capped, _ = _panel_integrals(lambda r: profile.deriv(0, r) * r, edges)
        if report is not None:
            report.unconverged_panels += int(capped.sum())
        zs = np.array(edges[1:])
        sup = np.abs(np.cumsum(inc[:, 0])) * zs ** (-2.0)
        ok, s = _certify_sup(sup, sup[slice(0, None, P)])
        if not ok:
            return math.inf
        total += s
        total += float(abs(profile.deriv(0, 0.0)))
    return total


def norm_report(profile: RadialProfile, n: int) -> NormReport:
    rep = NormReport(x1=0.0, x2=0.0, ym=[])
    rep.x1, rep.x2 = norm_X(profile, n, report=rep)
    rep.ym = [norm_Ym(profile, n, m, report=rep) for m in range(n + 1)]
    return rep


# ---------------------------------------------------------------------------
# membership scans
# ---------------------------------------------------------------------------

def norm_value(profile: RadialProfile, n: int, which: str) -> float:
    """sum(norm_X) for which = 'X', norm_Ym for 'Y0'..'Yn' (either case);
    math.inf when certified divergent."""
    tag = which.upper()
    if tag == "X":
        return sum(norm_X(profile, n))
    if tag[:1] == "Y" and tag[1:].isdigit():
        return norm_Ym(profile, n, int(tag[1:]))
    raise ValueError(f"unknown norm {which!r}: expected X or Y0..Yn")


def membership_scan(spec: str, n: int, which: str, alphas) -> list:
    """[(alpha, norm_value)] over the grid, for the profile the descriptor
    spec names with its alpha replaced by each grid point."""
    family, params = profiles.parse_spec(spec)
    return [(float(a), norm_value(profiles.build(family, {**params, "alpha": float(a)}, n),
                                  n, which))
            for a in alphas]


def empirical_threshold(scan: list) -> float:
    """Midpoint between the largest divergent and smallest finite alpha,
    assuming divergence for small alpha.  scan holds (alpha, finite?) pairs
    or the (alpha, norm_value) pairs of membership_scan."""
    finite = [(a, v if isinstance(v, (bool, np.bool_)) else math.isfinite(v))
              for a, v in scan]
    div = [a for a, ok in finite if not ok]
    fin = [a for a, ok in finite if ok]
    if not div or not fin:
        raise ValueError("scan does not bracket the threshold")
    return 0.5 * (max(div) + min(fin))
