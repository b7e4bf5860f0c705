"""Weighted radial norms, membership classification, Herglotz decomposition.

The X = X1 + X2 and Y_m scales are computed on a geometric grid of octave
panels z = 2^k, k = -20..40.  Each integral or supremand is accumulated per
octave; the octave statistics drive a finite/divergent verdict: a term whose
per-octave contribution keeps growing (or stops decaying) along the grid is
certified divergent, otherwise the geometric tail is extrapolated.

All panels of a norm are rows of one quadrature.refine_rows call (through
`_panel_integrals`), the package's one panel-doubling loop, and its
integrands are columns evaluated on the same nodes from one derivative
stack per node (`RadialProfile.derivs`): norm_X's three integrands come from
orders 0..1, norm_Ym's integrals (k = k_lo..m) from orders 0..m.  Only the
averaged-mass supremum of Y_n is a second call.  A column stops refining a row
once its own rules agree; the plain integrals (first X2 term, Y_m terms)
also stop at the rounding floor of their total, the supremands, which
weight small z up, do not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .profiles import RadialProfile, power, bump, herglotz, herglotz_pair
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
    sup_probe_log: list = field(default_factory=list)
    unconverged_panels: int = 0     # norm_X/norm_Ym panels left at the subpanel cap

    @property
    def x(self) -> float:
        return self.x1 + self.x2


@dataclass(frozen=True)
class FamilySpec:
    family: str                  # power | oscillating_power | bump | herglotz_envelope
    alpha: float = 0.0
    omega: float = 1.0
    support: tuple = (1.0, 2.0)

    def build(self, n: int) -> RadialProfile:
        if self.family == "power":
            return power(self.alpha)
        if self.family == "oscillating_power":
            return oscillating_power(self.alpha)
        if self.family == "bump":
            return bump(*self.support)
        if self.family == "herglotz_envelope":
            return herglotz(self.omega, n)
        raise ValueError(f"unknown family {self.family!r}")


@lru_cache(maxsize=None)
def _leibniz(k: int):
    """[m, j] = C(m, j) i^{m-j}: orders 0..k of e^{ir} g from those of g."""
    return np.array([[math.comb(m, j) * 1j ** (m - j) for j in range(k + 1)]
                     for m in range(k + 1)])


def oscillating_power(alpha: float) -> RadialProfile:
    """f(r) = e^{ir}(1+r)^{-alpha} with Leibniz closed-form derivatives."""
    base = power(alpha)

    def env(r):
        r = np.asarray(r, dtype=float)
        return np.exp(1j * r) * base.envelope(r)

    def deriv(k, r):
        return np.exp(1j * r) * (_leibniz(k) @ base.deriv_fn(k, r))

    def tail(r):
        r = np.asarray(r, dtype=complex)
        return np.exp(1j * r) * (1.0 + r) ** (-alpha)

    return RadialProfile(label=f"oscpower[{alpha}]", omega=0.0, envelope=env,
                         deriv_fn=deriv, support=None, tail_alpha=alpha,
                         tail_fn=tail)


# ---------------------------------------------------------------------------
# octave machinery
# ---------------------------------------------------------------------------

def _octave_edges(per_octave: int = 1):
    return [0.0] + [2.0 ** (k / per_octave)
                    for k in range(per_octave * K_MIN, per_octave * K_MAX + 1)]


def _aggregate_octaves(increments, per_octave: int):
    """Collapse fine panel increments (head panel first) to per-octave sums."""
    inc = np.asarray(increments, dtype=float)
    body = inc[1:]
    octaves = body.reshape(-1, per_octave).sum(axis=1)
    return np.concatenate([[inc[0]], octaves])


def _panel_integrals(f, edges, floor=False):
    """(integrals, unconverged), each (panels, C), of the columns of f(r), a
    (C, r.size) array (1-D: one column), over the panels between edges: one
    quadrature.refine_rows call with 24 nodes and 4 to 256 subpanels
    (|.|-type integrands have kinks), rtol 1e-10 and, where floor (one flag
    or one per column) is set, a floor of _NOISE times the column's summed
    coarse |values|.  unconverged marks the entries left at 256 subpanels.
    """
    edges = np.asarray(edges, dtype=float)
    vals, _, live, _ = refine_rows(f, edges[:-1], edges[1:], 4, 256, 1e-10, nodes=24,
                                   floor=np.where(floor, _NOISE, 0.0))
    return vals, live


def _fit_slope(vals) -> float:
    """Least-squares slope of log2(vals) against octave index."""
    vals = np.asarray(vals, dtype=float)
    live = vals > 0
    if live.sum() < 4:
        return -math.inf
    return float(linear_fit(np.flatnonzero(live).astype(float), np.log2(vals[live]))[0])


def _beyond_grid_tail(increments, support_cut: Optional[int] = None):
    """(finite?, extrapolated remainder beyond the last octave)."""
    inc = np.asarray(increments, dtype=float)
    tailwin = inc[-_FIT_WINDOW:]
    # increments at the rounding-noise floor carry no divergence signal
    floor = _NOISE * max(abs(float(inc.sum())), float(np.max(np.abs(inc))), 1e-300)
    if np.max(np.abs(tailwin)) <= max(floor, 1e-300) or (support_cut is not None):
        return True, 0.0
    slope = _fit_slope(tailwin)
    if slope > _SLOPE_DIV_INT:
        return False, math.inf
    rho = 2.0 ** slope
    return True, float(tailwin[-1] * rho / (1.0 - rho)) if rho < 1.0 else 0.0


def _certify_integral(increments, support_cut: Optional[int] = None):
    """(finite?, total value) from per-octave integral increments."""
    ok, tail = _beyond_grid_tail(increments, support_cut)
    if not ok:
        return False, math.inf
    return True, float(np.sum(increments)) + tail


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
    if int(n) != n or n < 2:
        raise ValueError("dimension must be an integer >= 2")
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

    inc, capped = _panel_integrals(columns, edges, floor=(False, True, False))
    inc1, incd, inct = inc.real.T
    if report is not None:
        report.unconverged_panels += int(capped.sum())

    cut = _support_cut(profile, edges)
    zs = np.array(edges[1:])
    at_octave = slice(0, None, P)          # head edge, then octave edges

    # X1: supremand probed on the fine grid, certified per octave
    sup1 = np.cumsum(inc1) * zs ** ((1 - n) / 2.0)
    ok1, x1 = _certify_sup(sup1, sup1[at_octave])
    if report is not None:
        report.sup_probe_log.extend(("x1", z, v) for z, v in zip(zs, sup1))

    # X2 first term: plain integral to infinity
    ok2a, i2 = _certify_integral(_aggregate_octaves(incd, P), cut)

    # X2 second term: sup_z z * (tail integral beyond z); reverse cumsum
    # keeps the far-tail remainders free of cancellation
    tail_beyond = np.cumsum(inct[::-1])[::-1] - inct
    if cut is None:
        okt, beyond_grid = _beyond_grid_tail(_aggregate_octaves(inct, P)[1:], None)
        if not okt:
            return x1 if ok1 else math.inf, math.inf
        tail_beyond = tail_beyond + beyond_grid
    sup2 = np.maximum(zs * tail_beyond, 0.0)
    ok2b, s2 = _certify_sup(sup2, sup2[at_octave])
    if report is not None:
        report.sup_probe_log.extend(("x2sup", z, v) for z, v in zip(zs, sup2))

    x1v = x1 if ok1 else math.inf
    x2v = (i2 + s2) if (ok2a and ok2b) else math.inf
    return x1v, x2v


def _support_cut(profile, edges):
    if profile.support is None:
        return None
    for i, z in enumerate(edges[1:]):
        if z >= profile.support:
            return i
    return None


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
    edges = _octave_edges(P)
    cut = _support_cut(profile, edges)
    k_lo = 1 if m == n else 0

    def integrands(r):
        # |f^{(k)}| r^{n-m+k-1}, k = k_lo..m
        out = np.abs(profile.derivs(m, r)[k_lo:])
        weight = r ** (n - m + k_lo - 1)
        for row in out:
            row *= weight
            weight = weight * r
        return out

    inc, capped = _panel_integrals(integrands, edges, floor=True)
    total = 0.0
    for c in range(inc.shape[1]):
        ok, val = _certify_integral(_aggregate_octaves(inc[:, c].real, P), cut)
        if not ok:
            break
        total += val
    if report is not None:
        # the columns up to the first divergent one, as refined one by one
        report.unconverged_panels += int(capped[:, :c + 1].sum())
    if not ok:
        return math.inf
    if m == n:
        inc, capped = _panel_integrals(lambda r: profile.deriv(0, r) * r, edges)
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

def membership_scan(spec: FamilySpec, n: int, which: str, alphas) -> list:
    """[(alpha, finite?)] for the requested norm over the parameter grid.

    which: 'X', or 'Y0'..'Yn'.
    """
    out = []
    for a in alphas:
        fam = FamilySpec(family=spec.family, alpha=float(a), omega=spec.omega,
                         support=spec.support)
        prof = fam.build(n)
        if which == "X":
            x1, x2 = norm_X(prof, n)
            val = x1 + x2
        elif which.startswith("Y"):
            val = norm_Ym(prof, n, int(which[1:]))
        else:
            raise ValueError(f"unknown norm tag {which!r}")
        out.append((float(a), math.isfinite(val)))
    return out


def empirical_threshold(scan: list) -> float:
    """Midpoint between the largest divergent and smallest finite alpha,
    assuming divergence for small alpha."""
    div = [a for a, ok in scan if not ok]
    fin = [a for a, ok in scan if ok]
    if not div or not fin:
        raise ValueError("scan does not bracket the threshold")
    return 0.5 * (max(div) + min(fin))


def herglotz_decompose(omega: float, n: int, K: int = 8):
    """RadialProfile pair (eta, +omega carrier), (conj eta, -omega carrier)."""
    if omega == 0:
        raise ValueError("omega must be nonzero")
    return herglotz_pair(omega, n, K)
