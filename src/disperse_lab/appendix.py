"""Singular Herglotz superposition with an endpoint power density.

The datum  phi(x) = |x|^{(2-n)/2} int_1^2 (w-1)^{-delta} J_{(n-2)/2}(w|x|) dw
(0 < delta < 1) evolves as the same integral with an extra e^{-i t w^2}
factor.  Its spatial decay exponent (1-n)/2 - (1-delta) and temporal decay
exponent delta - 1 at small |x| pin down the necessary condition
p >= 2r / (2n - r(n-1))_+ for space-time estimates with L^r data.  The
integral runs on the direct rule up to 200 cycles, and beyond on rays: with
the exact J_nu up to |x| = 40, with special.hankel_tail's Hankel pieces past.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import special
from .blowup import scaling_p
from .decay import DecayFit, _envelope_fit
from .profiles import require_finite
from .quadrature import osc_integral, rotated_tail, trapezoid

INF = math.inf

_DIRECT_CYCLE_CUT = 200.0      # direct quadrature up to this many oscillations
_HANKEL_X_CUT = 40.0           # beyond it the rays take the Hankel series
_TOL = 1e-10                   # each regime's rule agrees to this relative


@dataclass(frozen=True)
class SingularDensity:
    delta: float

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"need 0 < delta < 1, got {self.delta}")


def _direct_integral(delta: float, n: int, x_abs: float, t: float,
                     tol: float = _TOL) -> Tuple[complex, float]:
    """int_1^2 e^{-i t w^2} (w-1)^{-delta} J_nu(w x) dw and its error
    estimate.

    The substitution w - 1 = v^{1/(1-delta)} removes the endpoint
    singularity exactly: the integral becomes (1-delta)^{-1} int_0^1 of a
    bounded integrand.
    """
    nu = special.order_from_dim(n)
    pw = 1.0 / (1.0 - delta)

    def f(v):
        w = 1.0 + np.asarray(v, dtype=float) ** pw
        return (special.bessel_j(nu, w * x_abs)
                * np.exp(-1j * t * w * w)) / (1.0 - delta)

    span = 3.0 * abs(t) + x_abs + 2.0
    return osc_integral(f, 0.0, 1.0, span, tol)


def _contour_integral_large_t(delta: float, n: int, x_abs: float,
                              t: float) -> Tuple[complex, float]:
    """Exact-J_nu rays: the conjugate of int_1^2 (w-1)^{-delta} J_nu(w x)
    e^{itw^2} dw as rotated_tail's row 0 (from w = 1, endpoint power delta)
    minus row 1 (from w = 2, the power in the integrand), while J_nu stays
    tame on the short rays (x << t).  Returns (value, error estimate)."""
    nu = special.order_from_dim(n)

    def h(w, row):
        out = special.bessel_j_c(nu, w * x_abs)
        far = row == 1
        out[far] *= (w[far] - 1.0) ** -delta
        return out

    vals, errs = rotated_tail(h, (1.0, 2.0), 0.0, c2=t, delta=(delta, 0.0), tol=_TOL)
    return complex(vals[0] - vals[1]).conjugate(), float(errs.sum())


def _contour_integral_large_x(delta: float, n: int, x_abs: float,
                              t: float) -> Tuple[complex, float]:
    """Hankel rays: the conjugate of the integral is four hankel_tail rows
    at c2 = t, b = +-x from w = 1 (endpoint power delta) minus the same from
    w = 2 (the power in the amplitude); the e^{-iwx} rows pass x/2t on rays.
    At t = 0 the integral is twice the real part of the e^{iwx} rows.
    Returns (value, error estimate), the series truncation included."""
    b = np.array([x_abs] if t == 0 else [x_abs, -x_abs])
    b, start = np.tile(b, 2), np.repeat((1.0, 2.0), b.size)
    far = start == 2.0

    def amp(w, row):
        # (w x)^{-n/2} times the z^{(n-1)/2} of the Hankel piece
        out, on = special.cpow(w * x_abs, -0.5), far[row]
        out[on] *= (w[on] - 1.0) ** -delta
        return out

    vals, errs = special.hankel_tail(n, amp, b, start, 0.0, c2=t,
                                     delta=np.where(far, 0.0, delta), s=0.5, tol=_TOL)
    val = vals[~far].sum() - vals[far].sum()
    if t == 0:
        return complex(2.0 * val.real), 2.0 * float(errs.sum())
    return val.conjugate(), float(errs.sum())


def _singular_integral(delta: float, n: int, x_abs: float,
                       t: float) -> Tuple[complex, float]:
    """singular_psi's integral and its error estimate, for t >= 0."""
    if (3.0 * t + x_abs) / (2.0 * math.pi) <= _DIRECT_CYCLE_CUT:
        return _direct_integral(delta, n, x_abs, t)
    if x_abs <= _HANKEL_X_CUT:
        return _contour_integral_large_t(delta, n, x_abs, t)
    return _contour_integral_large_x(delta, n, x_abs, t)


def singular_psi(delta: float, n: int, x_abs: float, t: float = 0.0) -> complex:
    """psi(x, t) = |x|^{(2-n)/2} int_1^2 e^{-i t w^2}(w-1)^{-delta} J_nu(w|x|) dw.

    Three regimes on two cuts: the direct rule while the phase makes at most
    _DIRECT_CYCLE_CUT = 200 cycles over [1, 2]; beyond that, steepest-descent
    rays with the exact complex J_nu while |x| <= _HANKEL_X_CUT = 40, and the
    Hankel-series rays of special.hankel_tail for larger |x| at every t.
    """
    SingularDensity(delta)
    require_finite("singular_psi", x_abs=x_abs, t=t)
    if x_abs <= 0:
        raise ValueError("need x_abs > 0")
    # the Hankel rays' stationary phase t (x/2t)^2
    if t != 0 and not math.isfinite(x_abs * x_abs / (4.0 * abs(t))):
        raise ValueError(f"phase x_abs^2/(4t) overflows at x_abs={x_abs:g}, t={t:g}")
    # J_nu and the density are real, so psi(x, -t) = conj psi(x, t)
    val, _ = _singular_integral(delta, n, x_abs, abs(t))
    return x_abs ** ((2 - n) / 2.0) * (val.conjugate() if t < 0 else val)


def singular_phi(delta: float, n: int, x_abs: float) -> complex:
    return singular_psi(delta, n, x_abs, 0.0)


# ---------------------------------------------------------------------------
# decay fits
# ---------------------------------------------------------------------------

def phi_space_fit(delta: float, n: int,
                  x_grid: Optional[Sequence[float]] = None) -> DecayFit:
    """Envelope exponent of |phi| over |x| in [1e2, 1e5]; the asymptotic
    exponent is (1-n)/2 - (1-delta)."""
    if x_grid is None:
        x_grid = np.geomspace(1e2, 1e5, 40)
    vals = [abs(singular_phi(delta, n, x)) for x in x_grid]
    return _envelope_fit("space", np.asarray(x_grid, float), vals)


def psi_time_fit(delta: float, n: int,
                 x_probes: Sequence[float] = (0.01, 0.05, 0.1),
                 t_grid: Optional[Sequence[float]] = None) -> DecayFit:
    """Envelope exponent of sup over small-|x| probes of |psi| for
    t in [1e2, 1e5]; the asymptotic exponent is delta - 1."""
    if t_grid is None:
        t_grid = np.geomspace(1e2, 1e5, 24)
    t_grid = np.asarray(t_grid, dtype=float)
    vals = [max(abs(singular_psi(delta, n, x, t)) for x in x_probes)
            for t in t_grid]
    return _envelope_fit("time", t_grid, vals)


def phi_expected_space_exponent(delta: float, n: int) -> float:
    return (1 - n) / 2.0 - (1.0 - delta)


def psi_expected_time_exponent(delta: float) -> float:
    return delta - 1.0


def lr_membership(delta: float, n: int, r: float) -> bool:
    """phi in L^r iff delta < (n+1)/2 - n/r."""
    return delta < (n + 1) / 2.0 - n / r


def lr_membership_quadrature(delta: float, n: int, r: float) -> bool:
    """Same verdict from the decay data: |phi|^r |x|^{n-1} integrates at
    infinity iff the fitted envelope exponent e satisfies e*r + n < 0."""
    fit = phi_space_fit(delta, n)
    return fit.fitted_exponent * r + n < 0.0


def delta_limit_consistency(n: int, x_abs: float, delta: float = 0.05) -> float:
    """Relative difference between the mass-normalized singular superposition
    (1-delta) int_1^2 (w-1)^{-delta} J(w x) dw and the flat superposition
    int_1^2 J(w x) dw; tends to 0 as delta -> 0+."""
    nu = special.order_from_dim(n)
    flat, _ = osc_integral(lambda w: special.bessel_j(nu, w * x_abs),
                           1.0, 2.0, x_abs + 2.0, 1e-12)
    sing, _ = _direct_integral(delta, n, x_abs, 0.0)
    return abs((1.0 - delta) * sing - flat) / abs(flat)


# ---------------------------------------------------------------------------
# necessary conditions
# ---------------------------------------------------------------------------

def _require_exponents(**exps):
    """ValueError naming every NaN exponent; inf stands for L^inf."""
    bad = [f"{k}={v:g}" for k, v in exps.items() if math.isnan(v)]
    if bad:
        raise ValueError(f"exponents must be numbers or inf, got {', '.join(bad)}")


def necessary_p_bound(r: float, n: int) -> float:
    """p >= 2r / (2n - r(n-1))_+ for r > 2n/(n+1); INF when the positive
    part vanishes (no finite p admits the estimate)."""
    special.order_from_dim(n)               # rejects n that is not an integer >= 2
    _require_exponents(r=r)
    if not (r > 2.0 * n / (n + 1.0)):
        raise ValueError(
            f"bound applies for r > 2n/(n+1) = {2.0 * n / (n + 1.0):g}; "
            "no constraint from this example otherwise")
    if math.isinf(r):
        return INF
    denom = 2.0 * n - r * (n - 1.0)
    return INF if denom <= 0.0 else 2.0 * r / denom


@dataclass
class LpqVerdict:
    p: float
    q: float
    delta: float
    n: int
    member: bool
    binding: str


def _q_threshold(delta: float, n: int) -> float:
    t1 = (2.0 * n - 1.0) / (n - delta)
    d2 = n + 1.0 - 2.0 * delta
    t2 = INF if d2 <= 0.0 else 2.0 * n / d2
    return max(t1, t2)


def _p_threshold(delta: float, n: int, q: float) -> Tuple[float, str]:
    cands = [(1.0 / (1.0 - delta), "temporal p > 1/(1-delta)")]
    if math.isinf(q):
        cands.append((2.0 / (n - delta), "mixed p > 2q/(q(n-delta)+1-2n)"))
        cands.append((2.0 / (n + 1.0 - 2.0 * delta),
                      "mixed p > 2q/(q(n+1-2delta)-2n)"))
    else:
        d1 = q * (n - delta) + 1.0 - 2.0 * n
        cands.append((INF if d1 <= 0.0 else 2.0 * q / d1,
                      "mixed p > 2q/(q(n-delta)+1-2n)"))
        d2 = q * (n + 1.0 - 2.0 * delta) - 2.0 * n
        cands.append((INF if d2 <= 0.0 else 2.0 * q / d2,
                      "mixed p > 2q/(q(n+1-2delta)-2n)"))
    return max(cands, key=lambda c: c[0])


def lpq_region(delta: float, n: int, p: float, q: float) -> LpqVerdict:
    """Membership psi in L^p_t L^q_x per the closed-form region (strict
    inequalities), with the binding constraint identified."""
    SingularDensity(delta)
    special.order_from_dim(n)
    _require_exponents(p=p, q=q)
    qt = _q_threshold(delta, n)
    if not (q > qt):
        return LpqVerdict(p, q, delta, n, False,
                          f"spatial q > {qt:g}")
    pt, label = _p_threshold(delta, n, q)
    if not (p > pt):
        return LpqVerdict(p, q, delta, n, False, label)
    return LpqVerdict(p, q, delta, n, True, "interior")


def min_scaling_p(n: int, r: float, q_grid: Sequence[float],
                  delta_grid: Sequence[float]) -> float:
    """Smallest scaling-compatible p admitted by lpq_region over admissible
    deltas (phi in L^r); compares against necessary_p_bound."""
    best = INF
    for delta in delta_grid:
        if not lr_membership(delta, n, r):
            continue
        for q in q_grid:
            p = scaling_p(n, q, r)
            if not math.isnan(p) and lpq_region(delta, n, p, q).member:
                best = min(best, p)
    return best


# ---------------------------------------------------------------------------
# empirical L^p L^q scan
# ---------------------------------------------------------------------------

def truncated_lplq(delta: float, n: int, p: float, q: float,
                   t_window: Tuple[float, float], x_max: float,
                   field: Optional[dict] = None,
                   nx: int = 48, nt: int = 16) -> float:
    """|| psi ||_{L^p L^q} on [t0, t1] x {|x| <= x_max} from a shared field
    sample (radial weight included; angular constant dropped).  `field`
    caches |psi| samples across calls keyed by delta, n and the grids."""
    t0, t1 = t_window
    ts = np.geomspace(t0, t1, nt)
    xs = np.geomspace(1e-2, x_max, nx)
    key = (delta, n, round(t0, 9), round(t1, 9), round(x_max, 9), nx, nt)
    if field is not None and key in field:
        A = field[key]
    else:
        A = np.array([[abs(singular_psi(delta, n, x, t)) for x in xs]
                      for t in ts])
        if field is not None:
            field[key] = A
    lq = np.array([
        (trapezoid(A[i] ** q * xs ** (n - 1), xs)) ** (1.0 / q)
        for i in range(len(ts))])
    return float(trapezoid(lq ** p, ts) ** (1.0 / p))
