"""Singular Herglotz superposition with an endpoint power density.

The datum  phi(x) = |x|^{(2-n)/2} int_1^2 (w-1)^{-delta} J_{(n-2)/2}(w|x|) dw
(0 < delta < 1) evolves as the same integral with an extra e^{-i t w^2}
factor.  Its spatial decay exponent (1-n)/2 - (1-delta) and temporal decay
exponent delta - 1 at small |x| pin down the necessary condition
p >= 2r / (2n - r(n-1))_+ for space-time estimates with L^r data.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from . import special
from .decay import DecayFit, _envelope_fit
from .quadrature import composite_gl, gl_nodes, osc_integral, trapezoid

INF = math.inf

_DIRECT_CYCLE_CUT = 4000.0     # direct quadrature until this many oscillations


@dataclass(frozen=True)
class SingularDensity:
    delta: float

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"need 0 < delta < 1, got {self.delta}")

    def __call__(self, w):
        return np.asarray(w - 1.0, dtype=float) ** (-self.delta)


def _direct_integral(delta: float, n: int, x_abs: float, t: float,
                     tol: float = 1e-10) -> complex:
    """int_1^2 e^{-i t w^2} (w-1)^{-delta} J_nu(w x) dw.

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
    val, _ = osc_integral(f, 0.0, 1.0, span, tol)
    return complex(val)


def _endpoint_ray(g, w0: float, dphase: complex, delta_pow: float,
                  scale: float, nodes: int = 64) -> complex:
    """int_0^infty g(w0 + tau u) (tau u)^{-delta_pow} e^{dphase * tau} dtau
    along the descent direction u (|u| = 1, folded into g), where
    Re(dphase) < 0 sets the decay scale.  `scale` is |Re dphase|.

    Endpoint singularity tau^{-delta_pow} is removed by tau = v^{1/(1-d)}:
    tau^{-d} dtau = pw dv exactly, so the product is never formed (tau
    underflows to 0 near v = 0 as d -> 1).
    """
    pw = 1.0 / (1.0 - delta_pow)
    tau_star = 45.0 / scale
    v_star = tau_star ** (1.0 - delta_pow)
    x, w = gl_nodes(nodes)
    edges = np.array([0.0, 0.1, 0.35, 1.0]) * v_star
    total = 0.0 + 0.0j
    for lo, hi in zip(edges[:-1], edges[1:]):
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        v = mid + half * x
        tau = v ** pw
        vals = g(tau) * np.exp(dphase * tau) * pw
        total += np.sum(half * w * vals)
    return complex(total)


def _contour_integral_large_t(delta: float, n: int, x_abs: float,
                              t: float) -> complex:
    """Large-t regime (no stationary phase in [1, 2]): push both endpoints
    onto descent rays w = w0 + tau e^{-i pi/4}; valid while the Bessel
    factor stays tame on the short rays (x_abs << t)."""
    nu = special.order_from_dim(n)
    rot = cmath.exp(-1j * math.pi / 4.0)
    out = 0.0 + 0.0j
    for w0, sign in ((1.0, 1.0), (2.0, -1.0)):
        scale = 2.0 * t * w0 / math.sqrt(2.0)
        dphase = -2j * t * w0 * rot

        def g(tau, w0=w0):
            w = w0 + tau * rot
            # singular density: (w-1)^{-delta} = tau^{-delta} rot^{-delta}
            # on the w0 = 1 ray (tau power handled by _endpoint_ray)
            dens = rot ** (-delta) if w0 == 1.0 \
                else (1.0 + tau * rot) ** (-delta)
            return (special.bessel_j_c(nu, w * x_abs) * dens
                    * np.exp(-1j * t * (tau * rot) ** 2)
                    * cmath.exp(-1j * t * w0 * w0))

        dpow = delta if w0 == 1.0 else 0.0
        out += sign * rot * _endpoint_ray(g, w0, dphase, dpow, scale)
    return out


def _contour_integral_large_x(delta: float, n: int, x_abs: float, t: float,
                              K: int = 8) -> complex:
    """Large-x regime: split (w x)^{n/2} J_nu into e^{+-i w x} pieces and
    rotate each endpoint onto its descent ray e^{+-i pi/4}.  Requires the
    combined phase +-x w - t w^2 to be monotone on [1, 2] (x > 4t for the
    + piece), which holds in the t = 0 / small-t window where this is used."""
    if x_abs <= 4.0 * t:
        raise ValueError("large-x contour needs x > 4t (no interior saddle)")
    coeffs = special.alpha_coeffs(n, K)
    out = 0.0 + 0.0j
    for piece in (+1, -1):
        series = (special.splitting_B_series if piece > 0
                  else special.splitting_B_series_conj)
        rot = cmath.exp(1j * piece * math.pi / 4.0)
        for w0, sign in ((1.0, 1.0), (2.0, -1.0)):
            phase_slope = piece * x_abs - 2.0 * t * w0
            dphase = 1j * phase_slope * rot
            scale = abs(phase_slope) / math.sqrt(2.0)

            def g(tau, w0=w0, rot=rot, series=series, piece=piece):
                w = w0 + tau * rot
                dens = rot ** (-delta) if w0 == 1.0 \
                    else (1.0 + tau * rot) ** (-delta)
                pref = (w * x_abs) ** (-n / 2.0) * series(coeffs, x_abs * w)
                return (pref * dens
                        * np.exp(-1j * t * (tau * rot) ** 2)
                        * cmath.exp(1j * (piece * x_abs * w0 - t * w0 * w0)))

            dpow = delta if w0 == 1.0 else 0.0
            out += sign * rot * _endpoint_ray(g, w0, dphase, dpow, scale)
    return out


def singular_psi(delta: float, n: int, x_abs: float, t: float = 0.0) -> complex:
    """psi(x, t) = |x|^{(2-n)/2} int_1^2 e^{-i t w^2}(w-1)^{-delta} J_nu(w|x|) dw."""
    SingularDensity(delta)
    if x_abs <= 0:
        raise ValueError("need x_abs > 0")
    cycles = (3.0 * abs(t) + x_abs) / (2.0 * math.pi)
    if cycles <= _DIRECT_CYCLE_CUT or (x_abs <= 40.0 and abs(t) > 50.0):
        if abs(t) > 50.0 and x_abs <= 40.0 and cycles > 200.0:
            val = _contour_integral_large_t(delta, n, x_abs, t)
        else:
            val = _direct_integral(delta, n, x_abs, t)
    elif x_abs > 4.0 * abs(t) and x_abs >= 30.0:
        val = _contour_integral_large_x(delta, n, x_abs, t)
    else:
        val = _direct_integral(delta, n, x_abs, t)
    return x_abs ** ((2 - n) / 2.0) * val


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


def lr_membership_quadrature(delta: float, n: int, r: float,
                             x_max: float = 1e5) -> bool:
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
    sing = _direct_integral(delta, n, x_abs, 0.0)
    return abs((1.0 - delta) * sing - flat) / abs(flat)


# ---------------------------------------------------------------------------
# necessary conditions
# ---------------------------------------------------------------------------

def necessary_p_bound(r: float, n: int) -> float:
    """p >= 2r / (2n - r(n-1))_+ for r > 2n/(n+1); INF when the positive
    part vanishes (no finite p admits the estimate)."""
    if not (r > 2.0 * n / (n + 1.0)):
        raise ValueError(
            f"bound applies for r > 2n/(n+1) = {2.0 * n / (n + 1.0):g}; "
            "no constraint from this example otherwise")
    if math.isinf(r):
        return INF if n > 1 else 2.0
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
            iv = (1.0 / r if not math.isinf(r) else 0.0) \
                - (1.0 / q if not math.isinf(q) else 0.0)
            ip = 0.5 * n * iv
            if ip < 0.0 or ip > 1.0:
                continue
            p = INF if ip == 0.0 else 1.0 / ip
            if lpq_region(delta, n, p, q).member:
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
    caches |psi| samples across calls keyed by the grids."""
    t0, t1 = t_window
    ts = np.geomspace(t0, t1, nt)
    xs = np.geomspace(1e-2, x_max, nx)
    key = (round(t0, 9), round(t1, 9), round(x_max, 9), nx, nt)
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
