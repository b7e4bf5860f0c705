"""Self-similar focusing for the quadratically chirped power datum.

The datum  phi(x) = e^{-i|x|^2/4} 1_{|x|>=1} |x|^{-sigma}  focuses at t = 1:
near the focusing time the solution concentrates on an annulus of radius
~ k_t, with modulus ~ k_t^{sigma-n} and a universal limit profile V(z).
The resulting L^q growth rates rule out space-time (Strichartz) estimates
with data measured in L^r for every r > 2.  The solution is one
special.bessel_split_integral (a real-axis head, then the two Hankel pieces
of the kernel), preceded from any r_lo below r1 ~ 1/c by a power series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from . import special
from .decay import DecayFit, _envelope_fit
from .propagator import ComplexAmplitude, _prefactor
from .quadrature import _EPS, refine_rows

INF = math.inf
_ORIGIN_TERMS = 20    # powers of i quad r^2 kept by _origin_series: 1/20! < 1e-18


@dataclass(frozen=True)
class ChirpDatum:
    n: int
    sigma: float

    def __post_init__(self):
        special.order_from_dim(self.n)
        lo = (self.n - 3) / 2.0
        if not (lo < self.sigma < self.n):
            raise ValueError(
                f"need (n-3)/2 = {lo} < sigma < n = {self.n}, got {self.sigma}")


def k_of_t(t: float) -> float:
    """Focusing scale k_t = sqrt(1/(4t) - 1/4), positive for 0 < t < 1."""
    if not (0.0 < t < 1.0):
        raise ValueError("k_t defined for 0 < t < 1")
    return math.sqrt(1.0 / (4.0 * t) - 0.25)


@dataclass(frozen=True)
class SelfSimilarFrame:
    t: float

    def __post_init__(self):
        k_of_t(self.t)   # validates the range

    @property
    def k(self) -> float:
        return k_of_t(self.t)

    def x_of_z(self, z):
        return 2.0 * self.t * self.k * np.asarray(z, dtype=float)


@lru_cache(maxsize=None)
def _origin_table(n: int, sigma: float, sign: float):
    """_origin_series' b_i (i sign)^j / (j! e) for i < 16, j < J at quad of this
    sign, and for its error 36 eps times their moduli, then e |b_i| / (J! J (n - sigma))."""
    b = np.array(special.bessel_series(n))
    i, j = np.arange(b.size)[:, None], np.arange(_ORIGIN_TERMS)
    fact = np.cumprod(np.maximum(j, 1), dtype=float)
    coef = b[:, None] * (1j * sign) ** j / (fact * (n - sigma + 2.0 * i + 2.0 * j))
    omitted = math.e * np.abs(b) / (fact[-1] * _ORIGIN_TERMS * (n - sigma))
    return coef, np.column_stack([_EPS * (b.size + _ORIGIN_TERMS) * np.abs(coef), omitted])


def _origin_series(n: int, sigma: float, c, quad: float, r):
    """(values, errors) per row of S(r) = int_0^r s^{n/2-sigma} J_nu(c s) e^{i quad s^2} ds
    for c r <= 1, |quad| r^2 <= 1: sum_{i<16, j<J} b_i c^{2i+nu} (i quad)^j / j! r^e / e,
    e = n - sigma + 2i + 2j, b_i = special.bessel_series(n); the error bounds the
    omitted j >= J = _ORIGIN_TERMS (i >= 16: below 1e-36) and rounding."""
    coef, err_coef = _origin_table(n, sigma, math.copysign(1.0, quad))
    wi = ((c * r) ** 2)[:, None] ** np.arange(coef.shape[0])
    xj = (abs(quad) * r * r)[:, None] ** np.arange(_ORIGIN_TERMS + 1)
    scale = c ** special.order_from_dim(n) * r ** (n - sigma)
    return scale * ((wi @ coef) * xj[:, :-1]).sum(1), scale * ((wi @ err_coef) * xj).sum(1)


def _bessel_split_integral(n: int, sigma: float, c, quad: float, r_lo: float,
                           tol: float = 1e-9) -> Tuple[np.ndarray, np.ndarray]:
    """int_{r_lo}^infty r^{n/2-sigma} J_{(n-2)/2}(c r) e^{i quad r^2} dr for
    every entry of the array c; returns (values, error_estimates) per entry.

    From any r_lo below r1 = min(1/c, |quad|^{-1/2}), _origin_series gives
    [r_lo, r1] as S(r1) - S(r_lo), so every head starts near c r = 1; from
    r1 on, one special.bessel_split_integral (its split rule is there).
    quad may be negative (defocusing side); quad = 0 is rejected.
    """
    if quad == 0.0:
        raise ValueError("quadratic phase must be nonzero")
    nu = special.order_from_dim(n)
    c = np.array(c, dtype=float, ndmin=1)

    def head_f(r, row):
        return (r ** (n / 2.0 - sigma) * special.bessel_j(nu, c[row] * r)
                * np.exp(1j * (quad * r * r)))

    # up to r1 the integrand is r^{n-1-sigma} times two power series, summed
    # term by term, so no panel holds the branch point r = 0; both ends are
    # rows of one call, and a row with r1 = r_lo takes S(0) - S(0) = 0
    m, r1 = c.size, np.maximum(r_lo, np.minimum(1.0 / c, abs(quad) ** -0.5))
    hi = np.where(r1 > r_lo, r1, 0.0)
    s, e = _origin_series(n, sigma, np.tile(c, 2), quad, np.concatenate([hi, np.minimum(hi, r_lo)]))

    # r^{n/2-sigma} J_nu(c r) = r^{-sigma} c^{-n/2} z^{n/2} J_nu(z): both
    # tail rows of c carry c^{-1/2} r^{(n-1)/2-sigma}, real on the real axis
    scale, p = np.tile(c ** -0.5, 2), (n - 1) / 2.0 - sigma
    val, err = special.bessel_split_integral(
        n, head_f, lambda r, row: scale[row] * special.cpow(r, p), c, r1[:, None],
        c2=quad, s=-p, tol=tol)
    return val + (s[:m] - s[m:]), err + (e[:m] + e[m:])


def _chirp_values(datum: ChirpDatum, t: float, x_abs,
                  tol: float = 1e-9) -> Tuple[np.ndarray, np.ndarray]:
    """psi(x, t) and its error estimate at every |x| in the array x_abs."""
    if t <= 0 or t == 1.0:
        raise ValueError("need t > 0, t != 1 (the phase degenerates at t = 1)")
    n = datum.n
    x_abs = np.asarray(x_abs, dtype=float)
    if np.any(x_abs <= 0):
        raise ValueError("need x_abs > 0")
    quad = 1.0 / (4.0 * t) - 0.25          # = k_t^2 for t < 1, negative for t > 1
    val, err = _bessel_split_integral(n, datum.sigma, x_abs / (2.0 * t), quad, 1.0, tol=tol)
    pref, rnd = _prefactor(n, x_abs, t)
    pref = pref / (2.0 * math.sqrt(t))
    return pref * val, np.abs(pref) * err + rnd * np.abs(pref * val)


def chirp_solution(datum: ChirpDatum, t: float, x_abs: float,
                   tol: float = 1e-9) -> ComplexAmplitude:
    """psi(x, t) for the chirped datum, valid for 0 < t < 1 and t > 1."""
    val, err = _chirp_values(datum, t, [x_abs], tol)
    return ComplexAmplitude(complex(val[0]), float(err[0]))


# ---------------------------------------------------------------------------
# the limit profile and the rescaled collapse
# ---------------------------------------------------------------------------

@dataclass
class LimitProfile:
    datum: ChirpDatum
    z: np.ndarray
    v: np.ndarray              # V(z) samples
    err: np.ndarray


def limit_profile(datum: ChirpDatum, z_grid: Sequence[float],
                  tol: float = 1e-9) -> LimitProfile:
    """V(z) = (2z)^{(2-n)/2} |int_0^infty J_{(n-2)/2}(sz) s^{n/2-sigma} e^{is^2} ds|."""
    n = datum.n
    z_grid = np.asarray(z_grid, dtype=float)
    if np.any(z_grid <= 0):
        raise ValueError("z grid must be positive")
    val, err = _bessel_split_integral(n, datum.sigma, z_grid, 1.0, 0.0, tol=tol)
    vals = (2.0 * z_grid) ** ((2 - n) / 2.0) * np.abs(val)
    errs = (2.0 * z_grid) ** ((2 - n) / 2.0) * err
    if np.max(vals) <= 0.0:
        # one retry on a wider grid before reporting failure
        wide = np.geomspace(z_grid[0] / 10.0, z_grid[-1] * 10.0, 4 * z_grid.size)
        prof = limit_profile(datum, wide, tol)
        if np.max(prof.v) <= 0.0:
            raise RuntimeError("limit profile numerically zero on widened grid")
        return prof
    return LimitProfile(datum=datum, z=z_grid, v=vals, err=errs)


def rescaled_modulus(datum: ChirpDatum, t: float, z_grid) -> np.ndarray:
    """2 |psi(2 t k_t z, t)| k_t^{n-sigma}; collapses onto V(z) as t -> 1-."""
    frame = SelfSimilarFrame(t)
    val, _ = _chirp_values(datum, t, frame.x_of_z(z_grid))
    return 2.0 * np.abs(val) * frame.k ** (datum.n - datum.sigma)


def select_annulus(profile: LimitProfile, frac: float = 0.5) -> Tuple[float, float]:
    """Widest window [R1, R2] of the sampled grid with V >= frac * max V."""
    thresh = frac * float(np.max(profile.v))
    best = None
    i = 0
    v = profile.v
    while i < len(v):
        if v[i] >= thresh:
            j = i
            while j + 1 < len(v) and v[j + 1] >= thresh:
                j += 1
            if best is None or profile.z[j] - profile.z[i] > best[1] - best[0]:
                best = (float(profile.z[i]), float(profile.z[j]))
            i = j + 1
        else:
            i += 1
    if best is None or best[0] == best[1]:
        raise RuntimeError("no annulus with V above the threshold")
    return best


# ---------------------------------------------------------------------------
# L^q growth on the focusing annulus
# ---------------------------------------------------------------------------

def annulus_lq(datum: ChirpDatum, t: float, q: float, r1: float, r2: float,
               tol: float = 1e-9) -> float:
    """(int over R1 k_t <= ... annulus |psi|^q dx)^{1/q}, radial part only (angular
    measure dropped), on z-panels of the 16-node Gauss and 33-node Kronrod
    rules, doubled from one to 32 until the two agree to tol relative; a q or
    norm not positive and finite is a ValueError."""
    if not q > 0:
        raise ValueError(f"need q > 0, got {q:g}")
    if math.isinf(q):
        raise ValueError(f"need finite q, got {q:g}")
    frame = SelfSimilarFrame(t)

    def checked(norm):
        if not 0.0 < norm < INF:
            raise ValueError(f"annulus L^q norm at q = {q:g} is {norm:g}, not a positive finite number")
        return norm

    def density(z):
        xx = frame.x_of_z(z)
        a = np.abs(_chirp_values(datum, t, xx)[0])
        out = a ** q * xx ** (datum.n - 1) * 2.0 * t * frame.k
        if not np.isfinite(out).all():
            # an inf or NaN sum never agrees with its Gauss part: stop at the first
            checked(float(np.sum(out)))
        return out

    with np.errstate(all="ignore"):     # extreme q over- or underflows: checked
        vals = refine_rows(density, np.array([r1]), np.array([r2]), 1, 32, tol, nodes=16)[0]
        return checked(float(vals[0, 0] ** (1.0 / q)))


def lq_annulus_growth(datum: ChirpDatum, q: float,
                      t_grid: Optional[Sequence[float]] = None,
                      annulus: Optional[Tuple[float, float]] = None) -> DecayFit:
    """Fit of the annulus L^q norm against 1 - t = 4 t k_t^2 (exact identity).

    In the blow-up regime q > n/(n-sigma) the fitted exponent matches
    (n + (sigma-n) q) / (2q) (negative = growth as t -> 1).  Below the
    threshold the norm stays bounded and the fit reports exponent ~ 0.
    """
    n, sigma = datum.n, datum.sigma
    if t_grid is None:
        u = np.geomspace(1e-4, 0.1, 10)
        t_grid = 1.0 - u
    t_grid = np.asarray(sorted(t_grid))
    if annulus is None:
        prof = limit_profile(datum, np.geomspace(0.05, 20.0, 120), tol=1e-7)
        annulus = select_annulus(prof)
    r1, r2 = annulus
    us = 4.0 * t_grid * np.array([k_of_t(t) ** 2 for t in t_grid])   # = 1 - t
    vals = np.array([annulus_lq(datum, t, q, r1, r2) for t in t_grid])
    order = np.argsort(us)
    return _envelope_fit("time", us[order], vals[order])


def lq_growth_exponent(datum: ChirpDatum, q: float) -> float:
    """Closed-form exponent (n + (sigma-n) q) / (2 q)."""
    return (datum.n + (datum.sigma - datum.n) * q) / (2.0 * q)


def lq_blowup_threshold(datum: ChirpDatum) -> float:
    """Blow-up occurs in L^q exactly for q > n/(n - sigma)."""
    return datum.n / (datum.n - datum.sigma)


def lr_membership(datum: ChirpDatum, r: float) -> Tuple[bool, float]:
    """Whether the datum lies in L^r (iff sigma > n/r), and the radial integral
    int_1^infty r^{n-1-sigma r} dr = 1/(sigma r - n) in closed form (angular factor dropped)."""
    if not (r > 0):
        raise ValueError("need r > 0")
    p = datum.n - 1 - datum.sigma * r
    if p >= -1.0:
        return False, INF
    return True, -1.0 / (p + 1)


# ---------------------------------------------------------------------------
# Strichartz admissibility gate
# ---------------------------------------------------------------------------

@dataclass
class AdmissibilityVerdict:
    n: int
    p: float
    q: float
    r: float
    permitted: bool
    binding: str               # constraint that decided the verdict
    p_bound: float             # gate bound on p (inf = no finite bound)
    scaling_ok: bool


def _pos(x: float) -> float:
    return x if x > 0 else 0.0


def gate_p_bound(n: int, q: float, r: float) -> float:
    """max{ 2qr / (n((r-1)q - r)_+), 4q / (((n+3)q - 2n)_+) } with the
    convention value/0_+ = +inf (that term imposes no finite bound on p);
    q = inf and r = inf are handled as limits."""
    # first term 2qr / (n((r-1)q - r)_+)
    if math.isinf(q) and math.isinf(r):
        t1 = 2.0 / n
    elif math.isinf(q):
        t1 = INF if r <= 1.0 else 2.0 * r / (n * (r - 1.0))
    elif math.isinf(r):
        t1 = INF if q <= 1.0 else 2.0 * q / (n * (q - 1.0))
    else:
        d1 = _pos((r - 1.0) * q - r)
        t1 = INF if d1 == 0.0 else 2.0 * q * r / (n * d1)
    # second term 4q / (((n+3)q - 2n)_+)
    if math.isinf(q):
        t2 = 4.0 / (n + 3.0)
    else:
        d2 = _pos((n + 3.0) * q - 2.0 * n)
        t2 = INF if d2 == 0.0 else 4.0 * q / d2
    return max(t1, t2)


def scaling_ok(n: int, p: float, q: float, r: float, tol: float = 1e-9) -> bool:
    """2/p + n/q = n/r with 1/inf = 0."""
    inv = lambda v: 0.0 if math.isinf(v) else 1.0 / v
    return abs(2.0 * inv(p) + n * inv(q) - n * inv(r)) <= tol


def strichartz_gate(n: int, p: float, q: float, r: float) -> AdmissibilityVerdict:
    """Admissibility verdict for || . ||_{L^p_t L^q_x} <= C ||phi||_{L^r}.

    r <= 2: the classical conditions apply (p, q >= 2, scaling, the excluded
    endpoint (p,q,n) = (2,inf,2)).  r > 2: the focusing example forces
    p <= gate_p_bound(n, q, r); combined with scaling no pair survives.
    """
    for e, name in ((p, "p"), (q, "q"), (r, "r")):
        if not (1.0 <= e):
            raise ValueError(f"exponent {name} must be >= 1 (inf allowed)")
    s_ok = scaling_ok(n, p, q, r)
    bound = gate_p_bound(n, q, r)
    if not s_ok:
        return AdmissibilityVerdict(n, p, q, r, False, "scaling", bound, False)
    if r <= 2.0:
        if p < 2.0 or q < 2.0:
            return AdmissibilityVerdict(n, p, q, r, False, "p,q >= 2", bound, True)
        if p == 2.0 and math.isinf(q) and n == 2:
            return AdmissibilityVerdict(n, p, q, r, False,
                                        "endpoint (2,inf,2) excluded", bound, True)
        return AdmissibilityVerdict(n, p, q, r, True, "classical admissible",
                                    bound, True)
    if p > bound:
        return AdmissibilityVerdict(n, p, q, r, False, "focusing p-bound",
                                    bound, True)
    return AdmissibilityVerdict(n, p, q, r, True, "gate satisfied", bound, True)


def scaling_p(n: int, q: float, r: float) -> float:
    """p solving 2/p + n/q = n/r; inf when 1/p = 0, nan when no p >= 1 exists."""
    inv = (0.0 if math.isinf(r) else 1.0 / r) - (0.0 if math.isinf(q) else 1.0 / q)
    ip = 0.5 * n * inv
    if ip == 0.0:
        return INF
    if ip < 0.0 or ip > 1.0:
        return math.nan
    return 1.0 / ip


def forbidden_for_all_p(n: int, r: float, q_grid: Sequence[float]) -> bool:
    """True when every scaling-compatible (p, q) with q in q_grid is forbidden."""
    any_pair = False
    for q in q_grid:
        p = scaling_p(n, q, r)
        if math.isnan(p):
            continue
        any_pair = True
        if strichartz_gate(n, p, q, r).permitted:
            return False
    return any_pair
