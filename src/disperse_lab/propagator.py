"""Evaluation of the free radial Schrodinger flow.

The primary path evaluates the 1D oscillatory representation

    psi(x,t) = |x|^{(2-n)/2} t^{-1/2} e^{i(|x|^2/4t - n pi/4)}
               int_0^inf g(rho) e^{i rho^2} drho,
    g(rho) = phi_rad(2 sqrt(t) rho) (2 sqrt(t) rho)^{n/2}
             J_{(n-2)/2}(rho |x| / sqrt(t)),

splitting the Bessel kernel into its smooth-compact and oscillatory-
asymptotic parts beyond the compact region so every numerical piece is
non-oscillatory after contour rotation.  For unbounded data the real-axis
head covers rho in [0, rho_a], rho_a = 1.5 tail_start/gamma, where the
envelope may differ from tail_fn.  At |x|/sqrt(t) <= 2 everything beyond it
runs on steepest-descent rays through tail_fn and the complex J_nu, at a
cost that does not grow with t.  At |x|/sqrt(t) > 2 the rest is one
special.bessel_split_integral (its split rule is there), whose e^{-iz} row
passes its stationary point (beta - gamma omega)/2 on rays, at a cost that
does not grow with |x|.  An exact spectral oracle (n = 3) serves as an
independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import comb

from . import norms, special
from .profiles import RadialProfile, require_finite
from .quadrature import _EPS, osc_integral, refine_rows, rotated_tail


class DivergentTailError(ValueError):
    """Profile tail outside the admissible power-law window."""


@dataclass(frozen=True)
class EvalPoint:
    n: int
    x_abs: float
    t: float

    def __post_init__(self):
        special.order_from_dim(self.n)
        require_finite("evaluation point", x_abs=self.x_abs, t=self.t)
        if not (self.x_abs > 0 and self.t > 0):
            raise ValueError("need x_abs > 0 and t > 0")
        if not math.isfinite(self.x_abs * self.x_abs / (4.0 * self.t)):
            raise ValueError(f"phase x_abs^2/(4t) overflows at x_abs={self.x_abs:g}, "
                             f"t={self.t:g}")


@dataclass
class ComplexAmplitude:
    value: complex
    err_est: float


# above this x/sqrt(t), J_nu grows too fast off the real axis for the rays
_BETA_ROTATE = 2.0


def _frame(pt: EvalPoint):
    gamma = 2.0 * math.sqrt(pt.t)            # r = gamma * rho
    beta = pt.x_abs / math.sqrt(pt.t)        # z = beta * rho
    c = pt.x_abs / (2.0 * pt.t)              # z = c * r
    return gamma, beta, c


def _prefactor(n: int, x_abs, t: float):
    """(p, r): p = |x|^{(2-n)/2} t^{-1/2} e^{i(|x|^2/4t - n pi/4)}, x_abs may
    be an array, and r a bound on the relative rounding of p and of two more
    products with it: eps (8 + 2 (|x|^2/4t + n pi/4)), since the rounded
    phase errs by up to 1.5 eps times its parts."""
    phase = x_abs ** 2 / (4.0 * t)
    return (x_abs ** ((2 - n) / 2.0) / math.sqrt(t) * np.exp(1j * (phase - n * math.pi / 4.0)),
            _EPS * (8.0 + 2.0 * (phase + n * math.pi / 4.0)))


def evolve_radial(profile: RadialProfile, pt: EvalPoint,
                  tol: float = 1e-9) -> ComplexAmplitude:
    """psi(x, t) via the oscillatory representation formula."""
    n = pt.n
    nu = special.order_from_dim(n)
    gamma, beta, c = _frame(pt)
    pref, rnd = _prefactor(n, pt.x_abs, pt.t)

    def amplitude(val, err):
        return ComplexAmplitude(pref * val, abs(pref) * err + rnd * abs(pref * val))

    def g(rho):
        r = gamma * rho
        return profile.phi_rad(r) * r ** (n / 2.0) * special.bessel_j(nu, beta * rho)

    if profile.support is not None:
        rho_max = profile.support / gamma
        span = rho_max ** 2 + (abs(profile.omega) * gamma + beta) * rho_max
        val, err = osc_integral(lambda rho: g(rho) * np.exp(1j * rho * rho),
                                0.0, rho_max, span, tol)
        return amplitude(val, err)

    if profile.tail_alpha is None or profile.tail_fn is None:
        raise DivergentTailError(
            f"profile {profile.label} has unbounded support and no tail descriptor")
    if profile.tail_alpha <= (n - 3) / 2.0:
        raise DivergentTailError(
            f"tail exponent {profile.tail_alpha} <= (n-3)/2 = {(n - 3) / 2.0}: "
            "representation integral not convergent")

    # [0, rho_a] holds the band where the envelope may differ from tail_fn
    rho_a = profile.tail_start * 1.5 / gamma
    span_coef = abs(profile.omega) * gamma + beta

    def f(rho):
        return g(rho) * np.exp(1j * rho * rho)

    if beta <= _BETA_ROTATE:
        # everything beyond rho_a runs on rays with the exact J_nu, so
        # nothing is truncated and nothing grows with t
        head, err = osc_integral(f, 0.0, rho_a, rho_a ** 2 + span_coef * rho_a, tol)

        def h(rho, row):
            r = gamma * rho
            return (profile.tail_fn(r) * special.cpow(r, n / 2.0)
                    * special.bessel_j_c(nu, beta * rho))

        (tail,), (e_tail,) = rotated_tail(h, rho_a, profile.omega * gamma, tol=tol)
        return amplitude(head + tail, err + e_tail)

    # beyond the band, special.bessel_split_integral's head and Hankel rays
    # in z = beta rho: (gamma rho)^{n/2} J_nu(z) = c^{-n/2} z^{n/2} J_nu(z),
    # so the tail carries c^{-n/2} tail_fn z^{(n-1)/2}; |tail_fn| does not increase
    cn = c ** (-n / 2.0)

    def amp(rho, row):
        return cn * profile.tail_fn(gamma * rho) * special.cpow(beta * rho, (n - 1) / 2.0)

    (val,), (err,) = special.bessel_split_integral(n, lambda rho, row: f(rho), amp, beta,
                                                   [0.0, rho_a], gamma * profile.omega,
                                                   s=-(n - 1) / 2.0, tol=tol)
    return amplitude(val, err)


# ---------------------------------------------------------------------------
# exact spectral oracle (n = 3)
# ---------------------------------------------------------------------------

_ORACLE_L = 1536.0      # periodic domain [-L, L) of the odd extension
_ORACLE_N = 2 ** 20     # Fourier modes
# Mode k moves at speed 2|k|, so by time t the modes with |k| >= L/t have
# travelled once around the domain.  The error their wrap-around leaves at
# the probes reads 1-12x the square root of their share of int |u|^2 for
# bump data, so this share caps that error near 1e-11 of the scale.
_ORACLE_WRAP = 1e-24


@dataclass
class OracleRun:
    k: np.ndarray              # wavenumbers of the modes
    u0_hat: np.ndarray         # Fourier coefficients of u0 = r phi(|r|)
    times: frozenset           # requested times, cleared of wrap-around

    def at(self, t: float, x_abs: float) -> complex:
        """Trigonometric interpolation of u(., t) at x_abs, divided by x_abs."""
        if t not in self.times:
            raise KeyError(f"t = {t:g} was not requested")
        phase = np.exp(1j * (self.k * x_abs - self.k * self.k * t))
        return complex(np.dot(self.u0_hat, phase) / self.k.size / x_abs)


def evolve_oracle(profile: RadialProfile, n: int, times) -> OracleRun:
    """Exact free flow at n = 3, up to periodic wrap-around.

    u = r psi solves u_t = i u_rr with u(0) = 0, so the odd extension of
    u0 = r phi(|r|) to [-L, L) evolves mode by mode as e^{-i k^2 t}.  Raises
    ValueError where the modes that travel around the domain by a requested
    time hold more than _ORACLE_WRAP of the mass.
    """
    if n != 3:
        raise ValueError("the spectral oracle is exact only at n = 3")
    if profile.support is None:
        raise ValueError("oracle requires a compactly supported profile")
    r = np.fft.fftfreq(_ORACLE_N, 0.5 / _ORACLE_L)    # [0, L) then [-L, 0)
    k = 2.0 * np.pi * np.fft.fftfreq(_ORACLE_N, 2.0 * _ORACLE_L / _ORACLE_N)
    u0_hat = np.fft.fft(r * profile.phi_rad(np.abs(r)))
    mass = np.abs(u0_hat) ** 2
    times = frozenset(float(t) for t in times)
    for t in times:
        wrap = mass[np.abs(k * t) >= _ORACLE_L].sum() / mass.sum()
        if wrap > _ORACLE_WRAP:
            raise ValueError(f"oracle wrap-around at t = {t:g}: {wrap:.1e} "
                             "of the mass travels around the domain")
    return OracleRun(k=k, u0_hat=u0_hat, times=times)


# ---------------------------------------------------------------------------
# g-decomposition and the pointwise solution bound
# ---------------------------------------------------------------------------

@dataclass
class GDecomposition:
    pt: EvalPoint
    a1: float
    a2: float
    a3: float
    derivs: callable          # derivs(m, rho): order m of g1, g2, g3, shape (3, rho.size)


def decompose_g(profile: RadialProfile, pt: EvalPoint) -> GDecomposition:
    """Linear-phase-removed integrand pieces g_{j,a_j} at rho >= 0:
    c^{-n/2} phi_omega(gamma rho) times A_n, B_n and conj(B_n) at beta rho.
    Order m is the top Leibniz row of one envelope stack with the splitting
    stacks (special.splitting_stacks); at rho = 0, the one-sided limit."""
    n = pt.n
    gamma, beta, c = _frame(pt)
    cn = c ** (-n / 2.0)
    a1 = gamma * profile.omega
    a2 = gamma * (profile.omega + pt.x_abs / (2.0 * pt.t))
    a3 = gamma * (profile.omega - pt.x_abs / (2.0 * pt.t))

    def derivs(m, rho):
        # sum_j C(m, j) gamma^j phi^{(j)}(gamma rho) beta^{m-j} s^{(m-j)}(beta rho)
        rho = np.asarray(rho, dtype=float).ravel()
        j = np.arange(m + 1)
        env = (cn * comb(m, j) * gamma ** j * beta ** (m - j))[:, None] * profile.derivs(m, gamma * rho)
        a, b = (s[::-1] for s in special.splitting_stacks(n, special.HANKEL_K, m, beta * rho))
        return np.array([(env * a).sum(0), (env * b).sum(0), (env * b.conj()).sum(0)])

    return GDecomposition(pt=pt, a1=a1, a2=a2, a3=a3, derivs=derivs)


def g_abs_integrals(profile: RadialProfile, pt: EvalPoint, m: int) -> np.ndarray:
    """int_0^inf |g_j^{(m)}(rho)| drho for j = 1, 2, 3: the columns of one
    norms.certified_integrals call over rho on the exact stacks of
    decompose_g, certified on the octave panels and inf where divergent.
    Supported data vanish beyond the support's image rho = support/gamma,
    so the columns are zero there without an evaluation; that end and the
    cutoff ends 1/(2 beta) and 1/beta are panel edges.  A panel left at the
    subpanel cap adds its last |change|, so each value errs upward."""
    gamma, beta, _ = _frame(pt)
    dec = decompose_g(profile, pt)
    hi = math.inf if profile.support is None else profile.support / gamma

    def columns(rho):
        out = np.zeros((3, rho.size))
        live = rho <= hi
        out[:, live] = np.abs(dec.derivs(m, rho[live]))
        return out

    totals, _, deltas = norms.certified_integrals(columns, [0.5 / beta, 1.0 / beta, hi])
    return totals + deltas


def solution_bound(profile: RadialProfile, pt: EvalPoint, m: int) -> float:
    """Computable right side of the pointwise estimate

        |psi| <= C_{m-1} |x|^{(2-n)/2} t^{-1/2}
                 (delta_{m,n} |g1^{(n-1)}(0)| + sum_j int |g_j^{(m)}|),

    with the integrals of g_abs_integrals, certified on the octave panels;
    inf when one of them diverges.
    """
    n = pt.n
    if m < 0 or m > n:
        raise ValueError(f"need 0 <= m <= n, got m={m}")
    total = float(np.sum(g_abs_integrals(profile, pt, m)))
    boundary = abs(decompose_g(profile, pt).derivs(n - 1, 0.0)[0, 0]) if m == n else 0.0
    const = special.solution_constant(m)
    return float(const * pt.x_abs ** ((2 - n) / 2.0) / math.sqrt(pt.t)
                 * (boundary + total))


def _mass(f, r_max: float, t: float, tol: float = 3e-6) -> float:
    """int_0^r_max f(r) dr by composite Gauss-Kronrod with panel doubling
    up to 1024 panels, until the Gauss and Kronrod sums agree to tol
    relative; the panel width starts at the interference scale ~4t of the
    evolved modulus."""
    start = max(8, int(r_max / max(4.0 * t, 0.5)))
    vals = refine_rows(f, np.zeros(1), np.array([float(r_max)]), start, 1024, tol)[0]
    return float(vals[0, 0].real)


def solution_mass(profile: RadialProfile, n: int, t: float, r_max: float,
                  tol: float = 3e-6) -> float:
    """int_0^r_max |psi(r, t)|^2 r^{n-1} dr via the representation formula."""
    def f(xs):
        vals = np.array([abs(evolve_radial(profile, EvalPoint(n, x, t)).value) ** 2
                         for x in xs])
        return vals * xs ** (n - 1)

    return _mass(f, r_max, t, tol)


def initial_mass(profile: RadialProfile, n: int, r_max: float) -> float:
    """int_0^r_max |phi(r)|^2 r^{n-1} dr, refined as solution_mass at t = 0."""
    return _mass(lambda r: np.abs(profile.phi_rad(r)) ** 2 * r ** (n - 1), r_max, 0.0)
