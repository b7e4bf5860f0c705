"""Evaluation of the free radial Schrodinger flow.

The primary path evaluates the 1D oscillatory representation

    psi(x,t) = |x|^{(2-n)/2} t^{-1/2} e^{i(|x|^2/4t - n pi/4)}
               int_0^inf g(rho) e^{i rho^2} drho,
    g(rho) = phi_rad(gamma rho) (gamma rho)^{n/2} J_{(n-2)/2}(beta rho),

where only gamma = 2 sqrt(t) and beta = |x|/sqrt(t) change from point to
point: evolve_rows takes a grid of points as rows of the quadrature
drivers, one call per regime present, and evolve_radial is its one-point
call.  The real-axis head runs on rows between the profile's break radii,
from the first, to the support's image or, for unbounded data, to rho_a =
1.5 tail_start/gamma, where the envelope may differ from tail_fn.  At beta
<= 2 everything beyond it runs on steepest-descent rays through tail_fn
and the complex J_nu, at a cost that does not grow with t.  At beta > 2
the rest is one special.bessel_split_integral (its split rule is there),
whose e^{-iz} row passes its stationary point (beta - gamma omega)/2 on
rays, at a cost that does not grow with |x|.  An exact spectral oracle
(n = 3) serves as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import comb

from . import norms, special
from .profiles import RadialProfile, require_finite
from .quadrature import _EPS, osc_integral_rows, refine_rows, rotated_tail


class DivergentTailError(ValueError):
    """Profile tail outside the admissible power-law window."""


def check_points(n: int, x_abs, t):
    """(x_abs, t) as float arrays broadcast against each other: the package's one
    check of evaluation points.  ValueError unless n is a dimension (order_from_dim)
    and all x_abs > 0, t > 0 and x_abs^2/(4t) are finite, naming the first bad point."""
    special.order_from_dim(n)
    x, t = np.asarray(x_abs, dtype=float), np.asarray(t, dtype=float)
    if x.shape != t.shape:
        x, t = np.broadcast_arrays(x, t)
    with np.errstate(all="ignore"):
        ok = (x > 0) & (t > 0) & np.isfinite(t) & np.isfinite(x * x / (4.0 * t))
    if np.count_nonzero(ok) < ok.size:
        xi, ti = x.flat[np.argmin(ok)], t.flat[np.argmin(ok)]
        require_finite("evaluation point", x_abs=xi, t=ti)
        why = ("phase x_abs^2/(4t) overflows at" if xi > 0 and ti > 0
               else "need x_abs > 0 and t > 0, got")
        raise ValueError(f"{why} x_abs={xi:g}, t={ti:g}")
    return x, t


@dataclass(frozen=True)
class EvalPoint:
    n: int
    x_abs: float
    t: float

    def __post_init__(self):
        check_points(self.n, self.x_abs, self.t)


@dataclass
class ComplexAmplitude:
    value: complex
    err_est: float


# above this x/sqrt(t), J_nu grows too fast off the real axis for the rays
_BETA_ROTATE = 2.0


def _frame(x_abs, t):
    """(gamma, beta, c): r = gamma rho, z = beta rho = c r; math.sqrt at numbers (one point)."""
    root = np.sqrt(t) if isinstance(t, np.ndarray) else math.sqrt(t)
    return 2.0 * root, x_abs / root, x_abs / (2.0 * t)


def _prefactor(n: int, x_abs, t):
    """(p, r): p = |x|^{(2-n)/2} t^{-1/2} e^{i(|x|^2/4t - n pi/4)}, x_abs and t
    numbers or arrays, and r a bound on the relative rounding of p and of two
    more products with it: eps (8 + 2 (|x|^2/4t + n pi/4)), since the rounded
    phase errs by up to 1.5 eps times its parts."""
    phase = x_abs ** 2 / (4.0 * t)
    return (x_abs ** ((2 - n) / 2.0) / np.sqrt(t) * np.exp(1j * (phase - n * math.pi / 4.0)),
            _EPS * (8.0 + 2.0 * (phase + n * math.pi / 4.0)))


def _by_row(v, copies: int = 1, k: int = 1):
    """Row id -> the row's entry of v, for rows that take each entry k times
    in turn, the run `copies` times over; a number v for all rows (one point)."""
    return np.tile(v.repeat(k), copies).__getitem__ if isinstance(v, np.ndarray) else lambda row: v


def evolve_rows(profile: RadialProfile, n: int, x_abs, t, tol: float = 1e-9):
    """(values, err_est) of psi at the points (x_abs, t), which broadcast
    against each other, as two arrays of their shape, by one driver call per
    regime present; check_points checks the points."""
    x, t = check_points(n, x_abs, t)
    far = (x / np.sqrt(t) > _BETA_ROTATE) & (profile.support is None)
    values, errs = np.empty(x.shape, dtype=complex), np.empty(x.shape)
    for flag in np.unique(far):              # the regimes present
        i = np.flatnonzero(far == flag)
        values.flat[i], errs.flat[i] = _regime(profile, n, x.flat[i], t.flat[i], tol, flag)
    return values, errs


def evolve_radial(profile: RadialProfile, pt: EvalPoint,
                  tol: float = 1e-9) -> ComplexAmplitude:
    """psi(x, t) at one point, checked when pt was made: the one-point call
    of evolve_rows."""
    x, t = float(pt.x_abs), float(pt.t)
    far = profile.support is None and x / math.sqrt(t) > _BETA_ROTATE
    return ComplexAmplitude(*_regime(profile, pt.n, x, t, tol, far))


def _regime(profile: RadialProfile, n: int, x, t, tol: float, far: bool):
    """psi and its estimate at points of one regime: compact data, unbounded
    data at x/sqrt(t) <= 2, or (far) beyond; x and t 1-D arrays or, for one
    point, numbers.  Each per-point constant is formed once, a number for
    one point, else an array over the points."""
    if profile.support is None:
        if profile.tail_alpha is None or profile.tail_fn is None:
            raise DivergentTailError(
                f"profile {profile.label} has unbounded support and no tail descriptor")
        if profile.tail_alpha <= (n - 3) / 2.0:
            raise DivergentTailError(
                f"tail exponent {profile.tail_alpha} <= (n-3)/2 = {(n - 3) / 2.0}: "
                "representation integral not convergent")
    nu = (n - 2) / 2.0
    gamma, beta, c = _frame(x, t)

    def per_point(v, rows=1):
        # a driver's output, row j of point i at j P + i, as the constants are
        return v.reshape(rows, -1) if isinstance(x, np.ndarray) else v.tolist()

    def head(**layout):
        # g(rho) e^{i rho^2}, rows -> points as _by_row(., **layout) has them
        gam, bet = _by_row(gamma, **layout), _by_row(beta, **layout)

        def f(rho, row):
            r = gam(row) * rho
            return (profile.phi_rad(r) * r ** (n / 2.0) * special.bessel_j(nu, bet(row) * rho)
                    * np.exp(1j * rho * rho))
        return f

    # the head's k rows, between the break radii below its end, from the
    # first: the envelope is analytic on each, so each passes at its first rule
    top = profile.support if profile.support is not None else profile.tail_start * 1.5
    edges = [r / gamma for r in profile.breaks if r < top] + [top / gamma]
    k = len(edges) - 1
    if far:
        # special.bessel_split_integral's head and Hankel rays in z = beta
        # rho: (gamma rho)^{n/2} J_nu(z) = c^{-n/2} z^{n/2} J_nu(z), c = x/2t,
        # so its tail rows (each point twice) carry c^{-n/2} tail_fn
        # z^{(n-1)/2}; |tail_fn| does not increase
        cn, gam, bet = (_by_row(v, copies=2) for v in (c ** (-n / 2.0), gamma, beta))
        val, err = (per_point(v)[0] for v in special.bessel_split_integral(
            n, head(k=k + 1), lambda rho, row: (cn(row) * profile.tail_fn(gam(row) * rho)
                                                * special.cpow(bet(row) * rho, (n - 1) / 2.0)),
            beta, np.transpose(edges), gamma * profile.omega, s=-(n - 1) / 2.0, tol=tol))
    else:
        val = err = 0.0
        if k:
            coef = abs(profile.omega) * gamma + beta
            span = [b * b - a * a + coef * (b - a) for a, b in zip(edges, edges[1:])]
            vals, errs = osc_integral_rows(head(copies=k), edges[:-1], edges[1:], span, tol)
            # each point's rows, summed left to right
            val, err = sum(per_point(vals, k)), sum(per_point(errs, k))
        if profile.support is None:
            # everything beyond rho_a runs on rays with the exact J_nu, so
            # nothing is truncated and nothing grows with t
            gam, bet = _by_row(gamma), _by_row(beta)

            def h(rho, row):
                r = gam(row) * rho
                return (profile.tail_fn(r) * special.cpow(r, n / 2.0)
                        * special.bessel_j_c(nu, bet(row) * rho))

            tail, e_tail = (per_point(v)[0] for v in rotated_tail(
                h, edges[-1], profile.omega * gamma, tol=tol))
            val, err = val + tail, err + e_tail
    pref, rnd = _prefactor(n, x, t)
    return pref * val, abs(pref) * err + rnd * abs(pref * val)


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
    gamma, beta, c = _frame(pt.x_abs, pt.t)
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
    cutoff ends 1/(2 beta) and 1/beta are panel edges, and the panels are
    cut at the sign changes of each g_j^{(m)}, of constant phase where real
    data make it so (g_2, g_3 at odd n).  A panel left at the subpanel cap
    adds its last |change|, so each value errs upward."""
    gamma, beta, _ = _frame(pt.x_abs, pt.t)
    dec = decompose_g(profile, pt)
    hi = math.inf if profile.support is None else profile.support / gamma

    def stack(rho):
        out = np.zeros((3, rho.size), dtype=complex)
        live = rho <= hi
        out[:, live] = dec.derivs(m, rho[live])
        return out

    totals, _, deltas = norms.certified_integrals(lambda rho: np.abs(stack(rho)),
                                                  [0.5 / beta, 1.0 / beta, hi], kinks=stack)
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
        return np.abs(evolve_rows(profile, n, xs, t)[0]) ** 2 * xs ** (n - 1)

    return _mass(f, r_max, t, tol)


def initial_mass(profile: RadialProfile, n: int, r_max: float) -> float:
    """int_0^r_max |phi(r)|^2 r^{n-1} dr, refined as solution_mass at t = 0."""
    return _mass(lambda r: np.abs(profile.phi_rad(r)) ** 2 * r ** (n - 1), r_max, 0.0)
