"""Bessel functions, the smooth/oscillatory splitting A_n/B_n, its Hankel
pieces on tails (hankel_tail, for propagator, blowup and appendix) and
iterated Fresnel tail integrals.

Bessel values come from scipy.special: the Cephes j0/j1 at orders 0 and 1
for z <= 100, the spherical Bessel function at half-integer order from 3/2,
and the AMOS routine (jv) at every other order, beyond z = 100 and at
complex argument.  J_{1/2}(z) = sin z sqrt(2/(pi z)) is in closed form, at
real and complex z.  The iterated Fresnel integrals Xi^m_a(s) are one call of
quadrature.rotated_tail for every real s and a: its rays pass the
stationary point -a/2 when it lies beyond s.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.special import beta, j0, j1, jv, spherical_jn

from .quadrature import rotated_tail

# ---------------------------------------------------------------------------
# cutoff function chi
# ---------------------------------------------------------------------------

def _bump_f(u):
    """exp(-1/u) for u > 0, 0 otherwise (vectorized)."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    pos = u > 0
    out[pos] = np.exp(-1.0 / u[pos])
    return out


def cutoff_chi(z):
    """Smooth cutoff: 1 on (-inf, 1/2], 0 on [1, inf), symmetric about 3/4.

    The interpolant on (1/2, 1) is S(2(1-z)) with S(u) = f(u)/(f(u)+f(1-u)),
    f(u) = exp(-1/u) for u > 0.
    """
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.zeros_like(z)
    out[z <= 0.5] = 1.0
    mid = (z > 0.5) & (z < 1.0)
    if np.any(mid):
        u = 2.0 * (1.0 - z[mid])
        fu = _bump_f(u)
        fv = _bump_f(1.0 - u)
        out[mid] = fu / (fu + fv)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Bessel J_nu
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def hankel_symbol(two_nu_sq4: int, k: int) -> Fraction:
    """(nu, k) = prod_{i=1}^{k} (4 nu^2 - (2i-1)^2) / (4^k k!) exactly.

    Keyed by 4*nu^2 (an integer whenever nu = (n-2)/2 with integer n).
    """
    num = 1
    for i in range(1, k + 1):
        num *= two_nu_sq4 - (2 * i - 1) ** 2
    return Fraction(num, 4 ** k * math.factorial(k))


# Cephes j0/j1 cost a tenth of jv per point, but their phase reduction
# loses about eps*z: 6e-15 at z = 100, 4e-12 at z = 1e5
_CEPHES_MAX = 100.0


def bessel_j(nu: float, z):
    """Bessel function of the first kind J_nu(z) for z >= 0, nu >= -1/2.

    Orders 0 and 1 (n = 2, 4) go through Cephes j0/j1 for z <= _CEPHES_MAX;
    nu = 1/2 (n = 3) is the closed form sin z sqrt(2/(pi z)); half-integer
    orders nu >= 3/2 through the spherical Bessel function,
    sqrt(2z/pi) j_{nu-1/2}(z); every other order and argument through the
    AMOS routine behind scipy.special.jv.
    """
    if nu < -0.5:
        raise ValueError(f"order {nu} < -1/2 not supported")
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("bessel_j requires z >= 0")
    ell = nu - 0.5
    if ell == 0:
        # sin 0 = 0 times a finite stand-in root at z = 0: no warning
        out = np.sin(z) * np.sqrt(2.0 / math.pi / np.where(z > 0, z, 1.0))
    elif ell > 0 and ell == int(ell):
        out = np.sqrt(2.0 * z / math.pi) * spherical_jn(int(ell), z)
    elif nu == 0.0 or nu == 1.0:
        out = np.asarray((j0 if nu == 0.0 else j1)(z))
        far = z > _CEPHES_MAX
        if np.any(far):
            out[far] = jv(nu, z[far])
    else:
        out = jv(nu, z)
    return float(out) if out.ndim == 0 else out


def bessel_j_c(nu: float, z):
    """J_nu(z) for complex z (principal branch, off the cut z <= 0); J_{1/2}
    in closed form, every other order through AMOS jv."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    out = np.sin(z) * np.sqrt(2.0 / math.pi / z) if nu == 0.5 else jv(nu, z)
    return out if out.shape != (1,) else complex(out[0])


def order_from_dim(n: int) -> float:
    if int(n) != n or n < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {n}")
    return (n - 2) / 2.0


# ---------------------------------------------------------------------------
# splitting z^{n/2} J = A_n + e^{iz} B_n + e^{-iz} conj(B_n)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplittingCoeffs:
    n: int
    K: int
    alpha: tuple          # complex alpha_0 .. alpha_K
    prefactor: complex    # e^{-i(n-1)pi/4}


@lru_cache(maxsize=None)
def alpha_coeffs(n: int, K: int) -> SplittingCoeffs:
    """Coefficients alpha_k = (2 pi)^{-1/2} (nu, k) (i/2)^k with nu=(n-2)/2."""
    if n < 2 or int(n) != n:
        raise ValueError("need integer dimension n >= 2")
    if K < 0:
        raise ValueError("need K >= 0")
    four_nu2 = (n - 2) ** 2
    alpha = [(1.0 / math.sqrt(2.0 * math.pi)) * float(hankel_symbol(four_nu2, k)) * (0.5j) ** k
             for k in range(K + 1)]
    pref = cmath.exp(-1j * (n - 1) * math.pi / 4.0)
    return SplittingCoeffs(n=int(n), K=int(K), alpha=tuple(alpha), prefactor=pref)


def splitting_A(n: int, z):
    """A_n(z) = chi(z) z^{n/2} J_{(n-2)/2}(z); supported in [0, 1]."""
    nu = order_from_dim(n)
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.zeros_like(z)
    live = z < 1.0
    if np.any(live):
        zl = z[live]
        out[live] = cutoff_chi(zl) * zl ** (n / 2.0) * bessel_j(nu, zl)
    return float(out[0]) if scalar else out


def hankel_sum(alpha, z):
    """sum_k alpha_k z^{-k} by Horner's rule in 1/z, up to the last nonzero
    alpha_k (at odd n the Hankel series terminates)."""
    last = max(k for k, a in enumerate(alpha) if a != 0)
    acc = np.full(np.shape(z), alpha[last], dtype=complex)
    if last:
        w = 1.0 / np.asarray(z, dtype=complex)
        for a in reversed(alpha[:last]):
            acc *= w
            acc += a
    return acc


def splitting_B_series(coeffs: SplittingCoeffs, z):
    """Truncated asymptotic sum e^{-i(n-1)pi/4} sum_k alpha_k z^{(n-1)/2-k}.

    No cutoff applied; valid for complex z away from the branch cut.
    """
    z = np.asarray(z, dtype=complex)
    return coeffs.prefactor * z ** ((coeffs.n - 1) / 2.0) * hankel_sum(coeffs.alpha, z)


def splitting_B_series_conj(coeffs: SplittingCoeffs, z):
    """Analytic continuation of conj(B_n) off the real axis: conjugate
    coefficients, same powers of z."""
    z = np.asarray(z, dtype=complex)
    return (np.conj(coeffs.prefactor) * z ** ((coeffs.n - 1) / 2.0)
            * hankel_sum(np.conj(coeffs.alpha), z))


def splitting_B(n: int, K: int, z):
    """B_n(z) = (1-chi(z)) e^{-i(n-1)pi/4} sum_{k<=K} alpha_k z^{(n-1)/2-k}."""
    coeffs = alpha_coeffs(n, K)
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.zeros(z.shape, dtype=complex)
    live = z > 0.5
    if np.any(live):
        w = 1.0 - cutoff_chi(z[live])
        out[live] = w * splitting_B_series(coeffs, z[live].astype(complex))
    return complex(out[0]) if scalar else out


HANKEL_K = 8    # Hankel terms kept by hankel_tail and the pointwise bounds


def hankel_tail(n: int, amp, b, rho0, a, c2: float = 1.0, delta=0.0, s: float = 0.0,
                tol: float = 1e-9):
    """Per row (b, rho0, a, delta), one Hankel piece of z^{n/2} J_nu(z),
    z = |b| rho, on a tail, by one rotated_tail call for all rows (to tol):

        int_rho0^inf (rho - rho0)^{-delta} amp(rho, row) P_b
            sum_{k<=8} alpha_k (b rho)^{-k} e^{i(c2 rho^2 + (a + b) rho)} drho.

    P_b = e^{-+i(n-1)pi/4}: b > 0 is the e^{iz} B_n piece, b < 0 the e^{-iz}
    conj(B_n) one, whose sum is at -z as conj(alpha_k) = (-1)^k alpha_k.
    amp carries z^{(n-1)/2} and the caller's factor, takes complex rho and
    obeys |amp(rho)| <= |amp(rho0)| (rho0/rho)^s.  Returns (values, errors);
    the errors add the truncation |alpha_9| (|b| rho)^{-9} |amp(rho)|,
    integrated over the tail in closed form.
    """
    coeffs = alpha_coeffs(n, HANKEL_K + 1)
    alpha, omitted = coeffs.alpha[:-1], abs(coeffs.alpha[-1])
    b, rho0, a, delta = (np.array(v, dtype=float, ndmin=1)
                         for v in np.broadcast_arrays(b, rho0, a, delta))
    pref = np.where(b > 0, coeffs.prefactor, np.conj(coeffs.prefactor))

    def h(rho, row):
        return amp(rho, row) * pref[row] * hankel_sum(alpha, b[row] * rho)

    values, errs = rotated_tail(h, rho0, a + b, c2, delta, tol)
    if omitted:
        # int_rho0^inf (rho - rho0)^{-delta} (rho0/rho)^{9+s} drho
        #   = rho0^{1-delta} B(1 - delta, 8 + s + delta)
        decay = HANKEL_K + s + delta
        span = np.where(decay > 0, rho0 ** (1.0 - delta) * beta(1.0 - delta, decay), math.inf)
        errs = errs + (np.abs(amp(rho0.astype(complex), np.arange(b.size))) * omitted
                       * (np.abs(b) * rho0) ** -(HANKEL_K + 1.0) * span)
    return values, errs


def k_max(z: float) -> int:
    """Optimal-truncation guard for the divergent asymptotic series."""
    return min(int(math.floor(z)) - 1, 12)


def splitting_residual(n: int, K: int, z: float) -> float:
    """|z^{n/2} J - A_n - 2 Re(e^{iz} B_n^{(K)})| in the asymptotic regime."""
    if z < 2.0:
        raise ValueError("splitting_residual requires z >= 2")
    if K > k_max(z):
        raise ValueError(f"K={K} beyond divergence threshold K_max({z})={k_max(z)}")
    nu = order_from_dim(n)
    lhs = z ** (n / 2.0) * bessel_j(nu, z)
    b = splitting_B(n, K, z)
    rhs = splitting_A(n, z) + 2.0 * (cmath.exp(1j * z) * b).real
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# iterated Fresnel integrals Xi^m_a
# ---------------------------------------------------------------------------

_FRESNEL_TOL = 1e-11    # the Fresnel iterates' rays agree to this relative


def fresnel_xi(m: int, a: float, s):
    """Xi^m_a(s) = int_s^inf (rho - s)^m / m! e^{i(rho^2 + a rho)} drho, the
    m-fold iterated tail integral of e^{i(rho^2 + a rho)}; any real s, and
    0 <= m <= 170, past which m! overflows a float.  One rotated_tail row
    per s, to _FRESNEL_TOL; a stationary point -a/2 beyond s is passed on
    rays."""
    if m < 0 or int(m) != m or m > 170:
        raise ValueError(f"need integer 0 <= m <= 170 (m! overflows a float past 170), got {m}")
    s = np.asarray(s, dtype=float)
    rows = np.atleast_1d(s)
    fact = math.factorial(m)
    out, _ = rotated_tail(lambda rho, row: (rho - rows[row]) ** m / fact, rows, a,
                          tol=_FRESNEL_TOL)
    return complex(out[0]) if s.ndim == 0 else out


_A_GRID = (-100.0, -10.0, -1.0, 0.0, 1.0, 10.0, 100.0)


@lru_cache(maxsize=None)
def xi_bound_constant(m: int) -> float:
    """Empirical sup of |Xi^m_a(s)| over a in the reference grid, s in [0,50]."""
    s = np.linspace(0.0, 50.0, 801)
    return max(float(np.max(np.abs(fresnel_xi(m, a, s)))) for a in _A_GRID)


def solution_constant(m: int) -> float:
    """C_{m-1} used by the pointwise solution bound; C_{-1} := C_0 table entry."""
    return xi_bound_constant(max(m, 0))
