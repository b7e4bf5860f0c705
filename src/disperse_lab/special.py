"""Bessel functions, the smooth/oscillatory splitting A_n/B_n, its Hankel
pieces on tails (hankel_tail), the split-Bessel integral of propagator and
blowup (bessel_split_integral: a real-axis head, then hankel_tail) and
iterated Fresnel tail integrals.

Derivatives are exact stacks, (k+1, N) arrays of orders 0..k at N nodes:
leibniz, exp_stack and power_sum give those of chi and of A_n, B_n.

Bessel values come from scipy.special: the Cephes j0/j1 at orders 0 and 1
for z <= 100, the spherical Bessel function at half-integer order from 3/2,
and the AMOS routine (jv) at every other order and at complex argument;
beyond z = 100, J_0 and J_1 are B_n's Hankel series at n = 2 and 4.
J_{1/2}(z) = sin z sqrt(2/(pi z)) is in closed form, at real and complex
z.  The iterated Fresnel integrals Xi^m_a(s) are one call of
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

from .quadrature import osc_integral_rows, rotated_tail

# ---------------------------------------------------------------------------
# derivative stacks, and those of the cutoff chi
# ---------------------------------------------------------------------------

def leibniz(a, b):
    """Stack of the product f g from the stacks a of f and b of g."""
    out = a * b[0]
    for m in range(1, len(a)):
        for j in range(m):
            out[m] += math.comb(m, j) * a[j] * b[m - j]
    return out


def exp_stack(phi):
    """Stack of e^phi: E_k = sum_{j<k} C(k-1, j) E_j phi_{k-j} (Bell)."""
    out = [np.exp(phi[0])]
    for k in range(1, len(phi)):
        out.append(sum(math.comb(k - 1, j) * out[j] * phi[k - j] for j in range(k)))
    return np.array(out)


@lru_cache(maxsize=None)
def _power_rows(d: tuple, p: float, s: float, k: int):
    """Rows 0..k of power_sum(d, p, s, k, .), each None where its terms all
    vanish, else the power of z that multiplies it and its Horner
    coefficients from the top; and the stack's dtype."""
    expo, coef, rows = p + s * np.arange(len(d)), np.array(d), []
    for j in range(k + 1):
        live = np.flatnonzero(coef)
        rows.append((expo[live[0]] - j, coef[live[0]:live[-1] + 1][::-1].tolist())
                    if live.size else None)
        coef = coef * (expo - j)
    return tuple(rows), np.result_type(coef, float)


def power_sum(d, p: float, s: float, k: int, z):
    """Stack of sum_i d_i z^{p+si} at z > 0 (z >= 0 if each p+si is a whole
    number >= 0): row j is a Horner sum in z^s of d_i (p+si)(p+si-1)..
    (p+si-j+1) from its first nonzero term, times z^{that term's p+si - j}."""
    rows, dtype = _power_rows(tuple(d), p, s, k)
    zs, out = z ** s, np.zeros((k + 1, z.size), dtype=dtype)
    for acc, row in zip(out, rows if z.size else ()):
        if row:
            e, coef = row
            acc += coef[0]
            for c in coef[1:]:
                acc *= zs
                acc += c
            if e:
                acc *= z ** e
    return out


def cutoff_chi_stack(k: int, z):
    """Stacks of the smooth cutoff chi (1 on [0, 1/2], 0 on [1, inf)) and of
    1 - chi at z in (1/2, 1), where chi = 1/(1+e^w),
    w = 1/(2(1-z)) - 1/(2z-1): with q = e^{-|w|} (Bell) and R = 1/(1+q),
    R_j = -R_0 sum_{i<=j} C(j,i) q_i R_{j-i}, the larger is R and the smaller
    q R = 1 - R, so nothing overflows or cancels."""
    a, b = 1.0 / (1.0 - z), 1.0 / (2.0 * z - 1.0)
    j = np.arange(k + 1)[:, None]
    w = (np.cumprod(np.maximum(j, 1), axis=0) * (0.5 * a ** (j + 1) - (-2.0) ** j * b ** (j + 1))
         if k else (0.5 * a - b)[None])      # k = 0: row 0 without the cost of array powers
    pos = w[0] > 0.0
    q = exp_stack(np.where(pos, -w, w))
    big = [1.0 / (1.0 + q[0])]
    for m in range(1, k + 1):
        big.append(-big[0] * sum(math.comb(m, i) * q[i] * big[m - i] for i in range(1, m + 1)))
    big = np.array(big)
    small = -big
    small[0] = q[0] * big[0]
    return np.where(pos, small, big), np.where(pos, big, small)


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

    Orders 0 and 1 (n = 2, 4) go through Cephes j0/j1 for z <= _CEPHES_MAX,
    past it through B_n's Hankel series; nu = 1/2 (n = 3) is the closed form
    sin z sqrt(2/(pi z)); half-integer orders nu >= 3/2 through the spherical
    Bessel function, sqrt(2z/pi) j_{nu-1/2}(z); every other order through
    the AMOS routine behind scipy.special.jv.
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
        far = z > _CEPHES_MAX
        some = np.any(far)
        out = np.asarray((j0 if nu == 0.0 else j1)(np.where(far, 0.0, z) if some else z))
        if some:
            # 2 z^{-1/2} Re(e^{iz} sum_k terms_k z^{-k}), B_n's Hankel series at
            # n = 2 nu + 2: within 1e-15 of sqrt(2/(pi z)), a quarter of jv's cost
            zf = z[far]
            s = hankel_sum(alpha_coeffs(int(2 * nu) + 2, HANKEL_K).terms, zf)
            out[far] = 2.0 / np.sqrt(zf) * (np.cos(zf) * s.real - np.sin(zf) * s.imag)
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
    """Bessel order (n-2)/2; the package's one check that n is an integer >= 2."""
    if not (2 <= n < math.inf and int(n) == n):
        raise ValueError(f"dimension must be an integer >= 2, got {n:g}")
    return (n - 2) / 2.0


def cpow(z, p: float):
    """Principal z^p (numpy's branch), complex z, real p: numpy's integer power
    at whole p, times one complex sqrt at half-integer p, else |z|^p (cos + i sin)
    (p arg z) in real arithmetic; numpy's z ** p by a float is 2-4x dearer off 1/2."""
    z = np.asarray(z, dtype=complex)
    k = math.floor(p)
    if p == k:
        return z ** k
    if p - k == 0.5:
        return np.sqrt(z) * z ** k if k else np.sqrt(z)
    ang, mag, out = p * np.arctan2(z.imag, z.real), np.abs(z) ** p, np.empty_like(z)
    np.multiply(mag, np.cos(ang), out=out.real)
    np.multiply(mag, np.sin(ang), out=out.imag)
    return out


# ---------------------------------------------------------------------------
# splitting z^{n/2} J = A_n + e^{iz} B_n + e^{-iz} conj(B_n)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplittingCoeffs:
    n: int
    K: int
    alpha: tuple          # complex alpha_0 .. alpha_K
    prefactor: complex    # e^{-i(n-1)pi/4}
    terms: tuple          # prefactor * alpha_k, the coefficients of B_n


@lru_cache(maxsize=None)
def alpha_coeffs(n: int, K: int) -> SplittingCoeffs:
    """Coefficients alpha_k = (2 pi)^{-1/2} (nu, k) (i/2)^k with nu=(n-2)/2."""
    order_from_dim(n)
    if K < 0:
        raise ValueError("need K >= 0")
    four_nu2 = (n - 2) ** 2
    alpha = [(1.0 / math.sqrt(2.0 * math.pi)) * float(hankel_symbol(four_nu2, k)) * (0.5j) ** k
             for k in range(K + 1)]
    pref = cmath.exp(-1j * (n - 1) * math.pi / 4.0)
    return SplittingCoeffs(n=int(n), K=int(K), alpha=tuple(alpha), prefactor=pref,
                           terms=tuple((pref * np.array(alpha)).tolist()))


def splitting_A(n: int, z):
    """A_n(z) = chi(z) z^{n/2} J_{(n-2)/2}(z) at z >= 0, supported in [0, 1]:
    row 0 of its stack."""
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("splitting_A requires z >= 0")
    out = splitting_stacks(n, 0, 0, z.ravel())[0][0].reshape(z.shape)
    return float(out) if z.ndim == 0 else out


def hankel_sum(alpha, z):
    """sum_k alpha_k z^{-k} by Horner's rule in 1/z, up to the last nonzero
    alpha_k (at odd n the Hankel series terminates)."""
    last = max(k for k, a in enumerate(alpha) if a != 0)
    acc = np.full(np.shape(z), alpha[last], dtype=complex)
    if last:
        w = 1.0 / np.asarray(z)      # real at real z: the same sum, half the memory
        for a in reversed(alpha[:last]):
            acc *= w
            acc += a
    return acc


def splitting_B_series(coeffs: SplittingCoeffs, z):
    """Truncated asymptotic sum e^{-i(n-1)pi/4} sum_k alpha_k z^{(n-1)/2-k}.

    No cutoff applied; valid for complex z away from the branch cut.
    """
    return coeffs.prefactor * cpow(z, (coeffs.n - 1) / 2.0) * hankel_sum(coeffs.alpha, z)


def splitting_B_series_conj(coeffs: SplittingCoeffs, z):
    """Analytic continuation of conj(B_n) off the real axis: conjugate
    coefficients, same powers of z."""
    return (np.conj(coeffs.prefactor) * cpow(z, (coeffs.n - 1) / 2.0)
            * hankel_sum(np.conj(coeffs.alpha), z))


@lru_cache(maxsize=None)
def bessel_series(n: int):
    """c_i, i < 16, of z^{-nu} J_nu(z) = sum_i c_i z^{2i}: on z < 1 the first
    term left out is below 1e-36 of the sum (1e-9 of it at order 20)."""
    nu = order_from_dim(n)
    return tuple((-0.25) ** i / (2.0 ** nu * math.factorial(i) * math.gamma(i + nu + 1.0))
                 for i in range(16))


def splitting_stacks(n: int, K: int, k: int, z):
    """Stacks at real z >= 0 of A_n(z) and B_n(z) (K Hankel terms):
    sum_i c_i z^{n-1+2i} on z < 1 and e^{-i(n-1)pi/4} sum_k alpha_k
    z^{(n-1)/2-k} on z > 1/2, times the stacks of chi and 1 - chi in the
    band between."""
    z = np.asarray(z, dtype=float)
    a, b = np.zeros((k + 1, z.size)), np.zeros((k + 1, z.size), dtype=complex)
    near, far = z < 1.0, z > 0.5
    a[:, near] = power_sum(bessel_series(n), n - 1.0, 2.0, k, z[near])
    b[:, far] = power_sum(alpha_coeffs(n, K).terms, (n - 1) / 2.0, -1.0, k, z[far])
    band = near & far
    if band.any():
        chi, rest = cutoff_chi_stack(k, z[band])
        a[:, band] = leibniz(chi, a[:, band])
        b[:, band] = leibniz(rest, b[:, band])
    return a, b


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
        series = hankel_sum(alpha, b[row] * rho) if any(alpha[1:]) else alpha[0]  # n = 3
        return amp(rho, row) * pref[row] * series

    values, errs = rotated_tail(h, rho0, a + b, c2, delta, tol)
    if omitted:
        # int_rho0^inf (rho - rho0)^{-delta} (rho0/rho)^{9+s} drho
        #   = rho0^{1-delta} B(1 - delta, 8 + s + delta)
        decay = HANKEL_K + s + delta
        span = np.where(decay > 0, rho0 ** (1.0 - delta) * beta(1.0 - delta, decay), math.inf)
        errs = errs + (np.abs(amp(rho0.astype(complex), np.arange(b.size))) * omitted
                       * (np.abs(b) * rho0) ** -(HANKEL_K + 1.0) * span)
    return values, errs


def bessel_split_integral(n: int, head, amp, c, edges, a: float = 0.0, c2: float = 1.0,
                          s: float = 0.0, tol: float = 1e-9):
    """Per entry i < m of c, int_{edges[i, 0]}^inf f(r) J_nu(c_i r) e^{i(c2 r^2 + a r)} dr:
    head(r, row), the whole integrand, on real-axis rows i k .. i k + k - 1
    between the k edges[i] and on to r0 = max(edges[i, -1], z0/c_i), then
    the two Hankel pieces of z^{n/2} J_nu(z), z = c_i r, as hankel_tail rows
    i (e^{iz}) and m + i (e^{-iz}) of one call, amp(r, row) = f(r) z^{-1/2}
    and s as there.  At c2 < 0 the tail is the conjugate of the one at
    (|c2|, -a), so amp must be real on the real axis.  Returns (values, errors).

    The split: z0 = 10 at even n, where the Hankel series is truncated; at
    odd n it is exact, and z0 = max(3, sqrt(2) nu) keeps the first ray of an
    e^{-iz} row with its stationary point beyond r0, which dips to |z| =
    z0/sqrt(2), out of the band |z| < nu where the two rows are large and cancel.
    """
    c = np.array(c, dtype=float, ndmin=1)
    edges = np.array(edges, dtype=float, ndmin=2)
    m, k = edges.shape
    z0 = 10.0 if n % 2 == 0 else max(3.0, math.sqrt(2.0) * order_from_dim(n))
    r0 = np.maximum(edges[:, -1], z0 / c)
    lo, hi = edges.ravel(), np.concatenate([edges[:, 1:], r0[:, None]], 1).ravel()
    span = abs(c2) * (hi * hi - lo * lo) + (abs(a) + c.repeat(k)) * (hi - lo)
    heads, e_heads = osc_integral_rows(head, lo, hi, span, tol)
    tails, e_tails = hankel_tail(n, amp, np.concatenate([c, -c]), np.concatenate([r0, r0]),
                                 a if c2 > 0 else -a, c2=abs(c2), s=s, tol=tol)
    tail = tails[:m] + tails[m:]
    return (heads.reshape(m, k).sum(1) + (tail if c2 > 0 else np.conj(tail)),
            e_heads.reshape(m, k).sum(1) + (e_tails[:m] + e_tails[m:]))


def k_max(z: float) -> int:
    """Optimal-truncation guard for the divergent asymptotic series."""
    return min(int(math.floor(z)) - 1, 12)


def splitting_residual(n: int, K: int, z: float) -> float:
    """|z^{n/2} J - A_n - 2 Re(e^{iz} B_n^{(K)})| in the asymptotic regime."""
    if not 2.0 <= z < math.inf:
        raise ValueError(f"splitting_residual requires finite z >= 2, got z={z:g}")
    if K > k_max(z):
        raise ValueError(f"K={K} beyond divergence threshold K_max({z})={k_max(z)}")
    nu = order_from_dim(n)
    try:
        lhs = z ** (n / 2.0) * bessel_j(nu, z)
    except OverflowError:
        raise ValueError(f"z^(n/2) overflows a float at z={z:g}, n={n}") from None
    # z >= 2: 1 - chi = 1, so B_n is the bare series
    b = splitting_B_series(alpha_coeffs(n, K), z)
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
    with np.errstate(over="ignore", invalid="ignore"):
        bad = ~np.isfinite(rows * rows + a * rows) | (not math.isfinite(a * a / 4.0))
    if bad.any():
        s0 = rows[np.argmax(bad)]
        if not (math.isfinite(a) and math.isfinite(s0)):
            raise ValueError(f"fresnel_xi needs finite a and s, got a={a:g}, s={s0:g}")
        raise ValueError(f"fresnel_xi phase s^2 + a s or a^2/4 overflows at a={a:g}, s={s0:g}")
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
