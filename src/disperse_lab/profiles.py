"""Radial initial-data families.

A profile is an envelope phi_omega together with a linear carrier frequency
omega; the full radial datum is phi(x) = phi_omega(|x|) e^{i omega |x|}.
Built-in families carry analytic derivatives where the closed form is cheap
and fall back to high-order central differences otherwise.  Families with a
power-law tail also expose an analytic continuation used by the contour-
rotated tail quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .special import alpha_coeffs, splitting_A, splitting_B_series, cutoff_chi

# 7-point stencils, O(h^4) when central; rows indexed by derivative order 1..4
_FD_OFFSETS = np.arange(-3, 4)


@lru_cache(maxsize=None)
def _fd_weights(k: int, shift: int = 0):
    # solve Vandermonde system for the k-th derivative on offsets -3..3 + shift
    A = np.vander((_FD_OFFSETS + shift).astype(float), 7, increasing=True).T
    b = np.zeros(7)
    b[k] = math.factorial(k)
    return np.linalg.solve(A, b)


def fd_derivative(f, k: int, r, h_scale: float = 0.02, r_min=None):
    """k-th derivative (k <= 6) by 7-point differences, central unless a
    node would fall below r_min, where the stencil moves right by whole steps.

    Step balances truncation against roundoff; adequate for the <=1e-4
    consistency the profile contract asks for.
    """
    if k == 0:
        return f(np.asarray(r, dtype=float))
    r = np.asarray(r, dtype=float)
    h = h_scale * (1.0 + np.abs(r))
    shift = 0 if r_min is None else np.clip(np.ceil(3.0 - (r - r_min) / h), 0, 3).astype(int)
    weights = np.array([_fd_weights(k, s) for s in range(4)])
    acc = np.zeros(r.shape, dtype=complex)
    for j, off in enumerate(_FD_OFFSETS):
        wt = weights[shift, j]
        if np.any(wt != 0.0):
            acc += wt * f(r + (off + shift) * h)
    return acc / h ** k


@dataclass
class RadialProfile:
    """Envelope + carrier; the datum is phi(x) = envelope(|x|) e^{i omega |x|}."""
    label: str
    omega: float
    envelope: Callable[[np.ndarray], np.ndarray]
    deriv_fn: Optional[Callable[[int, np.ndarray], np.ndarray]] = None
    support: Optional[float] = None          # numerically compact beyond this
    tail_alpha: Optional[float] = None       # |phi^{(k)}| <= C (1+r)^{-alpha-k}
    # tail_fn equals envelope on [tail_start, inf) and is analytic, polynomially
    # bounded, on {u +- v e^{i pi/4}: u >= tail_start, v >= 0} (- where omega < 0)
    tail_fn: Optional[Callable] = None
    tail_start: float = 0.0

    def deriv(self, k: int, r):
        if k == 0:
            return np.asarray(self.envelope(np.asarray(r, dtype=float)), dtype=complex)
        if self.deriv_fn is not None:
            return np.asarray(self.deriv_fn(k, np.asarray(r, dtype=float)), dtype=complex)
        return fd_derivative(self.envelope, k, r)

    def phi_rad(self, r):
        r = np.asarray(r, dtype=float)
        return self.envelope(r) * np.exp(1j * self.omega * r)

    def dilate(self, lam: float) -> "RadialProfile":
        """Profile r -> envelope(lam r) with carrier lam*omega."""
        base = self
        return RadialProfile(
            label=f"{self.label}~dilated{lam}",
            omega=lam * base.omega,
            envelope=lambda r: base.envelope(lam * np.asarray(r, dtype=float)),
            deriv_fn=(None if base.deriv_fn is None
                      else lambda k, r: lam ** k * base.deriv_fn(k, lam * r)),
            support=None if base.support is None else base.support / lam,
            tail_alpha=base.tail_alpha,
            tail_fn=(None if base.tail_fn is None
                     else lambda r: base.tail_fn(lam * np.asarray(r, dtype=complex))),
            tail_start=base.tail_start / lam if lam > 0 else base.tail_start,
        )

    def scale(self, factor: complex) -> "RadialProfile":
        base = self
        return RadialProfile(
            label=f"{self.label}~scaled",
            omega=base.omega,
            envelope=lambda r: factor * base.envelope(r),
            deriv_fn=(None if base.deriv_fn is None
                      else lambda k, r: factor * base.deriv_fn(k, r)),
            support=base.support,
            tail_alpha=base.tail_alpha,
            tail_fn=None if base.tail_fn is None else (lambda r: factor * base.tail_fn(r)),
            tail_start=base.tail_start,
        )


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def bump(a: float = 1.0, b: float = 2.0, omega: float = 0.0) -> RadialProfile:
    """C_c^infty bump on [a, b], normalized to peak value 1."""
    if not b > a >= 0:
        raise ValueError("need 0 <= a < b")
    peak = ((b - a) / 2.0) ** 2

    def env(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros(r.shape)
        inside = (r > a) & (r < b)
        q = (r[inside] - a) * (b - r[inside])
        out[inside] = np.exp(1.0 - peak / q)
        return out

    # exact derivatives: with u = peak/q and partial fractions
    # u = peak/(b-a) [(r-a)^{-1} + (b-r)^{-1}], the chain rule for e^{1-u}
    # reduces to the complete Bell recurrence over the u^{(j)}
    cpf = peak / (b - a)

    def deriv(k, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros(r.shape, dtype=complex)
        inside = (r > a) & (r < b)
        if not np.any(inside):
            return out
        ri = r[inside]
        da, db = ri - a, b - ri
        phi = [None]  # phi^{(j)} for j >= 1, phi = 1 - u
        for j in range(1, k + 1):
            uj = cpf * math.factorial(j) * ((-1.0) ** j * da ** (-j - 1)
                                            + db ** (-j - 1))
            phi.append(-uj)
        bell = [np.ones(ri.shape)]
        for kk in range(1, k + 1):
            acc = np.zeros(ri.shape)
            for j in range(kk):
                acc += math.comb(kk - 1, j) * bell[j] * phi[kk - j]
            bell.append(acc)
        out[inside] = np.exp(1.0 - cpf * (1.0 / da + 1.0 / db)) * bell[k]
        return out

    return RadialProfile(label=f"bump[{a},{b}]", omega=omega, envelope=env,
                         deriv_fn=deriv, support=b)


def gaussian(width: float = 1.0, omega: float = 0.0) -> RadialProfile:
    """exp(-(r/width)^2); numerically compact."""
    if not width > 0:
        raise ValueError(f"gaussian needs width > 0, got {width:g}")
    herm = np.polynomial.hermite.Hermite

    def env(r):
        r = np.asarray(r, dtype=float) / width
        return np.exp(-r * r)

    def deriv(k, r):
        r = np.asarray(r, dtype=float) / width
        hk = herm.basis(k)(r)
        return (-1.0 / width) ** k * hk * np.exp(-r * r)

    return RadialProfile(label=f"gauss[{width}]", omega=omega, envelope=env,
                         deriv_fn=deriv, support=13.0 * width)


def power(alpha: float, omega: float = 0.0) -> RadialProfile:
    """(1+r)^{-alpha} with closed-form derivatives and analytic tail."""

    def env(r):
        return (1.0 + np.asarray(r, dtype=float)) ** (-alpha)

    def deriv(k, r):
        coef = 1.0
        for j in range(k):
            coef *= -(alpha + j)
        return coef * (1.0 + np.asarray(r, dtype=float)) ** (-alpha - k)

    def tail(r):
        return (1.0 + np.asarray(r, dtype=complex)) ** (-alpha)

    return RadialProfile(label=f"power[{alpha}]", omega=omega, envelope=env,
                         deriv_fn=deriv, support=None, tail_alpha=alpha,
                         tail_fn=tail)


def herglotz(omega: float, n: int, K: int = 8) -> RadialProfile:
    """Envelope eta_omega of the splitting-based Herglotz decomposition:

        r^{(2-n)/2} J_{(n-2)/2}(omega r)
            = eta(r) e^{i omega r} + conj(eta(r)) e^{-i omega r}

    up to the truncation error of the order-K asymptotic series, where
    eta(r) = omega^{-n/2} r^{1-n} (A_n(omega r)/2 + B_n(omega r)).
    """
    if omega == 0:
        raise ValueError("herglotz envelope needs omega != 0")
    w = abs(omega)
    coeffs = alpha_coeffs(n, K)

    def env(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros(r.shape, dtype=complex)
        pos = r > 0
        rp = r[pos]
        z = w * rp
        bpart = np.zeros(rp.shape, dtype=complex)
        live = z > 0.5
        if np.any(live):
            bpart[live] = ((1.0 - cutoff_chi(z[live]))
                           * splitting_B_series(coeffs, z[live].astype(complex)))
        # the compact part enters with the carrier removed so that
        # eta e^{i w r} + conj(eta) e^{-i w r} reproduces A + e^{iz}B + c.c.
        out[pos] = (w ** (-n / 2.0) * rp ** (1.0 - n)
                    * (0.5 * np.exp(-1j * w * rp) * splitting_A(n, z) + bpart))
        if np.any(~pos):
            # r = 0 limit of A_n(w r)/2 * r^{1-n}: series leading term
            lead = 0.5 * w ** (n / 2.0 - 1.0) / (2.0 ** ((n - 2) / 2.0) * math.gamma(n / 2.0))
            out[~pos] = lead
        return out

    def tail(r):
        r = np.asarray(r, dtype=complex)
        z = w * r
        return w ** (-n / 2.0) * r ** (1.0 - n) * splitting_B_series(coeffs, z)

    # beyond the cutoff region the envelope is the exact power sum
    # sum_k d_k r^{p-k}; closed-form derivatives avoid the cancellation
    # noise of finite differences at large r
    p = (1.0 - n) / 2.0
    dk = [w ** (-n / 2.0) * coeffs.prefactor * a * w ** ((n - 1) / 2.0 - k)
          for k, a in enumerate(coeffs.alpha)]

    def deriv(m, r):
        r = np.asarray(r, dtype=float)
        out = np.empty(r.shape, dtype=complex)
        far = w * r >= 1.0
        if np.any(far):
            rf = r[far]
            acc = np.zeros(rf.shape, dtype=complex)
            for k, d in enumerate(dk):
                coef = d
                for j in range(m):
                    coef *= (p - k - j)
                acc += coef * rf ** (p - k - m)
            out[far] = acc
        if np.any(~far):
            # env is its r = 0 limit below 0, so no node may fall there
            out[~far] = fd_derivative(env, m, r[~far], h_scale=0.004, r_min=0.0)
        return out

    return RadialProfile(label=f"herglotz[w={omega},n={n}]", omega=omega,
                         envelope=env, deriv_fn=deriv, support=None,
                         tail_alpha=(n - 1) / 2.0, tail_fn=tail,
                         tail_start=1.0 / w)


def herglotz_pair(omega: float, n: int, K: int = 8):
    """The (eta_omega, +omega) and (conj eta_omega, -omega) decomposition pair."""
    base = herglotz(omega, n, K)

    def conj_env(r):
        return np.conj(base.envelope(r))

    coeffs = alpha_coeffs(n, K)
    w = abs(omega)

    def conj_tail(r):
        from .special import splitting_B_series_conj
        r = np.asarray(r, dtype=complex)
        return w ** (-n / 2.0) * r ** (1.0 - n) * splitting_B_series_conj(coeffs, w * r)

    def conj_deriv(m, r):
        return np.conj(base.deriv_fn(m, r))

    mirror = RadialProfile(label=f"herglotz-conj[w={omega},n={n}]", omega=-omega,
                           envelope=conj_env, deriv_fn=conj_deriv, support=None,
                           tail_alpha=(n - 1) / 2.0, tail_fn=conj_tail,
                           tail_start=1.0 / w)
    return base, mirror


def from_spec(spec: str) -> RadialProfile:
    """Parse 'family:key=val,key=val' CLI profile descriptors."""
    if ":" in spec:
        fam, _, rest = spec.partition(":")
        kv = {}
        for item in rest.split(","):
            if not item:
                continue
            k, _, v = item.partition("=")
            kv[k.strip()] = float(v)
    else:
        fam, kv = spec, {}
    fam = fam.strip()
    if fam == "bump":
        return bump(kv.get("a", 1.0), kv.get("b", 2.0), kv.get("omega", 0.0))
    if fam == "gaussian":
        return gaussian(kv.get("width", 1.0), kv.get("omega", 0.0))
    if fam == "power":
        if "alpha" not in kv:
            raise ValueError(f"profile {spec!r} needs alpha=<value>")
        return power(kv["alpha"], kv.get("omega", 0.0))
    if fam == "herglotz":
        return herglotz(kv.get("omega", 1.0), int(kv.get("n", 3)), int(kv.get("K", 8)))
    raise ValueError(f"unknown profile family {fam!r}")
