"""Radial initial-data families.

A profile is an envelope phi_omega together with a linear carrier frequency
omega; the full radial datum is phi(x) = phi_omega(|x|) e^{i omega |x|}.
Derivatives come as exact stacks: deriv_fn(k, r) returns the envelope and
its derivatives of orders 0..k at the 1-D nodes r as one (k+1, r.size)
array, so a caller that needs several orders evaluates the profile once per
node; the stack is a profile's one description, and envelope(r) is its
row 0.  Built-in families compute their shared factors once per node (one
power, one exponential, one Bell or Hermite recurrence); the Herglotz
stack is the Leibniz product of the stacks of the cutoff chi, the Bessel
series and the Hankel power sum, each piece written once on its nodes.
A profile's break radii cut evolve_radial's real-axis head.
Families with a power-law tail also expose an analytic continuation used
by the contour-rotated tail quadrature.  FAMILIES lists every family with
its descriptor keys; build makes one at a given dimension.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .special import (HANKEL_K, alpha_coeffs, bessel_series, cutoff_chi_stack, exp_stack,
                      leibniz, order_from_dim, power_sum, splitting_B_series,
                      splitting_B_series_conj)


def require_finite(what: str, **params):
    """ValueError naming every parameter that is NaN or infinite."""
    bad = [f"{k}={v:g}" for k, v in params.items() if not math.isfinite(v)]
    if bad:
        raise ValueError(f"{what} needs finite parameters, got {', '.join(bad)}")


@dataclass
class RadialProfile:
    """Envelope + carrier; the datum is phi(x) = envelope(|x|) e^{i omega |x|}.

    deriv_fn(k, r) maps 1-D float nodes r >= 0 to the exact (k+1, r.size)
    stack of the envelope's derivatives of orders 0..k (row 0 the envelope).
    It vanishes below breaks[0] and is analytic between consecutive break
    radii and beyond the last: (a, b) for bump(a, b), the cutoff band's ends
    (0, 1/(2|omega|), 1/|omega|) for herglotz and (0,) otherwise."""
    label: str
    omega: float
    deriv_fn: Callable[[int, np.ndarray], np.ndarray]
    support: Optional[float] = None          # numerically compact beyond this
    tail_alpha: Optional[float] = None       # |phi^{(k)}| <= C (1+r)^{-alpha-k}
    # tail_fn equals envelope on [tail_start, inf) and is analytic, polynomially
    # bounded, on {u +- v e^{i pi/4}: u >= tail_start, v >= 0} (- where omega < 0)
    tail_fn: Optional[Callable] = None
    tail_start: float = 0.0
    breaks: tuple = (0.0,)

    def derivs(self, k: int, r):
        """Orders 0..k of the envelope at r, shape (k+1,) + r.shape."""
        r = np.asarray(r, dtype=float)
        return np.asarray(self.deriv_fn(k, r.ravel())).reshape((k + 1,) + r.shape)

    def envelope(self, r):
        """The envelope at r: row 0 of its stack."""
        return self.derivs(0, r)[0]

    def phi_rad(self, r):
        r = np.asarray(r, dtype=float)
        env = self.envelope(r)
        # at omega = 0 the carrier is 1: the type it gives, without its cost
        return env * np.exp(1j * self.omega * r) if self.omega else env.astype(complex)

    def dilate(self, lam: float) -> "RadialProfile":
        """Profile r -> envelope(lam r) with carrier lam*omega."""
        base = self
        return RadialProfile(
            label=f"{self.label}~dilated{lam}",
            omega=lam * base.omega,
            deriv_fn=lambda k, r: lam ** np.arange(k + 1.0)[:, None] * base.deriv_fn(k, lam * r),
            support=None if base.support is None else base.support / lam,
            tail_alpha=base.tail_alpha,
            tail_fn=(None if base.tail_fn is None
                     else lambda r: base.tail_fn(lam * np.asarray(r, dtype=complex))),
            tail_start=base.tail_start / lam if lam > 0 else base.tail_start,
            breaks=tuple(x / lam for x in base.breaks),
        )

    def scale(self, factor: complex) -> "RadialProfile":
        base = self
        return RadialProfile(
            label=f"{self.label}~scaled",
            omega=base.omega,
            deriv_fn=lambda k, r: factor * base.deriv_fn(k, r),
            support=base.support,
            tail_alpha=base.tail_alpha,
            tail_fn=None if base.tail_fn is None else (lambda r: factor * base.tail_fn(r)),
            tail_start=base.tail_start,
            breaks=base.breaks,
        )


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def bump(a: float = 1.0, b: float = 2.0, omega: float = 0.0) -> RadialProfile:
    """C_c^infty bump on [a, b], normalized to peak value 1."""
    require_finite("bump", a=a, b=b, omega=omega)
    if not b > a >= 0:
        raise ValueError("need 0 <= a < b")
    peak = ((b - a) / 2.0) ** 2

    # exact derivatives: e^{1-u} with u = peak/q, whose partial fractions
    # u = peak/(b-a) [(r-a)^{-1} + (b-r)^{-1}] give the stack of 1 - u
    cpf = peak / (b - a)

    def deriv(k, r):
        out = np.zeros((k + 1, r.size))
        inside = (r > a) & (r < b)
        ri = r[inside]
        da, db = ri - a, b - ri
        phi = [1.0 - peak / (da * db)]
        if k:
            ia, ib = 1.0 / da, 1.0 / db
            pa, pb = ia, ib
            for j in range(1, k + 1):
                pa, pb = pa * ia, pb * ib
                phi.append(-cpf * math.factorial(j) * ((-1.0) ** j * pa + pb))
        out[:, inside] = exp_stack(phi)
        return out

    return RadialProfile(label=f"bump[{a},{b}]", omega=omega, deriv_fn=deriv, support=b,
                         breaks=(a, b))


def gaussian(width: float = 1.0, omega: float = 0.0) -> RadialProfile:
    """exp(-(r/width)^2); numerically compact."""
    require_finite("gaussian", width=width, omega=omega)
    if not width > 0:
        raise ValueError(f"gaussian needs width > 0, got {width:g}")

    def deriv(k, r):
        # (-1/width)^j H_j(s) e^{-s^2}, s = r/width, with the physicists'
        # Hermite recurrence H_{j+1} = 2s H_j - 2j H_{j-1}
        s = r / width
        out = np.empty((k + 1, r.size))
        out[0] = np.exp(-s * s)
        h_prev, h = 0.0, 1.0
        for j in range(1, k + 1):
            h_prev, h = h, 2.0 * s * h - 2.0 * (j - 1) * h_prev
            out[j] = (-1.0 / width) ** j * h * out[0]
        return out

    return RadialProfile(label=f"gauss[{width}]", omega=omega, deriv_fn=deriv,
                         support=13.0 * width)


def power(alpha: float, omega: float = 0.0) -> RadialProfile:
    """(1+r)^{-alpha} with closed-form derivatives and analytic tail."""
    require_finite("power", alpha=alpha, omega=omega)

    def deriv(k, r):
        # f^{(j)} = -(alpha + j - 1) f^{(j-1)} / (1 + r)
        out = np.empty((k + 1, r.size))
        out[0] = (1.0 + r) ** (-alpha)
        if k:
            inv = 1.0 / (1.0 + r)
            for j in range(1, k + 1):
                out[j] = -(alpha + j - 1) * inv * out[j - 1]
        return out

    def tail(r):
        return (1.0 + np.asarray(r, dtype=complex)) ** (-alpha)

    return RadialProfile(label=f"power[{alpha}]", omega=omega, deriv_fn=deriv,
                         support=None, tail_alpha=alpha, tail_fn=tail)


def oscillating_power(alpha: float) -> RadialProfile:
    """f(r) = e^{ir}(1+r)^{-alpha} with Leibniz closed-form derivatives."""
    base = power(alpha)

    def deriv(k, r):
        return leibniz(1j ** np.arange(k + 1)[:, None] * np.exp(1j * r), base.deriv_fn(k, r))

    def tail(r):
        r = np.asarray(r, dtype=complex)
        return np.exp(1j * r) * (1.0 + r) ** (-alpha)

    return RadialProfile(label=f"oscpower[{alpha}]", omega=0.0, deriv_fn=deriv,
                         support=None, tail_alpha=alpha, tail_fn=tail)


def herglotz(omega: float = 1.0, n: Optional[int] = None) -> RadialProfile:
    """Envelope eta_omega of the splitting-based Herglotz decomposition:

        r^{(2-n)/2} J_{(n-2)/2}(omega r)
            = eta(r) e^{i omega r} + conj(eta(r)) e^{-i omega r}

    where eta(r) = omega^{-n/2} r^{1-n} (e^{-iz} A_n(z)/2 + B_n(z)), z = omega r,
    and B_n keeps HANKEL_K Hankel terms.  Over omega r in [0.05, 40] the
    identity's largest error, over max |mode|, is 2e-15 at n = 3 and 5,
    where the series terminates.  At n = 2, 4 and 6 it is 30, 15 and 820,
    near omega r = 0.7 in the cutoff band, where the series diverges; at
    n = 9 and 17 it is 3.5e-12 and 1.8e-2, where the two pieces have the
    size of |Y_nu| and cancel down to J_nu.
    n has no default: omega's default serves the descriptor 'herglotz'.
    """
    if n is None:
        raise TypeError("herglotz needs the dimension n")
    require_finite("herglotz", omega=omega, n=n)
    if omega == 0:
        raise ValueError("herglotz envelope needs omega != 0")
    order_from_dim(n)
    n = int(n)
    coeffs = alpha_coeffs(n, HANKEL_K)
    half_series = tuple(0.5 * c for c in bessel_series(n))     # of Q/2
    ends = np.array([np.nextafter(0.5, 1.0), 1.0])   # searchsorted: z <= 1/2, z < 1
    w = abs(omega)

    def tail(r):
        r = np.asarray(r, dtype=complex)
        z = w * r
        return w ** (-n / 2.0) * r ** (1.0 - n) * splitting_B_series(coeffs, z)

    @lru_cache(maxsize=None)
    def powers(m):
        j = np.arange(m + 1)[:, None]
        # complex, so np.multiply into out needs no casting buffer
        return (-1j) ** j, (w ** (n / 2.0 - 1.0 + j)).astype(complex)

    def deriv(m, r):
        # w^{n/2-1+j} [chi (Q/2) e^{-iz} + (1 - chi) z^{1-n} B]^{(j)}, z = w r,
        # with Q = z^{1-n/2} J_nu(z) a power series in z^2, regular at 0.
        # On sorted z the pieces z <= 1/2, the chi band and z >= 1 are
        # slices; each series is summed once, each piece written once
        z = w * r
        order = None if (z[1:] >= z[:-1]).all() else np.argsort(z)
        z = z if order is None else z[order]
        lo, hi = z.searchsorted(ends)
        phase, scale = powers(m)
        a = power_sum(half_series, 0.0, 2.0, m, z[:hi])
        e = phase * np.exp(-1j * z[:hi])
        out = np.empty((m + 1, z.size), dtype=complex)
        np.multiply(scale, leibniz(e[:, :lo], a[:, :lo]), out=out[:, :lo])
        b = power_sum(coeffs.terms, (1.0 - n) / 2.0, -1.0, m, z[lo:])
        if hi > lo:
            chi, rest = cutoff_chi_stack(m, z[lo:hi])
            band = leibniz(e[:, lo:], leibniz(chi, a[:, lo:]))
            band += leibniz(rest, b[:, :hi - lo])
            np.multiply(scale, band, out=out[:, lo:hi])
        np.multiply(scale, b[:, hi - lo:], out=out[:, hi:])
        return out if order is None else out[:, np.argsort(order)]

    return RadialProfile(label=f"herglotz[w={omega},n={n}]", omega=omega,
                         deriv_fn=deriv, support=None,
                         tail_alpha=(n - 1) / 2.0, tail_fn=tail,
                         tail_start=1.0 / w, breaks=(0.0, 0.5 / w, 1.0 / w))


def herglotz_pair(omega: float, n: int):
    """The (eta_omega, +omega) and (conj eta_omega, -omega) decomposition pair."""
    base = herglotz(omega, n)
    coeffs = alpha_coeffs(n, HANKEL_K)
    w = abs(omega)

    def conj_tail(r):
        r = np.asarray(r, dtype=complex)
        return w ** (-n / 2.0) * r ** (1.0 - n) * splitting_B_series_conj(coeffs, w * r)

    mirror = RadialProfile(label=f"herglotz-conj[w={omega},n={n}]", omega=-omega,
                           deriv_fn=lambda m, r: np.conj(base.deriv_fn(m, r)),
                           support=None, tail_alpha=(n - 1) / 2.0, tail_fn=conj_tail,
                           tail_start=1.0 / w, breaks=base.breaks)
    return base, mirror


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------

# family -> builder.  A descriptor's keys are the builder's parameters
# other than the dimension n, with the builder's defaults; a parameter
# without a default is a required key.
FAMILIES = {f.__name__: f for f in (bump, gaussian, power, oscillating_power, herglotz)}


def parse_spec(spec: str):
    """(family, params) of a 'family:key=val,key=val' descriptor."""
    fam, _, rest = spec.partition(":")
    params = {}
    for item in rest.split(","):
        if item:
            k, _, v = item.partition("=")
            try:
                params[k.strip()] = float(v)
            except ValueError:
                raise ValueError(f"profile {spec!r}: {item!r} is not key=<number>") from None
    return fam.strip(), params


def build(family: str, params: dict, n: int) -> RadialProfile:
    """The profile of `family` with the keys `params`, in dimension n; any
    key the family does not take is an error."""
    if family not in FAMILIES:
        raise ValueError(f"unknown profile family {family!r}")
    make = FAMILIES[family]
    sig = inspect.signature(make).parameters
    keys = [k for k in sig if k != "n"]
    extra = sorted(set(params) - set(keys))
    if extra:
        raise ValueError(f"profile {family!r} takes the keys {', '.join(keys)}; "
                         f"got {', '.join(map(repr, extra))}")
    for k in keys:
        if k not in params and sig[k].default is inspect.Parameter.empty:
            raise ValueError(f"profile {family!r} needs {k}=<value>")
    for k, v in params.items():
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ValueError(f"profile {family!r} needs a number {k}, got {v!r}")
    return make(**params, **({"n": n} if "n" in sig else {}))


def from_spec(spec: str, n: int) -> RadialProfile:
    """The profile a 'family:key=val,key=val' CLI descriptor names, in dimension n."""
    return build(*parse_spec(spec), n)
