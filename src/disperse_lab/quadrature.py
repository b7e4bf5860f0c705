"""Oscillatory quadrature helpers.

Two workhorses, each evaluating many integrals (rows) at once: a
node-doubling composite Gauss-Legendre rule for finite oscillatory
integrals, and rotated_tail, the package's one steepest-descent rule, for
tails int_rho0^inf (rho - rho0)^{-delta} h(rho) exp(i (c2 rho^2 + a rho)) drho
with an endpoint power 0 <= delta < 1.  rotated_tail serves the unbounded
tails of propagator and blowup, the iterated Fresnel integrals of special
and the singular-superposition contours of appendix.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=32)
def gl_nodes(npts: int):
    return np.polynomial.legendre.leggauss(npts)


# an integrand call receives at most this many nodes, whatever the number of
# rows or the size of one row's rule, so memory stays flat; at 2^14 a complex
# node array (256 KB) stays in cache, and 2^16 measured slower and 4 MB larger
_BLOCK_NODES = 1 << 14


def _composite_rows(f, a, b, npanels, rows, nodes: int = 32, absolute: bool = False):
    """Composite Gauss-Legendre sums of f(x, row) over [a[row], b[row]] with
    npanels[row] panels, for each row in `rows`.  Panels are laid end to end
    over all rows and evaluated in blocks of at most _BLOCK_NODES nodes.
    With absolute, also returns the sums of |weight * f|."""
    x, w = gl_nodes(nodes)
    counts = npanels[rows]
    first = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(counts, out=first[1:])
    width = (b[rows] - a[rows]) / counts
    sums, mags = np.zeros(rows.size, dtype=complex), np.zeros(rows.size)
    step = max(1, _BLOCK_NODES // nodes)
    for g0 in range(0, int(first[-1]), step):
        g = np.arange(g0, min(g0 + step, int(first[-1])))
        loc = np.searchsorted(first, g, side="right") - 1
        half = 0.5 * width[loc]
        mid = a[rows[loc]] + (g - first[loc] + 0.5) * width[loc]
        vals = f((mid[:, None] + half[:, None] * x).ravel(), np.repeat(rows[loc], nodes))
        panel = np.sum(half[:, None] * w * vals.reshape(-1, nodes), axis=1)
        # every row has panels, so the block holds rows loc[0] .. loc[-1]
        held = np.arange(loc[0], loc[-1] + 1)
        start = np.maximum(first[held] - g0, 0)
        sums[held] += np.add.reduceat(panel, start)
        if absolute:
            mags[held] += np.add.reduceat(half * (np.abs(vals).reshape(-1, nodes) @ w), start)
    return (sums, mags) if absolute else sums


def composite_gl(f, a: float, b: float, npanels: int, nodes: int = 32):
    """Composite Gauss-Legendre sum, as a complex number; f must accept an
    ndarray."""
    return _composite_rows(lambda x, row: f(x), np.array([a], dtype=float),
                           np.array([b], dtype=float), np.array([npanels]),
                           np.zeros(1, dtype=int), nodes)[0]


def trapezoid(y, x) -> float:
    """Trapezoid-rule integral of samples y at the 1-D abscissae x."""
    y, x = np.asarray(y), np.asarray(x)
    return float(np.sum(np.diff(x) * (y[1:] + y[:-1]) / 2.0))


def linear_fit(x, y):
    """(slope, intercept, slope standard error) of the least-squares line
    through the 1-D samples (x, y), by the closed form:
    stderr = sqrt((1 - r^2) S_yy / S_xx / (N - 2))."""
    sxx, sxy, _, syy = np.cov(x, y, bias=True).flat
    slope = sxy / sxx
    r = min(abs(sxy) / math.sqrt(sxx * syy), 1.0) if syy > 0 else 0.0
    stderr = math.sqrt((1 - r ** 2) * syy / sxx / (x.size - 2)) if x.size > 2 else 0.0
    return slope, np.mean(y) - slope * np.mean(x), stderr


def osc_integral_rows(f, a, b, phase_span, tol: float = 1e-9,
                      max_points: int = 600_000):
    """Integrate f(x, row) over [a[row], b[row]] for every row, where row
    `row` oscillates with total phase variation phase_span[row].

    f receives the nodes of many rows at once, with the row index of each
    node.  Each row starts from about one 32-node panel per three cycles and
    doubles its panels until two successive composite rules agree, or until
    the next rule would exceed max_points nodes; a row stops doubling as
    soon as it converges.  The error estimate adds to |last - previous| a
    rounding term, eps * sum |weight * f| * (1 + phase_span) on the last rule.

    Returns (values, error_estimates), one entry per row.
    """
    a, b, span = (np.array(v, dtype=float, ndmin=1)
                  for v in np.broadcast_arrays(a, b, phase_span))
    values = np.zeros(a.size, dtype=complex)
    errs = np.zeros(a.size)
    rows = np.flatnonzero(b > a)
    cycles = np.maximum(span / (2.0 * math.pi), 1.0)
    npanels = np.maximum(2, np.ceil(cycles / 3.0)).astype(np.int64)
    mags = np.zeros(a.size)
    values[rows], mags[rows] = _composite_rows(f, a, b, npanels, rows, absolute=True)
    errs[rows] = math.inf
    scale = np.maximum(np.abs(values), 1e-300)
    rows = rows[2 * npanels[rows] * 32 <= max_points]
    while rows.size:
        npanels[rows] *= 2
        cur, mags[rows] = _composite_rows(f, a, b, npanels, rows, absolute=True)
        errs[rows] = np.abs(cur - values[rows])
        values[rows] = cur
        scale[rows] = np.maximum(np.abs(cur), scale[rows])
        going = errs[rows] > tol * np.maximum(1.0, scale[rows])
        rows = rows[going & (2 * npanels[rows] * 32 <= max_points)]
    return values, errs + np.finfo(float).eps * mags * (1.0 + span)


def osc_integral(f, a: float, b: float, phase_span: float, tol: float = 1e-9,
                 max_points: int = 600_000):
    """Integrate f over [a, b] where f oscillates with total phase variation
    phase_span: the one-row call of osc_integral_rows.

    Returns (value, error_estimate).
    """
    values, errs = osc_integral_rows(lambda x, row: f(x), a, b, phase_span,
                                     tol, max_points)
    return complex(values[0]), float(errs[0])


@lru_cache(maxsize=1)
def _ray_rule():
    """Nodes u on [0, 1] and weights (full, check) of rotated_tail's rule:
    three panels of 96 nodes, and 48 for the check."""
    x, w = gl_nodes(96)
    x2, w2 = gl_nodes(48)
    edges = np.array([0.0, 0.15, 0.5, 1.0])
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    u = mid[:, None] + half[:, None] * np.concatenate([x, x2])
    full = half[:, None] * np.concatenate([w, 0.0 * w2])
    low = half[:, None] * np.concatenate([0.0 * w, w2])
    return u, full, low


def rotated_tail(h, rho0, a, c2: float = 1.0, delta=0.0):
    """int_rho0^inf (rho - rho0)^{-delta} h(rho, row) e^{i(c2 rho^2 + a rho)} drho
    for every row, with rho0, a and delta in [0, 1) given per row, by
    numerical steepest descent on rays from p along +-d, d = e^{i pi/4}:
    ray(rho0, d), or, for a row with its stationary point rho_s = -a/(2 c2)
    beyond rho0, ray(rho0, -d) - ray(rho_s, -d) + ray(rho_s, d), at a cost
    that does not grow with rho_s.  c2 = 0 needs a > 0 on every row.

    On the ray from rho0, tau = tau* u^{1/(1-delta)} turns
    tau^{-delta} dtau into tau*^{1-delta}/(1-delta) du, so the endpoint power
    is never formed; on the rays from rho_s it is evaluated directly.
    h receives the nodes of many rows at once, with the row index of each
    node; it must accept complex input and be analytic (and at most
    polynomially growing) where the rays sweep, below [rho0, rho_s] too.
    The error estimate holds a rounding term, eps times the sum of
    |weight * integrand| scaled by the phase, so lost digits show in it.

    Returns (values, error_estimates), one entry per row.
    """
    rho0, a, delta = (np.array(v, dtype=float, ndmin=1)
                      for v in np.broadcast_arrays(rho0, a, delta))
    if not ((delta >= 0.0) & (delta < 1.0)).all():
        raise ValueError("need 0 <= delta < 1")
    if c2 < 0 or (c2 == 0 and not np.all(a > 0)):
        raise ValueError("need c2 > 0, or c2 = 0 with a > 0")
    stat = a < -2.0 * c2 * rho0
    seg = np.flatnonzero(stat)
    rho_s = -a[seg] / (2.0 * c2)
    # rays: one from each rho0, then ray(rho_s, -d) and ray(rho_s, d) for the
    # rows in seg; s is a ray's direction sign, k its sign in the sum times s
    row = np.concatenate([np.arange(rho0.size), seg, seg])
    p = np.concatenate([rho0, rho_s, rho_s])
    s = np.concatenate([np.where(stat, -1.0, 1.0), -np.ones(seg.size), np.ones(seg.size)])
    k = np.where(np.arange(row.size) < rho0.size, s, 1.0)
    a = a[row]

    c = s * (2.0 * c2 * p + a) / math.sqrt(2.0)   # linear decay rate along ray
    # tau* solves c2 tau^2 + c tau = 45 (integrand ~ e^{-45} at the far end);
    # c >= 0 on every ray, so 90/(c + root) never cancels (it is 45/c at
    # c2 = 0); (root - c)/(2 c2) is kept where it loses under 1e-9, so the
    # rays of rows with c2 not tiny against c^2 keep their nodes bit for bit
    root = np.sqrt(c * c + 180.0 * c2)
    tau_star = 90.0 / (c + root)
    wide = 180.0 * c2 >= 1e-6 * c * c
    tau_star[wide] = (-c[wide] + root[wide]) / (2.0 * c2)
    rot = cmath.exp(1j * math.pi / 4.0)
    phi0 = 1j * (c2 * p * p + a * p)
    lin = s * (2.0 * c2 * p + a) * complex(-1.0, 1.0) / math.sqrt(2.0)
    big = c2 * p * p + np.abs(a * p)

    # the rays from rho0 of rows with delta > 0 take the substitution, and
    # (rho - rho0)^{-delta} = tau^{-delta} (s d)^{-delta} on them; the rays
    # from rho_s of those rows take the power at each node
    powered = delta.any()
    scale = tau_star
    if powered:
        d_ray = delta[row]
        sub = (d_ray > 0) & (np.arange(row.size) < rho0.size)
        direct = (d_ray > 0) & ~sub
        scale = tau_star.copy()
        scale[sub] = tau_star[sub] ** (1.0 - d_ray[sub]) / (1.0 - d_ray[sub])
        pw = 1.0 / (1.0 - d_ray)
        off = p - rho0[row]

    u, full, low = _ray_rule()
    total = np.empty(row.size, dtype=complex)
    check = np.empty(row.size, dtype=complex)
    mag = np.empty(row.size)
    step = max(1, _BLOCK_NODES // u.size)
    for b in range(0, row.size, step):
        r = np.arange(b, min(b + step, row.size))
        tau = tau_star[r, None, None] * u
        if powered:
            q = sub[r]
            tau[q] = tau_star[r[q], None, None] * u ** pw[r[q], None, None]
        rho = p[r, None, None] + tau * (s[r, None, None] * rot)
        arg = phi0[r, None, None] + lin[r, None, None] * tau - c2 * tau * tau
        vals = h(rho.ravel(), np.repeat(row[r], u.size)).reshape(tau.shape) * np.exp(arg)
        if powered:
            q = direct[r]
            dist = off[r[q], None, None] + tau[q] * (s[r[q], None, None] * rot)
            vals[q] *= dist ** -d_ray[r[q], None, None]
        total[r] = scale[r] * np.sum(vals * full, axis=(1, 2))
        check[r] = scale[r] * np.sum(vals * low, axis=(1, 2))
        # a value's rounding error is about eps times its exponent, whose
        # largest part, c2 p^2 + |a p|, may have cancelled in phi0
        mag[r] = scale[r] * np.sum(np.abs(vals) * full * (1.0 + np.abs(arg)
                                   + big[r, None, None]), axis=(1, 2))
    err = np.abs(total - check) + np.finfo(float).eps * mag
    if powered:
        # the substitution's scale and the phase (s d)^{-delta} add a few roundings
        err[sub] += 4.0 * np.finfo(float).eps * np.abs(total[sub])
        total[sub] *= np.exp(-1j * math.pi / 4.0 * d_ray[sub] * np.where(s[sub] > 0, 1.0, -3.0))
    values = np.zeros(rho0.size, dtype=complex)
    np.add.at(values, row, k * total)
    return rot * values, np.bincount(row, weights=err, minlength=rho0.size)
