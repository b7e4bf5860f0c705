"""Quadrature helpers, each evaluating many integrals (rows) at once.

gl_rows, the one composite Gauss-Legendre kernel, and refine_rows, which
doubles each row's panels until two successive rules agree, serve the
oscillatory heads, the norms octave panels and the mass integrals.
rotated_tail, the one steepest-descent rule, integrates tails
int_rho0^inf (rho - rho0)^{-delta} h(rho) exp(i (c2 rho^2 + a rho)) drho
with 0 <= delta < 1: the unbounded tails of propagator and blowup, the
iterated Fresnel integrals of special and the contours of appendix.
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
# rows or the size of one row's rule, so memory stays flat; 2^14 read slower
# on the norms benchmark and no faster on propagate or focusing
_BLOCK_NODES = 1 << 13


@lru_cache(maxsize=None)
def _tiled_rule(nodes: int, chunk: int):
    """Per node of `chunk` panels of a nodes-point Gauss-Legendre rule end
    to end: panel centre (in panel widths), node and weight on [-1, 1]."""
    x, w = gl_nodes(nodes)
    return np.repeat(np.arange(chunk) + 0.5, nodes), np.tile(x, chunk), np.tile(w, chunk)


def gl_rows(f, a, b, npanels, nodes: int = 32, ids=None, absolute: bool = False):
    """(sums, mags), each (rows, C; (0, 1) with no rows): composite
    Gauss-Legendre sums of f over [a[i], b[i]] with npanels[i] equal panels
    of `nodes` nodes and, with absolute, of |weight * f| (else None).

    f(x), or f(x, ids[i]) on row i's nodes where ids is given, returns one
    value per node or a (C, x.size) array.  Rows are cut into chunks of L
    panels, L the largest power of two dividing every count; a block of at
    most _BLOCK_NODES nodes holds whole chunks, summed by one matmul.
    """
    if not a.size:
        return np.zeros((0, 1)), (np.zeros((0, 1)) if absolute else None)
    # the largest power of two dividing every count, at most one block long
    low = int(np.bitwise_or.reduce(npanels))
    chunk = min(low & -low, 1 << max(0, (_BLOCK_NODES // nodes).bit_length() - 1))
    centre, x, w = _tiled_rule(nodes, chunk)
    width = (b - a) / npanels
    start, first = a, None
    if chunk < low:
        # several chunks per row: chunk j of a row starts j chunk widths in
        per_row = npanels // chunk
        first = np.cumsum(per_row) - per_row
        owner = np.repeat(np.arange(a.size), per_row)
        width = width[owner]
        ids = None if ids is None else ids[owner]
        start = a[owner] + (np.arange(owner.size) - first[owner]) * chunk * width
    half = 0.5 * width
    sums, mags = [], []
    per = max(1, _BLOCK_NODES // centre.size)
    for i in range(0, start.size, per):
        s = slice(i, i + per)
        pts = (start[s, None] + centre * width[s, None] + half[s, None] * x).ravel()
        vals = f(pts) if ids is None else f(pts, np.repeat(ids[s], centre.size))
        vals = vals.reshape(-1, pts.size // centre.size, centre.size)
        sums.append((vals @ w) * half[s])
        if absolute:
            mags.append((np.abs(vals) @ w) * half[s])
    out = [np.concatenate(parts, axis=1) for parts in ((sums, mags) if absolute else (sums,))]
    if first is not None:
        out = [np.add.reduceat(total, first, axis=1) for total in out]
    return out[0].T, (out[1].T if absolute else None)


def refine_rows(f, a, b, start, cap, rtol: float, nodes: int = 32, ids=None,
                atol: float = 0.0, floor=0.0, absolute: bool = False):
    """Double the panels of every row of gl_rows (f, a, b, nodes, ids as
    there) from start[row]: an entry (row, column) freezes once two
    successive rules agree, |cur - prev| <= max(rtol |cur|, atol,
    floor[column] * the column's summed |first rule|, unless NaN), and a
    row is evaluated again while an entry is live and its count can double
    within cap.  A NaN change never agrees.

    Returns (values, deltas, live, mags), each (rows, C): each entry's last
    rule, |cur - prev| of its last two (inf if never doubled), the entries
    left live at the cap, and with absolute the last rule's sums of |w f|.
    """
    count = np.full(a.size, start, dtype=np.int64)
    vals, mags = gl_rows(f, a, b, count, nodes, ids, absolute)
    bound = np.fmax(atol, floor * np.abs(vals).sum(axis=0))
    deltas = np.full(vals.shape, math.inf)
    live = np.ones(vals.shape, dtype=bool)
    pos = np.arange(a.size)
    go = 2 * count <= cap
    while (pos := pos[go]).size:
        # a slice while every row goes on, so the updates below are views
        k = pos if pos.size < a.size else slice(None)
        count[k] = n = 2 * count[k]
        cur, mag = gl_rows(f, a[k], b[k], n, nodes, None if ids is None else ids[k], absolute)
        prev, was = vals[k], live[k]
        change = np.abs(cur - prev)
        vals[k] = np.where(was, cur, prev)
        deltas[k] = np.where(was, change, deltas[k])
        if absolute:
            mags[k] = np.where(was, mag, mags[k])
        live[k] = was = was & ~(change <= np.maximum(rtol * np.abs(cur), bound))
        go = was.any(axis=1) & (2 * n <= cap)
    return vals, deltas, live, mags


def composite_gl(f, a: float, b: float, npanels: int, nodes: int = 32):
    """Composite Gauss-Legendre sum, as a complex number; f must accept an
    ndarray."""
    sums, _ = gl_rows(f, np.array([a], dtype=float), np.array([b], dtype=float),
                      np.array([npanels]), nodes)
    return complex(sums[0, 0])


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
    refine_rows doubles its panels until two successive rules agree to
    tol * max(1, |last|), or until the next rule would exceed max_points
    nodes.  The error estimate adds to |last - previous| a rounding term,
    eps * sum |weight * f| * (1 + phase_span) on the last rule.

    Returns (values, error_estimates), one entry per row.
    """
    a, b, span = (np.array(v, dtype=float, ndmin=1)
                  for v in np.broadcast_arrays(a, b, phase_span))
    values = np.zeros(a.size, dtype=complex)
    errs = np.zeros(a.size)
    rows = np.flatnonzero(b > a)
    cycles = np.maximum(span / (2.0 * math.pi), 1.0)
    start = np.maximum(2, np.ceil(cycles / 3.0)).astype(np.int64)
    vals, deltas, _, mags = refine_rows(f, a[rows], b[rows], start[rows], max_points // 32,
                                        tol, ids=rows, atol=tol, absolute=True)
    values[rows] = vals[:, 0]
    errs[rows] = deltas[:, 0] + np.finfo(float).eps * mags[:, 0] * (1.0 + span[rows])
    return values, errs


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
