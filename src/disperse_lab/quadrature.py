"""Quadrature helpers, each evaluating many integrals (rows) at once.

gl_rows, the one composite Gauss-Kronrod kernel, and refine_rows, which
doubles each row's panels until the nested Gauss and Kronrod sums of a
round agree, serve the oscillatory heads, the norms octave panels, the
mass integrals and the rays.  rotated_tail, the one steepest-descent
rule, integrates tails
int_rho0^inf (rho - rho0)^{-delta} h(rho) exp(i (c2 rho^2 + a rho)) drho
with 0 <= delta < 1: the unbounded tails of propagator and blowup, the
iterated Fresnel integrals of special and the contours of appendix.  Its
rays are graded rows of one refine_rows call, lengthened until their end
term is below eps of their value, so each estimate is the last change of
the rule it returns, its truncation and its rounding.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def gk_nodes(n: int):
    """(x, w): the (2n+1)-node Gauss-Kronrod rule on [-1, 1] that nests the
    n-node Gauss-Legendre rule, w a read-only (2n+1, 2) array of the Kronrod
    weights and the Gauss weights (zero at the added nodes).  The nodes are
    the eigenvalues of Laurie's Jacobi-Kronrod matrix (D. P. Laurie, Math.
    Comp. 66 (1997) 1133-1145; Gautschi's r_kronrod for the Legendre weight,
    whose diagonal is zero); the Gauss nodes and weights are numpy's
    leggauss(n)."""
    b = np.zeros(2 * n + 1)
    k = np.arange(1, (3 * n + 1) // 2 + 1)
    b[k] = k * k / (4.0 * k * k - 1.0)
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        s[k + 1] = np.cumsum(b[k + n + 1] * s[k] - b[m - k] * s[k + 1])
        s, t = t, s
    s[1:] = s[:-1].copy()
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        j = n - m + k
        s[j] = np.cumsum(b[m - k] * s[j + 1] - b[k + n + 1] * s[j])
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j[-1]] / s[j[-1] + 1]
        s, t = t, s
    off = np.sqrt(b[1:])
    # eigenvalues only: eigh's vectors fault in about 0.5 MB more of LAPACK
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    # the Kronrod weights 2 / sum_k p_k(x)^2, p_k the matrix's orthonormal
    # polynomials: their sum errs by ~eps, where 2 v_0^2 from the
    # eigenvectors errs by up to 30 eps at n = 32
    p0, p1, norm = np.zeros(x.size), np.ones(x.size), np.ones(x.size)
    for k in range(2 * n):
        p0, p1 = p1, (x * p1 - off[k - 1] * p0) / off[k]
        norm += p1 * p1
    w = np.zeros((2 * n + 1, 2))
    # symmetric, as leggauss makes its rule
    x, w[:, 0] = 0.5 * (x - x[::-1]), 1.0 / norm + 1.0 / norm[::-1]
    x[1::2], w[1::2, 1] = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


_EPS = np.finfo(float).eps
_ROT = cmath.exp(1j * math.pi / 4.0)

# an integrand call receives at most this many nodes, whatever the number of
# rows or the size of one row's rule, so memory stays flat; 2^14 read slower
# on the norms benchmark and no faster on propagate or focusing
_BLOCK_NODES = 1 << 13


@lru_cache(maxsize=None)
def _tiled_rule(nodes: int, chunk: int):
    """Per node of `chunk` panels of the gk_nodes(nodes) rule end to end:
    panel centre (in panel widths) and node on [-1, 1]; and the Kronrod and
    Gauss weights as one (2, chunk (2 nodes + 1)) array."""
    x, w = gk_nodes(nodes)
    return (np.repeat(np.arange(chunk) + 0.5, x.size), np.tile(x, chunk),
            np.ascontiguousarray(np.tile(w, (chunk, 1)).T))


def gl_rows(f, a, b, npanels, nodes: int = 32, ids=None, absolute: bool = False):
    """(sums, mags): sums (2, rows, C), the composite Kronrod (sums[0]) and
    Gauss-Legendre (sums[1]) sums of f over [a[i], b[i]] with npanels[i]
    equal panels of the gk_nodes(nodes) rule, 2 nodes + 1 nodes a panel;
    mags (rows, C), with absolute, the Kronrod sums of |weight * f| (else
    None); (2, 0, 1) and (0, 1) with no rows.

    f(x), or f(x, ids[i]) on row i's nodes where ids is given, returns one
    value per node or a (C, x.size) array.  Rows are cut into chunks of L
    panels, L the largest power of two dividing every count; the fewest
    blocks of at most _BLOCK_NODES nodes, as even as whole chunks allow,
    each summed against both weights by one matmul.
    """
    if not a.size:
        return np.zeros((2, 0, 1)), (np.zeros((0, 1)) if absolute else None)
    # the largest power of two dividing every count, at most one block long
    low = int(np.bitwise_or.reduce(npanels))
    chunk = min(low & -low, 1 << max(0, (_BLOCK_NODES // (2 * nodes + 1)).bit_length() - 1))
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
    # even blocks: a call that needs two holds no fuller block than it must
    # (fuller blocks of the norms integrands fault more pages in)
    blocks = -(-start.size // max(1, _BLOCK_NODES // centre.size))
    per = -(-start.size // blocks)
    for i in range(0, start.size, per):
        s = slice(i, i + per)
        pts = (start[s, None] + centre * width[s, None] + half[s, None] * x).ravel()
        vals = f(pts) if ids is None else f(pts, ids[s].repeat(centre.size))
        vals = vals.reshape(-1, pts.size // centre.size, centre.size)
        # weights @ values^T forms each sum as a dot product; values @
        # weights^T with one chunk in the block adds its terms one by one,
        # up to ten times less accurately
        sums.append((w @ vals.swapaxes(1, 2)) * half[s])
        if absolute:
            mags.append((np.abs(vals) @ w[0]) * half[s])
    out = [parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
           for parts in ((sums, mags) if absolute else (sums,))]
    if first is not None:
        out = [np.add.reduceat(total, first, axis=-1) for total in out]
    return out[0].transpose(1, 2, 0), (out[1].T if absolute else None)


def refine_rows(f, a, b, start, cap, rtol: float, nodes: int = 32, ids=None,
                atol=0.0, floor=0.0, absolute: bool = False):
    """Refine every row of gl_rows (f, a, b, nodes, ids as there) from
    start[row] panels.  Each round takes an entry's (row, column) Kronrod
    sum as its value and |Kronrod - Gauss| as its change; the entry freezes
    once its change is within max(rtol |value|, bound), and a row is
    evaluated again at twice its panels while an entry is live and the
    count can double within cap.  A NaN change never agrees.  The bound is
    atol (one value, or one per row as a (rows, 1) column), raised where
    floor (one value or one per column) is nonzero to floor[column] * the
    column's summed |first value|, which makes it (1 or rows, C).

    Returns (values, deltas, live, mags), each (rows, C): each entry's value
    and change at the round that froze it (else its last), the entries left
    live at the cap, and with absolute that round's Kronrod sums of |w f|.
    """
    count = np.full(a.size, start, dtype=np.int64)
    sums, mags = gl_rows(f, a, b, count, nodes, ids, absolute)
    vals, deltas = sums[0], np.abs(sums[0] - sums[1])
    bound = np.asarray(atol).reshape(-1, 1)
    if np.count_nonzero(floor):
        bound = np.fmax(bound, floor * np.abs(vals).sum(axis=0))
    live = np.ones(vals.shape, dtype=bool)
    # k indexes the rows of the round, a slice while every row goes on
    rows, k = np.arange(a.size), slice(None)
    while True:
        # fmax: a NaN atol leaves rtol |value|
        limit = np.fmax(rtol * np.abs(vals[k]), bound[k] if len(bound) > 1 else bound)
        live[k] = was = live[k] & ~(deltas[k] <= limit)
        rows = rows[was.any(axis=1) & (2 * count[k] <= cap)]
        if not rows.size:
            return vals, deltas, live, mags
        k = rows if rows.size < a.size else slice(None)
        count[k] *= 2
        sums, mag = gl_rows(f, a[k], b[k], count[k], nodes, None if ids is None else ids[k],
                            absolute)
        was = live[k]
        vals[k] = np.where(was, sums[0], vals[k])
        deltas[k] = np.where(was, np.abs(sums[0] - sums[1]), deltas[k])
        if absolute:
            mags[k] = np.where(was, mag, mags[k])


def composite_gl(f, a: float, b: float, npanels: int, nodes: int = 32):
    """Composite Gauss-Legendre sum (the Gauss column of gl_rows), as a
    complex number; f must accept an ndarray.  A fixed rule checks no
    convergence, so no module calls it; perfbench/spans.py traces it by name."""
    sums, _ = gl_rows(f, np.array([a], dtype=float), np.array([b], dtype=float),
                      np.array([npanels]), nodes)
    return complex(sums[1, 0, 0])


def trapezoid(y, x) -> float:
    """Trapezoid-rule integral of samples y at the 1-D abscissae x."""
    y, x = np.asarray(y), np.asarray(x)
    return float(np.sum(np.diff(x) * (y[1:] + y[:-1]) / 2.0))


def linear_fit(x, y):
    """(slope, intercept, slope standard error) of the least-squares line
    through the 1-D arrays (x, y), by the closed form in centred sums; the
    standard error is sqrt(sum (dy - slope dx)^2 / (N - 2) / S_xx), from the
    residuals, so a near-exact line keeps its digits."""
    n = x.size
    xm, ym = float(x.sum()) / n, float(y.sum()) / n
    dx, dy = x - xm, y - ym
    # the sums over n, as numpy's biased covariance forms them
    sxx, sxy = (float(dx @ v) * (1.0 / n) for v in (dx, dy))
    slope = sxy / sxx
    res = dy - slope * dx
    stderr = math.sqrt(float(res @ res) / (n - 2) / (n * sxx)) if n > 2 else 0.0
    return slope, ym - slope * xm, stderr


def _rows(*args):
    """The arguments (numbers or 1-D arrays) as float arrays of one length."""
    args = [np.array(v, dtype=float, ndmin=1) for v in args]
    return np.broadcast_arrays(*args) if len({v.size for v in args}) > 1 else args


def osc_integral_rows(f, a, b, phase_span, tol: float = 1e-9,
                      max_points: int = 600_000):
    """Integrate f(x, row) over [a[row], b[row]] for every row, where row
    `row` oscillates with total phase variation phase_span[row].

    f receives the nodes of many rows at once, with the row index of each
    node.  Each row starts from about one 32-node Gauss panel (65 Kronrod
    nodes) per three cycles, and refine_rows doubles its panels until the
    Gauss and Kronrod sums agree to tol * max(1, |value|), or until the next
    rule would exceed max_points nodes; a row that asks for more panels than
    that at the start is clipped to the cap and estimates inf.  The error
    estimate adds to the last |Kronrod - Gauss| a rounding term,
    eps * sum |weight * f| * (1 + phase_span) on the last rule.

    Returns (values, error_estimates), one entry per row.
    """
    a, b, span = _rows(a, b, phase_span)
    values = np.zeros(a.size, dtype=complex)
    errs = np.zeros(a.size)
    rows = np.flatnonzero(b > a)
    if rows.size:
        cap = max_points // 65
        # two panels, not one: one cost the bump ops 1.5-1.7x for 2% on focusing
        want = np.maximum(2, np.ceil(np.maximum(span[rows] / (2.0 * math.pi), 1.0) / 3.0))
        vals, deltas, _, mags = refine_rows(f, a[rows], b[rows],
                                            np.minimum(want, cap).astype(np.int64), cap,
                                            tol, ids=rows, atol=tol, absolute=True)
        values[rows] = vals[:, 0]
        errs[rows] = np.where(want > cap, math.inf,
                              deltas[:, 0] + _EPS * mags[:, 0] * (1.0 + span[rows]))
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


# a ray's panels in tau/tau*, graded toward its start, where an endpoint power
# or a branch point of h sits; each starts as one 16-node Gauss panel (33
# Kronrod nodes) and doubles to at most _RAY_CAP subpanels
_RAY_EDGES = np.array([0.0, 1e-3, 0.02, 0.15, 0.5, 1.0])
_RAY_CAP = 16
# a ray first ends where c2 tau^2 + c tau = 45 (e^{-45} of the exponential at
# its start), and doubles in length, at most _RAY_DOUBLINGS times, while its
# end term is above eps of its value
_RAY_DECAY = 45.0
_RAY_DOUBLINGS = 6


def rotated_tail(h, rho0, a, c2: float = 1.0, delta=0.0, tol: float = 1e-9):
    """int_rho0^inf (rho - rho0)^{-delta} h(rho, row) e^{i(c2 rho^2 + a rho)} drho
    for every row, with rho0, a and delta in [0, 1) given per row, by
    numerical steepest descent on rays from p along +-d, d = e^{i pi/4}:
    ray(rho0, d), or, for a row with its stationary point rho_s = -a/(2 c2)
    beyond rho0, ray(rho0, -d) - ray(rho_s, -d) + ray(rho_s, d), at a cost
    that does not grow with rho_s.  c2 = 0 needs a > 0 on every row.

    A ray rho = p + tau (+-d), tau in [0, tau*] with c2 tau*^2 + c tau* =
    _RAY_DECAY (c its linear decay rate), is tau = tau* u on u in [0, 1];
    its _RAY_EDGES panels are rows of one refine_rows call (16 Gauss nodes,
    ids = ray, rtol tol as in osc_integral_rows), and its value is their sum.
    On the ray from rho0 with delta > 0, tau = tau* u^q, q = k/(1-delta),
    turns tau^{-delta} dtau into tau*^{1-delta} q u^{k-1} du, so the
    endpoint power is never formed; k = 1 unless delta < 2/3, where the
    least k with q >= 3 keeps h's Taylor terms u^{jq} smooth; the panels
    are the same in tau.  On the rays from rho_s the power is evaluated
    directly.  A ray whose end term (twice the integrand at its end L over
    its decay rate there) is above eps of its value gains the panel [L, 2L],
    refined to tol of the ray's value, and so on.  h receives the nodes of
    many rows at once, with the row index of each node; it must accept
    complex input and be analytic (and at most polynomially growing) where
    the rays sweep, below [rho0, rho_s] too.

    The error estimate adds per ray the panels' last |Kronrod - Gauss|, the
    end term and a rounding term, eps * sum |weight * integrand| times the bound
    1 + |exponent| + c2 p^2 + |a p| on the ray, so lost digits show in it.
    Returns (values, error_estimates), one entry per row.
    """
    rho0, a, delta = _rows(rho0, a, delta)
    if not ((delta >= 0.0) & (delta < 1.0)).all():
        raise ValueError("need 0 <= delta < 1")
    if c2 < 0 or (c2 == 0 and not np.all(a > 0)):
        raise ValueError("need c2 > 0, or c2 = 0 with a > 0")
    stat = a < -2.0 * c2 * rho0
    seg = np.flatnonzero(stat)
    n, m = rho0.size, seg.size
    # rays: one from each rho0, then ray(rho_s, -d) and ray(rho_s, d) for the
    # rows in seg; s is a ray's direction sign.  The sum takes the ray from
    # rho0 with sign s and both rays from rho_s with sign +1
    row = np.concatenate([np.arange(n), seg, seg])
    rho_s = -a[seg] / (2.0 * c2)
    p = np.concatenate([rho0, rho_s, rho_s])
    s = np.ones(row.size)
    s[:n][stat] = -1.0
    s[n:n + m] = -1.0
    # the exponent at p + tau s d is phi0 - (1 - i) c tau - c2 tau^2, with
    # c = s (2 c2 p + a)/sqrt 2 >= 0 the linear decay rate along the ray
    a = a[row]
    c = s * (2.0 * c2 * p + a) * math.sqrt(0.5)
    # tau* solves c2 tau^2 + c tau = _RAY_DECAY; 2 D/(c + root) never
    # cancels (it is D/c at c2 = 0)
    tau_star = 2.0 * _RAY_DECAY / (c + np.sqrt(c * c + 4.0 * _RAY_DECAY * c2))
    step = s * _ROT
    lin = c * complex(-1.0, 1.0)
    # the exponent's rounding bound on the ray: its largest part c2 p^2 +
    # |a p| may have cancelled in phi0
    big = 1.0 + 2.0 * (c2 * p * p + np.abs(a * p))

    # the ray from rho0 of a row with delta > 0 takes the substitution, where
    # (rho - rho0)^{-delta} = tau^{-delta} (s d)^{-delta}; its rays from
    # rho_s take the power at each node
    powered = bool(delta.any())
    q = np.ones(row.size)
    if powered:
        d_ray = delta[row]
        sub = np.zeros(row.size, dtype=bool)
        sub[:n] = delta > 0
        direct = (d_ray > 0) & ~sub
        jac = np.where(sub, np.maximum(1.0, np.ceil(3.0 * (1.0 - d_ray) - 1e-9)) - 1.0, 0.0)
        q[sub] = (jac[sub] + 1.0) / (1.0 - d_ray[sub])
    end, length = np.zeros(row.size), tau_star.copy()

    def f(u, ray):
        # the integrand over du but for the ray's constant factor, the scale
        # of du times e^{phi0}
        tau = tau_star[ray] * (u ** q[ray] if powered else u)
        out = h(p[ray] + tau * step[ray], row[ray]) * np.exp((lin[ray] - c2 * tau) * tau)
        if powered:
            out *= u ** jac[ray]
            on = direct[ray]
            off = p[ray[on]] - rho0[row[ray[on]]] + tau[on] * step[ray[on]]
            out[on] *= off ** -d_ray[ray[on]]
        return out

    # the rays' graded panels in u, the same in tau for every q; a ray
    # whose end term is above eps of its value is extended by one panel
    # [L, 2L] in tau, to tol of the ray's value, as often as _RAY_DOUBLINGS.
    # Per ray, in units of du: the panels' summed values, last changes and
    # sums of |w f|.  k indexes the rays in todo, a slice in the first round
    edges = _RAY_EDGES ** (1.0 / q[:, None])
    lo, hi = edges[:, :-1], edges[:, 1:]
    total = np.zeros(row.size, dtype=complex)
    change, mag = np.zeros(row.size), np.zeros(row.size)
    todo, k, atol = np.arange(row.size), slice(None), 0.0
    ids = todo.repeat(lo.shape[1])
    for _ in range(_RAY_DOUBLINGS + 1):
        vals, deltas, _, mags = refine_rows(f, lo.ravel(), hi.ravel(), 1, _RAY_CAP, tol,
                                            nodes=16, ids=ids, atol=atol, absolute=True)
        for acc, v in ((total, vals), (change, deltas), (mag, mags)):
            acc[k] += v.reshape(todo.size, -1).sum(axis=1)
        # the tail beyond the end L: twice |integrand| at the end u = hi over
        # its decay rate r there, with dtau/du = q L / u; a bound while |h|
        # grows slower than tau^{r L / 2}
        ell, u_end = length[k], hi[:, -1]
        rate = c[k] + 2.0 * c2 * ell
        end[k] = 2.0 * np.abs(f(u_end, todo)) * u_end / (q[k] * ell * rate)
        todo = k = todo[end[k] > _EPS * np.abs(total[k])]
        if not todo.size:
            break
        lo = ((length[k] / tau_star[k]) ** (1.0 / q[k]))[:, None]
        length[k] *= 2.0
        hi = ((length[k] / tau_star[k]) ** (1.0 / q[k]))[:, None]
        ids, atol = todo, tol * np.abs(total[k])
    scale = tau_star * (np.where(sub, tau_star ** -d_ray * q, 1.0) if powered else 1.0)
    err = scale * (change + end + _EPS * (big + (math.sqrt(2.0) * c + c2 * length) * length) * mag)
    total *= scale * np.exp(1j * p * (c2 * p + a))
    if powered:
        # the substitution's scale and the phase (s d)^{-delta} add a few roundings
        err[sub] += 4.0 * _EPS * np.abs(total[sub])
        total[sub] *= np.exp(-1j * math.pi / 4.0 * d_ray[sub] * np.where(s[sub] > 0, 1.0, -3.0))
    values, errs = s[:n] * total[:n], err[:n]
    values[seg] += total[n:n + m] + total[n + m:]
    errs[seg] += err[n:n + m] + err[n + m:]
    return _ROT * values, errs
