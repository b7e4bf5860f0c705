"""Composite row sums; steepest-descent tails: stationary points on rays,
one-ray rows unchanged; the line fit."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from disperse_lab.quadrature import (_BLOCK_NODES, _composite_rows, gl_nodes,
                                    osc_integral_rows, rotated_tail, trapezoid)


def _one_ray(h, rho0, a, c2, nodes=96):
    """The one-ray rule for rows with no stationary point beyond rho0, as it
    stood before rows that pass one were put on rays: rho = rho0 + tau
    e^{i pi/4} on [0, tau*], three panels, full rule and half-size check
    rule.  (values, |full - check|) per row."""
    rho0, a = (np.array(v, dtype=float, ndmin=1) for v in np.broadcast_arrays(rho0, a))
    c = (2.0 * c2 * rho0 + a) / math.sqrt(2.0)
    tau_star = (-c + np.sqrt(c * c + 180.0 * c2)) / (2.0 * c2)
    rot = cmath.exp(1j * math.pi / 4.0)
    phi0 = 1j * (c2 * rho0 * rho0 + a * rho0)
    lin = (2.0 * c2 * rho0 + a) * complex(-1.0, 1.0) / math.sqrt(2.0)
    x, w = gl_nodes(nodes)
    x2, w2 = gl_nodes(nodes // 2)
    edges = np.array([0.0, 0.15, 0.5, 1.0])
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    u = mid[:, None] + half[:, None] * np.concatenate([x, x2])
    full = half[:, None] * np.concatenate([w, 0.0 * w2])
    low = half[:, None] * np.concatenate([0.0 * w, w2])
    tau = tau_star[:, None, None] * u
    rho = rho0[:, None, None] + tau * rot
    vals = h(rho.ravel()).reshape(tau.shape) * np.exp(
        phi0[:, None, None] + lin[:, None, None] * tau - c2 * tau * tau)
    total = tau_star * np.sum(vals * full, axis=(1, 2))
    check = tau_star * np.sum(vals * low, axis=(1, 2))
    return rot * total, np.abs(total - check)


def _h(rho):
    return (1.0 + rho) ** -1.5


def _one(rho, row):
    return np.ones(rho.shape, dtype=complex)


class TestRotatedTail:
    @pytest.mark.parametrize("c2", [1.0, 0.3])
    def test_one_ray_rows_are_unchanged(self, c2):
        # rows without a stationary point beyond rho0 keep the one-ray rule
        # bit for bit, also in a batch with rows that pass a stationary point
        rho0 = np.array([1.0, 2.5, 0.2, 1.0, 3.0])
        a = np.array([0.5, -4.0, 3.0, -30.0, -1.0]) * c2
        vals, errs = rotated_tail(lambda r, row: _h(r), rho0, a, c2=c2)
        one = np.array([0, 1, 2, 4])
        want, diff = _one_ray(_h, rho0[one], a[one], c2)
        assert np.array_equal(vals[one], want)
        assert np.all((diff <= errs[one]) & (errs[one] <= diff + 1e-12 * np.abs(want)))

    @pytest.mark.parametrize("c2", [1.0, 0.25])
    def test_stationary_point_on_rays(self, c2):
        # int_rho0^inf with the stationary point rho_s inside: against the
        # real-axis segment up to rho_s + 1 and the one-ray rule beyond it
        rho0 = np.array([1.0, 0.5, 4.0])
        a = -2.0 * c2 * np.array([20.0, 3.0, 60.0])
        vals, errs = rotated_tail(lambda r, row: _h(r), rho0, a, c2=c2)
        rho1 = -a / (2.0 * c2) + 1.0
        span = np.abs(c2 * (rho1 ** 2 - rho0 ** 2) + a * (rho1 - rho0)) + 2.0
        seg, seg_err = osc_integral_rows(
            lambda r, row: _h(r) * np.exp(1j * (c2 * r * r + a[row] * r)),
            rho0, rho1, span, tol=1e-13, max_points=2_000_000)
        tail, tail_err = _one_ray(_h, rho1, a, c2)
        ref = seg + tail
        assert np.all(np.abs(vals - ref) <= errs + seg_err + tail_err + 1e-14 * np.abs(ref))
        assert np.all(errs <= 1e-11 * np.abs(ref))

    def test_error_covers_phase_rounding(self):
        # at rho0 ~ 1e4 the phase rho0^2 ~ 1e8 is rounded to ~1e-8, which the
        # two rules share; the rounding term of the estimate must cover it
        rho0 = 1.0e4 + 0.1
        (got,), (err,) = rotated_tail(lambda r, row: np.ones(r.shape, dtype=complex),
                                      rho0, 0.0)
        with mpmath.workdps(40):
            r = mpmath.mpf(rho0)
            want = complex(mpmath.sqrt(mpmath.pi) / 2 * mpmath.expjpi(mpmath.mpf(1) / 4)
                           * mpmath.erfc(mpmath.expjpi(-mpmath.mpf(1) / 4) * r))
        assert abs(got - want) > 1e-12 * abs(want)     # the loss is real
        assert abs(got - want) <= err
        assert err <= 1e-6 * abs(want)

    @pytest.mark.parametrize("delta", [0.2, 0.5, 0.9, 0.99])
    def test_endpoint_power_closed_forms(self, delta):
        # int_0^inf rho^{-delta} e^{i a rho} drho = Gamma(1-delta) a^{delta-1} e^{i pi (1-delta)/2}
        # int_0^inf rho^{-delta} e^{i rho^2} drho = Gamma((1-delta)/2) e^{i pi (1-delta)/4} / 2
        a = (0.5, 3.0, 100.0)
        got, err = rotated_tail(_one, 0.0, np.array(a), c2=0.0, delta=delta)
        (got2,), (err2,) = rotated_tail(_one, 0.0, 0.0, c2=1.0, delta=delta)
        got, err = np.append(got, got2), np.append(err, err2)
        with mpmath.workdps(30):
            d = mpmath.mpf(delta)
            want = np.array([complex(mpmath.gamma(1 - d) * mpmath.mpf(ai) ** (d - 1)
                                     * mpmath.expjpi((1 - d) / 2)) for ai in a]
                            + [complex(mpmath.gamma((1 - d) / 2) * mpmath.expjpi((1 - d) / 4) / 2)])
        assert np.all(np.abs(got - want) <= err)
        if delta in (0.5, 0.9):
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    def test_tiny_c2_keeps_the_ray_length(self):
        # 180 c2 far below c^2 must not cancel tau* to 0: against the c2 = 0
        # closed form Gamma(1/2) a^{-1/2} e^{i pi/4}
        want = math.sqrt(math.pi / 3.0) * cmath.exp(1j * math.pi / 4.0)
        for c2 in (1e-18, 1e-14):
            (got,), (err,) = rotated_tail(_one, 0.0, 3.0, c2=c2, delta=0.5)
            assert abs(got - want) <= 1e-12 * abs(want)
            assert abs(got - want) <= err + 1e-12 * abs(want)

    def test_rejects_bad_inputs(self):
        for delta in (-0.1, 1.0, math.nan):
            with pytest.raises(ValueError):
                rotated_tail(_one, 0.0, 1.0, delta=delta)
        with pytest.raises(ValueError):
            rotated_tail(_one, 0.0, np.array([1.0, 0.0]), c2=0.0)


def _composite_rows_1d(f, a, b, npanels, rows, nodes=32, absolute=False):
    """_composite_rows as it stood when integrands returned one value per
    node: the one-integrand path must keep this arithmetic bit for bit."""
    x, w = gl_nodes(nodes)
    counts = npanels[rows]
    first = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(counts, out=first[1:])
    width = (b[rows] - a[rows]) / counts
    sums = np.zeros(rows.size, dtype=complex)
    mags = np.zeros(rows.size)
    step = max(1, _BLOCK_NODES // nodes)
    for g0 in range(0, int(first[-1]), step):
        g = np.arange(g0, min(g0 + step, int(first[-1])))
        loc = np.searchsorted(first, g, side="right") - 1
        half = 0.5 * width[loc]
        mid = a[rows[loc]] + (g - first[loc] + 0.5) * width[loc]
        vals = f((mid[:, None] + half[:, None] * x).ravel(), np.repeat(rows[loc], nodes))
        panel = np.sum(half[:, None] * w * vals.reshape(-1, nodes), axis=1)
        held = np.arange(loc[0], loc[-1] + 1)
        start = np.maximum(first[held] - g0, 0)
        sums[held] += np.add.reduceat(panel, start)
        if absolute:
            mags[held] += np.add.reduceat(half * (np.abs(vals).reshape(-1, nodes) @ w), start)
    return (sums, mags) if absolute else sums


class TestCompositeRows:
    # rows of very different sizes, some spanning several node blocks
    a = np.array([0.0, 0.5, 1.0, 3.0, 10.0])
    b = np.array([0.5, 2.0, 7.0, 3.5, 90.0])
    npanels = np.array([3, 40, 700, 1, 1500])
    rows = np.array([0, 1, 2, 3, 4])

    @staticmethod
    def _f(x, row):
        return np.exp(1j * x * x) / (1.0 + x) * (row + 1.0)

    def test_one_column_path_is_unchanged(self):
        f = self._f
        for sel in (self.rows, np.array([2, 3])):
            for nodes in (24, 32):
                args = (f, self.a, self.b, self.npanels, sel, nodes)
                got, got_mag = _composite_rows(*args, absolute=True)
                ref, ref_mag = _composite_rows_1d(*args, absolute=True)
                assert np.array_equal(got, ref) and np.array_equal(got_mag, ref_mag)
                assert np.array_equal(_composite_rows(*args), _composite_rows_1d(*args))
        empty = np.array([], dtype=int)
        assert _composite_rows(f, self.a, self.b, self.npanels, empty).shape == (0,)

    def test_trapezoid(self):
        x = np.geomspace(1.0, 8.0, 301)
        assert trapezoid(x ** 2, x) == pytest.approx((8.0 ** 3 - 1.0) / 3.0, rel=1e-4)
        assert trapezoid([1.0, 3.0], [0.0, 2.0]) == 4.0
