"""The Gauss-Kronrod rule; composite row sums and their panel doubling;
steepest-descent tails: stationary points on rays, one-ray rows against
mpmath, rays as rows of the one doubling loop; the line fit; one rule
cache."""

import ast
import cmath
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from disperse_lab import quadrature
from disperse_lab.quadrature import (_BLOCK_NODES, gk_nodes, gl_rows, osc_integral,
                                    osc_integral_rows, rotated_tail, trapezoid)


def _mp_ray(rho0, a, c2):
    """int_rho0^inf (1 + rho)^{-3/2} e^{i(c2 rho^2 + a rho)} drho per row on
    the one ray rho = rho0 + tau e^{i pi/4}, by mpmath at 30 digits: the
    reference for rows with no stationary point beyond rho0."""
    out = []
    with mpmath.workdps(30):
        d = mpmath.expjpi(mpmath.mpf(1) / 4)
        for r0, ai in zip(rho0, a):
            r0, ai = mpmath.mpf(float(r0)), mpmath.mpf(float(ai))

            def f(tau):
                r = r0 + tau * d
                return (1 + r) ** -1.5 * mpmath.expj(c2 * r * r + ai * r) * d
            out.append(complex(mpmath.quad(f, [0, 1, 3, 10, mpmath.inf])))
    return np.array(out)


def _h(rho):
    return (1.0 + rho) ** -1.5


def _one(rho, row):
    return np.ones(rho.shape, dtype=complex)


class TestGaussKronrod:
    # QUADPACK's dqk15 table (Piessens et al. 1983): the Kronrod nodes and
    # weights from the outermost node in to x = 0, and the 7-point Gauss weights
    XGK = [0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
           0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
           0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
           0.207784955007898467600689403773245, 0.0]
    WGK = [0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
           0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
           0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
           0.204432940075298892414161999234649, 0.209482141084727828012999174891714]
    WG = [0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
          0.381830050505118944950369775488975, 0.417959183673469387755102040816327]

    @pytest.mark.parametrize("n", [1, 7, 16, 24, 32])
    def test_gauss_part_is_leggauss(self, n):
        x, w = gk_nodes(n)
        gx, gw = np.polynomial.legendre.leggauss(n)
        assert x.shape == (2 * n + 1,) and w.shape == (2 * n + 1, 2)
        assert np.array_equal(x[1::2], gx) and np.array_equal(w[1::2, 1], gw)
        assert not w[::2, 1].any() and np.all(np.diff(x) > 0)
        assert not (x.flags.writeable or w.flags.writeable)

    @pytest.mark.parametrize("n", [16, 24, 32])
    def test_kronrod_rule_is_exact_to_degree_3n_plus_1(self, n):
        x, w = gk_nodes(n)
        assert np.all(w[:, 0] > 0) and abs(w[:, 0].sum() - 2.0) <= 2e-15
        for k in range(3 * n + 2):
            want = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(w[:, 0] @ x ** k - want) <= 2e-15, k

    def test_g7_k15_matches_quadpack(self):
        # to about eps in absolute terms, as leggauss(7) matches its part
        x, w = gk_nodes(7)
        for got, want in ((x[:8], -np.array(self.XGK)), (x[7:], self.XGK[::-1]),
                          (w[:8, 0], self.WGK), (w[7:, 0], self.WGK[::-1]),
                          (w[1:8:2, 1], self.WG)):
            assert np.allclose(got, want, rtol=0.0, atol=2.5e-16)


class TestRotatedTail:
    @pytest.mark.parametrize("c2", [1.0, 0.3])
    def test_one_ray_rows_against_mpmath(self, c2):
        # rows without a stationary point beyond rho0 take one ray, also in
        # a batch with rows that pass a stationary point: each agrees with
        # mpmath on that ray within its estimate, and the estimate is tight
        rho0 = np.array([1.0, 2.5, 0.2, 1.0, 3.0])
        a = np.array([0.5, -4.0, 3.0, -30.0, -1.0]) * c2
        vals, errs = rotated_tail(lambda r, row: _h(r), rho0, a, c2=c2)
        one = np.array([0, 1, 2, 4])
        want = _mp_ray(rho0[one], a[one], c2)
        assert np.all(np.abs(vals[one] - want) <= errs[one])
        assert np.all(errs[one] <= 1e-12 * np.abs(want))

    @pytest.mark.parametrize("c2", [1.0, 0.25])
    def test_stationary_point_on_rays(self, c2):
        # int_rho0^inf with the stationary point rho_s inside: against the
        # real-axis segment up to rho_s + 1 and mpmath on one ray beyond it
        rho0 = np.array([1.0, 0.5, 4.0])
        a = -2.0 * c2 * np.array([20.0, 3.0, 60.0])
        vals, errs = rotated_tail(lambda r, row: _h(r), rho0, a, c2=c2)
        rho1 = -a / (2.0 * c2) + 1.0
        span = np.abs(c2 * (rho1 ** 2 - rho0 ** 2) + a * (rho1 - rho0)) + 2.0
        seg, seg_err = osc_integral_rows(
            lambda r, row: _h(r) * np.exp(1j * (c2 * r * r + a[row] * r)),
            rho0, rho1, span, tol=1e-13, max_points=2_000_000)
        ref = seg + _mp_ray(rho1, a, c2)
        assert np.all(np.abs(vals - ref) <= errs + seg_err + 1e-14 * np.abs(ref))
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
        # each within its estimate; at tol 1e-12 the estimate is within
        # 1e-12 relative (the fixed rule it replaced read 4.4e-6 at 0.99)
        a = np.array([1.0, 0.5, 3.0, 100.0])
        with mpmath.workdps(30):
            d = mpmath.mpf(delta)
            want = np.array([complex(mpmath.gamma(1 - d) * mpmath.mpf(ai) ** (d - 1)
                                     * mpmath.expjpi((1 - d) / 2)) for ai in a]
                            + [complex(mpmath.gamma((1 - d) / 2) * mpmath.expjpi((1 - d) / 4) / 2)])
        for tol in (1e-9, 1e-12):
            got, err = rotated_tail(_one, 0.0, a, c2=0.0, delta=delta, tol=tol)
            (got2,), (err2,) = rotated_tail(_one, 0.0, 0.0, c2=1.0, delta=delta, tol=tol)
            got, err = np.append(got, got2), np.append(err, err2)
            assert np.all(np.abs(got - want) <= err), tol
        assert np.all(err <= 1e-12 * np.abs(want))

    def test_rays_are_rows_of_refine_rows(self, monkeypatch):
        # a ray's graded panels are rows of one refine_rows call: on a
        # smooth ray every panel agrees at its first comparison, so the ray
        # costs one kernel call of 5 panels of 33 Gauss-Kronrod nodes (16
        # Gauss nodes), and one call at its end node for its end term
        calls = []
        refine = quadrature.refine_rows

        def spy(f, a, b, *args, **kw):
            calls.append(a.size)
            return refine(f, a, b, *args, **kw)
        monkeypatch.setattr(quadrature, "refine_rows", spy)
        g = _counted(lambda r, row: _h(r))
        (got,), (err,) = rotated_tail(g, 1.0, 0.5)
        assert calls == [5] and g.sizes == [5 * 33, 1]
        assert abs(got - _mp_ray([1.0], [0.5], 1.0)[0]) <= err <= 1e-13

    @pytest.mark.parametrize("a,rays", [([0.5, 1.0], 2), ([0.5, -10.0], 4)])
    def test_stationary_rays_only_where_a_row_has_one(self, a, rays):
        # the two rays from rho_s are built for a row with its stationary
        # point beyond rho0 and for no other: the kernel call holds 5 panels
        # of 33 nodes per ray, and the end terms one node per ray
        g = _counted(lambda r, row: _h(r))
        rotated_tail(g, [1.0, 2.0], a)
        assert g.sizes == [5 * 33 * rays, rays]

    def test_scalar_single_and_mixed_inputs_agree(self):
        # numbers, length-1 arrays and mixed lengths are the same rows, bit
        # for bit, with and without a stationary row and an endpoint power
        h = lambda r, row: _h(r)            # noqa: E731
        one = rotated_tail(h, 1.0, 0.5)
        for args in (([1.0], [0.5]), (np.array([1.0]), 0.5, 1.0, [0.0])):
            assert all(np.array_equal(u, v) for u, v in zip(one, rotated_tail(h, *args)))
        for a, delta in ((0.5, 0.0), (-10.0, 0.3), (np.array([0.5, -10.0]), 0.3)):
            mixed = rotated_tail(h, [1.0, 2.0], a, delta=delta)
            full = rotated_tail(h, [1.0, 2.0], np.broadcast_to(a, 2), delta=np.full(2, delta))
            assert all(np.array_equal(u, v) for u, v in zip(mixed, full)), (a, delta)

    def test_growing_h_lengthens_the_ray(self, monkeypatch):
        # rho^20 e^{-tau^2} is ~2e-9 of the ray's value at tau* = sqrt 45, so
        # the ray gains [L, 2L]; without that panel its end term must still
        # cover the truncation.  Closed form Gamma(21/2) e^{i pi 21/4} / 2
        want = math.gamma(10.5) * cmath.exp(1j * math.pi * 21.0 / 4.0) / 2.0
        calls = []
        refine = quadrature.refine_rows

        def spy(f, a, b, *args, **kw):
            calls.append(a.size)
            return refine(f, a, b, *args, **kw)
        monkeypatch.setattr(quadrature, "refine_rows", spy)
        (got,), (err,) = rotated_tail(lambda r, row: r ** 20, 0.0, 0.0)
        assert calls == [5, 1]
        assert abs(got - want) <= err <= 1e-12 * abs(want)
        monkeypatch.setattr(quadrature, "_RAY_DOUBLINGS", 0)
        (cut,), (cut_err,) = rotated_tail(lambda r, row: r ** 20, 0.0, 0.0)
        assert 1e-10 * abs(want) < abs(cut - want) <= cut_err

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


def _exact_rows(v):
    """Correctly rounded sums along the last axis of a real 2-D array."""
    return np.array([math.fsum(row) for row in v])


def _per_panel_sums(f, a, b, npanels, rows, nodes):
    """gl_rows with each panel's Gauss-Kronrod nodes formed from its own
    centre and every w f term added exactly: sums (2, rows, C), Kronrod
    then Gauss, and the Kronrod sums of |w f| (rows, C).  With dyadic panel
    widths its nodes are those of gl_rows bit for bit, so only the sums can
    differ."""
    x, w = gk_nodes(nodes)
    sums, mags = [], []
    for r in rows:
        width = (b[r] - a[r]) / npanels[r]
        pts = a[r] + (np.arange(npanels[r])[:, None] + 0.5) * width + 0.5 * width * x
        vals = np.atleast_2d(f(pts.ravel(), np.full(pts.size, r))).reshape(-1, *pts.shape)
        # the Gauss weights are zero off the Gauss nodes x[1::2]
        terms = [(0.5 * width * w[:, 0] * vals).reshape(vals.shape[0], -1),
                 (0.5 * width * w[1::2, 1] * vals[..., 1::2]).reshape(vals.shape[0], -1)]
        sums.append([_exact_rows(v.real) + 1j * _exact_rows(v.imag) for v in terms])
        mags.append(_exact_rows(np.abs(terms[0])))
    return np.array(sums).transpose(1, 0, 2), np.array(mags)


class TestCompositeRows:
    # rows of very different sizes, some spanning several node blocks;
    # every panel width is a power of two
    a = np.array([0.0, 0.5, 1.0, 3.0, 10.0, 2.0, -1.0])
    b = np.array([0.375, 1.75, 6.46875, 3.5, 103.75, 34.0, 1.0])
    npanels = np.array([3, 40, 700, 1, 1500, 2048, 512])

    @staticmethod
    def _f(x, row):
        return np.exp(1j * x * x) / (1.0 + x * x) * (row + 1.0)

    @staticmethod
    def _cols(x, row):
        return np.stack([np.exp(1j * x * x) / (1.0 + x * x), np.abs(np.sin(3.0 * x)),
                         np.cos(x) * np.exp(-0.1 * np.abs(x)) * row])

    def test_kernel_matches_per_panel_loop(self):
        # chunks of 1 (odd counts), 4 and 256 panels; ragged rows that span
        # several blocks, one column and three
        for f in (self._f, self._cols):
            for sel in (np.arange(7), np.array([1, 2, 4]), np.array([6, 5]), np.array([3])):
                for nodes in (24, 32):
                    args = (f, self.a[sel], self.b[sel], self.npanels[sel], nodes, sel)
                    got, got_mag = gl_rows(*args, absolute=True)
                    ref, ref_mag = _per_panel_sums(f, self.a, self.b, self.npanels, sel, nodes)
                    assert got.shape == ref.shape == (2, sel.size, 1 if f is self._f else 3)
                    assert np.all(np.abs(got - ref) <= 1e-15 * ref_mag), (sel, nodes)
                    assert np.all(np.abs(got_mag - ref_mag) <= 1e-15 * ref_mag), (sel, nodes)
                    plain, none = gl_rows(*args)
                    assert none is None and np.array_equal(plain, got)
        empty = np.array([], dtype=int)
        assert gl_rows(self._f, self.a[empty], self.b[empty], self.npanels[empty],
                       32, empty)[0].shape == (2, 0, 1)

    def test_blocks_of_a_call_are_equal(self):
        # 360 one-panel rows of 49 nodes (24 Gauss nodes) need three blocks
        # of at most 2^13 nodes: three of 120 rows, not 167, 167 and 26
        g = _counted(lambda x, row: np.cos(x) + 0j)
        sums, _ = gl_rows(g, np.zeros(360), np.ones(360), np.ones(360, dtype=np.int64), 24,
                          np.arange(360) % 8)
        assert g.sizes == [120 * 49] * 3
        assert np.all(np.abs(sums - math.sin(1.0)) <= 1e-15)

    def test_trapezoid(self):
        x = np.geomspace(1.0, 8.0, 301)
        assert trapezoid(x ** 2, x) == pytest.approx((8.0 ** 3 - 1.0) / 3.0, rel=1e-4)
        assert trapezoid([1.0, 3.0], [0.0, 2.0]) == 4.0


def _counted(f):
    """f(x, row) that records the nodes it receives per row and per call."""
    def g(x, row):
        g.sizes.append(x.size)
        np.add.at(g.per_row, row, 1)
        return f(x, row)
    g.sizes, g.per_row = [], np.zeros(8, dtype=np.int64)
    return g


class TestOscillatoryRows:
    def test_row_past_the_cap_stops_after_one_rule(self):
        # row 1 asks for 100 panels of 65 nodes: past max_points // 65 = 76
        # it is clipped to the cap and says so with an infinite estimate; at
        # the cap it never doubles, and its Gauss part still estimates it
        want = (np.exp(1j) - 1.0) / 1j
        for max_points, cap in ((5000, 76), (6500, 100)):
            f = _counted(lambda x, row: np.exp(1j * x))
            vals, errs = osc_integral_rows(f, 0.0, 1.0, [1.0, 600.0 * math.pi],
                                           max_points=max_points)
            assert f.per_row[1] == cap * 65 and errs[0] <= 1e-9
            assert vals[1] == pytest.approx(want, rel=1e-12)
            assert math.isinf(errs[1]) == (cap < 100)
            assert abs(vals[1] - want) <= errs[1] and (cap < 100 or errs[1] <= 1e-9)

    def test_first_rule_stays_within_max_points(self):
        # 1e8 cycles ask for 3.3e7 panels; the row starts at the cap instead,
        # never doubles and says so with an infinite estimate
        f = _counted(lambda x, row: np.exp(1j * x))
        vals, errs = osc_integral_rows(f, 0.0, 1.0, [1.0, 2.0 * math.pi * 1e8],
                                       max_points=40_000)
        assert f.per_row[1] <= 40_000
        assert math.isinf(errs[1]) and errs[0] <= 1e-9
        assert f.per_row[0] + f.per_row[1] == sum(f.sizes)

    def test_empty_intervals_are_zero(self):
        f = _counted(lambda x, row: np.exp(1j * x))
        vals, errs = osc_integral_rows(f, [1.0, 0.0, 2.0], [1.0, 1.0, 1.0], 1.0)
        assert vals[0] == vals[2] == 0.0 and errs[0] == errs[2] == 0.0
        assert abs(vals[1] - (np.exp(1j) - 1.0) / 1j) <= errs[1] <= 1e-9
        assert f.per_row[[0, 2]].sum() == 0
        assert osc_integral(lambda x: x, 1.0, 1.0, 1.0) == (0.0, 0.0)
        # with every row empty the integrand is never called
        vals, errs = osc_integral_rows(f, [1.0, 2.0], 1.0, [1.0, 5.0])
        assert len(f.sizes) == 1 and not vals.any() and not errs.any()

    def test_converged_row_is_not_evaluated_again(self):
        # a smooth row converges after one doubling, a kinked one runs on;
        # each row receives the nodes of its own one-row refinement
        funcs = (lambda x: np.exp(1j * x), lambda x: np.abs(x - 0.3) + 0j,
                 lambda x: np.cos(40.0 * x) + 0j)
        f = _counted(lambda x, row: np.choose(row, [fn(x) for fn in funcs]))
        span = [1.0, 1.0, 40.0]
        vals, errs = osc_integral_rows(f, 0.0, 1.0, span, tol=1e-12, max_points=40_000)
        for r, fn in enumerate(funcs):
            alone = _counted(lambda x, row: fn(x))
            (val,), (err,) = osc_integral_rows(alone, 0.0, 1.0, span[r], tol=1e-12,
                                               max_points=40_000)
            assert f.per_row[r] == alone.per_row[0], r
            assert abs(vals[r] - val) <= 1e-14 * max(1.0, abs(val)) and errs[r] == pytest.approx(err)
        assert f.per_row[0] == 2 * 65 < f.per_row[2] < f.per_row[1]

    def test_calls_hold_at_most_one_block(self):
        # a jump never agrees at tol 1e-15, so the row runs to max_points;
        # a block holds whole chunks of 64 panels of 65 nodes
        f = _counted(lambda x, row: np.where(x < 1.0 / 3.0, 1.0, 0.0) + 0j)
        val, err = osc_integral(lambda x: f(x, np.zeros(x.size, dtype=int)), 0.0, 1.0, 1.0,
                                tol=1e-15)
        assert max(f.sizes) == 64 * 65 <= _BLOCK_NODES
        # 2, 4, .. 8192 panels: the last rule is the largest within 600,000 nodes
        assert sum(f.sizes) == 65 * (2 * 8192 - 2)
        assert 1e-15 < err < 1e-4 and val == pytest.approx(1.0 / 3.0, abs=err)


def _kinked(x, row):
    # a smooth column, and a column with a kink at 0.3 + 0.1 row
    return np.stack([np.exp(1j * x) * x, np.abs(x - 0.3 - 0.1 * row) + 0j])


class TestRefineRows:
    def test_matches_entry_by_entry_loop(self):
        # each entry keeps the Kronrod sum, |Kronrod - Gauss| and sum |w f|
        # of the round at which it agreed, as if refined alone: rows 0 and 1
        # converge, row 2 stops at the cap with its kink column live, and
        # row 3 starts past half the cap, so it has one round
        a, b = np.array([0.0, 0.5, 0.0, 0.0]), np.array([1.0, 2.0, 3.0, 3.1])
        start, cap, tol = np.array([2, 3, 40, 70]), 128, 1e-7
        vals, deltas, live, mags = quadrature.refine_rows(
            _kinked, a, b, start, cap, tol, ids=np.arange(4), atol=tol, absolute=True)
        assert vals.shape == deltas.shape == live.shape == mags.shape == (4, 2)
        for i in range(4):
            def rule(n, c):
                sums, mag = gl_rows(_kinked, a[i:i + 1], b[i:i + 1], np.array([n]), 32,
                                    np.array([i]), absolute=True)
                return sums[0, 0, c], abs(sums[0, 0, c] - sums[1, 0, c]), mag[0, c]
            for c in range(2):
                n = start[i]
                v, d, m = rule(n, c)
                while not (agreed := d <= max(tol * abs(v), tol)) and 2 * n <= cap:
                    n *= 2
                    v, d, m = rule(n, c)
                assert live[i, c] == (not agreed), (i, c)
                assert abs(vals[i, c] - v) <= 1e-14 * m and abs(mags[i, c] - m) <= 1e-14 * m
                assert deltas[i, c] == d or abs(deltas[i, c] - d) <= 1e-14 * m, (i, c)
        assert live[:, 1].tolist() == [False, False, True, True] and not live[:, 0].any()
        assert np.isfinite(deltas).all()

    def test_nan_is_never_converged(self):
        # a NaN entry runs to the cap and is reported there; the rows beside
        # it converge, also where the column's total would set a floor
        f = lambda x, row: np.where(row == 1, np.nan, np.cos(x))
        for floor in (0.0, 1e-13):
            vals, deltas, live, _ = quadrature.refine_rows(
                f, np.zeros(2), np.ones(2), 2, 64, 1e-12, ids=np.arange(2), floor=floor)
            assert live[:, 0].tolist() == [False, True] and np.isnan(deltas[1, 0])
            assert vals[0, 0] == pytest.approx(math.sin(1.0), rel=1e-14)

    def test_first_round_is_one_kernel_call(self):
        # each row's Gauss and Kronrod sums at its start count come from one
        # integrand call of 2 nodes + 1 nodes a panel, so rows that agree
        # at their first check cost one call and take the Kronrod sum
        g = _counted(lambda x, row: np.cos(x) + 0j)
        a, b = np.zeros(2), np.array([1.0, 2.0])
        vals, deltas, live, _ = quadrature.refine_rows(g, a, b, 2, 64, 1e-12, ids=np.arange(2))
        assert g.sizes == [2 * 2 * 65] and not live.any()
        want, _ = gl_rows(lambda x, row: np.cos(x) + 0j, a, b, np.array([2, 2]), 32, np.arange(2))
        assert np.array_equal(vals, want[0]) and np.array_equal(deltas, np.abs(want[0] - want[1]))
        assert np.all(np.abs(vals[:, 0] - np.sin(b)) <= 1e-15) and np.all(deltas <= 1e-12)

    def test_atol_per_row(self):
        # a row's own atol can freeze it at its first comparison while the
        # row beside it, with atol 0, doubles until two rules agree
        f = lambda x, row: np.cos(20.0 * x) + 0j
        a, b = np.zeros(2), np.ones(2)
        vals, deltas, live, _ = quadrature.refine_rows(f, a, b, 1, 64, 1e-14, nodes=8,
                                                       ids=np.arange(2), atol=np.array([1.0, 0.0]))
        one, _ = gl_rows(f, a[:1], b[:1], np.array([1]), 8, np.arange(1))
        assert vals[0, 0] == pytest.approx(one[0, 0, 0], rel=1e-15) and 0.0 < deltas[0, 0] <= 1.0
        assert abs(vals[1, 0] - math.sin(20.0) / 20.0) <= 1e-14 and not live.any()

    def test_bound_shapes_agree(self):
        # one atol and no floor is the same bound, bit for bit, as that atol
        # per row or a zero floor per column; rows 2 and 3 cannot double at
        # once, so the later rounds index the bound by row
        a, b = np.array([0.0, 0.5, 0.0, 0.0]), np.array([1.0, 2.0, 3.0, 1.0])
        args = (_kinked, a, b, np.array([2, 3, 40, 100]), 128, 1e-9)
        one = quadrature.refine_rows(*args, ids=np.arange(4), atol=1e-9, absolute=True)
        for kw in (dict(atol=np.full(4, 1e-9)), dict(atol=1e-9, floor=np.zeros(2))):
            got = quadrature.refine_rows(*args, ids=np.arange(4), absolute=True, **kw)
            assert all(np.array_equal(u, v) for u, v in zip(one, got)), kw

    def test_floor_per_column(self):
        # a floor on the kinked column freezes it at its first comparison;
        # the smooth column beside it refines as with no floor
        a, b = np.array([0.0, 0.5, 0.0]), np.array([1.0, 2.0, 3.0])
        args = (_kinked, a, b, 2, 128, 1e-12)
        plain = quadrature.refine_rows(*args, ids=np.arange(3))
        floored = quadrature.refine_rows(*args, ids=np.arange(3), floor=np.array([0.0, 1e-3]))
        assert plain[2][:, 1].any() and not floored[2].any()
        assert all(np.array_equal(u[:, 0], v[:, 0]) for u, v in zip(plain[:3], floored[:3]))
        assert np.all(floored[1][:, 1] <= 1e-3 * np.abs(floored[0][:, 1]).sum())


class TestLinearFit:
    def test_matches_polyfit_and_stderr_formula(self):
        # slope and intercept against np.polyfit; the standard error against
        # sqrt((1 - r^2) S_yy / S_xx / (N - 2)) from np.corrcoef and np.var
        rng = np.random.default_rng(11)
        for size in (3, 12, 40):
            x = np.sort(rng.uniform(-2.0, 3.0, size))
            for noise in (0.0, 1e-9, 0.3, 1.0):
                y = 0.8 * x - 1.3 + noise * rng.standard_normal(size)
                slope, intercept, stderr = quadrature.linear_fit(x, y)
                want = np.polyfit(x, y, 1)
                assert abs(slope - want[0]) <= 1e-13 * max(abs(want[0]), 1.0)
                assert abs(intercept - want[1]) <= 1e-13 * max(abs(want[1]), 1.0)
                if noise > 0.1:
                    # 1 - r^2 cancels as the points near a line (at noise
                    # 1e-9 it is rounding noise), so compare on the slope's scale
                    r = min(abs(np.corrcoef(x, y)[0, 1]), 1.0)
                    ref = math.sqrt((1.0 - r * r) * np.var(y) / np.var(x) / (size - 2))
                    assert abs(stderr - ref) <= 1e-13 * max(abs(slope), 1.0)
        assert quadrature.linear_fit(np.array([0.0, 1.0]), np.array([1.0, 3.0])) == (2.0, 1.0, 0.0)


def _names_outside(*owners):
    """{module file: names it uses} for every package module but owners."""
    src = Path(quadrature.__file__).parent
    out = {}
    for path in sorted(src.glob("*.py")):
        if path.name in owners:
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        used |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                 for alias in node.names}
        out[path.name] = used
    return out


def test_gauss_legendre_rules_come_from_quadrature():
    # quadrature holds the package's only Gauss(-Kronrod) rule cache, and no
    # module integrates with a fixed composite rule: composite_gl checks no
    # convergence
    for name, used in _names_outside("quadrature.py").items():
        assert not used & {"leggauss", "gk_nodes", "composite_gl"}, name


def test_hankel_tail_rows_come_from_special():
    # special.hankel_tail forms every Hankel tail row and its truncation term;
    # the Herglotz envelope in profiles is a profile, not a tail
    for name, used in _names_outside("special.py", "profiles.py").items():
        assert not used & {"alpha_coeffs", "hankel_sum"}, name


def test_split_bessel_integral_comes_from_special():
    # special.bessel_split_integral holds the split rule, the head rows and
    # the Hankel tail call of propagate and the chirped datum; hankel_tail's
    # one other caller is the appendix's large-x contour
    used = _names_outside("special.py", "appendix.py")
    for name, names in used.items():
        assert "hankel_tail" not in names, name
    for name in ("propagator.py", "blowup.py"):
        assert "osc_integral_rows" not in used[name], name
