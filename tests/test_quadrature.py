"""Composite row sums and their panel doubling; steepest-descent tails:
stationary points on rays, one-ray rows against mpmath, rays as rows of the
one doubling driver; the line fit; one Gauss-Legendre rule cache."""

import ast
import cmath
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from disperse_lab import quadrature
from disperse_lab.quadrature import (_BLOCK_NODES, gl_nodes, gl_rows, osc_integral,
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
        # costs one kernel call of 5 panels and their halves at 16 nodes,
        # and one call at its end node for its end term
        calls = []
        refine = quadrature.refine_rows

        def spy(f, a, b, *args, **kw):
            calls.append(a.size)
            return refine(f, a, b, *args, **kw)
        monkeypatch.setattr(quadrature, "refine_rows", spy)
        g = _counted(lambda r, row: _h(r))
        (got,), (err,) = rotated_tail(g, 1.0, 0.5)
        assert calls == [5] and g.sizes == [3 * 5 * 16, 1]
        assert abs(got - _mp_ray([1.0], [0.5], 1.0)[0]) <= err <= 1e-13

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
    """gl_rows by a loop over single panels, every w f term added exactly:
    (sums, sums of |w f|), each (rows, C).  With dyadic panel widths its
    nodes are those of gl_rows bit for bit, so only the sums can differ."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    sums, mags = [], []
    for r in rows:
        width = (b[r] - a[r]) / npanels[r]
        terms = np.concatenate([0.5 * width * w * np.atleast_2d(
            f(a[r] + (j + 0.5) * width + 0.5 * width * x, np.full(nodes, r)))
            for j in range(npanels[r])], axis=1)       # (C, panels * nodes)
        sums.append(_exact_rows(terms.real) + 1j * _exact_rows(terms.imag))
        mags.append(_exact_rows(np.abs(terms)))
    return np.array(sums), np.array(mags)


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
                    assert got.shape == ref.shape == (sel.size, 1 if f is self._f else 3)
                    assert np.all(np.abs(got - ref) <= 1e-15 * ref_mag), (sel, nodes)
                    assert np.all(np.abs(got_mag - ref_mag) <= 1e-15 * ref_mag), (sel, nodes)
                    plain, none = gl_rows(*args)
                    assert none is None and np.array_equal(plain, got)
        empty = np.array([], dtype=int)
        assert gl_rows(self._f, self.a[empty], self.b[empty], self.npanels[empty],
                       32, empty)[0].shape == (0, 1)

    def test_blocks_of_a_call_are_equal(self):
        # 723 one-panel rows of 24 nodes need three blocks of at most 2^13
        # nodes: three of 241 rows, not 341, 341 and 41
        g = _counted(lambda x, row: np.cos(x) + 0j)
        sums, _ = gl_rows(g, np.zeros(723), np.ones(723), np.ones(723, dtype=np.int64), 24,
                          np.arange(723) % 8)
        assert g.sizes == [241 * 24] * 3
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
        # row 1 starts at 100 panels; doubling would pass max_points // 32
        f = _counted(lambda x, row: np.exp(1j * x))
        vals, errs = osc_integral_rows(f, 0.0, 1.0, [1.0, 600.0 * math.pi], max_points=5000)
        assert f.per_row[1] == 100 * 32
        assert math.isinf(errs[1]) and errs[0] <= 1e-9
        assert vals[1] == pytest.approx((np.exp(1j) - 1.0) / 1j, rel=1e-12)

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
        assert f.per_row[0] == (2 + 4) * 32 < f.per_row[2] < f.per_row[1]

    def test_calls_hold_at_most_one_block(self):
        # a jump never agrees at tol 1e-15, so the row runs to max_points
        f = _counted(lambda x, row: np.where(x < 1.0 / 3.0, 1.0, 0.0) + 0j)
        val, err = osc_integral(lambda x: f(x, np.zeros(x.size, dtype=int)), 0.0, 1.0, 1.0,
                                tol=1e-15)
        assert max(f.sizes) == _BLOCK_NODES
        # 2, 4, .. 16384 panels: the last rule is the largest within 600,000 nodes
        assert sum(f.sizes) == 32 * (2 * 16384 - 2)
        assert 1e-15 < err < 1e-4 and val == pytest.approx(1.0 / 3.0, abs=err)


def _kinked(x, row):
    # a smooth column, and a column with a kink at 0.3 + 0.1 row
    return np.stack([np.exp(1j * x) * x, np.abs(x - 0.3 - 0.1 * row) + 0j])


class TestRefineRows:
    def test_matches_entry_by_entry_loop(self):
        # each entry keeps the rule, |change| and sum |w f| of the level at
        # which it agreed, as if refined alone: rows 0 and 1 converge, row 2
        # stops at the cap with its kink column live, and row 3 starts past
        # the cap, so it is never doubled
        a, b = np.array([0.0, 0.5, 0.0, 0.0]), np.array([1.0, 2.0, 3.0, 1.0])
        start, cap, tol = np.array([2, 3, 40, 100]), 128, 1e-7
        vals, deltas, live, mags = quadrature.refine_rows(
            _kinked, a, b, start, cap, tol, ids=np.arange(4), atol=tol, absolute=True)
        assert vals.shape == deltas.shape == live.shape == mags.shape == (4, 2)
        for i in range(4):
            def rule(n):
                return gl_rows(_kinked, a[i:i + 1], b[i:i + 1], np.array([n]), 32,
                               np.array([i]), absolute=True)
            for c in range(2):
                n = start[i]
                v, m = (s[0, c] for s in rule(n))
                d, agreed = math.inf, False
                while not agreed and 2 * n <= cap:
                    n *= 2
                    cur, m = (s[0, c] for s in rule(n))
                    d, v = abs(cur - v), cur
                    agreed = d <= max(tol * abs(cur), tol)
                assert live[i, c] == (not agreed), (i, c)
                assert abs(vals[i, c] - v) <= 1e-14 * m and abs(mags[i, c] - m) <= 1e-14 * m
                assert deltas[i, c] == d or abs(deltas[i, c] - d) <= 1e-14 * m, (i, c)
        assert live[:, 1].tolist() == [False, False, True, True] and not live[:2].any()
        assert np.isinf(deltas[3]).all() and np.isfinite(deltas[:3]).all()

    def test_nan_is_never_converged(self):
        # a NaN entry runs to the cap and is reported there; the rows beside
        # it converge, also where the column's total would set a floor
        f = lambda x, row: np.where(row == 1, np.nan, np.cos(x))
        for floor in (0.0, 1e-13):
            vals, deltas, live, _ = quadrature.refine_rows(
                f, np.zeros(2), np.ones(2), 2, 64, 1e-12, ids=np.arange(2), floor=floor)
            assert live[:, 0].tolist() == [False, True] and np.isnan(deltas[1, 0])
            assert vals[0, 0] == pytest.approx(math.sin(1.0), rel=1e-14)

    def test_first_two_rules_are_one_kernel_call(self):
        # each row at its start count and its two halves at the same count
        # (the rule at twice the count) go to one integrand call, so rows
        # that agree at their first comparison cost one call
        g = _counted(lambda x, row: np.cos(x) + 0j)
        a, b = np.zeros(2), np.array([1.0, 2.0])
        vals, deltas, live, _ = quadrature.refine_rows(g, a, b, 2, 64, 1e-12, ids=np.arange(2))
        assert g.sizes == [3 * 2 * 2 * 32] and not live.any()
        want, _ = gl_rows(lambda x, row: np.cos(x) + 0j, a, b, np.array([4, 4]), 32, np.arange(2))
        assert np.all(np.abs(vals - want) <= 1e-15) and np.all(deltas <= 1e-12)

    def test_atol_per_row(self):
        # a row's own atol can freeze it at its first comparison while the
        # row beside it, with atol 0, doubles until two rules agree
        f = lambda x, row: np.cos(20.0 * x) + 0j
        a, b = np.zeros(2), np.ones(2)
        vals, deltas, live, _ = quadrature.refine_rows(f, a, b, 1, 64, 1e-14, nodes=8,
                                                       ids=np.arange(2), atol=np.array([1.0, 0.0]))
        two, _ = gl_rows(f, a[:1], b[:1], np.array([2]), 8, np.arange(1))
        assert vals[0, 0] == pytest.approx(two[0, 0], rel=1e-15) and 0.0 < deltas[0, 0] <= 1.0
        assert abs(vals[1, 0] - math.sin(20.0) / 20.0) <= 1e-14 and not live.any()


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
    # quadrature holds the package's only Gauss-Legendre rule cache, and no
    # module integrates with a fixed composite rule: composite_gl checks no
    # convergence
    for name, used in _names_outside("quadrature.py").items():
        assert not used & {"leggauss", "gl_nodes", "composite_gl"}, name


def test_hankel_tail_rows_come_from_special():
    # special.hankel_tail forms every Hankel tail row and its truncation term;
    # the Herglotz envelope in profiles is a profile, not a tail
    for name, used in _names_outside("special.py", "profiles.py").items():
        assert not used & {"alpha_coeffs", "hankel_sum"}, name
