"""Endpoint-singular frequency superposition: growth rates and L^pL^q region."""

import cmath
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from disperse_lab import appendix, cli, special
from disperse_lab.quadrature import osc_integral
from disperse_lab.appendix import (
    delta_limit_consistency,
    lpq_region,
    lr_membership,
    lr_membership_quadrature,
    min_scaling_p,
    necessary_p_bound,
    phi_expected_space_exponent,
    phi_space_fit,
    psi_expected_time_exponent,
    psi_time_fit,
    singular_phi,
    singular_psi,
    truncated_lplq,
)

INF = math.inf


def mpmath_oracle(delta, n, x, t):
    """Direct high-precision quadrature of the defining integral, with the
    endpoint singularity removed by the same power substitution."""
    nu = special.order_from_dim(n)
    pw = 1.0 / (1.0 - delta)

    # with w - 1 = v^{1/(1-delta)}: (w-1)^{-delta} dw = pw dv exactly
    def f(v):
        w = 1.0 + v ** pw
        return mpmath.exp(-1j * t * w * w) * mpmath.besselj(nu, w * x) * pw

    val = mpmath.quad(f, [0, 1], maxdegree=10)
    return x ** ((2 - n) / 2.0) * complex(val)


class TestEvaluation:
    @pytest.mark.parametrize("n,delta", [(2, 0.3), (3, 0.5), (3, 0.7)])
    def test_against_mpmath(self, n, delta):
        for x, t in ((0.5, 0.0), (3.0, 1.0), (12.0, 2.0), (7.0, 8.0),
                     (30.0, 0.5)):
            got = singular_psi(delta, n, x, t)
            want = mpmath_oracle(delta, n, x, t)
            assert abs(got - want) <= 1e-3 * max(abs(want), 1e-8)

    def test_regime_overlap_consistency(self):
        # large-t contour vs direct quadrature on their common domain
        for x, t in ((5.0, 60.0), (20.0, 120.0)):
            a, ea = appendix._contour_integral_large_t(0.5, 3, x, t)
            b, eb = appendix._direct_integral(0.5, 3, x, t)
            assert abs(a - b) <= 1e-7 * max(abs(b), 1e-10)
            assert abs(a - b) <= ea + eb
        # large-x contour vs direct quadrature
        for x, t in ((60.0, 2.0), (200.0, 10.0)):
            a, ea = appendix._contour_integral_large_x(0.5, 3, x, t)
            b, eb = appendix._direct_integral(0.5, 3, x, t)
            assert abs(a - b) <= 1e-7 * max(abs(b), 1e-10)
            assert abs(a - b) <= ea + eb

    def test_large_t_contour_near_delta_one(self):
        # tau = v^{1/(1-delta)} underflows to 0 near v = 0 at delta = 0.99
        a, ea = appendix._contour_integral_large_t(0.99, 3, 5.0, 60.0)
        b, eb = appendix._direct_integral(0.99, 3, 5.0, 60.0)
        assert cmath.isfinite(a)
        assert abs(a - b) <= 1e-10 * abs(b)
        assert abs(a - b) <= ea + eb

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_large_x_contour_at_t_zero(self, n):
        # phi_space_fit reaches x = 1e5 on this branch; at delta = 1/2,
        # w - 1 = v^2 turns (w-1)^{-1/2} dw into 2 dv, a smooth integrand
        nu = special.order_from_dim(n)
        for x in (3e4, 1e5):
            got, err = appendix._contour_integral_large_x(0.5, n, x, 0.0)
            want, want_err = osc_integral(
                lambda v: 2.0 * special.bessel_j(nu, (1.0 + v * v) * x),
                0.0, 1.0, x + 2.0, 1e-13, max_points=4_000_000)
            assert abs(got - want) <= err
            assert abs(got - want) <= want_err
            assert abs(got - want) <= 1e-10 * abs(want)

    def test_negative_time_on_contours(self):
        # the large-t and the large-x contour regimes at t < 0, against the
        # direct quadrature at the same t
        for x, t in ((5.0, -600.0), (3e4, -100.0)):
            got = singular_psi(0.5, 3, x, t)
            want = x ** -0.5 * appendix._direct_integral(0.5, 3, x, t)[0]
            assert abs(got - want) <= 1e-9 * abs(want)

    def test_large_x_contour_at_tiny_t(self):
        # 180 t is below an ulp of c^2 on the Hankel rays: they must keep
        # their length, so psi matches its t = 0 value
        want = singular_psi(0.5, 3, 3e4, 0.0)
        for t in (1e-10, -1e-10):
            assert abs(singular_psi(0.5, 3, 3e4, t) - want) <= 1e-10 * abs(want)

    def test_small_delta_limit(self):
        assert delta_limit_consistency(3, 0.5, delta=0.05) <= 1e-2

    def test_input_validation(self):
        with pytest.raises(ValueError):
            singular_psi(1.2, 3, 1.0, 0.0)
        with pytest.raises(ValueError):
            singular_psi(0.5, 3, -1.0, 0.0)
        for x, t in ((math.nan, 1.0), (math.inf, 0.0), (1.0, math.nan), (1.0, -math.inf)):
            with pytest.raises(ValueError, match="finite"):
                singular_psi(0.5, 3, x, t)
        # these returned NaN: the stationary point x/2t of the contour overflows
        for x, t in ((1e5, 1e-300), (1e300, 1.0)):
            with pytest.raises(ValueError, match="overflows"):
                singular_psi(0.5, 3, x, t)

    def test_exponents_must_be_numbers(self):
        for p, q in ((math.nan, 4.0), (4.0, math.nan)):
            with pytest.raises(ValueError, match="numbers"):
                lpq_region(0.5, 3, p, q)
        with pytest.raises(ValueError, match="numbers"):
            necessary_p_bound(math.nan, 3)
        # inf stands for L^inf
        assert lpq_region(0.5, 3, INF, INF).member
        assert necessary_p_bound(INF, 3) == INF


def direct_reference(delta, n, x, t):
    """_direct_integral's integrand at tol 1e-13, with room for the 3e4
    cycles the ray regimes reach: (value, error estimate)."""
    nu = special.order_from_dim(n)
    pw = 1.0 / (1.0 - delta)

    def f(v):
        w = 1.0 + v ** pw
        return special.bessel_j(nu, w * x) * np.exp(-1j * t * w * w) / (1.0 - delta)

    return osc_integral(f, 0.0, 1.0, 3.0 * t + x + 2.0, 1e-13, max_points=8_000_000)


_CUT = 2.0 * math.pi * 200.0        # x + 3t at the direct rule's last cycle
_MAX = 2.0 * math.pi * 3e4


class TestRayRegimes:
    """Past 200 cycles singular_psi runs on rays: the exact J_nu up to
    x = 40, the Hankel series beyond, at any t."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(n=st.integers(2, 5), delta=st.floats(0.05, 0.95),
           lx=st.floats(-2.0, math.log10(0.99 * _MAX)), u=st.floats(0.0, 1.0),
           at_zero=st.booleans())
    def test_against_direct_reference(self, n, delta, lx, u, at_zero):
        x = 10.0 ** lx
        if at_zero and x > _CUT:
            t = 0.0
        else:
            lo, hi = max(_CUT - x, 0.03) / 3.0 * 1.001, (_MAX - x) / 3.0
            t = lo * (hi / lo) ** u
        assert (3.0 * t + x) / (2.0 * math.pi) > appendix._DIRECT_CYCLE_CUT
        got, err = appendix._singular_integral(delta, n, x, t)
        want, want_err = direct_reference(delta, n, x, t)
        assert abs(got - want) <= err + want_err
        assert singular_psi(delta, n, x, t) == x ** ((2 - n) / 2.0) * got

    def test_cli_probe_far_past_the_direct_rule(self, tmp_path):
        # about 30,000 cycles: the direct rule returned an unresolved value here
        out = tmp_path / "psi.json"
        assert cli.main(["appendix", "--mode", "psi", "--n", "3", "--x", "1e5",
                         "--t", "3e4", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        want, want_err = direct_reference(0.5, 3, 1e5, 3e4)
        got = complex(doc["re"], doc["im"]) * 1e5 ** 0.5
        assert abs(got - want) <= want_err
        assert abs(got - want) <= 1e-10 * abs(want)


class TestRates:
    @pytest.mark.parametrize("n,delta", [(2, 0.5), (3, 0.3)])
    def test_datum_space_exponent(self, n, delta):
        fit = phi_space_fit(delta, n)
        want = phi_expected_space_exponent(delta, n)
        assert fit.fitted_exponent == pytest.approx(want, abs=0.1)

    @pytest.mark.parametrize("n,delta", [(2, 0.5), (3, 0.7)])
    def test_solution_time_exponent(self, n, delta):
        fit = psi_time_fit(delta, n)
        want = psi_expected_time_exponent(delta)
        assert fit.fitted_exponent == pytest.approx(want, abs=0.1)


class TestLrMembership:
    def test_quadrature_agrees_with_closed_form(self):
        n = 2
        for delta in (0.2, 0.5, 0.8):
            for r in (1.6, 2.2, 3.0):
                # skip points too close to the membership boundary for a
                # fitted-exponent verdict to be trustworthy
                if abs(delta - ((n + 1) / 2.0 - n / r)) < 0.08:
                    continue
                assert lr_membership_quadrature(delta, n, r) \
                    == lr_membership(delta, n, r)


class TestNecessaryPBound:
    def test_values(self):
        for n in range(2, 7):
            assert necessary_p_bound(2.0, n) == pytest.approx(2.0, abs=1e-12)
        assert necessary_p_bound(10.0 / 3.0, 2) == pytest.approx(10.0, rel=1e-9)
        assert math.isinf(necessary_p_bound(4.0, 2))

    def test_continuity_from_above_at_two(self):
        vals = [necessary_p_bound(2.0 + eps, 3) for eps in (0.1, 0.01, 0.001)]
        assert vals[0] > vals[1] > vals[2] > 2.0
        assert vals[2] == pytest.approx(2.0, abs=0.01)

    def test_rejects_small_r(self):
        with pytest.raises(ValueError):
            necessary_p_bound(1.0, 3)


class TestLpqRegion:
    def test_monotone_in_p_and_q(self):
        delta, n = 0.5, 3
        v = lpq_region(delta, n, 4.0, 6.0)
        if v.member:
            assert lpq_region(delta, n, 8.0, 6.0).member
            assert lpq_region(delta, n, 4.0, 12.0).member

    def test_binding_labels(self):
        delta, n = 0.5, 3
        low_q = lpq_region(delta, n, 10.0, 1.5)
        assert not low_q.member and low_q.binding.startswith("spatial")
        low_p = lpq_region(delta, n, 1.2, 50.0)
        assert not low_p.member
        ok = lpq_region(delta, n, 10.0, 50.0)
        assert ok.member and ok.binding == "interior"

    def test_min_scaling_p_consistent_with_necessary_bound(self):
        # the worst admissible density sits at the L^r boundary
        # delta* = (n+1)/2 - n/r, where the temporal threshold 1/(1-delta*)
        # reproduces the necessary lower bound on p
        n, r = 2, 3.0
        d_star = (n + 1) / 2.0 - n / r
        q_grid = np.geomspace(2.0, 400.0, 120)
        for eps in (0.02, 0.005):
            got = min_scaling_p(n, r, q_grid, [d_star - eps])
            assert got >= 1.0 / (1.0 - d_star + eps) - 1e-9
        assert 1.0 / (1.0 - d_star) == pytest.approx(
            necessary_p_bound(r, n), rel=1e-12)
        # milder densities admit smaller p: the family-wide minimum is below
        d_grid = np.linspace(0.05, d_star - 0.05, 20)
        assert min_scaling_p(n, r, q_grid, d_grid) < necessary_p_bound(r, n)

    def test_truncated_norm_growth_detects_nonmembership(self):
        # inside the region the truncated norm saturates as the window grows;
        # outside it keeps growing
        delta, n = 0.5, 2
        good = (6.0, 40.0)     # member
        bad = (1.4, 40.0)      # temporal failure: p < 1/(1-delta) = 2
        assert lpq_region(delta, n, *good).member
        assert not lpq_region(delta, n, *bad).member
        field = {}
        vals_good = []
        vals_bad = []
        for t_hi in (50.0, 400.0):
            vals_good.append(truncated_lplq(delta, n, good[0], good[1],
                                            (1.0, t_hi), 30.0, field=field))
            vals_bad.append(truncated_lplq(delta, n, bad[0], bad[1],
                                           (1.0, t_hi), 30.0, field=field))
        growth_good = vals_good[1] / vals_good[0]
        growth_bad = vals_bad[1] / vals_bad[0]
        assert growth_bad > growth_good
        assert growth_good <= 1.2
        assert growth_bad >= 1.5
