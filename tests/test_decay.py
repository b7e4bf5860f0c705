"""Empirical decay-rate fits, superposition domination, integrand bounds."""

import math

import mpmath
import numpy as np
import pytest

from disperse_lab import decay, norms, profiles, quadrature
from disperse_lab.decay import (
    DiscreteMeasure,
    gj_integral_check,
    load_baselines,
    space_decay_fit,
    superposition_bound,
    theorem_constants,
    time_decay_fit,
)
from disperse_lab.norms import DivergentNormError
from disperse_lab.propagator import EvalPoint


def herglotz_measure(omega, n):
    pair = profiles.herglotz_pair(omega, n)
    return DiscreteMeasure(components=((1.0 + 0.0j, pair[0]),
                                       (1.0 + 0.0j, pair[1])))


class TestTimeDecay:
    def test_compact_profile_full_rate(self):
        fit = time_decay_fit(profiles.bump(1.0, 2.0), 3, 0)
        assert fit.fitted_exponent == pytest.approx(-1.5, abs=0.05)
        assert fit.half_width <= 0.05

    def test_slow_tail_partial_rate(self):
        # tail exponent 2.5 only supports the m = 1 weighted norm in n = 3
        fit = time_decay_fit(profiles.power(2.5), 3, 1)
        assert fit.fitted_exponent <= -1.0 + 0.1

    def test_bessel_mode_no_decay(self):
        fit = time_decay_fit(herglotz_measure(1.0, 3), 3, 3)
        assert abs(fit.fitted_exponent) <= 0.05

    def test_norm_gate_rejects_inadmissible_order(self):
        # (1+r)^{-1.2} is outside Y_1 in n = 3: fit must refuse, not mislead
        with pytest.raises(DivergentNormError):
            time_decay_fit(profiles.power(1.2), 3, 1)


class TestSpaceDecay:
    def test_compact_profile(self):
        fit = space_decay_fit(profiles.bump(1.0, 2.0), 2)
        assert fit.fitted_exponent <= -0.5 + 0.1

    def test_bessel_mode_is_sharp(self):
        fit = space_decay_fit(herglotz_measure(1.0, 3), 3)
        assert fit.fitted_exponent == pytest.approx(-1.0, abs=0.1)


class TestSuperposition:
    def test_mixed_measure_dominated(self):
        pair = profiles.herglotz_pair(1.0, 3)
        meas = DiscreteMeasure(components=(
            (0.7 + 0.2j, profiles.bump(1.0, 2.0)),
            (0.5 + 0.0j, pair[0]),
            (0.5 + 0.0j, pair[1])))
        rep = superposition_bound(meas, 3, m=0)
        assert rep.linearity_err <= 1e-8
        assert math.isfinite(rep.norm_sum_space)
        for x, t, a in rep.samples:
            assert a <= rep.c_space * (1 + x) ** -1.0 * rep.norm_sum_space \
                * (1 + 1e-12)
            assert a <= rep.c_time * rep.norm_sum_time * (1 + 1e-12)

    def test_compact_measure_positive_order(self):
        meas = DiscreteMeasure(components=((1.0 + 0.0j, profiles.bump(1.0, 2.0)),))
        rep = superposition_bound(meas, 3, m=1)
        assert math.isfinite(rep.c_time) and rep.c_time > 0
        for x, t, a in rep.samples:
            assert a <= rep.c_time * (1 + t) ** -0.5 * rep.norm_sum_time \
                * (1 + 1e-12)

    def test_divergent_component_rejected(self):
        # tail exponent 0.8 is below the spatial-norm threshold (n-1)/2 = 1
        meas = DiscreteMeasure(components=((1.0 + 0.0j, profiles.power(0.8)),))
        with pytest.raises(DivergentNormError):
            superposition_bound(meas, 3, m=0)


class TestConstants:
    def test_recorded_baselines_reproducible(self):
        base = load_baselines()
        cons = base["constants"]
        rel = base["tolerances"]["constants_rel"]
        ct, cs = theorem_constants(profiles.bump(1.0, 2.0), 3, 0)
        assert abs(ct - cons["theorem_c_time_bump_n3_m0"]) \
            <= rel * cons["theorem_c_time_bump_n3_m0"]
        assert abs(cs - cons["theorem_c_space_bump_n3"]) \
            <= rel * cons["theorem_c_space_bump_n3"]

    def test_carrier_frequency_does_not_inflate_constants(self):
        # the bound constants may only shrink (spreading) as the carrier
        # frequency grows; check they never exceed the baseline meaningfully
        base = load_baselines()["constants"]
        for omega in (2.0, 8.0):
            ct, cs = theorem_constants(profiles.bump(1.0, 2.0, omega=omega), 3, 0)
            assert ct <= 1.2 * base["theorem_c_time_bump_n3_m0"]
            assert cs <= 1.2 * base["theorem_c_space_bump_n3"]


class TestIntegrandEstimates:
    def test_pointwise_bound_holds(self):
        pts = [EvalPoint(3, x, t) for x, t in ((1.0, 0.5), (3.0, 0.5),
                                               (1.0, 4.0), (8.0, 2.0))]
        rep = gj_integral_check(profiles.bump(1.0, 2.0), 3, 2, pts)
        assert rep.rows
        assert rep.max_ratio <= 50.0

    def test_boundary_order_branch(self):
        pts = [EvalPoint(3, x, t) for x, t in ((1.0, 0.5), (2.0, 2.0))]
        rep = gj_integral_check(profiles.bump(1.0, 2.0), 3, 3, pts)
        assert rep.max_ratio <= 50.0

    def test_baseline_ratio_stable(self):
        base = load_baselines()
        pts = [EvalPoint(3, x, t) for x, t in ((1.0, 0.5), (3.0, 0.5),
                                               (1.0, 4.0), (8.0, 2.0))]
        rep = gj_integral_check(profiles.bump(1.0, 2.0), 3, 2, pts)
        want = base["constants"]["gj_max_ratio_bump_n3_m2"]
        assert rep.max_ratio == pytest.approx(want, rel=0.2)


class TestCertifiedMajorants:
    def test_divergent_right_side_is_inf(self):
        # |phi| r^{(n-1)/2} ~ r^{-0.2} is not integrable: the j = 2, 3 rows
        # read an infinite right side and ratio 0; the j = 1 side is finite
        rep = gj_integral_check(profiles.power(1.2), 3, 0, [EvalPoint(3, 1.0, 1.0)])
        rows = {j: (rhs, ratio) for _, j, _, rhs, ratio in rep.rows}
        assert rows[2] == rows[3] == (math.inf, 0.0)
        assert math.isfinite(rows[1][0]) and 0.0 < rows[1][1] <= 1.0


def _residual_stderr(x, y):
    """The least-squares slope's standard error at 50 digits, from the
    residuals: sqrt(sum r^2 / (N - 2) / S_xx)."""
    with mpmath.workdps(50):
        x, y = [mpmath.mpf(float(v)) for v in x], [mpmath.mpf(float(v)) for v in y]
        n = len(x)
        xm, ym = sum(x) / n, sum(y) / n
        sxx = sum((u - xm) ** 2 for u in x)
        slope = sum((u - xm) * (v - ym) for u, v in zip(x, y)) / sxx
        ss = sum((v - ym - slope * (u - xm)) ** 2 for u, v in zip(x, y))
        return float(mpmath.sqrt(ss / (n - 2) / sxx))


class TestFitMechanics:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            decay.DecayFit(axis="time", grid=np.array([1.0, 2.0, 3.0]),
                           fitted_exponent=0.0, half_width=0.0,
                           max_residual=0.0)

    def test_linear_fit_matches_linregress(self):
        # the closed form replaces scipy.stats.linregress, which costs about
        # half a second to import: slope and intercept match it at every
        # noise, and the standard error where the points scatter.  Near an
        # exact line linregress's sqrt((1 - r^2) S_yy / S_xx / (N - 2)) is
        # rounding noise (1 - r^2 cancels), so there the standard error is
        # checked against the residuals of the fit summed at 50 digits
        from scipy import stats
        rng = np.random.default_rng(7)
        for size in (3, 8, 25):
            x = np.sort(rng.uniform(-2.0, 3.0, size))
            for noise in (0.0, 1e-9, 0.3):
                y = -1.5 * x + 0.2 + noise * rng.standard_normal(size)
                ref = stats.linregress(x, y)
                slope, intercept, stderr = quadrature.linear_fit(x, y)
                for v, r in ((slope, ref.slope), (intercept, ref.intercept)):
                    assert abs(v - r) <= 1e-15 * max(abs(r), 1.0)
                if noise >= 0.3:
                    assert abs(stderr - ref.stderr) <= 1e-15 * max(ref.stderr, 1.0)
                else:
                    want = _residual_stderr(x, y)
                    assert abs(stderr - want) <= 1e-5 * want + 1e-15, (size, noise)
