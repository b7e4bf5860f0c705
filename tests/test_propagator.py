"""Radial free-flow evaluation: closed forms, oracle agreement, bounds."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from disperse_lab import profiles, propagator, special
from disperse_lab.propagator import (
    ComplexAmplitude,
    DivergentTailError,
    EvalPoint,
    decompose_g,
    evolve_oracle,
    evolve_radial,
    initial_mass,
    solution_bound,
    solution_mass,
)


def gaussian_closed_form(n, width, x, t):
    s = width * width + 4.0j * t
    return (width * width / s) ** (n / 2.0) * cmath.exp(-x * x / s)


class TestClosedForms:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_gaussian(self, n):
        prof = profiles.gaussian(1.0)
        for x, t in ((0.5, 0.3), (1.5, 1.0), (4.0, 2.5), (2.0, 20.0)):
            got = evolve_radial(prof, EvalPoint(n, x, t))
            want = gaussian_closed_form(n, 1.0, x, t)
            assert abs(got.value - want) <= 1e-6 * abs(want)

    def test_gaussian_width(self):
        prof = profiles.gaussian(0.7)
        got = evolve_radial(prof, EvalPoint(3, 1.2, 0.8)).value
        want = gaussian_closed_form(3, 0.7, 1.2, 0.8)
        assert abs(got - want) <= 1e-6 * abs(want)

    def test_error_estimate_covers_truth(self):
        prof = profiles.gaussian(1.0)
        for x, t in ((0.5, 0.3), (3.0, 1.5)):
            got = evolve_radial(prof, EvalPoint(3, x, t))
            want = gaussian_closed_form(3, 1.0, x, t)
            assert abs(got.value - want) <= max(got.err_est, 1e-12)


class TestHerglotzInvariance:
    """Bessel-mode data evolve by a global phase: |psi(x,t)| = |phi(x)|."""

    # odd n only: the envelope/carrier decomposition terminates and is exact;
    # for even n it is asymptotic and the components are not valid data near 0
    @pytest.mark.parametrize("n,omega", [(3, 1.0), (3, 2.5), (5, 1.5)])
    def test_modulus_preserved(self, n, omega):
        pair = profiles.herglotz_pair(omega, n)
        for t in (0.5, 5.0, 50.0):
            for x in (1.0, 3.0, 8.0):
                amp = sum(evolve_radial(p, EvalPoint(n, x, t)).value
                          for p in pair)
                datum = complex(sum(np.asarray(p.phi_rad(x)).ravel()[0]
                                    for p in pair))
                assert abs(abs(amp) - abs(datum)) <= 1e-4 * max(abs(datum), 1e-3)

    def test_phase_is_quadratic_in_omega(self):
        # psi = e^{-i t omega^2} phi for the exact Bessel mode
        n, omega, x, t = 3, 1.5, 2.0, 0.8
        pair = profiles.herglotz_pair(omega, n)
        amp = sum(evolve_radial(p, EvalPoint(n, x, t)).value for p in pair)
        datum = complex(sum(np.asarray(p.phi_rad(x)).ravel()[0] for p in pair))
        want = cmath.exp(-1j * t * omega * omega) * datum
        assert abs(amp - want) <= 1e-4 * abs(datum)


# criterion 3's data and probes, shared with tests/test_acceptance.py
ORACLE_SUITE = (profiles.bump(1.0, 2.0), profiles.bump(0.5, 2.5),
                profiles.bump(1.0, 2.0, omega=2.0),
                profiles.gaussian(1.0), profiles.gaussian(0.8))
ORACLE_TIMES = (0.4, 1.2)
ORACLE_XS = (0.8, 2.0, 4.0)


class TestOracleAgreement:
    def test_matches_spectral_oracle_within_estimate(self):
        for prof in ORACLE_SUITE:
            run = evolve_oracle(prof, 3, ORACLE_TIMES)
            for t in ORACLE_TIMES:
                scale = max(abs(run.at(t, x)) for x in ORACLE_XS)
                for x in ORACLE_XS:
                    want = run.at(t, x)
                    amp = evolve_radial(prof, EvalPoint(3, x, t))
                    assert abs(amp.value - want) <= amp.err_est + 1e-13 * scale
                    tight = evolve_radial(prof, EvalPoint(3, x, t), tol=1e-12)
                    assert abs(tight.value - want) <= 1e-13 * scale

    def test_oracle_rejects_unbounded_support(self):
        with pytest.raises(ValueError):
            evolve_oracle(profiles.power(3.0), 3, (0.5,))

    def test_oracle_rejects_even_dimension(self):
        with pytest.raises(ValueError, match="n = 3"):
            evolve_oracle(profiles.bump(1.0, 2.0), 2, (0.5,))

    def test_oracle_rejects_wrap_around(self):
        # by t = 200 the modes with |k| >= L/t ~ 7.7 hold ~1e-12 of the mass
        with pytest.raises(ValueError, match="wrap-around"):
            evolve_oracle(profiles.gaussian(1.0), 3, (0.4, 200.0))


class TestDecomposition:
    @pytest.mark.parametrize("n", [3, 5])
    def test_pieces_sum_to_integrand(self, n):
        # e^{ia1 rho} g1 + e^{ia2 rho} g2 + e^{ia3 rho} g3 == g (exact, odd n)
        prof = profiles.bump(1.0, 2.0, omega=0.5)
        pt = EvalPoint(n, 3.0, 0.4)
        dec = decompose_g(prof, pt)
        for rho in (0.6, 1.1, 2.0):
            total = (cmath.exp(1j * dec.a1 * rho) * complex(np.asarray(dec.g1(rho)).ravel()[0])
                     + cmath.exp(1j * dec.a2 * rho) * complex(np.asarray(dec.g2(rho)).ravel()[0])
                     + cmath.exp(1j * dec.a3 * rho) * complex(np.asarray(dec.g3(rho)).ravel()[0]))
            want = complex(np.asarray(dec.g(rho)).ravel()[0])
            assert abs(total - want) <= 1e-8 * max(1.0, abs(want))

    def test_compact_piece_vanishes_beyond_turning_point(self):
        prof = profiles.bump(1.0, 2.0)
        pt = EvalPoint(3, 3.0, 0.4)
        dec = decompose_g(prof, pt)
        gamma = 2.0 * math.sqrt(pt.t)
        beta = pt.x_abs / math.sqrt(pt.t)
        rho = 1.2 / beta  # argument beta*rho > 1: compact splitting part is 0
        assert abs(complex(np.asarray(dec.g1(rho)).ravel()[0])) == 0.0


class TestSolutionBound:
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_dominates_modulus(self, m):
        prof = profiles.bump(1.0, 2.0)
        for x, t in ((1.0, 0.6), (2.5, 1.5), (1.0, 6.0)):
            pt = EvalPoint(3, x, t)
            psi = abs(evolve_radial(prof, pt).value)
            assert solution_bound(prof, pt, m) >= psi

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            solution_bound(profiles.bump(), EvalPoint(3, 1.0, 1.0), 4)


class TestMass:
    def test_conserved_under_flow(self):
        prof = profiles.bump(1.0, 2.0)
        m0 = initial_mass(prof, 3, 10.0)
        # doubling stops at 3e-6 agreement, far above its error: a 400-panel
        # rule reads the same value to 1e-12
        assert m0 == pytest.approx(1.120430570582486, rel=1e-12)
        for t in (0.5, 2.0):
            mt = solution_mass(prof, 3, t, r_max=30.0 + 110.0 * t)
            assert abs(mt - m0) <= 1e-4 * m0


class TestTailValidation:
    def test_divergent_tail_rejected(self):
        # alpha <= (n-3)/2 leaves the representation integral divergent
        with pytest.raises(DivergentTailError):
            evolve_radial(profiles.power(0.4), EvalPoint(4, 1.0, 1.0))

    def test_slow_but_admissible_tail_evaluates(self):
        amp = evolve_radial(profiles.power(2.0), EvalPoint(3, 1.0, 1.0))
        assert isinstance(amp, ComplexAmplitude)
        assert np.isfinite(amp.value.real) and np.isfinite(amp.value.imag)
        assert amp.err_est <= 1e-6

    def test_eval_point_validation(self):
        with pytest.raises(ValueError):
            EvalPoint(1, 1.0, 1.0)
        with pytest.raises(ValueError):
            EvalPoint(3, 1.0, -0.5)


def _counted(prof):
    """prof with envelope and tail_fn wrapped to count evaluation points."""
    box = [0]

    def wrap(fn):
        def counted(r):
            box[0] += np.size(r)
            return fn(r)
        return counted

    return dataclasses.replace(prof, envelope=wrap(prof.envelope),
                               tail_fn=wrap(prof.tail_fn)), box


class TestRotatedHead:
    """For x/sqrt(t) <= 2 the integral beyond 1.5 tail_start runs on
    steepest-descent rays, so large t/x^2 costs no more than small."""

    @pytest.mark.parametrize("prof,n,x,t", [
        (profiles.power(1.55), 2, 0.667, 931.0),
        (profiles.herglotz_pair(1.0, 2)[1], 2, 2.04, 8800.0),
        (profiles.power(1.2), 2, 0.3, 1e4),
    ], ids=["power1.55", "herglotz-mirror", "power1.2"])
    def test_large_t_points_are_certified(self, prof, n, x, t):
        amp = evolve_radial(prof, EvalPoint(n, x, t))
        assert math.isfinite(amp.err_est)
        assert amp.err_est <= 1e-6 * abs(amp.value)

    @pytest.mark.parametrize("prof", [profiles.herglotz_pair(1.0, 3)[0],
                                      profiles.herglotz_pair(1.0, 3)[1],
                                      profiles.power(1.2)],
                             ids=["herglotz+", "herglotz-", "power1.2"])
    def test_evaluations_flat_in_t(self, prof):
        counts = []
        for t in (1e2, 1e3, 1e4):
            counted, box = _counted(prof)
            evolve_radial(counted, EvalPoint(3, 0.3, t))
            counts.append(box[0])
        assert max(counts) <= 2 * min(counts), counts


_HONEST = settings(max_examples=40, deadline=None, derandomize=True, database=None)
_LOG_X = st.floats(math.log10(0.3), math.log10(30.0))


class TestHonestySweeps:
    """The true error is at most err_est plus 1e-14 of the scale."""

    @_HONEST
    @given(lx=_LOG_X, lt=st.floats(0.0, 5.0))
    def test_herglotz_mode_n3(self, lx, lt):
        x, t = 10.0 ** lx, 10.0 ** lt
        pair = profiles.herglotz_pair(1.0, 3)
        amps = [evolve_radial(p, EvalPoint(3, x, t)) for p in pair]
        phi = complex(sum(np.asarray(p.phi_rad(x)).ravel()[0] for p in pair))
        err = abs(sum(a.value for a in amps) - cmath.exp(-1j * t) * phi)
        assert err <= sum(a.err_est for a in amps) + 1e-14 * abs(phi)

    @_HONEST
    @given(n=st.sampled_from([2, 3, 4]), width=st.floats(0.3, 3.0), lx=_LOG_X,
           lt=st.floats(-2.0, 5.0))
    def test_gaussian_closed_form(self, n, width, lx, lt):
        # Bessel arguments up to 13 width x / (2t) ~ 6e4 cross the switch
        # from Cephes j0/j1 to AMOS jv at n = 2, 4
        x, t = 10.0 ** lx, 10.0 ** lt
        amp = evolve_radial(profiles.gaussian(width), EvalPoint(n, x, t))
        want = gaussian_closed_form(n, width, x, t)
        assert abs(amp.value - want) <= amp.err_est + 1e-14 * abs(want)

    @_HONEST
    @given(alpha=st.floats(0.8, 3.0), n=st.sampled_from([2, 3, 4]),
           llam=st.floats(-0.7, 0.7), lx=_LOG_X, lt=st.floats(-1.3, 4.0))
    def test_power_dilation_identity(self, alpha, n, llam, lx, lt):
        lam, x, t = 10.0 ** llam, 10.0 ** lx, 10.0 ** lt
        prof = profiles.power(alpha)
        a = evolve_radial(prof.dilate(lam), EvalPoint(n, x, t))
        b = evolve_radial(prof, EvalPoint(n, lam * x, lam * lam * t))
        assert abs(a.value - b.value) <= a.err_est + b.err_est + 1e-14 * abs(b.value)

    @_HONEST
    @given(which=st.sampled_from(["power", "herglotz+", "herglotz-"]),
           n=st.sampled_from([2, 3, 4]), beta=st.floats(1.5, 2.0), lx=_LOG_X)
    def test_rotated_head_matches_real_axis(self, which, n, beta, lx):
        # just below the guard x/sqrt(t) = 2, where J_nu grows most along
        # the rays, against the real-axis head used above it
        prof = {"power": profiles.power(1.4),
                "herglotz+": profiles.herglotz_pair(1.0, n)[0],
                "herglotz-": profiles.herglotz_pair(1.0, n)[1]}[which]
        x = 10.0 ** lx
        pt = EvalPoint(n, x, (x / beta) ** 2)
        rot = evolve_radial(prof, pt)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(propagator, "_BETA_ROTATE", 0.0)
            real = evolve_radial(prof, pt)
        assert abs(rot.value - real.value) <= rot.err_est + real.err_est + 1e-14 * abs(real.value)

    # Below t = L/k_max ~ 1.43 no oracle mode travels around the domain;
    # below width 0.8 the oracle's grid resolves a bump only to ~1e-11.
    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(a=st.floats(0.3, 1.5), width=st.floats(0.8, 2.0),
           omega=st.floats(-3.0, 3.0),
           lt=st.floats(math.log10(0.05), math.log10(1.4)),
           lx=st.floats(math.log10(0.3), 1.0))
    def test_bump_against_spectral_oracle(self, a, width, omega, lt, lx):
        x, t = 10.0 ** lx, 10.0 ** lt
        prof = profiles.bump(a, a + width, omega)
        want = evolve_oracle(prof, 3, (t,)).at(t, x)
        amp = evolve_radial(prof, EvalPoint(3, x, t))
        assert abs(amp.value - want) <= amp.err_est + 1e-14 * abs(want)
