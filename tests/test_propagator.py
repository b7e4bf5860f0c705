"""Radial free-flow evaluation: closed forms, oracle agreement, bounds."""

import cmath
import dataclasses
import importlib.util
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import hankel1e, hankel2e

from disperse_lab import appendix, profiles, propagator, quadrature, special
from disperse_lab.quadrature import gl_rows, osc_integral, rotated_tail
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


def _mp_gaussian(n, width, x, t):
    """The Gaussian closed form at 40 digits."""
    with mpmath.workdps(40):
        w2 = mpmath.mpf(width) ** 2
        s = w2 + 4j * mpmath.mpf(t)
        return complex((w2 / s) ** (mpmath.mpf(n) / 2) * mpmath.exp(-mpmath.mpf(x) ** 2 / s))


def _benchmark_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


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

    @pytest.mark.parametrize("seed", [1, 2])
    def test_estimate_counts_rounding_on_benchmark_points(self, seed):
        # the propagate workload's Gaussian ops against the 40-digit closed
        # form with no floor credit: at large t the value is a few eps off,
        # so the estimate must count the rounding of the prefactor and of
        # the product with it (it did not: 8 of 23 missed at seed 1)
        lib = SimpleNamespace(propagator=propagator, profiles=profiles, appendix=appendix)
        ops = [op for op in _benchmark_workloads().make(lib, "propagate", seed).ops
               if op.info.get("ref") == "gaussian"]
        assert len(ops) >= 20
        for op in ops:
            amp = op.call()
            want = _mp_gaussian(op.n, op.info["width"], op.info["x"], op.info["t"])
            assert abs(amp.value - want) <= amp.err_est, op.info


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
            g1, g2, g3 = dec.derivs(0, rho)[:, 0]
            total = (cmath.exp(1j * dec.a1 * rho) * g1 + cmath.exp(1j * dec.a2 * rho) * g2
                     + cmath.exp(1j * dec.a3 * rho) * g3)
            r = 2.0 * math.sqrt(pt.t) * rho
            want = complex(prof.phi_rad(r) * r ** (n / 2.0)
                           * special.bessel_j((n - 2) / 2.0, pt.x_abs / math.sqrt(pt.t) * rho))
            assert abs(total - want) <= 1e-8 * max(1.0, abs(want))

    def test_compact_piece_vanishes_beyond_turning_point(self):
        prof = profiles.bump(1.0, 2.0)
        pt = EvalPoint(3, 3.0, 0.4)
        dec = decompose_g(prof, pt)
        gamma = 2.0 * math.sqrt(pt.t)
        beta = pt.x_abs / math.sqrt(pt.t)
        rho = 1.2 / beta  # argument beta*rho > 1: compact splitting part is 0
        assert dec.derivs(0, rho)[0, 0] == 0.0


def _mp_chi(z):
    if z <= 0.5:
        return mpmath.mpf(1)
    if z >= 1:
        return mpmath.mpf(0)
    # S(u) = f(u) / (f(u) + f(1 - u)), f(u) = e^{-1/u}, at u = 2(1 - z)
    u = 2 * (1 - z)
    return mpmath.exp(-1 / u) / (mpmath.exp(-1 / u) + mpmath.exp(-1 / (1 - u)))


def _mp_envelopes(n):
    """label -> (profile, mpmath closed form of its envelope)."""
    a, b = mpmath.mpf(0.5), mpmath.mpf(2)
    nu = mpmath.mpf(n - 2) / 2
    coeffs = special.alpha_coeffs(n, 8)

    def herglotz(r):
        # omega = 1: chi(r) r^{-nu} J_nu(r) e^{-ir} / 2 + (1 - chi(r)) r^{1-n} B_n(r),
        # with the r = 0 limit of r^{-nu} J_nu
        q = 1 / (2 ** nu * mpmath.gamma(nu + 1)) if r == 0 else mpmath.besselj(nu, r) / r ** nu
        out = _mp_chi(r) * q * mpmath.exp(-1j * r) / 2
        if r > 0.5:
            out += (1 - _mp_chi(r)) * coeffs.prefactor * sum(
                mpmath.mpc(al) * r ** ((1 - mpmath.mpf(n)) / 2 - k)
                for k, al in enumerate(coeffs.alpha))
        return out

    return {
        "bump": (profiles.bump(0.5, 2.0), lambda r: mpmath.exp(
            1 - ((b - a) / 2) ** 2 / ((r - a) * (b - r))) if a < r < b else mpmath.mpf(0)),
        "gaussian": (profiles.gaussian(1.0), lambda r: mpmath.exp(-r * r)),
        "power": (profiles.power(2.5), lambda r: (1 + r) ** mpmath.mpf(-2.5)),
        "herglotz": (profiles.herglotz(1.0, n), herglotz),
    }


class TestGStacks:
    """Orders 0..n of g1, g2, g3 (decompose_g) against mpmath.diff of their
    closed forms c^{-n/2} phi(gamma rho) A_n, B_n and conj(B_n) at beta rho,
    with the exact J_nu: at rho = 0 (one-sided), below, at both ends of and
    inside the cutoff band [1/(2 beta), 1/beta], and beyond it; to 1e-12 of
    the largest order of each piece at rho."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("label", ["bump", "gaussian", "power", "herglotz"])
    def test_matches_mpmath(self, n, label):
        pt = EvalPoint(n, 0.7, 0.3)
        gamma, beta = 2.0 * math.sqrt(pt.t), pt.x_abs / math.sqrt(pt.t)
        prof, env = _mp_envelopes(n)[label]
        dec = decompose_g(prof, pt)
        with mpmath.workdps(40):
            nu, cn = mpmath.mpf(n - 2) / 2, (pt.x_abs / (2 * mpmath.mpf(pt.t))) ** (-mpmath.mpf(n) / 2)
            coeffs = special.alpha_coeffs(n, 8)

            def series(z):
                return coeffs.prefactor * sum(mpmath.mpc(al) * z ** ((mpmath.mpf(n) - 1) / 2 - k)
                                              for k, al in enumerate(coeffs.alpha))

            pieces = (lambda z: _mp_chi(z) * z ** (mpmath.mpf(n) / 2) * mpmath.besselj(nu, z),
                      lambda z: (1 - _mp_chi(z)) * series(z) if z > 0.5 else mpmath.mpf(0),
                      lambda z: mpmath.conj((1 - _mp_chi(z)) * series(z)) if z > 0.5 else mpmath.mpf(0))
            for z in (0.0, 0.3, 0.5, 0.52, 0.75, 0.9, 1.0, 1.5):
                rho = z / beta
                got = np.array([dec.derivs(m, rho)[:, 0] for m in range(n + 1)])
                for j, piece in enumerate(pieces):
                    g = lambda s, piece=piece: cn * env(gamma * s) * piece(beta * s)
                    want = [complex(v) for v in mpmath.diffs(g, mpmath.mpf(rho), n,
                                                             direction=1 if rho == 0 else 0)]
                    scale = max(abs(v) for v in want)
                    assert np.all(np.abs(got[:, j] - want) <= 1e-12 * scale), (label, n, z, j)


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

    def test_order_seven(self):
        # orders above 6 ended in an IndexError from the 7-point stencils
        pt = EvalPoint(7, 1.0, 1.0)
        bound = solution_bound(profiles.bump(1.0, 2.0), pt, 7)
        assert math.isfinite(bound)
        assert bound >= abs(evolve_radial(profiles.bump(1.0, 2.0), pt).value)


class TestCertifiedBound:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dominates_modulus(self, n):
        # every order m <= n; unbounded data too: power(2.5) at n = 4, m = 0
        # and both Herglotz members at m = 0 have divergent integrals and
        # read inf
        eta, mirror = profiles.herglotz_pair(1.0, n)
        for prof in (profiles.bump(1.0, 2.0), profiles.gaussian(1.0),
                     profiles.power(2.5), eta, mirror):
            for x, t in ((0.7, 0.3), (5.0, 4.0)):
                pt = EvalPoint(n, x, t)
                psi = abs(evolve_radial(prof, pt).value)
                for m in range(n + 1):
                    assert solution_bound(prof, pt, m) >= psi, (prof.label, x, t, m)

    def test_divergent_integral_is_inf(self):
        # |g_2| ~ rho^{-0.2}: the integral diverges (a cut at rho = 40 read 43.98)
        assert solution_bound(profiles.power(1.2), EvalPoint(3, 1.0, 1.0), 0) == math.inf

    @pytest.mark.parametrize("x, t", [(4.0, 0.5), (1.0, 1.0)])
    def test_matches_quad_reference(self, x, t):
        # sum_j int_0^inf |g_j| by scipy's quad, split at the cutoff ends
        # 1/(2 beta) and 1/beta (a cut at rho = 40 read 0.4403 at (4, 0.5))
        pt = EvalPoint(3, x, t)
        dec = decompose_g(profiles.power(2.5), pt)
        beta = x / math.sqrt(t)
        total = 0.0
        for j in range(3):
            for a, b in ((0.0, 0.5 / beta), (0.5 / beta, 1.0 / beta), (1.0 / beta, math.inf)):
                total += quad(lambda rho: abs(dec.derivs(0, rho)[j, 0]), a, b,
                              epsabs=0.0, epsrel=1e-13, limit=500)[0]
        want = special.solution_constant(0) / math.sqrt(x * t) * total
        assert solution_bound(profiles.power(2.5), pt, 0) == pytest.approx(want, rel=1e-8)


    @pytest.mark.parametrize("label, m", [("bump", 1), ("bump", 3), ("gaussian", 2)])
    def test_kinks_are_cut(self, label, m, monkeypatch):
        # |g_j^{(m)}| has a kink at each sign change of g_j^{(m)}, real up to
        # a constant phase at n = 3; the panels are cut there, none is left
        # at the cap (bump m = 3 capped (0, 5, 5) panels, gaussian m = 2
        # (2, 2, 2)), and each integral meets quad split at the zeros, found
        # by brentq on a 20,001-point scan, to 1e-12
        from disperse_lab import norms
        prof = {"bump": profiles.bump(1.0, 2.0), "gaussian": profiles.gaussian(1.0)}[label]
        pt = EvalPoint(3, 0.7, 0.3)
        beta = pt.x_abs / math.sqrt(pt.t)
        inner, capped = norms.certified_integrals, []

        def spy(*args, **kw):
            out = inner(*args, **kw)
            capped.append(out[1])
            return out

        monkeypatch.setattr(norms, "certified_integrals", spy)
        got = propagator.g_abs_integrals(prof, pt, m)
        assert not capped[0].any()
        dec = decompose_g(prof, pt)
        hi = 8.0 if prof.support is None else prof.support / (2.0 * math.sqrt(pt.t))
        rho = np.linspace(0.0, hi, 20001)
        for j in range(3):
            g = lambda r, j=j: dec.derivs(m, np.atleast_1d(r))[j]
            v = g(rho)
            turn = np.exp(-1j * np.angle(v[np.argmax(np.abs(v))]))
            u = (v * turn).real
            zeros = [brentq(lambda r: (g(r)[0] * turn).real, rho[i], rho[i + 1], xtol=1e-300)
                     for i in np.flatnonzero(np.sign(u[1:]) * np.sign(u[:-1]) < 0)]
            ends = sorted({0.0, 0.5 / beta, 1.0 / beta, hi, *zeros})
            ends += [math.inf] if prof.support is None else []
            want = sum(quad(lambda r: abs(g(r)[0]), a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0]
                       for a, b in zip(ends[:-1], ends[1:]))
            assert abs(got[j] - want) <= 1e-12 * want, (j, len(zeros))


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
        for x, t in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ValueError, match="finite"):
                EvalPoint(3, x, t)
        # x^2/4t overflows although x and t are finite
        with pytest.raises(ValueError, match="overflows"):
            EvalPoint(3, 1e200, 1e-200)


def _counted(prof, fields=("deriv_fn", "tail_fn")):
    """prof with the named fields wrapped to count evaluation points."""
    box = [0]

    def wrap(fn):
        def counted(*args):
            box[0] += np.size(args[-1])
            return fn(*args)
        return counted

    return dataclasses.replace(prof, **{f: wrap(getattr(prof, f)) for f in fields}), box


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


class TestLargeBeta:
    """For x/sqrt(t) > 2 the head ends at max(1.5 tail_start/gamma, 10/beta)
    and both Hankel-series tails run on rays, the e^{-iz} one through its
    stationary point, so nothing beyond 1.5 tail_start costs more at large x."""

    @pytest.mark.parametrize("prof,fields", [
        (profiles.power(1.2), ("deriv_fn", "tail_fn")),
        # the Herglotz cutoff band 1/2 < omega r < 1 is not analytic, so it
        # stays on the real axis, where J_nu(beta rho) turns x/t times
        (profiles.herglotz_pair(1.0, 3)[0], ("tail_fn",)),
        (profiles.herglotz_pair(1.0, 3)[1], ("tail_fn",)),
    ], ids=["power1.2", "herglotz+", "herglotz-"])
    def test_evaluations_flat_in_x(self, prof, fields):
        counts = []
        for x in (1e2, 1e3, 1e4):
            counted, box = _counted(prof, fields)
            amp = evolve_radial(counted, EvalPoint(3, x, 1.0))
            assert amp.err_est <= 1e-6 * abs(amp.value)
            counts.append(box[0])
        assert max(counts) <= 2 * min(counts), counts

    @pytest.mark.parametrize("x,t", [(1e3, 1.0), (1e4, 1.0), (1e6, 1.0), (1.0, 1e-8)])
    def test_far_points_are_certified(self, x, t):
        # the phase beta^2/4 at the stationary point rounds to eps beta^2/4,
        # and the estimate says so: 2e-4 of |psi| at beta = 1e6
        amp = evolve_radial(profiles.power(1.2), EvalPoint(3, x, t))
        assert amp.err_est <= 1e-3 * abs(amp.value)


def _exact_hankel_reference(prof, pt):
    """psi from a real-axis head to z = 6 and, beyond it, the exact Hankel
    functions, J_nu = (H^(1) + H^(2))/2, as two rotated_tail rows: no
    series is truncated and the split differs from evolve_radial's (10 at
    even n, max(3, sqrt(2) nu) at odd n, never 6)."""
    n = pt.n
    nu = special.order_from_dim(n)
    gamma, beta = 2.0 * math.sqrt(pt.t), pt.x_abs / math.sqrt(pt.t)
    rho0 = max(1.5 * prof.tail_start / gamma, 6.0 / beta)

    def g(rho):
        r = gamma * rho
        return (prof.phi_rad(r) * r ** (n / 2.0) * special.bessel_j(nu, beta * rho)
                * np.exp(1j * rho * rho))

    span = rho0 ** 2 + (abs(prof.omega) * gamma + beta) * rho0
    head, e_head = osc_integral(g, 0.0, rho0, span, 1e-13)

    def h(rho, row):
        z = beta * rho
        hk = np.where(row == 0, hankel1e(nu, z), hankel2e(nu, z))
        return prof.tail_fn(gamma * rho) * (gamma * rho) ** (n / 2.0) * hk / 2.0

    og = gamma * prof.omega
    tails, e_tails = rotated_tail(h, rho0, np.array([og + beta, og - beta]))
    pref = propagator._prefactor(n, pt.x_abs, pt.t)[0]
    return pref * (head + tails.sum()), abs(pref) * (e_head + e_tails.sum())


class TestOddNSplit:
    """At odd n the Hankel series is exact and the head ends at Bessel
    argument max(3, sqrt(2) nu) (special.bessel_split_integral)."""

    def test_head_near_the_branch_point(self):
        # the head [0, 10/beta] once started 1/gamma from the envelope's
        # branch point r = -1 and under-read: off by 5.2e-16 against an
        # err_est of 5.1e-17; the head to z = 3 is off by 8e-20
        t = 7241.0
        pt = EvalPoint(5, 3.9953 * math.sqrt(t), t)
        prof = profiles.power(2.2678)
        amp = evolve_radial(prof, pt)
        want, e_want = _exact_hankel_reference(prof, pt)
        assert abs(amp.value - want) <= amp.err_est + e_want

    @pytest.mark.parametrize("n", [15, 19])
    @pytest.mark.parametrize("x,t", [(3.0, 0.5), (5.0, 1.0)])
    def test_high_order_estimates_stay_within_tol(self, n, x, t):
        # a split at max(3, nu) leaves the e^{-iz} row's first ray in the
        # band |z| < nu, where the two rows cancel: 1.3e-9 at n = 19, x = 5
        amp = evolve_radial(profiles.power(n / 2.0 + 0.3), EvalPoint(n, x, t))
        assert amp.err_est <= 1e-9 * abs(amp.value)


def _heads(monkeypatch, prof, pt):
    """The real-axis head calls of evolve_radial(prof, pt): per call, the
    integrand f(x, row), its rows (a, b), the summed value and estimate, and
    the gl_rows rounds it took."""
    calls, rounds = [], [0]
    osc, rows = propagator.osc_integral, special.osc_integral_rows

    def counted(*args, **kw):
        rounds[0] += 1
        return gl_rows(*args, **kw)

    def record(f, a, b, run):
        rounds[0] = 0
        monkeypatch.setattr(quadrature, "gl_rows", counted)
        try:
            out = run()
        finally:
            monkeypatch.setattr(quadrature, "gl_rows", gl_rows)
        calls.append((f, np.atleast_1d(a), np.atleast_1d(b), complex(np.sum(out[0])),
                      float(np.sum(out[1])), rounds[0]))
        return out

    def head(f, a, b, span, tol):
        return record(lambda x, row: f(x), a, b, lambda: osc(f, a, b, span, tol))

    def head_rows(f, a, b, span, tol):
        return record(f, a, b, lambda: rows(f, a, b, span, tol))

    monkeypatch.setattr(propagator, "osc_integral", head)
    monkeypatch.setattr(special, "osc_integral_rows", head_rows)
    evolve_radial(prof, pt)
    return calls


_CUT_CASES = ([(f"herglotz{n}{'+-'[m]}", profiles.herglotz_pair(1.0, n)[m], n)
               for n in (2, 3, 4) for m in (0, 1)]
              + [(f"bump{n}-w{w:g}", profiles.bump(1.0, 2.0, w), n)
                 for n in (2, 3, 4) for w in (0.0, 2.0)])


class TestCutHeads:
    """evolve_radial's real-axis head runs on rows between the profile's
    break radii (bump: a and b; Herglotz: 0, 1/(2 omega), 1/omega)."""

    @pytest.mark.parametrize("label,prof,n", _CUT_CASES, ids=[c[0] for c in _CUT_CASES])
    def test_heads_within_estimate(self, monkeypatch, label, prof, n):
        # against the same rows at 256 panels each, with no credit beyond
        # the estimate
        checked = 0
        for x in np.geomspace(0.3, 30.0, 5):
            for t in np.geomspace(0.05, 1e4, 6):
                for f, a, b, value, err, _ in _heads(monkeypatch, prof, EvalPoint(n, x, t)):
                    sums, _ = gl_rows(f, a, b, np.full(a.size, 256), ids=np.arange(a.size))
                    want = sums[0, :, 0].sum()
                    assert abs(value - want) <= err, (x, t, abs(value - want), err)
                    checked += 1
        assert checked == 30

    @pytest.mark.parametrize("n,x,t", [(4, 14.83, 2.80), (2, 0.646, 0.931)])
    @pytest.mark.parametrize("member", [0, 1])
    def test_even_n_herglotz_heads_take_one_round(self, monkeypatch, n, x, t, member):
        prof = profiles.herglotz_pair(1.0, n)[member]
        (f, a, b, value, err, rounds), = _heads(monkeypatch, prof, EvalPoint(n, x, t))
        # rows 0 .. 1/2, 1/2 .. 1 and 1 .. 3/2 in omega r, then on to the
        # split at x/sqrt(t) > 2
        assert a.size == (3 if x / math.sqrt(t) <= 2.0 else 4)
        assert rounds == 1


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

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(which=st.sampled_from(["power", "herglotz+", "herglotz-"]),
           n=st.sampled_from([2, 3, 4, 5, 7, 9]), lbeta=st.floats(math.log10(2.0), 4.0),
           lt=st.floats(-2.0, 4.0))
    def test_large_beta_against_exact_hankel(self, which, n, lbeta, lt):
        # x/t = beta/sqrt(t) <= 1e5 keeps the Herglotz band's real-axis
        # head within max_points; at n = 7 and 9 the odd-n split is
        # sqrt(2) nu, not 3, and the power decays 0.3 faster than (n-3)/2
        prof = {"power": profiles.power(max(1.3, (n - 3) / 2.0 + 0.3)),
                "herglotz+": profiles.herglotz_pair(1.0, n)[0],
                "herglotz-": profiles.herglotz_pair(1.0, n)[1]}[which]
        t = 10.0 ** lt
        pt = EvalPoint(n, 10.0 ** lbeta * math.sqrt(t), t)
        amp = evolve_radial(prof, pt)
        want, e_want = _exact_hankel_reference(prof, pt)
        assert abs(amp.value - want) <= amp.err_est + e_want + 1e-14 * abs(want)

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
