"""Chirped-datum focusing, self-similar collapse, space-time gate."""

import math

import cmath

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.special import hankel1e, hankel2e, jv

from disperse_lab import blowup, profiles, propagator, quadrature, special
from disperse_lab.quadrature import refine_rows, rotated_tail
from disperse_lab.blowup import (
    ChirpDatum,
    SelfSimilarFrame,
    annulus_lq,
    chirp_solution,
    forbidden_for_all_p,
    gate_p_bound,
    k_of_t,
    limit_profile,
    lq_annulus_growth,
    lq_blowup_threshold,
    lq_growth_exponent,
    lr_membership,
    rescaled_modulus,
    scaling_p,
    select_annulus,
    strichartz_gate,
)


class TestFrame:
    def test_focusing_wavenumber(self):
        assert k_of_t(0.5) == pytest.approx(0.5, abs=1e-12)
        # the concentration scale shrinks toward the focusing time
        assert k_of_t(0.9) > k_of_t(0.99) > k_of_t(0.999) > 0.0

    def test_frame_maps_z_to_x(self):
        fr = SelfSimilarFrame(t=0.9)
        assert fr.x_of_z(1.0) == pytest.approx(2.0 * 0.9 * fr.k)

    def test_datum_parameter_window(self):
        ChirpDatum(3, 2.0)
        with pytest.raises(ValueError):
            ChirpDatum(3, 3.0)   # sigma >= n
        with pytest.raises(ValueError):
            ChirpDatum(5, 0.9)   # sigma <= (n-3)/2


class TestCollapse:
    @pytest.mark.parametrize("n,sigma", [(3, 2.0), (2, 1.0)])
    def test_rescaled_modulus_converges(self, n, sigma):
        datum = ChirpDatum(n, sigma)
        z = np.geomspace(0.3, 3.0, 25)
        lim = limit_profile(datum, z)
        dists = []
        for t in (0.9, 0.99, 0.999):
            cur = rescaled_modulus(datum, t, z)
            dists.append(float(np.max(np.abs(cur - lim.v))))
        assert dists[0] > dists[1] > dists[2]

    @pytest.mark.parametrize("n,sigma", [(2, 1.5), (3, 2.5), (5, 4.5), (6, 5.9)])
    def test_cli_limit_profile_is_certified(self, n, sigma):
        # sigma != n - 1: the integrand is r^{n-1-sigma} at r = 0, taken by
        # the series there; panels from r = 0 ran to their cap and read an
        # error of up to 3e-2 of max V
        prof = limit_profile(ChirpDatum(n, sigma), np.geomspace(0.05, 20.0, 120), tol=1e-7)
        assert np.max(prof.err) <= 1e-8 * np.max(prof.v)

    def test_solution_rejects_degenerate_times(self):
        datum = ChirpDatum(3, 2.0)
        with pytest.raises(ValueError):
            chirp_solution(datum, 1.0, 0.5)
        with pytest.raises(ValueError):
            chirp_solution(datum, -0.5, 0.5)

    def test_annulus_selection_brackets_peak(self):
        datum = ChirpDatum(3, 2.0)
        z = np.geomspace(0.05, 6.0, 120)
        lim = limit_profile(datum, z)
        r1, r2 = select_annulus(lim)
        peak_z = z[int(np.argmax(lim.v))]
        assert r1 <= peak_z <= r2


class TestLqGrowth:
    def test_exponent_closed_form(self):
        datum = ChirpDatum(3, 2.0)
        assert lq_growth_exponent(datum, 4.0) == pytest.approx(-1.0 / 8.0)
        assert lq_blowup_threshold(datum) == pytest.approx(3.0)

    @pytest.mark.parametrize("n,sigma,q,expect", [
        (3, 2.0, 4.0, -1.0 / 8.0),
        (2, 1.0, 3.0, -1.0 / 6.0),
    ])
    def test_fit_matches_closed_form(self, n, sigma, q, expect):
        fit = lq_annulus_growth(ChirpDatum(n, sigma), q)
        assert fit.fitted_exponent == pytest.approx(expect, abs=0.05)

    def test_threshold_exponent_is_flat(self):
        datum = ChirpDatum(3, 2.0)
        q = lq_blowup_threshold(datum)
        fit = lq_annulus_growth(datum, q)
        assert abs(fit.fitted_exponent) <= 0.05

    @pytest.mark.parametrize("n,sigma", [(2, 1.05), (3, 1.95)])
    def test_batched_evaluation_matches_one_point_calls(self, n, sigma):
        datum, t, q = ChirpDatum(n, sigma), 1.0 - 3e-3, 3.0
        r1, r2, npanels, nodes = 0.5, 2.5, 8, 16
        frame = SelfSimilarFrame(t)
        x, w = np.polynomial.legendre.leggauss(nodes)
        edges = np.linspace(r1, r2, npanels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])
        z = (0.5 * (edges[1:] + edges[:-1])[:, None] + half[:, None] * x).ravel()
        xs = frame.x_of_z(z)
        batched, _ = blowup._chirp_values(datum, t, xs)
        singles = [chirp_solution(datum, t, float(xx)) for xx in xs]
        for b, s in zip(batched, singles):
            assert abs(b - s.value) <= s.err_est
        dens = (np.abs([s.value for s in singles]) ** q * xs ** (n - 1)
                * 2.0 * t * frame.k)
        want = float(np.sum(np.repeat(half, nodes) * np.tile(w, npanels) * dens)) ** (1.0 / q)
        got = annulus_lq(datum, t, q, r1, r2)
        assert got == pytest.approx(want, rel=1e-10)

    def test_norm_positive_on_annulus(self):
        datum = ChirpDatum(3, 2.0)
        val = annulus_lq(datum, 0.9, 4.0, 0.3, 2.0)
        assert val > 0

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(n=st.sampled_from([2, 3, 4, 5]),
           sigma=st.sampled_from([0.3, 0.5, 1.05, 1.5, 1.9, 1.95, 2.5]),
           lu=st.floats(-5.0, math.log10(0.3)),
           annulus=st.sampled_from([(0.5, 2.5), (0.3, 2.0), (0.1, 5.0)]))
    def test_refined_rule_matches_fine_composite_rule(self, n, sigma, lu, annulus):
        assume((n - 3) / 2.0 < sigma < n)
        datum, t = ChirpDatum(n, sigma), 1.0 - 10.0 ** lu
        q = 2.0 * lq_blowup_threshold(datum)
        r1, r2 = annulus
        # 32 panels of 16 nodes, built without annulus_lq
        frame = SelfSimilarFrame(t)
        x, w = np.polynomial.legendre.leggauss(16)
        edges = np.linspace(r1, r2, 33)
        half = 0.5 * (edges[1:] - edges[:-1])
        z = (0.5 * (edges[1:] + edges[:-1])[:, None] + half[:, None] * x).ravel()
        xs = frame.x_of_z(z)
        dens = np.abs(blowup._chirp_values(datum, t, xs)[0]) ** q * xs ** (n - 1) * 2.0 * t * frame.k
        want = float(np.sum(np.repeat(half, 16) * np.tile(w, 32) * dens)) ** (1.0 / q)
        assert annulus_lq(datum, t, q, r1, r2) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("n,sigma", [(2, 1.05), (3, 1.95)])
    @pytest.mark.parametrize("u", [2e-4, 3e-3, 5e-2])
    def test_workload_annulus_takes_at_most_48_points(self, n, sigma, u, monkeypatch):
        # the one- and two-panel 16-node rules already agree here: 16 + 32 points
        points = []
        chirp_values = blowup._chirp_values

        def counted(datum, t, x_abs, tol=1e-9):
            points.append(np.size(x_abs))
            return chirp_values(datum, t, x_abs, tol)

        monkeypatch.setattr(blowup, "_chirp_values", counted)
        datum = ChirpDatum(n, sigma)
        assert annulus_lq(datum, 1.0 - u, 2.0 * lq_blowup_threshold(datum), 0.5, 2.5) > 0
        assert sum(points) <= 48

    @pytest.mark.parametrize("sigma,cap", [(2.0, 12_000), (1.95, 13_000)])
    def test_odd_n_annulus_head_ends_at_bessel_argument_3(self, sigma, cap, monkeypatch):
        # at n = 3 the Hankel rows are exact, so the heads of the 48 annulus
        # points end at c r = 3: 9,408 bessel_j points at sigma = 2 and at
        # 1.95 (12,992 while the head started at r = 1), where they ended at
        # c r = 10 with 28,224 and 43,200
        points = []
        bessel_j = special.bessel_j

        def counted(nu, z):
            points.append(np.size(z))
            return bessel_j(nu, z)

        monkeypatch.setattr(special, "bessel_j", counted)
        datum = ChirpDatum(3, sigma)
        assert annulus_lq(datum, 1.0 - 1e-3, 2.0 * lq_blowup_threshold(datum), 0.5, 2.5) > 0
        assert sum(points) <= cap

    @pytest.mark.parametrize("n,sigma", [(2, 1.05), (3, 1.95)])
    def test_small_u_heads_cost_as_much_as_large_u(self, n, sigma, monkeypatch):
        # the origin series takes every head from r = 1 to near c r = 1, so
        # no panel hundreds wide sits next to the branch point r = 0 at small
        # u: 51,024 nodes at both u at n = 2 and 33,936 at n = 3, where heads
        # from r = 1 took 122,992 and 50,320 at u = 2e-4
        datum, points = ChirpDatum(n, sigma), []
        gl_rows = quadrature.gl_rows

        def counted(f, *args, **kw):
            def g(x, *rest):
                points[-1] += x.size
                return f(x, *rest)
            return gl_rows(g, *args, **kw)

        monkeypatch.setattr(quadrature, "gl_rows", counted)
        for u in (2e-4, 0.05):
            points.append(0)
            assert annulus_lq(datum, 1.0 - u, 2.0 * lq_blowup_threshold(datum), 0.5, 2.5) > 0
        assert points[0] <= 1.5 * points[1]

    def test_overflowing_q_fails_at_the_first_rule(self, monkeypatch):
        # |psi|^q is inf at q = 1e300: the error comes from the first kernel
        # call (the 16-node rule and its two halves, 16 + 32 points), not
        # after 64 panels (2032 points) of NaN changes
        points = []
        chirp_values = blowup._chirp_values

        def counted(datum, t, x_abs, tol=1e-9):
            points.append(np.size(x_abs))
            return chirp_values(datum, t, x_abs, tol)

        monkeypatch.setattr(blowup, "_chirp_values", counted)
        with pytest.raises(ValueError, match="at q = 1e[+]300 is inf, not a positive finite"):
            annulus_lq(ChirpDatum(3, 1.95), 0.999, 1e300, 0.5, 2.5)
        assert sum(points) == 16 + 32


def _one_ray_reference(n, sigma, c, q, r_lo, z):
    """int_{r_lo}^inf r^{n/2-sigma} J_{(n-2)/2}(c r) e^{iqr^2} dr on the one
    ray r = r_lo + tau e^{i pi/4}, by mpmath with complex besselj.  With
    c = k z and q = k^2 the integrand grows at most by e^{z^2/8} along the
    ray, which the working precision absorbs.  From r_lo = 0 the integrand
    behaves like tau^{n-1-sigma}, which tanh-sinh misreads near -1; there
    tau = w^{1/(n-sigma)} makes it tend to a constant at w = 0."""
    with mpmath.workdps(25 + math.ceil(z * z / (8.0 * math.log(10.0)))):
        d = mpmath.expjpi(mpmath.mpf(1) / 4)
        c, q = mpmath.mpf(c), mpmath.mpf(q)
        p = 1 / (n - mpmath.mpf(sigma)) if r_lo == 0 else mpmath.mpf(1)

        def f(w):
            r = r_lo + w ** p * d
            return (r ** (mpmath.mpf(n) / 2 - sigma) * mpmath.besselj(mpmath.mpf(n - 2) / 2, c * r)
                    * mpmath.expj(q * r * r) * d * p * w ** (p - 1))

        s = 1 / mpmath.sqrt(q)     # the Gaussian decay length along the ray
        return complex(mpmath.quad(f, [(k * s) ** (1 / p) for k in (0, 0.5, 1, 2, 4, 10)]))


class TestSplitIntegralReference:
    @pytest.mark.parametrize("n,sigma,u,z", [
        (2, 0.3, 1e-4, 3.0), (2, 0.3, 1e-4, 0.3), (2, 0.3, 1e-2, 3.0),
        (2, 1.05, 1e-4, 3.0), (2, 1.05, 0.1, 1.0),
        (3, 1.95, 0.1, 0.3), (3, 1.95, 1e-2, 1.0), (3, 1.95, 1e-4, 3.0),
        (4, 2.5, 1e-4, 3.0), (4, 2.5, 1e-4, 1.0),
        (4, 1.5, 1e-2, 3.0), (4, 1.5, 1e-4, 0.3),
        # odd n, whose head ends at c r = max(3, nu); at u = 0.8 (k = 1) the
        # first z of each pair leaves a head on [1, max(3, nu)/z], the second
        # none (c r_lo = z is past the split, short of the even-n 10)
        (5, 2.5, 0.8, 2.0), (5, 2.5, 0.8, 5.0), (5, 1.5, 1e-2, 1.0),
        (7, 3.3, 0.8, 2.0), (7, 3.3, 0.8, 6.0), (7, 2.5, 1e-4, 3.0),
        (9, 3.3, 0.8, 3.0), (9, 3.3, 0.8, 8.0), (9, 4.5, 1e-3, 1.0),
        (11, 5.0, 0.8, 4.0), (11, 5.0, 0.8, 6.0), (11, 5.0, 1e-2, 0.3),
    ])
    def test_error_estimate_covers_reference(self, n, sigma, u, z):
        # the focusing frame at t = 1 - u: c = k_t z, q = k_t^2, r from 1;
        # at even n the truncated Hankel series dominates the error
        k = k_of_t(1.0 - u)
        (got,), (err,) = blowup._bessel_split_integral(n, sigma, [k * z], k * k, 1.0)
        want = _one_ray_reference(n, sigma, k * z, k * k, 1.0, z)
        assert abs(got - want) <= err + 1e-14 * abs(want)

    @pytest.mark.parametrize("n,sigma,z", [
        (3, 2.95, 1.0), (3, 2.95, 0.05), (3, 2.5, 4.0), (2, 1.5, 0.3), (2, 1.5, 3.0),
        (5, 4.5, 0.5), (6, 5.9, 2.0), (7, 3.3, 4.0), (9, 3.3, 2.0), (3, 2.0, 1.0),
    ])
    def test_limit_profile_frame_covers_reference(self, n, sigma, z):
        # from r = 0 with c = z, q = 1: the integrand behaves like r^{n-1-sigma}
        # at 0, which the series up to r1 = min(1/c, 1) takes in closed form
        (got,), (err,) = blowup._bessel_split_integral(n, sigma, [z], 1.0, 0.0)
        want = _one_ray_reference(n, sigma, z, 1.0, 0.0, z)
        assert abs(got - want) <= err + 1e-14 * abs(want)
        assert err <= 1e-8 * abs(want)


class TestOriginSeriesGuard:
    @pytest.mark.parametrize("n,sigma", [(2, 1.05), (3, 1.95)])
    @pytest.mark.parametrize("c,q", [(0.99, 0.01), (1.01, 0.01), (0.3, 0.99), (0.3, 1.01)])
    def test_lower_end_on_both_sides_of_the_series_range(self, n, sigma, c, q, monkeypatch):
        # from r_lo = 1 the series runs only where c r <= 1 and q r^2 <= 1;
        # a row past that gets no series term and no series error (its
        # terms grow there: a first cut read err_est = 1.4e34)
        rows = []
        series = blowup._origin_series

        def recorded(n, sigma, cc, quad, r):
            rows.append((cc, r))
            return series(n, sigma, cc, quad, r)

        monkeypatch.setattr(blowup, "_origin_series", recorded)
        (got,), (err,) = blowup._bessel_split_integral(n, sigma, [c], q, 1.0)
        for cc, r in rows:
            assert np.all(cc * r <= 1.0) and np.all(q * r * r <= 1.0)
        want = _one_ray_reference(n, sigma, c, q, 1.0, c / math.sqrt(q))
        assert abs(got - want) <= err + 1e-14 * abs(want)
        # the even-n Hankel truncation sets up to 5e-8 of it
        assert err <= 1e-7 * abs(want)


def _sine_reference(c, q, r_lo, a=0.0):
    """int_{r_lo}^inf r^{3/2-1} J_{1/2}(c r) e^{i(qr^2 + ar)} dr, the n = 3,
    sigma = 1 integral, in closed form: the integrand is sqrt(2/(pi c))
    sin(c r) e^{i(qr^2 + ar)}, and int_a^inf e^{i(|q| r^2 + b r)} dr = e^{-ib^2/4|q|}
    sqrt(pi/4|q|) e^{i pi/4} erfc(e^{-i pi/4} sqrt|q| (a + b/2|q|)); q < 0 is
    its conjugate at -b."""
    with mpmath.workdps(40):
        aq, sign = mpmath.mpf(abs(q)), (1 if q > 0 else -1)

        def fresnel(b):
            b = sign * mpmath.mpf(b)
            val = (mpmath.expj(-b * b / (4 * aq)) * mpmath.sqrt(mpmath.pi / (4 * aq))
                   * mpmath.expjpi(mpmath.mpf(1) / 4)
                   * mpmath.erfc(mpmath.expjpi(-mpmath.mpf(1) / 4) * mpmath.sqrt(aq)
                                 * (r_lo + b / (2 * aq))))
            return val if q > 0 else mpmath.conj(val)

        return complex(mpmath.sqrt(2 / (mpmath.pi * c)) * (fresnel(a + c) - fresnel(a - c)) / 2j)


class TestSineClosedForm:
    @pytest.mark.parametrize("r_lo", [0.0, 1.0])
    @pytest.mark.parametrize("q", [1.0, -1.0, 2.5e-3, -0.3])
    def test_error_estimate_covers_closed_form(self, r_lo, q):
        # c on both sides of the odd-n split c r = 3 at r = 1, and past the
        # even-n 10
        c = np.array([0.05, 0.7, 2.0, 5.0, 40.0])
        got, err = blowup._bessel_split_integral(3, 1.0, c, q, r_lo)
        want = np.array([_sine_reference(cc, q, r_lo) for cc in c])
        assert np.all(np.abs(got - want) <= err + 1e-14 * np.abs(want))

    @pytest.mark.parametrize("z", [0.3, 2.0])
    def test_ray_reference_from_zero_matches_closed_form(self, z):
        # the substituted ray reference that the limit-profile cases rely on
        want = _sine_reference(z, 1.0, 0.0)
        assert abs(_one_ray_reference(3, 1.0, z, 1.0, 0.0, z) - want) <= 1e-13 * abs(want)


class TestOneSplitRule:
    """special.bessel_split_integral is the one place that splits the Bessel
    integral: propagate and the chirped datum start their Hankel rows at the
    same Bessel argument, 10 at even n and max(3, sqrt(2) nu) at odd n."""

    @pytest.mark.parametrize("n,z0", [(2, 10.0), (3, 3.0), (9, 3.5 * math.sqrt(2.0))])
    def test_both_callers_split_at_one_bessel_argument(self, n, z0, monkeypatch):
        starts = []
        tail = special.hankel_tail

        def recorded(n, amp, b, rho0, *args, **kw):
            starts.append(np.abs(b) * rho0)
            return tail(n, amp, b, rho0, *args, **kw)

        monkeypatch.setattr(special, "hankel_tail", recorded)
        propagator.evolve_radial(profiles.power(n / 2.0 + 0.3), propagator.EvalPoint(n, 10.0, 1.0))
        blowup._bessel_split_integral(n, n - 1.0, [0.5, 2.0], 1.0, 0.0)
        assert len(starts) == 2
        for z in starts:
            assert z == pytest.approx(np.full(z.size, z0), rel=1e-14)

    @pytest.mark.parametrize("q", [1.0, -1.0, -0.3])
    @pytest.mark.parametrize("a", [0.0, 0.7, -1.3])
    def test_negative_quadratic_phase_is_the_conjugate(self, q, a):
        # n = 3, sigma = 1 from r = 1: no origin series, the head and tail of
        # the one function alone; at q < 0 its tail is the conjugate of the
        # tail at (|q|, -a)
        c = np.array([0.05, 0.7, 2.0, 5.0, 40.0])
        scale = np.tile(c ** -0.5, 2)          # the e^{iz} rows, then the e^{-iz} rows

        def head(r, row):
            return (r ** 0.5 * special.bessel_j(0.5, c[row] * r)
                    * np.exp(1j * (q * r * r + a * r)))

        got, err = special.bessel_split_integral(
            3, head, lambda r, row: scale[row] + 0j * r, c, np.ones((c.size, 1)), a, q)
        want = np.array([_sine_reference(cc, q, 1.0, a) for cc in c])
        assert np.all(np.abs(got - want) <= err + 1e-14 * np.abs(want))


def _defocusing_reference(n, sigma, t, x, R):
    """psi(x, t) of the chirped datum at t > 1, built without blowup: the radial
    kernel (2t)^{-1} e^{-in pi/4} |x|^{(2-n)/2} e^{i|x|^2/4t} against
    r^{n/2-sigma} J_nu(xr/2t) e^{i(1/4t - 1/4) r^2} over r >= 1, by a
    real-axis Gauss-Legendre rule to R and, beyond R, H^(1) and H^(2)
    (J_nu = (H^(1) + H^(2))/2) on steepest-descent rays."""
    nu, c, q = (n - 2) / 2.0, x / (2.0 * t), 1.0 / (4.0 * t) - 0.25
    p = n / 2.0 - sigma

    def f(r):
        return r ** p * jv(nu, c * r) * np.exp(1j * q * r * r)

    # one 32-node panel per cycle, doubled until two rules agree
    cycles = int((abs(q) * R * R + c * R) / (2.0 * math.pi)) + 1
    vals, _, live, _ = refine_rows(f, np.array([1.0]), np.array([R]), cycles, 8 * cycles, 1e-12)
    assert not live.any()

    # int h e^{-i(|q| r^2 -+ c r)} = conj(int conj(h) e^{i(|q| r^2 +- c r)})
    def h(r, row):
        hk = np.where(row == 0, hankel1e(nu, c * r), hankel2e(nu, c * r))
        return r ** p * hk / 2.0

    tails, _ = rotated_tail(lambda r, row: np.conj(h(np.conj(r), row)), (R, R), (-c, c),
                            c2=abs(q))
    val = vals[0, 0] + np.conj(tails.sum())
    return (x ** ((2 - n) / 2.0) / (2.0 * t) * cmath.exp(1j * (x * x / (4.0 * t) - n * math.pi / 4.0))
            * val)


class TestDefocusingSide:
    """At t > 1 the chirp phase 1/4t - 1/4 is negative and the tails are
    conjugates of the focusing-side rays."""

    @pytest.mark.parametrize("n,sigma", [(2, 1.05), (3, 1.95)])
    @pytest.mark.parametrize("t,x", [(1.5, 40.0), (1.5, 10.0), (3.0, 20.0)])
    def test_matches_real_axis_reference(self, n, sigma, t, x):
        want = _defocusing_reference(n, sigma, t, x, 300.0)
        # the reference does not depend on where the real-axis rule stops
        assert abs(_defocusing_reference(n, sigma, t, x, 200.0) - want) <= 1e-12 * abs(want)
        got = chirp_solution(ChirpDatum(n, sigma), t, x)
        assert abs(got.value - want) <= got.err_est + 1e-9 * abs(want)

    def test_stationary_point_beyond_splitting_is_certified(self):
        # the e^{-icr} tail's stationary point c/(2|quad|) = 1200 lies far
        # beyond r0 = 1 (c = 600 is past the split 3/c); its rays pass it
        amp = chirp_solution(ChirpDatum(3, 2.0), 0.5, 600.0)
        assert math.isfinite(amp.err_est)
        assert amp.err_est <= 1e-9 * abs(amp.value)


class TestLrMembership:
    def test_iff_tail_exponent(self):
        # |phi| ~ r^{-sigma}: in L^r exactly when sigma > n / r
        for n, sigma in ((3, 2.0), (2, 1.2)):
            datum = ChirpDatum(n, sigma)
            for r in (1.2, 1.6, 2.0, 3.0, 6.0):
                member, _ = lr_membership(datum, r)
                assert member == (sigma > n / r)

    def test_divergent_case_skips_quadrature(self):
        assert lr_membership(ChirpDatum(3, 2.0), 1.2) == (False, math.inf)

    @pytest.mark.parametrize("n,sigma,r,exact", [
        (3, 1.95, 2.0, 10.0 / 9.0), (3, 2.0, 6.0, 1.0 / 9.0),
        (2, 1.2, 3.0, 0.625), (5, 2.5, 2.5, 0.8),
    ])
    def test_convergent_value_is_exact(self, n, sigma, r, exact):
        # int_1^inf x^p dx = -1/(p+1) for p = n - 1 - sigma r < -1
        member, val = lr_membership(ChirpDatum(n, sigma), r)
        assert member and val == pytest.approx(exact, rel=1e-15)

    def test_runs_without_numpy_trapezoid(self, monkeypatch):
        # numpy >= 1.24 is the declared floor; np.trapezoid needs numpy 2.0
        monkeypatch.delattr(np, "trapezoid", raising=False)
        member, val = lr_membership(ChirpDatum(3, 2.0), 2.0)
        assert member and val == pytest.approx(1.0, rel=1e-3)


class TestGate:
    def test_classical_pairs_permitted(self):
        for n, p, q in ((3, 2.0, 6.0), (3, math.inf, 2.0), (2, 4.0, 4.0),
                        (3, 4.0, 3.0)):
            v = strichartz_gate(n, p, q, 2.0)
            assert v.permitted, (n, p, q, v.binding)

    def test_endpoint_two_inf_two_excluded(self):
        assert not strichartz_gate(2, 2.0, math.inf, 2.0).permitted

    def test_scaling_violation_binds_first(self):
        v = strichartz_gate(3, 2.0, 5.0, 2.0)
        assert not v.permitted
        assert v.binding == "scaling"

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("r", [2.1, 2.5, 3.0, 4.0, 8.0])
    def test_no_estimate_survives_above_two(self, n, r):
        q_grid = np.geomspace(1.05 * r, 200.0, 60)
        assert forbidden_for_all_p(n, r, q_grid)

    def test_scaling_compatible_p_rejected_pointwise(self):
        n, r = 3, 3.0
        for q in (4.0, 6.0, 12.0):
            p = scaling_p(n, q, r)
            if not (p >= 1.0):
                continue
            v = strichartz_gate(n, p, q, r)
            assert not v.permitted
            assert p > gate_p_bound(n, q, r) - 1e-9

    def test_p_bound_limits(self):
        # second branch dominates for large q; both blow up near small q
        assert gate_p_bound(3, math.inf, 3.0) < math.inf
        assert math.isinf(gate_p_bound(3, 1.01, 8.0))
