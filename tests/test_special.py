"""Bessel evaluation, oscillatory splitting, and iterated Fresnel tails."""

import cmath
import math

import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import hankel1e, hankel2e, jv, spherical_jn

from disperse_lab import special
from disperse_lab.quadrature import rotated_tail


def residual_envelope_slope(n, K, z_lo=20.0, z_hi=160.0, per_octave=24):
    """Fit the oscillation envelope of the splitting residual over [z_lo, z_hi].

    The residual carries an oscillatory factor, so single-point ratios are
    noisy; max-pool within half-octave bins and regress the bin peaks.
    """
    octaves = math.log2(z_hi / z_lo)
    zs = np.geomspace(z_lo, z_hi, int(per_octave * octaves) + 1)
    vals = np.array([special.splitting_residual(n, K, z) for z in zs])
    peak = float(vals.max())
    nbins = int(2 * octaves)
    bins = np.minimum((np.log2(zs / z_lo) * 2).astype(int), nbins - 1)
    xs, ys = [], []
    for b in range(nbins):
        sel = bins == b
        i = np.argmax(vals[sel])
        xs.append(math.log(zs[sel][i]))
        ys.append(math.log(max(vals[sel][i], 1e-300)))
    slope = np.polyfit(xs, ys, 1)[0]
    return float(slope), peak


class TestBessel:
    @pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.5])
    def test_matches_mpmath(self, nu):
        # tiny z is where closed forms at half-integer order cancel
        # 95..105 straddles the switch from Cephes j0/j1 to AMOS jv
        zs = np.concatenate([np.geomspace(1e-8, 0.3, 20),
                             np.linspace(1e-3, 14.9, 40),
                             np.linspace(95.0, 105.0, 21),
                             np.geomspace(15.1, 1e5, 60)])
        got = special.bessel_j(nu, zs)
        for z, g in zip(zs, got):
            want = float(mpmath.besselj(nu, z))
            # envelope-relative accuracy: near zeros of J the absolute scale
            # is set by the oscillation amplitude ~ z^{-1/2}
            scale = max(abs(want), (2.0 / (math.pi * z)) ** 0.5 if z > 1 else 1.0)
            assert abs(g - want) <= 5e-13 * scale

    @pytest.mark.parametrize("nu", [0.0, 1.0])
    def test_hankel_series_past_cephes_matches_mpmath(self, nu):
        # past z = 100, J_0 and J_1 are the K = 8 Hankel series of B_n at
        # n = 2 nu + 2, not AMOS jv: within 1e-15 of the envelope
        zs = np.geomspace(100.0 + 1e-9, 1e5, 200)
        got = special.bessel_j(nu, zs)
        with mpmath.workdps(30):
            want = np.array([float(mpmath.besselj(nu, z)) for z in zs])
        assert np.all(np.abs(got - want) <= 1e-15 * np.sqrt(2.0 / (math.pi * zs)))
        assert special.bessel_j(nu, float(zs[-1])) == got[-1]

    def test_complex_argument_matches_mpmath(self):
        for nu in (0.0, 0.5, 1.5):
            for z in (0.3 + 0.1j, 5.0 + 1.0j, 20.0 + 2.0j, 120.0 + 0.5j):
                got = special.bessel_j_c(nu, z)
                want = complex(mpmath.besselj(nu, z))
                assert abs(got - want) <= 1e-10 * max(abs(want), 1.0)

    def test_half_order_closed_form_matches_spherical_jn(self):
        z = np.concatenate([[0.0], np.geomspace(1e-300, 1e-3, 50),
                            np.linspace(0.0, 1e5, 200_001)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = special.bessel_j(0.5, z)
            assert special.bessel_j(0.5, 0.0) == 0.0
        want = np.sqrt(2.0 * z / math.pi) * spherical_jn(0, z)
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    def test_half_order_closed_form_matches_jv_off_the_axis(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(1e-3, 1e3, 5000) + 1j * rng.uniform(-20.0, 20.0, 5000)
        want = jv(0.5, z)
        assert np.all(np.abs(special.bessel_j_c(0.5, z) - want) <= 1e-13 * np.abs(want))

    def test_origin(self):
        assert special.bessel_j(0.0, 0.0) == pytest.approx(1.0)
        assert special.bessel_j(1.5, 0.0) == 0.0

    @pytest.mark.parametrize("nu", [0.0, 1.0, 1.5, 2.0])
    def test_scalar_in_scalar_out(self, nu):
        for z in (3.0, 150.0):
            got = special.bessel_j(nu, z)
            assert type(got) is float
            assert got == special.bessel_j(nu, np.array([z]))[0]
        with pytest.raises(ValueError):
            special.bessel_j(nu, -1.0)


def _b(n, K, z):
    """B_n(z) with K Hankel terms: row 0 of its stack."""
    return complex(special.splitting_stacks(n, K, 0, np.array([z]))[1][0, 0])


class TestSplitting:
    @pytest.mark.parametrize("n,K", [(2, 0), (2, 2), (2, 6), (3, 0),
                                     (4, 1), (4, 4)])
    def test_reconstruction_residual_decays(self, n, K):
        slope, peak = residual_envelope_slope(n, K)
        if peak < 1e-11:
            return  # series terminates: residual at rounding noise
        expect = (n - 1) / 2.0 - K - 1
        assert slope == pytest.approx(expect, abs=0.2)

    def test_terminating_series_residual_is_rounding_noise(self):
        # half-integer order: once every nonzero coefficient is included the
        # reconstruction is exact up to z^{n/2}-amplified rounding
        for n, K in ((3, 1), (5, 2), (7, 3)):
            for z in (25.0, 160.0):
                assert special.splitting_residual(n, K, z) \
                    <= 1e-13 * z ** (n / 2.0)

    def test_odd_dimension_series_terminates(self):
        # half-integer order: the large-argument expansion is finite
        assert special.splitting_residual(3, 1, 25.0) <= 1e-11
        assert special.splitting_residual(5, 2, 25.0) <= 1e-11

    def test_compact_part_supported_in_unit_interval(self):
        z = np.array([1.001, 2.0, 10.0])
        assert np.all(special.splitting_A(3, z) == 0.0)
        z = np.array([0.1, 0.5])
        assert np.all(special.splitting_A(3, z) != 0.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 7])
    def test_compact_part_against_mpmath(self, n):
        # A_n = chi z^{n/2} J_nu below and in the cutoff band, and a float
        # at a scalar z
        def chi(z):
            if z <= 0.5:
                return mpmath.mpf(1)
            u = 2 * (1 - z)
            return mpmath.exp(-1 / u) / (mpmath.exp(-1 / u) + mpmath.exp(-1 / (1 - u)))

        zs = np.array([1e-3, 0.1, 0.45, 0.5, 0.52, 0.75, 0.9])
        got = special.splitting_A(n, zs)
        with mpmath.workdps(30):
            want = [float(chi(mpmath.mpf(z)) * mpmath.mpf(z) ** (mpmath.mpf(n) / 2)
                          * mpmath.besselj(mpmath.mpf(n - 2) / 2, z)) for z in zs]
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want)), n
        assert type(special.splitting_A(n, 0.3)) is float
        with pytest.raises(ValueError):
            special.splitting_A(n, np.array([0.2, -0.5]))

    def test_reconstructs_bessel(self):
        # A + e^{iz} B + e^{-iz} conj(B) == z^{n/2} J_nu(z); exact for odd n,
        # asymptotic (error ~ z^{(n-1)/2 - K - 1}) for even n
        for n in (3, 5):
            nu = special.order_from_dim(n)
            for z in (0.3, 0.9, 1.5, 8.0, 40.0):
                b = _b(n, 10, z)
                lhs = (special.splitting_A(n, z) + cmath.exp(1j * z) * b
                       + cmath.exp(-1j * z) * b.conjugate())
                want = z ** (n / 2.0) * float(mpmath.besselj(nu, z))
                assert abs(lhs - want) <= 1e-10 * max(1.0, abs(want))
        for n in (2, 4):
            nu = special.order_from_dim(n)
            for z in (40.0, 160.0):
                b = _b(n, 10, z)
                lhs = (special.splitting_A(n, z) + cmath.exp(1j * z) * b
                       + cmath.exp(-1j * z) * b.conjugate())
                want = z ** (n / 2.0) * float(mpmath.besselj(nu, z))
                tol = max(10.0 * z ** ((n - 1) / 2.0 - 11),
                          1e-12 * z ** (n / 2.0))
                assert abs(lhs - want) <= tol

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_oscillatory_part_in_band_against_mpmath(self, n):
        # B_n = (1 - chi) P sum_k alpha_k z^{(n-1)/2-k} to 1e-14 relative in
        # the cutoff band, down to z = 0.51 where 1 - chi is 2e-19
        def one_minus_chi(z):
            u = 2 * (1 - z)
            return mpmath.exp(-1 / (1 - u)) / (mpmath.exp(-1 / u) + mpmath.exp(-1 / (1 - u)))

        K = special.HANKEL_K
        with mpmath.workdps(40):
            alpha = [mpmath.mpf(special.hankel_symbol((n - 2) ** 2, k).numerator)
                     / special.hankel_symbol((n - 2) ** 2, k).denominator
                     * (0.5j) ** k / mpmath.sqrt(2 * mpmath.pi) for k in range(K + 1)]
            pref = mpmath.exp(-1j * (n - 1) * mpmath.pi / 4)
            for z in (0.51, 0.52, 0.75, 0.99):
                zm = mpmath.mpf(z)
                want = complex(one_minus_chi(zm) * pref
                               * sum(a * zm ** (mpmath.mpf(n - 1) / 2 - k) for k, a in enumerate(alpha)))
                got = _b(n, K, z)
                assert abs(got - want) <= 1e-14 * abs(want), (n, z, got, want)


def _cpow_grid():
    """|z| from 1e-3 to 1e6 (and 1) at arguments across (-pi, pi), and the
    negative real axis with +0.0 and -0.0 imaginary parts."""
    mods = np.concatenate([np.geomspace(1e-3, 1e6, 28), [1.0]])
    args = np.concatenate([np.linspace(-np.pi, np.pi, 41)[1:-1], [np.pi - 1e-12, 1e-12 - np.pi]])
    axis = np.empty(2 * mods.size, dtype=complex)
    axis.real, axis.imag = np.tile(-mods, 2), np.repeat([0.0, -0.0], mods.size)
    return np.concatenate([(mods[:, None] * np.exp(1j * args)).ravel(), axis])


def _mp_power(z, p):
    """Principal z^p by mpmath; a -0.0 imaginary part takes the side below
    the cut, as conj((conj z)^p)."""
    below = math.copysign(1.0, z.imag) < 0
    w = complex(mpmath.power(mpmath.mpc(z.real, abs(z.imag)), mpmath.mpf(p)))
    return w.conjugate() if below else w


class TestCpow:
    @pytest.mark.parametrize("p", [-2.2678, -0.95, -0.5, 0.5, 1.5, -2.5, -2.0, -1.0, 0.0, 1.0, 3.0])
    def test_matches_mpmath_and_numpy(self, p):
        # a few ulps times the condition number 1 + |p log|z|| of z^p
        z = _cpow_grid()
        with mpmath.workdps(30):
            want = np.array([_mp_power(v, p) for v in z])
        got = special.cpow(z, p)
        ulp = np.finfo(float).eps * np.abs(want) * (1.0 + np.abs(p * np.log(np.abs(z))))
        assert np.all(np.abs(got - want) <= 4.0 * ulp)
        assert np.all(np.abs(got - z ** p) <= 8.0 * ulp)

    @pytest.mark.parametrize("p", [-0.95, 0.5, 1.5, -2.2678])
    def test_cut_side_follows_the_sign_of_zero(self, p):
        above, below = special.cpow(np.array([complex(-4.0, 0.0), complex(-4.0, -0.0)]), p)
        assert above == pytest.approx(4.0 ** p * cmath.exp(1j * math.pi * p), rel=1e-15)
        assert below == pytest.approx(above.conjugate(), rel=1e-15)


def _series_by_powers(coeffs, z, conj=False):
    """The splitting series as summed term by term in z^{-k}, every alpha_k
    included, as it stood before the Horner evaluation."""
    z = np.asarray(z, dtype=complex)
    alpha = np.conj(coeffs.alpha) if conj else coeffs.alpha
    pref = np.conj(coeffs.prefactor) if conj else coeffs.prefactor
    acc = np.zeros_like(z)
    zin = np.ones_like(z)
    for a in alpha:
        acc += a * zin
        zin = zin / z
    return pref * z ** ((coeffs.n - 1) / 2.0) * acc


class TestDerivativeStackHelpers:
    def test_cutoff_chi_stack_against_mpmath(self):
        # orders 0..9 on (1/2, 1), to 1e-12 of the largest order; the stack of
        # 1 - chi holds the small values near z = 1/2 without cancellation
        def chi(z):
            u = 2 * (1 - z)
            return mpmath.exp(-1 / u) / (mpmath.exp(-1 / u) + mpmath.exp(-1 / (1 - u)))

        zs = np.concatenate([np.linspace(0.5005, 0.9995, 21), [0.52, 0.98]])
        got, rest = special.cutoff_chi_stack(9, zs)
        with mpmath.workdps(40):
            for i, z in enumerate(zs):
                want = [mpmath.diff(chi, mpmath.mpf(z), k) for k in range(10)]
                scale = float(max(abs(v) for v in want))
                assert np.all(np.abs(got[:, i] - [float(v) for v in want]) <= 1e-12 * scale), z
                # row 0, chi itself, to 1e-15 absolute
                assert abs(got[0, i] - float(want[0])) <= 1e-15, z
                assert abs(rest[0, i] - float(1 - want[0])) <= 1e-14 * float(1 - want[0]), z
                assert np.array_equal(rest[1:, i], -got[1:, i])

    def test_power_sum_at_zero_and_leibniz(self):
        # sum z^{2i}/i! = e^{z^2}, whose orders at 0 are 1, 0, 2, 0, 12, 0, 120
        d = [1.0 / math.factorial(i) for i in range(24)]
        stack = special.power_sum(d, 0.0, 2.0, 6, np.array([0.0, 0.3]))
        assert np.allclose(stack[:, 0], [1, 0, 2, 0, 12, 0, 120], rtol=1e-15, atol=0)
        # e^{z^2} from exp_stack of the stack of z^2, and e^{2 z^2} as a product
        sq = np.array([[0.09], [0.6], [2.0]] + [[0.0]] * 4)
        e = special.exp_stack(sq)
        assert np.allclose(e[:, 0], stack[:, 1], rtol=1e-13, atol=0)
        assert np.allclose(special.leibniz(e, e)[:, 0], special.exp_stack(2 * sq)[:, 0],
                           rtol=1e-13, atol=0)


class TestSplittingSeries:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_horner_matches_term_by_term_sum(self, n):
        # K past the end of the terminating series at odd n included
        rays = [cmath.exp(1j * th) for th in (0.0, math.pi / 4, -math.pi / 4, 0.6)]
        z = np.array([r * d for d in rays for r in np.geomspace(10.0, 1e4, 7)])
        for K in range(11):
            coeffs = special.alpha_coeffs(n, K)
            for conj, fn in ((False, special.splitting_B_series),
                             (True, special.splitting_B_series_conj)):
                want = _series_by_powers(coeffs, z, conj)
                got = fn(coeffs, z)
                assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), (K, conj)


def _exact_hankel_rows(n, amp, b, rho0, c2, delta):
    """The rows of special.hankel_tail with the series replaced by the exact
    Hankel functions: z^{n/2} H^{(1)}(z) e^{-iz} / 2 for b > 0 and
    z^{n/2} H^{(2)}(z) e^{iz} / 2 for b < 0, z = |b| rho."""
    nu = special.order_from_dim(n)
    b = np.asarray(b, dtype=float)

    def h(rho, row):
        z = np.abs(b[row]) * rho
        exact = np.where(b[row] > 0, hankel1e(nu, z), hankel2e(nu, z))
        return amp(rho, row) * np.sqrt(z) * exact / 2.0

    return rotated_tail(h, rho0, b, c2, delta)


class TestHankelTail:
    """hankel_tail against exact Hankel rows at |b| rho0 = 10, where the
    truncation of the series after K = 8 terms dominates the error."""

    @pytest.mark.parametrize("n,sigma", [(2, 1.05), (4, 2.5)])
    @pytest.mark.parametrize("quad", [0.5, -0.5])
    def test_focusing_layout(self, n, sigma, quad):
        # blowup's tails: rows +-c from r0 at c2 = |quad|, amplitude
        # c^{-1/2} r^{(n-1)/2-sigma}; the stationary point c/(2|quad|) = 10
        # lies beyond r0, and at quad < 0 the tail is the conjugate
        c, r0, p = 10.0, 1.0, (n - 1) / 2.0 - sigma
        b = (c, -c)

        def amp(r, row):
            return c ** -0.5 * r ** p

        got, err = special.hankel_tail(n, amp, b, r0, 0.0, c2=abs(quad), s=-p)
        want, want_err = _exact_hankel_rows(n, amp, b, r0, abs(quad), 0.0)
        if quad < 0:
            got, want = np.conj(got), np.conj(want)
        miss = np.abs(got - want)
        assert np.all(miss <= err + want_err), (miss, err)
        # the truncation, not the rays, is what the estimate measures here
        assert np.all(miss >= 1e3 * want_err)
        total = abs(got.sum() - want.sum())
        assert total <= err.sum() + want_err.sum()

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("t", [0.0, 3.0])
    def test_finite_interval_contour(self, n, t):
        # appendix's Hankel rays: int_1^2 (w-1)^{-delta} as rows from w = 1
        # with the endpoint power minus rows from w = 2 with the power in the
        # amplitude; at t = 3 the e^{-iwx} rows pass x/2t = 5/3 on rays, and
        # at t = 0 only the e^{iwx} rows exist (c2 = 0 needs a + b > 0)
        x, delta = 10.0, 0.4
        b = np.array([x] if t == 0 else [x, -x])
        b, start = np.tile(b, 2), np.repeat((1.0, 2.0), b.size)
        far = start == 2.0
        dl = np.where(far, 0.0, delta)

        def amp(w, row):
            out, on = (w * x) ** -0.5, far[row]
            out[on] *= (w[on] - 1.0) ** -delta
            return out

        got, err = special.hankel_tail(n, amp, b, start, 0.0, c2=t, delta=dl, s=0.5)
        want, want_err = _exact_hankel_rows(n, amp, b, start, t, dl)
        assert np.all(np.abs(got - want) <= err + want_err)
        interval = lambda v: v[~far].sum() - v[far].sum()
        assert abs(interval(got) - interval(want)) <= err.sum() + want_err.sum()


def _xi_moments(m, a, s):
    """Xi^m_a(s) at 40 digits from the moments M_k(S): M_0 from the Fresnel
    integrals, M_1 = (i/2) e^{iS^2}, and
    M_k = (i/2) S^{k-1} e^{iS^2} + (k-1) (i/2) M_{k-2}."""
    with mpmath.workdps(40):
        a, s = mpmath.mpf(a), mpmath.mpf(s)
        S = s + a / 2
        arg = S * mpmath.sqrt(2 / mpmath.pi)
        half = mpmath.mpf(1) / 2
        moments = [mpmath.sqrt(mpmath.pi / 2)
                   * mpmath.mpc(half - mpmath.fresnelc(arg), half - mpmath.fresnels(arg)),
                   0.5j * mpmath.expj(S * S)]
        for k in range(2, m + 1):
            moments.append(0.5j * S ** (k - 1) * mpmath.expj(S * S)
                           + (k - 1) * 0.5j * moments[k - 2])
        total = sum(mpmath.binomial(m, k) * (-S) ** (m - k) * moments[k]
                    for k in range(m + 1))
        return complex(mpmath.expj(-a * a / 4) * total / mpmath.factorial(m))


class TestFresnel:
    def test_value_at_origin(self):
        want = cmath.exp(1j * math.pi / 4.0) * math.sqrt(math.pi) / 2.0
        assert abs(complex(special.fresnel_xi(0, 0.0, 0.0)) - want) <= 1e-12

    def test_linear_shift_identity(self):
        # int_s^inf e^{i(r^2+ar)} dr = e^{-ia^2/4} int_{s+a/2}^inf e^{iu^2} du
        for a in np.linspace(-3.0, 3.0, 7):
            for s in np.linspace(0.0, 3.0, 7):
                lhs = complex(special.fresnel_xi(0, a, s))
                rhs = cmath.exp(-1j * a * a / 4.0) \
                    * complex(special.fresnel_xi(0, 0.0, s + a / 2.0))
                assert abs(lhs - rhs) <= 1e-10

    def test_against_mpmath_fresnel(self):
        # int_s^inf e^{iu^2} du in terms of the classical Fresnel integrals
        scale = math.sqrt(2.0 / math.pi)
        for s in (0.0, 0.7, 2.0, 10.0):
            c = float(mpmath.fresnelc(s * scale))
            sn = float(mpmath.fresnels(s * scale))
            want = math.sqrt(math.pi / 2.0) * complex(0.5 - c, 0.5 - sn)
            got = complex(special.fresnel_xi(0, 0.0, s))
            assert abs(got - want) <= 1e-11

    @pytest.mark.parametrize("m", range(7))
    def test_against_mpmath_moments(self, m):
        # Xi^m_a(s) = e^{-ia^2/4} sum_k C(m,k) (-S)^{m-k} M_k(S) / m!, S = s + a/2,
        # with the moments M_k(S) = int_S^inf rho^k e^{i rho^2} drho: negative S
        # puts the stationary point inside the tail
        for a in (-100.0, -10.0, -1.0, 0.0, 1.0, 10.0):
            for s in (0.0, 0.7, 3.0, 10.0, 50.0):
                want = _xi_moments(m, a, s)
                got = complex(special.fresnel_xi(m, a, s))
                assert abs(got - want) <= 1e-11 * abs(want), (a, s)

    @pytest.mark.parametrize("m", [0, 10, 20, 40, 60, 100])
    def test_origin_within_estimate(self, m, monkeypatch):
        # Xi^m_0(0) = Gamma((m+1)/2) e^{i pi (m+1)/4} / (2 m!): the rays grow
        # past the peak of rho^m e^{-tau^2} (the fixed ray length read 0.78
        # relative at m = 100), and the value lies within the estimate of
        # its rotated_tail call
        calls = []

        def spy(*args, **kw):
            calls.append(rotated_tail(*args, **kw))
            return calls[-1]
        monkeypatch.setattr(special, "rotated_tail", spy)
        got = complex(special.fresnel_xi(m, 0.0, 0.0))
        ((val,), (err,)), = calls
        with mpmath.workdps(30):
            want = complex(mpmath.gamma(mpmath.mpf(m + 1) / 2) * mpmath.expjpi(mpmath.mpf(m + 1) / 4)
                           / (2 * mpmath.factorial(m)))
        assert got == val and abs(got - want) <= err <= 1e-10 * abs(want)

    def test_large_s_asymptotics(self):
        s = 50.0
        for k in range(4):
            xi = complex(special.fresnel_xi(k, 0.0, s))
            lead = xi * (-2j * s) ** (k + 1) * cmath.exp(-1j * s * s)
            probe = s * s * (1.0 - lead)
            want = (k + 2) * (k + 1) * 1j / 4.0
            assert abs(probe - want) <= 0.05 * abs(want)

    def test_uniform_bound_constants_finite(self):
        for m in range(5):
            c = special.xi_bound_constant(m)
            assert 0.0 < c < 1e8
