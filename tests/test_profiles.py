"""Profile contracts: the analytic tail continuation and the derivatives."""

import math

import mpmath
import numpy as np
import pytest

from disperse_lab import profiles, special
from disperse_lab.norms import oscillating_power


def _tailed_profiles():
    base = [("power", profiles.power(1.3)), ("oscillating_power", oscillating_power(2.0))]
    for n in (2, 3, 4):
        plus, minus = profiles.herglotz_pair(1.0, n)
        base += [(f"herglotz+{n}", plus), (f"herglotz-{n}", minus)]
    out = []
    for label, p in base:
        out += [(label, p), (label + "~dilate", p.dilate(0.37)),
                (label + "~dilate", p.dilate(2.5)), (label + "~scale", p.scale(0.6 - 1.3j))]
    return out


class TestParameterChecks:
    @pytest.mark.parametrize("build", [
        lambda v: profiles.power(v), lambda v: profiles.power(1.5, omega=v),
        lambda v: oscillating_power(v), lambda v: profiles.gaussian(v),
        lambda v: profiles.gaussian(1.0, omega=v), lambda v: profiles.bump(v, 2.0),
        lambda v: profiles.bump(1.0, v), lambda v: profiles.bump(1.0, 2.0, v),
        lambda v: profiles.herglotz(v, 3), lambda v: profiles.herglotz(1.0, v),
        lambda v: profiles.from_spec(f"power:alpha={v}", 3),
        lambda v: profiles.herglotz_pair(v, 3)])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameter_raises(self, build, value):
        with pytest.raises(ValueError, match="needs finite parameters"):
            build(value)

    def test_herglotz_needs_integer_n_and_K(self):
        with pytest.raises(ValueError, match=r"^dimension must be an integer >= 2, got 3\.5$"):
            profiles.herglotz(1.0, 3.5)
        with pytest.raises(TypeError, match="dimension n"):
            profiles.herglotz(1.0)
        assert profiles.from_spec("herglotz", 4).label == "herglotz[w=1.0,n=4]"


class TestTailFnContract:
    """The rotated head of evolve_radial integrates tail_fn in place of the
    envelope beyond tail_start, so the two must agree there."""

    @pytest.mark.parametrize("label,p", _tailed_profiles(),
                             ids=[lab for lab, _ in _tailed_profiles()])
    def test_tail_fn_equals_envelope(self, label, p):
        r = np.concatenate([[p.tail_start],
                            np.geomspace(max(p.tail_start, 1e-3), 1e4, 400)])
        env = np.asarray(p.envelope(r), dtype=complex)
        tail = np.asarray(p.tail_fn(r.astype(complex)), dtype=complex)
        assert np.all(np.abs(tail - env) <= 1e-13 * np.abs(env)), label


class TestHerglotzNodeOrder:
    """The Herglotz stack takes its pieces (omega r <= 1/2, the cutoff band,
    omega r >= 1) as slices of sorted nodes: nodes in any order, on the band's
    ends too, give the same rows bit for bit."""

    @pytest.mark.parametrize("n,omega", [(2, 1.0), (3, -2.5), (4, 0.7)])
    def test_any_order_matches_sorted(self, n, omega):
        w = abs(omega)
        r = np.concatenate([np.linspace(0.0, 3.0 / w, 601), [0.5 / w, 1.0 / w]])
        r.sort()
        perm = np.random.default_rng(0).permutation(r.size)
        for p in profiles.herglotz_pair(omega, n):
            assert np.array_equal(p.derivs(4, r[perm]), p.derivs(4, r)[:, perm])


class TestHerglotzDerivNearZero:
    """For omega r < 1/2 the envelope is omega^{-n/2} r^{1-n} e^{-i omega r}
    (omega r)^{n/2} J_nu(omega r) / 2, whose Bessel factor the stack takes
    as a power series in (omega r)^2, regular down to r = 0."""

    @pytest.mark.parametrize("n,omega", [(2, 1.0), (3, 1.0), (3, 2.5), (4, 1.0)])
    def test_matches_closed_form(self, n, omega):
        with mpmath.workdps(40):
            self._check(n, omega)

    def _check(self, n, omega):
        w, nu = mpmath.mpf(omega), mpmath.mpf(n - 2) / 2

        def closed(r):
            return (w ** (-mpmath.mpf(n) / 2) * r ** (1 - n) * mpmath.exp(-1j * w * r)
                    * (w * r) ** (mpmath.mpf(n) / 2) * mpmath.besselj(nu, w * r) / 2)

        p = profiles.herglotz(omega, n)
        rs = [r for r in (1e-5, 1e-3, 0.004, 0.0081, 0.0119, 0.05, 0.15) if omega * r < 0.5]
        for k in (1, 2, 3, 4):
            got = p.derivs(k, np.array(rs))[k]
            want = [complex(mpmath.diff(closed, mpmath.mpf(r), k)) for r in rs]
            scale = max(abs(complex(mpmath.diff(closed, mpmath.mpf(0.1), j)))
                        for j in range(k + 1))
            assert np.all(np.abs(got - want) <= 1e-11 * scale), k
        # at r = 0 the stack is the envelope's limit, the series' leading term
        lead = omega ** (n / 2 - 1) / (2 ** (n / 2) * math.gamma(n / 2))
        assert p.derivs(0, 0.0)[0] == pytest.approx(lead, rel=1e-14)


# -- derivative stacks ---------------------------------------------------------
# one order at a time, each by its own closed form: the arithmetic the stacks
# replaced

def _power_k(alpha, k, r):
    coef = 1.0
    for j in range(k):
        coef *= -(alpha + j)
    return coef * (1.0 + r) ** (-alpha - k)


def _osc_k(alpha, k, r):
    return np.exp(1j * r) * sum(math.comb(k, j) * 1j ** (k - j) * _power_k(alpha, j, r)
                                for j in range(k + 1))


def _gauss_k(width, k, r):
    s = r / width
    return (-1.0 / width) ** k * np.polynomial.hermite.Hermite.basis(k)(s) * np.exp(-s * s)


def _bump_k(a, b, k, r, absolute=False):
    # e^{1-u} times the complete Bell polynomial in -u', -u'', ...; with
    # absolute, in |u'|, |u''|, ...: the size of the terms that cancel
    out = np.zeros(r.shape)
    inside = (r > a) & (r < b)
    da, db = r[inside] - a, b - r[inside]
    cpf = ((b - a) / 2.0) ** 2 / (b - a)
    phi = [None] + [-cpf * math.factorial(j) * ((-1.0) ** j * da ** (-j - 1) + db ** (-j - 1))
                    for j in range(1, k + 1)]
    if absolute:
        phi = [None] + [np.abs(v) for v in phi[1:]]
    bell = [np.ones(da.shape)]
    for kk in range(1, k + 1):
        bell.append(sum(math.comb(kk - 1, j) * bell[j] * phi[kk - j] for j in range(kk)))
    out[inside] = np.exp(1.0 - cpf * (1.0 / da + 1.0 / db)) * bell[k]
    return out


def _herglotz_k(omega, n, k, r, K=8):
    # term by term power sum where omega r >= 1 (nan below, where the
    # mpmath test holds the stack)
    w, p = abs(omega), (1.0 - n) / 2.0
    coeffs = special.alpha_coeffs(n, K)
    out = np.zeros(r.shape, dtype=complex)
    for j, a in enumerate(coeffs.alpha):
        coef = w ** (-n / 2.0) * coeffs.prefactor * a * w ** ((n - 1) / 2.0 - j)
        for i in range(k):
            coef *= p - j - i
        out += coef * r ** (p - j - k)
    return np.where(w * r >= 1.0, out, np.nan)


def _stack_cases():
    """(label, profile, per-order reference ref(k, r), size mag(k, r) of the
    terms the reference sums)."""
    power, osc = profiles.power(1.3), oscillating_power(2.0)
    cases = [("power", power, lambda k, r: _power_k(1.3, k, r)),
             ("oscillating_power", osc, lambda k, r: _osc_k(2.0, k, r)),
             ("gaussian", profiles.gaussian(0.7), lambda k, r: _gauss_k(0.7, k, r)),
             ("bump", profiles.bump(0.5, 2.0), lambda k, r: _bump_k(0.5, 2.0, k, r))]
    for n in (2, 3, 4):
        plus, minus = profiles.herglotz_pair(1.0, n)
        ref = lambda k, r, n=n: _herglotz_k(1.0, n, k, r)
        cases += [(f"herglotz{n}", plus, ref),
                  (f"herglotz{n}~mirror", minus, lambda k, r, ref=ref: np.conj(ref(k, r)))]
    cases = [(label, p, ref, lambda k, r, ref=ref: np.abs(ref(k, r)))
             for label, p, ref in cases]
    cases[3] = cases[3][:3] + (lambda k, r: _bump_k(0.5, 2.0, k, r, absolute=True),)
    wrapped = []
    for label, p, ref, mag in cases[:2] + cases[3:5]:
        wrapped += [(label + "~dilate", p.dilate(0.37),
                     lambda k, r, ref=ref: 0.37 ** k * ref(k, 0.37 * r),
                     lambda k, r, mag=mag: 0.37 ** k * mag(k, 0.37 * r)),
                    (label + "~scale", p.scale(0.6 - 1.3j),
                     lambda k, r, ref=ref: (0.6 - 1.3j) * ref(k, r),
                     lambda k, r, mag=mag: abs(0.6 - 1.3j) * mag(k, r))]
    return cases + wrapped


_R = np.concatenate([np.geomspace(1e-3, 60.0, 37), [0.52, 0.9, 0.999, 1.0, 1.001, 1.1, 1.75,
                                                   1.97, 2.6, 2.7]])


class TestDerivativeStacks:
    """deriv_fn(k, r) returns orders 0..k at once; each row must be that
    order's own closed form where it has one (row 0 is the envelope)."""

    @pytest.mark.parametrize("label,p,ref,mag", _stack_cases(),
                             ids=[c[0] for c in _stack_cases()])
    def test_rows_match_one_order_closed_forms(self, label, p, ref, mag):
        stack = p.derivs(4, _R)
        assert stack.shape == (5, _R.size)
        for k in range(5):
            want = ref(k, _R)
            ok = ~np.isnan(want)
            assert np.all(np.abs(stack[k] - want)[ok] <= 1e-13 * mag(k, _R)[ok]), (label, k)
            # a stack up to order k is the first k + 1 rows of a longer one
            assert np.array_equal(p.derivs(k, _R), stack[:k + 1]), (label, k)
        # scalar and N-d input keep their shape
        assert p.derivs(2, 0.7).shape == (3,)
        assert p.derivs(1, _R[:6].reshape(2, 3)).shape == (2, 2, 3)


def _mp_chi(z):
    if z <= 0.5:
        return mpmath.mpf(1)
    if z >= 1:
        return mpmath.mpf(0)
    f = lambda u: mpmath.exp(-1 / u) if u > 0 else mpmath.mpf(0)
    u = 2 * (1 - z)
    return f(u) / (f(u) + f(1 - u))


def _mp_herglotz(omega, n, K=8):
    w, nu = mpmath.mpf(omega), mpmath.mpf(n - 2) / 2
    coeffs = special.alpha_coeffs(n, K)

    def env(r):
        z = w * r
        b = coeffs.prefactor * sum(mpmath.mpc(a) * z ** (mpmath.mpf(n - 1) / 2 - k)
                                   for k, a in enumerate(coeffs.alpha))
        a_part = _mp_chi(z) * z ** (mpmath.mpf(n) / 2) * mpmath.besselj(nu, z)
        return (w ** (-mpmath.mpf(n) / 2) * r ** (1 - n)
                * (mpmath.exp(-1j * z) * a_part / 2 + (1 - _mp_chi(z)) * b))
    return env


def _mp_cases():
    """(label, profile, mpmath closed form of the envelope, nodes)."""
    a, b = mpmath.mpf(0.5), mpmath.mpf(2)
    power = lambda r: (1 + r) ** mpmath.mpf(-1.3)
    osc = lambda r: mpmath.exp(1j * r) * (1 + r) ** mpmath.mpf(-2)
    gauss = lambda r: mpmath.exp(-(r / mpmath.mpf(0.7)) ** 2)
    bump = lambda r: mpmath.exp(1 - ((b - a) / 2) ** 2 / ((r - a) * (b - r)))
    lam, c = mpmath.mpf(0.37), mpmath.mpc(0.6, -1.3)
    smooth = (0.3, 1.1, 4.0)
    # below, inside and beyond the cutoff band 1/2 < omega r < 1
    across = (0.1, 0.45, 0.52, 0.75, 0.9, 0.999, 1.001, 1.1, 4.0)
    out = [("power", profiles.power(1.3), power, smooth),
           ("oscillating_power", oscillating_power(2.0), osc, smooth),
           ("gaussian", profiles.gaussian(0.7), gauss, smooth),
           ("bump", profiles.bump(0.5, 2.0), bump, (0.7, 1.1, 1.6)),
           ("power~dilate", profiles.power(1.3).dilate(0.37), lambda r: power(lam * r), smooth),
           ("bump~scale", profiles.bump(0.5, 2.0).scale(0.6 - 1.3j), lambda r: c * bump(r),
            (0.7, 1.1, 1.6))]
    for n in (2, 3, 4):
        plus, minus = profiles.herglotz_pair(1.0, n)
        env = _mp_herglotz(1.0, n)
        for label, p, closed in ((f"herglotz{n}", plus, env),
                                 (f"herglotz{n}~mirror", minus,
                                  lambda r, env=env: mpmath.conj(env(r)))):
            out += [(label, p, closed, across),
                    (label + "~dilate", p.dilate(2.5),
                     lambda r, closed=closed: closed(mpmath.mpf(2.5) * r),
                     tuple(z / 2.5 for z in across)),
                    (label + "~scale", p.scale(0.6 - 1.3j),
                     lambda r, closed=closed: c * closed(r), across)]
    return out


class TestDerivativeStacksAgainstMpmath:
    """Orders 0..4 of every family and wrapper against mpmath.diff of the
    closed-form envelope, relative to the largest order at r, to 1e-11:
    the Herglotz members below, inside and beyond the cutoff band
    1/2 < omega r < 1 too, where the stack is the Leibniz product of the
    stacks of chi, the Bessel series and the Hankel power sum."""

    @pytest.mark.parametrize("label,p,closed,rs", _mp_cases(),
                             ids=[c[0] for c in _mp_cases()])
    def test_matches_mpmath(self, label, p, closed, rs):
        with mpmath.workdps(40):
            for r in rs:
                got = p.derivs(4, np.array([r]))[:, 0]
                want = [complex(mpmath.diff(closed, mpmath.mpf(r), k)) for k in range(5)]
                scale = max(abs(v) for v in want)
                assert np.all(np.abs(got - want) <= 1e-11 * scale), (label, r)


class TestBreakRadii:
    """breaks: the envelope vanishes below breaks[0] and is analytic between
    consecutive break radii, so evolve_radial cuts its head there."""

    @pytest.mark.parametrize("p,want", [
        (profiles.bump(1.0, 2.0), (1.0, 2.0)), (profiles.bump(0.5, 3.0, 2.0), (0.5, 3.0)),
        (profiles.gaussian(1.0), (0.0,)), (profiles.power(1.3), (0.0,)),
        (oscillating_power(2.0), (0.0,)), (profiles.herglotz(1.0, 2), (0.0, 0.5, 1.0)),
        (profiles.herglotz(-2.5, 3), (0.0, 0.2, 0.4)),
    ], ids=["bump", "bump-a0.5", "gaussian", "power", "oscillating_power",
            "herglotz", "herglotz-2.5"])
    def test_family_breaks(self, p, want):
        assert p.breaks == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("p", [profiles.bump(1.0, 2.0), profiles.gaussian(1.0),
                                   profiles.herglotz(1.0, 4)], ids=["bump", "gaussian", "herglotz"])
    def test_wrappers(self, p):
        for lam in (0.37, 2.5):
            assert p.dilate(lam).breaks == tuple(x / lam for x in p.breaks)
        assert p.scale(0.6 - 1.3j).breaks == p.breaks

    @pytest.mark.parametrize("n,omega", [(2, 1.0), (3, -0.7)])
    def test_herglotz_mirror_keeps_breaks(self, n, omega):
        plus, minus = profiles.herglotz_pair(omega, n)
        assert minus.breaks == plus.breaks == profiles.herglotz(omega, n).breaks

    @pytest.mark.parametrize("p", [
        profiles.bump(1.0, 2.0), profiles.bump(0.5, 3.0, 2.0),
        profiles.bump(1.0, 2.0).dilate(2.5), profiles.bump(1.0, 2.0).scale(0.6 - 1.3j),
        profiles.bump(1.0, 2.0).dilate(0.37).scale(2.0),
    ], ids=["bump", "bump-a0.5", "bump~dilate", "bump~scale", "bump~dilate~scale"])
    def test_envelope_vanishes_below_first_break(self, p):
        r = np.linspace(0.0, p.breaks[0], 401)[:-1]
        assert r.size and np.all(p.derivs(3, r) == 0.0)
        # and not beyond it
        assert np.all(p.envelope(np.linspace(p.breaks[0], p.breaks[1], 9)[1:-1]) != 0.0)
