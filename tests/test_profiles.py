"""Profile contracts: the analytic tail continuation and the derivatives."""

import mpmath
import numpy as np
import pytest

from disperse_lab import profiles
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


class TestHerglotzDerivNearZero:
    """For omega r < 1/2 the envelope is omega^{-n/2} r^{1-n} e^{-i omega r}
    (omega r)^{n/2} J_nu(omega r) / 2; its finite-difference derivatives must
    not reach below r = 0, where the envelope is held at its limit."""

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
            got = p.deriv(k, np.array(rs))
            want = [complex(mpmath.diff(closed, mpmath.mpf(r), k)) for r in rs]
            scale = max(abs(complex(mpmath.diff(closed, mpmath.mpf(0.1), j)))
                        for j in range(k + 1))
            assert np.all(np.abs(got - want) <= 1e-4 * scale), k
