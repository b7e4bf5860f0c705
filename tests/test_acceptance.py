"""Acceptance gate: eight end-to-end checks, one printed verdict line each.

Each test computes its criterion, prints `CRITERION k (<what>): PASS|FAIL`
outside pytest's capture so the verdict is always visible, then asserts.
"""

import cmath
import math
import time

import numpy as np
import pytest

from disperse_lab import appendix, blowup, decay, norms, profiles, special
from disperse_lab.propagator import (
    EvalPoint,
    evolve_oracle,
    evolve_radial,
    initial_mass,
    solution_mass,
)

from test_propagator import ORACLE_SUITE, ORACLE_TIMES, ORACLE_XS
from test_special import residual_envelope_slope


def verdict(capsys, idx, label, ok, started, budget, detail=""):
    elapsed = time.monotonic() - started
    status = "PASS" if (ok and elapsed <= budget) else "FAIL"
    msg = f"CRITERION {idx} ({label}): {status} [{elapsed:.1f}s/{budget:.0f}s]"
    if detail:
        msg += f"  {detail}"
    with capsys.disabled():
        print(msg)
    assert ok, detail
    assert elapsed <= budget, f"budget exceeded: {elapsed:.1f}s > {budget}s"


def test_criterion_1_fresnel_identities(capsys):
    t0 = time.monotonic()
    ok = True
    notes = []

    want0 = cmath.exp(1j * math.pi / 4.0) * math.sqrt(math.pi) / 2.0
    err0 = abs(complex(special.fresnel_xi(0, 0.0, 0.0)) - want0)
    ok &= err0 <= 1e-10
    notes.append(f"origin err {err0:.1e}")

    worst_shift = 0.0
    for a in np.linspace(-3.0, 3.0, 7):
        for s in np.linspace(0.0, 3.0, 7):
            lhs = complex(special.fresnel_xi(0, a, s))
            rhs = cmath.exp(-1j * a * a / 4.0) \
                * complex(special.fresnel_xi(0, 0.0, s + a / 2.0))
            worst_shift = max(worst_shift, abs(lhs - rhs))
    ok &= worst_shift <= 1e-10
    notes.append(f"shift err {worst_shift:.1e}")

    s = 50.0
    worst_rel = 0.0
    for k in range(4):
        xi = complex(special.fresnel_xi(k, 0.0, s))
        lead = xi * (-2j * s) ** (k + 1) * cmath.exp(-1j * s * s)
        probe = s * s * (1.0 - lead)
        want = (k + 2) * (k + 1) * 1j / 4.0
        rel = abs(probe - want) / abs(want)
        worst_rel = max(worst_rel, rel)
    ok &= worst_rel <= 0.05
    notes.append(f"asymptotic rel {worst_rel:.3f}")

    verdict(capsys, 1, "iterated Fresnel identities", ok, t0, 10.0,
            "; ".join(notes))


def test_criterion_2_splitting_residuals(capsys):
    t0 = time.monotonic()
    ok = True
    notes = []
    for K in (0, 1, 3):
        # half-integer order: the expansion terminates (the only nonzero
        # coefficient is k = 0), so the residual must vanish outright for
        # every K and a slope fit of rounding noise is meaningless
        worst = max(special.splitting_residual(3, K, z)
                    for z in (20.0, 60.0, 160.0))
        ok &= worst <= 1e-9
        notes.append(f"n3K{K} exact {worst:.1e}")
    for K in (0, 1, 3):
        slope, _ = residual_envelope_slope(2, K)
        expect = 0.5 - K - 1
        ok &= abs(slope - expect) <= 0.15
        notes.append(f"n2K{K} slope {slope:+.2f} (want {expect:+.2f})")
    verdict(capsys, 2, "Bessel splitting residual decay", ok, t0, 10.0,
            "; ".join(notes))


def test_criterion_3_propagator_oracle(capsys):
    t0 = time.monotonic()
    ok = True
    notes = []

    worst = 0.0
    for prof in ORACLE_SUITE:
        run = evolve_oracle(prof, 3, ORACLE_TIMES)
        for t in ORACLE_TIMES:
            scale = max(abs(run.at(t, x)) for x in ORACLE_XS)
            for x in ORACLE_XS:
                got = evolve_radial(prof, EvalPoint(3, x, t)).value
                worst = max(worst, abs(got - run.at(t, x)) / scale)
    ok &= worst <= 1e-9
    notes.append(f"oracle rel {worst:.1e}")

    g_worst = 0.0
    for x, t in ((0.7, 0.4), (2.0, 1.5), (4.0, 3.0)):
        got = evolve_radial(profiles.gaussian(1.0), EvalPoint(3, x, t)).value
        want = (1.0 + 4.0j * t) ** -1.5 * cmath.exp(-x * x / (1.0 + 4.0j * t))
        g_worst = max(g_worst, abs(got - want) / abs(want))
    ok &= g_worst <= 1e-4
    notes.append(f"gaussian rel {g_worst:.1e}")

    pair = profiles.herglotz_pair(1.0, 3)
    h_worst = 0.0
    for t in (0.5, 5.0, 50.0):
        for x in (1.0, 4.0):
            amp = sum(evolve_radial(p, EvalPoint(3, x, t)).value for p in pair)
            datum = complex(sum(np.asarray(p.phi_rad(x)).ravel()[0]
                                for p in pair))
            h_worst = max(h_worst, abs(abs(amp) - abs(datum)) / abs(datum))
    ok &= h_worst <= 1e-4
    notes.append(f"herglotz rel {h_worst:.1e}")

    prof = profiles.bump(1.0, 2.0)
    m0 = initial_mass(prof, 3, 10.0)
    t = 0.5
    drift = abs(solution_mass(prof, 3, t, r_max=30.0 + 110.0 * t) - m0) / m0
    ok &= drift <= 1e-5
    notes.append(f"mass drift {drift:.1e}")

    verdict(capsys, 3, "propagator vs spectral oracle", ok, t0,
            30.0, "; ".join(notes))


def test_criterion_4_norm_thresholds(capsys, monkeypatch):
    t0 = time.monotonic()
    ok = True
    worst = 0.0
    notes = []

    # octave nodes the scans evaluate and the panel entries left at the cap,
    # printed beside the seconds
    nodes, capped = [0], [0]
    panel_integrals = norms._panel_integrals

    def counted(f, edges, floor=False, kinks=None):
        def g(r):
            nodes[0] += r.size
            return f(r)
        out = panel_integrals(g, edges, floor, kinks)
        capped[0] += int(out[1].sum())
        return out

    monkeypatch.setattr(norms, "_panel_integrals", counted)
    for n in (2, 3, 4):
        cases = [("power", "X", (n - 1) / 2.0),
                 ("oscillating_power", "X", (n + 1) / 2.0)]
        cases += [("power", f"Y{m}", float(n - m)) for m in range(n + 1)]
        for family, which, expect in cases:
            grid = np.arange(expect - 0.25, expect + 0.26, 0.1)
            scan = norms.membership_scan(family, n, which, grid)
            got = norms.empirical_threshold(scan)
            err = abs(got - expect)
            worst = max(worst, err)
            if err > 0.05:
                ok = False
                notes.append(f"n{n} {family}/{which}: got {got} want {expect}")
    notes.insert(0, f"worst offset {worst:.3f}, {nodes[0]} octave nodes, "
                    f"{capped[0]} capped panels")
    verdict(capsys, 4, "norm membership thresholds", ok, t0, 60.0,
            "; ".join(notes))


def test_criterion_5_decay_rates(capsys):
    t0 = time.monotonic()
    ok = True
    notes = []

    pair3 = profiles.herglotz_pair(1.0, 3)
    hmeas = decay.DiscreteMeasure(components=((1.0 + 0.0j, pair3[0]),
                                              (1.0 + 0.0j, pair3[1])))
    time_cases = [
        (profiles.bump(1.0, 2.0), 3, 0),
        (profiles.bump(1.0, 2.0), 2, 0),
        (profiles.power(2.5), 3, 1),
        (hmeas, 3, 3),
    ]
    for datum, n, m in time_cases:
        fit = decay.time_decay_fit(datum, n, m)
        lim = (m - n) / 2.0 + 0.1
        label = getattr(datum, "label", "measure")
        if fit.fitted_exponent > lim:
            ok = False
            notes.append(f"time {label} n{n}m{m}: {fit.fitted_exponent:+.2f}"
                         f" > {lim:+.2f}")

    for n in (2, 3):
        fit = decay.time_decay_fit(profiles.bump(1.0, 2.0), n, 0)
        if abs(fit.fitted_exponent + n / 2.0) > 0.1:
            ok = False
            notes.append(f"bump full rate n{n}: {fit.fitted_exponent:+.2f}")

    space_cases = [(profiles.bump(1.0, 2.0), 2), (hmeas, 3)]
    for datum, n in space_cases:
        fit = decay.space_decay_fit(datum, n)
        lim = (1 - n) / 2.0 + 0.1
        if fit.fitted_exponent > lim:
            ok = False
            notes.append(f"space n{n}: {fit.fitted_exponent:+.2f} > {lim:+.2f}")

    if ok:
        notes.append("all fitted exponents within bands")
    verdict(capsys, 5, "dispersive decay-rate fits", ok, t0, 300.0,
            "; ".join(notes))


def test_criterion_6_selfsimilar_collapse_and_lq(capsys, monkeypatch):
    t0 = time.monotonic()
    ok = True
    notes = []

    for n, sigma in ((3, 2.0), (2, 1.0)):
        datum = blowup.ChirpDatum(n, sigma)
        z = np.geomspace(0.3, 3.0, 25)
        lim = blowup.limit_profile(datum, z)
        dists = [float(np.max(np.abs(blowup.rescaled_modulus(datum, t, z)
                                     - lim.v)))
                 for t in (0.9, 0.99, 0.999)]
        if not dists[0] > dists[1] > dists[2]:
            ok = False
            notes.append(f"collapse n{n}: {dists}")

    # psi points the L^q fits evaluate, printed beside the seconds
    points = [0]
    chirp_values = blowup._chirp_values

    def counted(datum, t, x_abs, tol=1e-9):
        points[0] += np.size(x_abs)
        return chirp_values(datum, t, x_abs, tol)

    monkeypatch.setattr(blowup, "_chirp_values", counted)
    worst = 0.0
    for n, sigmas in ((2, (0.8, 1.0, 1.3)), (3, (1.5, 2.0, 2.4))):
        for sigma in sigmas:
            datum = blowup.ChirpDatum(n, sigma)
            thr = blowup.lq_blowup_threshold(datum)
            for fac in (1.4, 2.0, 3.0):
                q = thr * fac
                # a fixed rescaled annulus keeps every evaluation in the
                # cheap oscillatory regime; the growth exponent is
                # annulus-independent
                fit = blowup.lq_annulus_growth(datum, q, annulus=(0.5, 2.5))
                want = blowup.lq_growth_exponent(datum, q)
                err = abs(fit.fitted_exponent - want)
                worst = max(worst, err)
                if err > 0.1:
                    ok = False
                    notes.append(f"n{n} s{sigma} q{q:.2f}: "
                                 f"{fit.fitted_exponent:+.3f} want {want:+.3f}")
    notes.insert(0, f"worst L^q exponent err {worst:.3f}, {points[0]} psi points")
    verdict(capsys, 6, "self-similar collapse and annulus L^q growth", ok,
            t0, 300.0, "; ".join(notes))


def test_criterion_7_spacetime_gate(capsys):
    t0 = time.monotonic()
    ok = True
    notes = []

    for n in (2, 3):
        for r in (2.1, 2.5, 3.0, 4.0, 8.0):
            q_grid = np.geomspace(1.05 * r, 200.0, 60)
            if not blowup.forbidden_for_all_p(n, r, q_grid):
                ok = False
                notes.append(f"n{n} r{r}: estimate not excluded")

    for n, p, q in ((3, 2.0, 6.0), (2, math.inf, 2.0), (3, math.inf, 2.0),
                    (2, 4.0, 4.0)):
        if not blowup.strichartz_gate(n, p, q, 2.0).permitted:
            ok = False
            notes.append(f"classical ({n},{p},{q}) rejected")

    for n in range(2, 7):
        if abs(appendix.necessary_p_bound(2.0, n) - 2.0) > 1e-12:
            ok = False
            notes.append(f"p-bound at r=2, n={n}")

    if ok:
        notes.append("all verdicts correct")
    verdict(capsys, 7, "space-time estimate gate", ok, t0, 1.0,
            "; ".join(notes))


def test_criterion_8_singular_superposition(capsys):
    t0 = time.monotonic()
    ok = True
    notes = []

    worst_phi = 0.0
    worst_psi = 0.0
    for n in (2, 3):
        for delta in (0.3, 0.5, 0.7):
            pfit = appendix.phi_space_fit(delta, n)
            want = appendix.phi_expected_space_exponent(delta, n)
            worst_phi = max(worst_phi, abs(pfit.fitted_exponent - want))
            tfit = appendix.psi_time_fit(delta, n)
            want_t = appendix.psi_expected_time_exponent(delta)
            worst_psi = max(worst_psi, abs(tfit.fitted_exponent - want_t))
    ok &= worst_phi <= 0.1 and worst_psi <= 0.1
    notes.append(f"phi fit err {worst_phi:.3f}; psi fit err {worst_psi:.3f}")

    # membership grid chosen with >= 0.06 margin from the boundary
    # delta = (n+1)/2 - n/r so the fitted verdict is well-determined
    n = 2
    mism = 0
    for delta in (0.18, 0.32, 0.46, 0.62, 0.82):
        fit = appendix.phi_space_fit(delta, n)
        for r in (1.45, 1.6, 1.8, 2.1, 2.6):
            got = fit.fitted_exponent * r + n < 0.0
            want = appendix.lr_membership(delta, n, r)
            if got != want:
                mism += 1
    ok &= mism == 0
    notes.append(f"L^r grid mismatches {mism}/25")

    verdict(capsys, 8, "singular frequency superposition rates", ok, t0,
            300.0, "; ".join(notes))
