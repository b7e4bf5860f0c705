"""Weighted-norm evaluation, divergence certification, threshold scans."""

import dataclasses
import inspect
import math

import numpy as np
import pytest
from scipy.integrate import quad

from disperse_lab import norms, profiles, quadrature, special
from disperse_lab.norms import (
    DivergentNormError,
    NormReport,
    empirical_threshold,
    membership_scan,
    norm_report,
    norm_X,
    norm_Ym,
    oscillating_power,
)
from disperse_lab.profiles import RadialProfile


class TestHomogeneityAndDilation:
    def test_absolute_homogeneity(self):
        p = profiles.bump(1.0, 2.0)
        x1, x2 = norm_X(p, 3)
        for lam in (2.0, 1.0 / 3.0, 1j, 0.3 - 0.4j):
            y1, y2 = norm_X(p.scale(lam), 3)
            assert y1 == pytest.approx(abs(lam) * x1, rel=1e-10)
            assert y2 == pytest.approx(abs(lam) * x2, rel=1e-10)
        for m in (0, 2, 3):
            base = norm_Ym(p, 3, m)
            assert norm_Ym(p.scale(1j * 2.0), 3, m) \
                == pytest.approx(2.0 * base, rel=1e-10)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_dilation_scaling_law(self, m):
        # ||f(s .)||_{Y_m} = s^{m-n} ||f||_{Y_m}
        n = 3
        p = profiles.bump(1.0, 2.0)
        base = norm_Ym(p, n, m)
        for s in (2.0, 0.5):
            assert norm_Ym(p.dilate(s), n, m) \
                == pytest.approx(s ** (m - n) * base, rel=1e-6)

    def test_triangle_inequality(self):
        b1 = profiles.bump(1.0, 2.0)
        b2 = profiles.bump(1.5, 3.0)
        combo = RadialProfile(
            label="sum", omega=0.0,
            deriv_fn=lambda k, r: b1.derivs(k, r) + b2.derivs(k, r),
            support=3.0)
        n = 3
        for m in (0, 1, 3):
            assert norm_Ym(combo, n, m) \
                <= norm_Ym(b1, n, m) + norm_Ym(b2, n, m) + 1e-10
        xs = norm_X(combo, n)
        x1s = norm_X(b1, n)
        x2s = norm_X(b2, n)
        for a, b, c in zip(xs, x1s, x2s):
            assert a <= b + c + 1e-10


class TestGridRobustness:
    def test_refinement_stability(self):
        p = profiles.power(3.0)
        a1 = norm_X(p, 3, per_octave=4)
        a2 = norm_X(p, 3, per_octave=8)
        for u, v in zip(a1, a2):
            assert abs(u - v) <= 5e-3 * abs(v)
        b1 = norm_Ym(p, 3, 1, per_octave=4)
        b2 = norm_Ym(p, 3, 1, per_octave=8)
        assert abs(b1 - b2) <= 5e-3 * abs(b2)


class TestDivergenceCertification:
    def test_slow_tail_is_certified_divergent(self):
        x1, x2 = norm_X(profiles.power(0.6), 3)
        assert math.isinf(x1) or math.isinf(x2)
        assert math.isinf(norm_Ym(profiles.power(1.2), 3, 1))

    def test_fast_tail_is_finite(self):
        x1, x2 = norm_X(profiles.power(4.0), 3)
        assert math.isfinite(x1) and math.isfinite(x2)
        assert math.isfinite(norm_Ym(profiles.power(4.0), 3, 1))

    def test_missing_tail_descriptor_rejected(self):
        tailed = profiles.power(2.0)
        bare = RadialProfile(label="bare", omega=0.0, deriv_fn=tailed.deriv_fn)
        with pytest.raises(DivergentNormError):
            norm_X(bare, 3)

    def test_report_collects_all_norms(self):
        rep = norm_report(profiles.bump(1.0, 2.0), 3)
        assert len(rep.ym) == 4
        assert all(math.isfinite(v) for v in rep.ym)
        assert math.isfinite(rep.x1) and math.isfinite(rep.x2)


class TestSlopeFit:
    def test_matches_lstsq(self):
        # the closed-form line fit that decay uses replaces lstsq; zeros and
        # negative increments are left out of the fit
        rng = np.random.default_rng(3)
        for size in (5, 12):
            idx = np.arange(size, dtype=float)
            vals = 2.0 ** (-0.7 * idx + 0.3 * rng.standard_normal(size))
            vals[1] = 0.0
            live = vals > 0
            A = np.vstack([idx[live], np.ones(live.sum())]).T
            want = np.linalg.lstsq(A, np.log2(vals[live]), rcond=None)[0][0]
            assert norms._fit_slope(vals) == pytest.approx(want, rel=1e-13, abs=1e-15)
        assert norms._fit_slope([1.0, 0.5, 0.0, 0.0, -1.0]) == -math.inf


class TestThresholds:
    def test_x_norm_power_family(self):
        # plain power tails enter X above alpha = (n-1)/2
        n = 3
        scan = membership_scan("power", n, "X",
                               np.arange(0.7, 1.35, 0.1))
        assert empirical_threshold(scan) == pytest.approx(1.0, abs=0.06)

    def test_x_norm_oscillating_family(self):
        # a unimodular carrier buys one extra power: threshold (n+1)/2
        n = 3
        scan = membership_scan("oscillating_power", n, "X",
                               np.arange(1.7, 2.35, 0.1))
        assert empirical_threshold(scan) == pytest.approx(2.0, abs=0.06)

    def test_ym_power_family(self):
        n = 3
        scan = membership_scan("power", n, "Y1",
                               np.arange(1.7, 2.35, 0.1))
        assert empirical_threshold(scan) == pytest.approx(2.0, abs=0.06)

    def test_threshold_reads_finite_flags_and_values(self):
        # (alpha, finite?) pairs, as the benchmark's check builds them, and
        # the (alpha, norm value) pairs of membership_scan give one answer
        flags = [(0.8, False), (0.9, False), (1.1, True), (1.2, True)]
        values = [(0.8, math.inf), (0.9, math.inf), (1.1, 3.5), (1.2, 2.0)]
        assert empirical_threshold(flags) == empirical_threshold(values) == pytest.approx(1.0)
        assert empirical_threshold([(a, np.bool_(ok)) for a, ok in flags]) == pytest.approx(1.0)

    def test_threshold_requires_bracketing(self):
        with pytest.raises(ValueError):
            empirical_threshold([(0.5, True), (1.0, True)])


class TestHerglotzDecomposition:
    @pytest.mark.parametrize("n,omega", [(2, 1.0), (3, 1.0), (3, 2.0)])
    def test_reconstructs_bessel_mode(self, n, omega):
        pair = profiles.herglotz_pair(omega, n)
        nu = special.order_from_dim(n)
        for r in (50.0, 120.0):
            got = sum(complex(np.asarray(q.phi_rad(r)).ravel()[0])
                      for q in pair)
            want = r ** ((2 - n) / 2.0) * special.bessel_j(nu, omega * r)
            assert abs(got - want) <= 1e-6 * max(abs(want), r ** ((1 - n) / 2.0))

    def test_component_tail_size(self):
        # each component decays like r^{(1-n)/2}
        (eta, _) = profiles.herglotz_pair(1.0, 3)
        r = np.array([40.0, 160.0])
        vals = np.abs(np.asarray(eta.phi_rad(r)))
        ratio = vals[1] / vals[0]
        assert ratio == pytest.approx(4.0 ** (-1.0), rel=0.1)

    def test_rejects_zero_frequency(self):
        with pytest.raises(ValueError):
            profiles.herglotz_pair(0.0, 3)


class TestCertifiedIntegrals:
    def test_cut_at_an_end_converges(self):
        # r e^{-r} cut to r <= 3: with 3 as a panel edge every panel converges
        # to the exact total; a cut inside a panel stalls it at the cap, and
        # its last change, added to the total, errs upward
        cut = lambda r: np.where(r <= 3.0, r * np.exp(-r), 0.0)
        want = 1.0 - 4.0 * math.exp(-3.0)
        (total,), (capped,), (delta,) = norms.certified_integrals(cut, [3.0])
        assert capped == 0 and delta == 0.0
        assert total == pytest.approx(want, rel=1e-14)
        (total,), (capped,), (delta,) = norms.certified_integrals(cut)
        assert capped == 1 and total + delta >= want

    def test_divergent_column_is_inf(self):
        # (1 + r)^{-0.9} is not integrable; (1 + r)^{-1.5}, its neighbour
        # column, integrates to 2 with the extrapolated tail beyond 2^K_MAX
        totals, capped, _ = norms.certified_integrals(
            lambda r: np.stack([(1.0 + r) ** -0.9, (1.0 + r) ** -1.5]))
        assert totals[0] == math.inf
        assert totals[1] == pytest.approx(2.0, rel=1e-13)
        assert not capped.any()

    def test_norm_and_bounds_integrate_through_it(self, monkeypatch):
        # norm_Ym's integrals, the bound's sum_j int |g_j^{(m)}| and, per
        # point, gj_integral_check's right sides are one call each
        from disperse_lab import decay, propagator
        helper = norms.certified_integrals
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return helper(*args, **kwargs)

        monkeypatch.setattr(norms, "certified_integrals", spy)
        pt = propagator.EvalPoint(3, 1.0, 1.0)
        for run, want in ((lambda: norm_Ym(profiles.power(3.0), 3, 2), 1),
                          (lambda: propagator.solution_bound(profiles.bump(), pt, 1), 1),
                          (lambda: decay.gj_integral_check(profiles.bump(), 3, 1, [pt, pt]), 4)):
            calls.clear()
            run()
            assert len(calls) == want


class TestOscillatingPower:
    def test_carrier_modulus(self):
        p = oscillating_power(2.0)
        r = np.array([0.0, 1.0, 7.0])
        assert np.allclose(np.abs(p.envelope(r)), (1.0 + r) ** -2.0)


class TestDimensionCheck:
    @pytest.mark.parametrize("n", [0, 1, 2.5])
    def test_rejects_bad_dimension(self, n):
        p = profiles.power(3.0)
        message = f"^dimension must be an integer >= 2, got {n:g}$"
        with pytest.raises(ValueError, match=message):
            norm_X(p, n)
        with pytest.raises(ValueError, match=message):
            norm_Ym(p, n, 0)


def _gk_rule(f, lo, hi, sub):
    """(Kronrod, Gauss) sums of f on sub equal panels of [lo, hi], 7 Gauss
    and 15 Kronrod nodes a panel."""
    x, w = quadrature.gk_nodes(7)
    edges = np.linspace(lo, hi, sub + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    vals = f((mid[:, None] + half[:, None] * x).ravel())
    return tuple(np.sum((half[:, None] * w[:, c]).ravel() * vals) for c in (0, 1))


def _refine(g, lo, hi, sub, cap):
    """(Kronrod value, agreed?) of g on [lo, hi], from sub equal panels
    doubling up to cap until Kronrod and Gauss agree to 1e-10 relative."""
    while True:
        kron, gauss = _gk_rule(g, lo, hi, sub)
        done = abs(kron - gauss) <= 1e-10 * max(abs(kron), 1e-300)
        if done or 2 * sub > cap:
            return kron, done
        sub *= 2


def _per_panel_loop(f, edges, kinks=None):
    """The per-panel refinement that the batched refine_rows calls replace:
    one G7-K15 rule a panel, stop at relative agreement 1e-10 of the two; a
    panel that does not stop is cut by the kink search run on it alone, and
    each piece doubles from 1 to 512 subpanels, or, with no cut, it doubles
    on from 2 to 512; the head panel in s = sqrt(r).  (Kronrod values,
    stuck)."""
    vals, stuck = [], []
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        g = f
        if i == 0:
            g = lambda s: 2.0 * s * f(s * s)
            lo, hi = math.sqrt(lo), math.sqrt(hi)
        kron, done = _refine(g, lo, hi, 1, 1)
        if not done:
            pieces = norms._split_at_kinks(kinks, lambda x, row: np.where(row == 0, x * x, x),
                                           np.array([lo]), np.array([hi]), np.array([i]))
            parts = [_refine(g, a, b, sub, 512) for a, b, _, sub in zip(*pieces)]
            kron, done = sum(v for v, _ in parts), all(ok for _, ok in parts)
        vals.append(kron)
        stuck.append(not done)
    return np.array(vals), np.array(stuck)


def _record_panel_calls(monkeypatch):
    """Record every _panel_integrals call as (floor per column, (values,
    unconverged), loops), where loops holds one (loop values, loop stuck,
    scale) per column: the per-panel loop run on that column alone at call
    time, cut at the call's kinks, and each panel's integral of |column|."""
    driver = norms._panel_integrals
    default = inspect.signature(driver).parameters["floor"].default
    calls = []

    def spy(f, edges, floor=default, kinks=None):
        out = driver(f, edges, floor, kinks)
        ncol = out[0].shape[1]
        floors = tuple(np.broadcast_to(floor, ncol))
        loops = []
        for c in range(ncol):
            col = lambda r, c=c: np.atleast_2d(f(r))[c]
            ref, ref_stuck = _per_panel_loop(col, edges, kinks)
            scale = (_per_panel_loop(lambda r: np.abs(col(r)), edges, kinks)[0].real
                     if np.iscomplexobj(col(np.ones(1))) else np.abs(ref))
            loops.append((ref, ref_stuck, scale))
        calls.append((floors, out, loops))
        return out

    monkeypatch.setattr(norms, "_panel_integrals", spy)
    return calls


def _cols(x):
    return np.stack([np.exp(1j * x * x) / (1.0 + x), np.abs(np.sin(3.0 * x)),
                     np.cos(x) * np.exp(-0.1 * x)])


class TestBatchedPanels:
    @pytest.mark.parametrize("family", ["power", "oscillating_power", "bump",
                                        "herglotz"])
    def test_matches_per_panel_loop(self, family, monkeypatch):
        # one norm_X call with the X1, X2 integral and X2 sup tail columns,
        # one call with the n Y_n integrals k = 1..n and one with the
        # averaged mass: only the plain integrals are floored.  Every column
        # of every call is compared.  At n = 2 the X2 integrand of power and
        # herglotz keeps a row live after the X1 column has converged on it;
        # the kinks of power at n = 2 and of bump are cut on both sides
        for n in (2, 3):
            p = {"power": lambda: profiles.power(1.5),
                 "oscillating_power": lambda: oscillating_power(3.5),
                 "bump": lambda: profiles.bump(1.0, 2.0),
                 "herglotz": lambda: profiles.herglotz(1.0, n)}[family]()
            with monkeypatch.context() as mp:
                calls = _record_panel_calls(mp)
                norm_X(p, n)
                norm_Ym(p, n, n)
            assert [c[0] for c in calls] == [(False, True, False), (True,) * n, (False,)]
            for i, (floors, (got, stuck, _), loops) in enumerate(calls):
                for c, (floored, (ref, ref_stuck, scale)) in enumerate(zip(floors, loops)):
                    if floored:
                        # a floored column stops within the noise floor of its total
                        scale = np.maximum(scale, np.abs(ref).sum())
                        assert not np.any(stuck[:, c] & ~ref_stuck), (n, i, c)
                    else:
                        # the same rows hit the cap; a capped row of an unresolved
                        # oscillation depends on the rounding of its nodes
                        assert np.array_equal(stuck[:, c], ref_stuck), (n, i, c)
                        scale = np.where(ref_stuck, np.inf, scale)
                    assert np.all(np.abs(got[:, c] - ref) <= 1e-13 * scale), (n, i, c)

    def test_columns_match_one_column_calls(self):
        # a level's C columns summed by one matmul equal C one-column levels
        # to 1e-15 of sum |w f|, Kronrod and Gauss; at 8 subpanels the 241
        # octave panels span several node blocks, at 512 each panel is a
        # block of its own
        edges = np.array(norms._octave_edges(4))
        a, b = edges[:-1], edges[1:]
        assert a.size * 8 * 15 > 2 * quadrature._BLOCK_NODES
        for sub, sel in ((8, np.arange(a.size)), (64, np.array([3, 100, 240])),
                         (512, np.array([0, 120, 121, 240]))):
            args = (a[sel], b[sel], np.full(sel.size, sub), 7)
            sums, _ = quadrature.gl_rows(_cols, *args)
            assert sums.shape == (2, sel.size, 3)
            for c in range(3):
                one, mag = quadrature.gl_rows(lambda x: _cols(x)[c], *args, absolute=True)
                assert one.shape == (2, sel.size, 1)
                assert np.all(np.abs(sums[:, :, c] - one[:, :, 0]) <= 1e-15 * mag[:, 0]), (sub, c)

    def test_herglotz_rows_stop_at_noise_floor(self, monkeypatch):
        # beyond the cutoff eta r is constant, so (eta r)' is rounding noise
        # and no relative test can pass; the floor stops that column early
        p = profiles.herglotz(1.0, 3)
        driver, level = norms._panel_integrals, quadrature.gl_rows
        default = inspect.signature(driver).parameters["floor"].default
        calls, widest = [], []

        def spy_level(f, a, b, npanels, nodes, ids, absolute=False):
            widest.append(int(npanels.max()))
            return level(f, a, b, npanels, nodes, ids, absolute)

        def spy(f, edges, floor=default, kinks=None):
            out = driver(f, edges, np.logical_and(floor, spy.use_floor), kinks)
            calls.append((f, edges, out[1]))
            return out

        def run(use_floor):
            spy.use_floor = use_floor
            return norm_X(p, 3), norm_Ym(p, 3, 3)

        monkeypatch.setattr(norms, "_panel_integrals", spy)
        x, y = run(True)
        first = len(calls)
        x_ref, y_ref = run(False)
        assert x == pytest.approx(x_ref, rel=1e-12)
        assert y == pytest.approx(y_ref, rel=1e-12)
        # the dmod column (the second of the norm_X call) converges on every
        # row with the floor, and is capped on some without it
        (f, edges, stuck), (_, _, ref_stuck) = calls[0], calls[first]
        assert stuck.shape[1] == 3
        assert not stuck[:, 1].any() and ref_stuck[:, 1].any()

        def widest_for(floor):
            widest.clear()
            driver(lambda r: f(r)[1], edges, floor)
            return max(widest)

        # refined alone, it stops below the 512-subpanel cap
        monkeypatch.setattr(quadrature, "gl_rows", spy_level)
        assert widest_for(True) < 512 and widest_for(False) == 512
        # beside an unfloored copy of itself, each column keeps its own floor
        # and its own stopping point: each matches its refinement alone
        pair, pair_stuck, _ = driver(lambda r: f(r)[[1, 1]], edges, (True, False))
        for c, floor in enumerate((True, False)):
            alone, alone_stuck, _ = driver(lambda r: f(r)[1], edges, floor)
            assert np.array_equal(pair_stuck[:, c], alone_stuck[:, 0]), c
            assert np.allclose(pair[:, c], alone[:, 0], rtol=1e-15, atol=0.0), c

    def test_profile_evaluated_once_per_node(self, monkeypatch):
        # norm_X evaluates one stack of f and f' per node of its one panel
        # driver call, the kink search's probes counted as nodes
        counted = {"points": 0}
        driver = norms._panel_integrals
        nodes = []

        def spy(f, edges, floor=False, kinks=None):
            nodes.append(0)

            def counting(fn):
                def g(r):
                    nodes[-1] += r.size
                    return fn(r)
                return None if fn is None else g
            return driver(counting(f), edges, floor, counting(kinks))

        def count(fn):
            def wrapped(*args):
                counted["points"] += np.size(args[-1])
                return fn(*args)
            return wrapped

        monkeypatch.setattr(norms, "_panel_integrals", spy)
        for p in (profiles.power(1.1), profiles.bump(1.0, 2.0),
                  oscillating_power(1.6), profiles.herglotz(1.0, 3)):
            counted["points"] = 0
            nodes.clear()
            q = dataclasses.replace(p, deriv_fn=count(p.deriv_fn))
            norm_X(q, 3)
            assert len(nodes) == 1 and 0 < counted["points"] <= nodes[0], p.label

    def test_ym_evaluates_profile_once_per_node(self, monkeypatch):
        # the Y_m integrals k = k_lo..m are columns of one driver call that
        # evaluates the derivative stack once per node (the kink search's
        # probes counted as nodes); the averaged mass of Y_n, run when every
        # integral is finite, is the only other call
        driver = norms._panel_integrals
        calls, outside = [], []

        def spy(f, edges, floor=False, kinks=None):
            calls.append([0, 0])       # nodes, profile points
            spy.active = True

            def counting(fn):
                def g(r):
                    calls[-1][0] += r.size
                    return fn(r)
                return None if fn is None else g
            try:
                return driver(counting(f), edges, floor, counting(kinks))
            finally:
                spy.active = False

        def count(fn):
            def wrapped(*args):
                if spy.active:
                    calls[-1][1] += np.size(args[-1])
                else:
                    outside.append(np.size(args[-1]))
                return fn(*args)
            return wrapped

        spy.active = False
        monkeypatch.setattr(norms, "_panel_integrals", spy)
        n = 3
        for p in (profiles.power(3.0), profiles.bump(1.0, 2.0),
                  oscillating_power(3.5), profiles.herglotz(1.0, n)):
            q = dataclasses.replace(p, deriv_fn=count(p.deriv_fn))
            for m in range(n + 1):
                calls.clear()
                outside.clear()
                val = norm_Ym(q, n, m)
                assert len(calls) == 1 + (m == n and math.isfinite(val)), (p.label, m)
                assert all(0 < pts <= nodes for nodes, pts in calls), (p.label, m)
                # |f(0)| of Y_n
                assert sum(outside) <= 1, (p.label, m)

    def test_integrand_calls_hold_at_most_one_block(self, monkeypatch):
        # whatever the number of columns, an integrand call receives at most
        # _BLOCK_NODES = 2^13 nodes, so memory stays flat as columns are added
        driver = norms._panel_integrals
        sizes = []

        def spy(f, edges, floor=False, kinks=None):
            def g(r):
                sizes.append(r.size)
                return f(r)
            return driver(g, edges, floor, kinks)

        monkeypatch.setattr(norms, "_panel_integrals", spy)
        for n in (2, 4):
            for p in (profiles.power(5.5), profiles.bump(1.0, 2.0),
                      oscillating_power(3.5)):
                norm_X(p, n)
                for m in range(n + 1):
                    norm_Ym(p, n, m)
        assert quadrature._BLOCK_NODES == 1 << 13
        assert sizes and max(sizes) <= 1 << 13
        # the first rule of each refinement, 241 octave panels of 15 nodes,
        # is one block
        assert sizes.count(241 * 15) >= 3

    def test_cap_is_reported(self):
        # a jump inside a panel: composite rules converge only like h, so
        # that panel never agrees to 1e-10 and keeps its 512-subpanel value
        jump = 2.0 ** 0.3
        step = lambda r: np.where(np.asarray(r) < jump, 1.0, 0.0)
        p = RadialProfile(label="step", omega=0.0,
                          deriv_fn=lambda k, r: np.stack([step(r)] + [0.0 * r] * k),
                          support=2.0)
        edges = norms._octave_edges(4)
        got, stuck, _ = norms._panel_integrals(lambda r: step(r) * r, edges)
        (i,) = np.flatnonzero(stuck)
        assert edges[i] < jump < edges[i + 1]
        assert got[i] == pytest.approx(
            _gk_rule(lambda r: step(r) * r, edges[i], edges[i + 1], 512)[0], rel=1e-13)
        rep = NormReport(x1=0.0, x2=0.0, ym=[])
        norm_X(p, 3, report=rep)
        assert rep.unconverged_panels > 0
        for m in range(4):
            norm_Ym(p, 3, m, report=rep)
        assert norm_report(p, 3).unconverged_panels == rep.unconverged_panels
        assert norm_report(profiles.power(3.0), 3).unconverged_panels == 0

    def test_capped_panel_change_covers_its_error(self):
        # |r - 1.5|^{1/2} has a cusp, not a sign change, inside the panel
        # [2^0.5, 2^0.75], which stays at the cap; its last |Kronrod - Gauss|
        # still covers its error against the closed form (|f'| of bump(1, 2),
        # whose kink sat there, is now cut at it)
        r0 = 1.5
        edges = norms._octave_edges(4)
        vals, stuck, deltas = norms._panel_integrals(lambda r: np.sqrt(np.abs(r - r0)), edges)
        (i,) = np.flatnonzero(stuck[:, 0])
        assert edges[i] == 2.0 ** 0.5 and edges[i + 1] == 2.0 ** 0.75
        want = 2.0 / 3.0 * ((r0 - edges[i]) ** 1.5 + (edges[i + 1] - r0) ** 1.5)
        assert abs(vals[i, 0] - want) <= deltas[i, 0]

    def test_ym_counts_columns_up_to_the_first_divergent(self):
        # a jump in f' leaves one panel of the k = 1 column capped; that cap
        # counts only when the k = 0 column before it is finite, as when
        # each column was a call of its own and norm_Ym returned at the
        # first divergent one
        jump = 2.0 ** 0.3
        step = lambda r: np.where(r < jump, 1.0, 0.0)
        for alpha, want in ((0.5, 0), (5.0, 1)):
            env = profiles.power(alpha).envelope
            stack = lambda k, r, env=env: np.stack([env(r), step(r)] + [0.0 * r] * (k - 1))
            p = RadialProfile(label="kinked", omega=0.0, deriv_fn=stack, tail_alpha=alpha)
            rep = NormReport(x1=0.0, x2=0.0, ym=[])
            val = norm_Ym(p, 3, 1, report=rep)
            assert math.isfinite(val) == (alpha > 3.0)
            assert rep.unconverged_panels == want, alpha

    def test_ym_cap_is_reported(self):
        # the averaged-mass integrand f r of Y_n keeps the carrier e^{ir};
        # its panels beyond z ~ 1e4 stay unresolved at the cap.  (At alpha = 2
        # the k = 2 integral term diverges and norm_Ym returns before the
        # supremum runs, so no panel reaches the cap there.)
        rep = NormReport(x1=0.0, x2=0.0, ym=[])
        assert math.isfinite(norm_Ym(oscillating_power(3.5), 3, 3, report=rep))
        assert rep.unconverged_panels > 0


class TestKinkCuts:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bump_matches_quad_split_at_its_kinks(self, n):
        # bump(1, 2) has f' = 0 at r = 3/2 and r f' + (n-1)/2 f = 0 where
        # r (3 - 2 r)/4 + (n-1)/2 q^2 = 0, q = (r - 1)(2 - r): kinks of its
        # X1, X2 and Y_1 integrands inside octave panels.  Against quad split
        # there, on the panels of [1, 2] and with the suprema taken on their
        # edges as norm_X takes them, x1, x2 and Y_1 agree to 1e-12 (a
        # panel capped at a kink erred by 2.1e-9 at n = 3)
        p = profiles.bump(1.0, 2.0)
        c = (n - 1) / 2.0
        q = np.poly1d([-1.0, 3.0, -2.0])
        roots = (np.poly1d([-0.5, 0.75, 0.0]) + c * q * q).roots
        kinks = [1.5] + [z.real for z in roots if abs(z.imag) < 1e-12 and 1.0 < z.real < 2.0]
        assert len(kinks) == 2

        def integral(fn, lo, hi):
            inside = [z for z in kinks if lo < z < hi]
            return quad(lambda r: fn(*p.derivs(1, np.array([r]))[:, 0], r), lo, hi,
                        points=inside or None, epsabs=0.0, epsrel=1e-13, limit=200)[0]

        z = 2.0 ** (np.arange(5) / 4.0)
        panels = list(zip(z[:-1], z[1:]))
        inner = [integral(lambda f, d, r: abs(f) * r ** (n - 2) + abs(d) * r ** (n - 1), lo, hi)
                 for lo, hi in panels]
        tail = [integral(lambda f, d, r: abs(f) * r ** ((n - 5) / 2.0), lo, hi) for lo, hi in panels]
        dmod = sum(integral(lambda f, d, r: abs(d * r + c * f) * r ** (c - 1.0), lo, hi)
                   for lo, hi in panels)
        x1 = np.max(np.r_[0.0, np.cumsum(inner)] * z ** ((1.0 - n) / 2.0))
        x2 = dmod + np.max(z * np.r_[np.cumsum(tail[::-1])[::-1], 0.0])
        got_x1, got_x2 = norm_X(p, n)
        assert got_x1 == pytest.approx(x1, rel=1e-12, abs=0.0)
        assert got_x2 == pytest.approx(x2, rel=1e-12, abs=0.0)
        assert norm_Ym(p, n, 1) == pytest.approx(sum(inner), rel=1e-12, abs=0.0)

    def test_bump_report_has_no_capped_panel(self):
        # 13 panels were left at the cap by the kinks of bump(1, 2) at n = 3
        assert norm_report(profiles.bump(1.0, 2.0), 3).unconverged_panels == 0

    def test_constant_phase_is_divided_out(self, monkeypatch):
        # bump(1, 2) scaled by a complex lambda has the same kinks; they are
        # found once the phase of lambda is divided out, so the complex data
        # are cut where the real are
        driver, pieces = quadrature.refine_rows, []

        def spy(f, a, b, *args, **kw):
            pieces.append(a)
            return driver(f, a, b, *args, **kw)

        monkeypatch.setattr(norms, "refine_rows", spy)
        for lam in (1.0, 0.3 - 0.4j):
            norm_X(profiles.bump(1.0, 2.0).scale(lam), 3)
        (_, real), (_, scaled) = pieces[:2], pieces[2:]
        assert np.allclose(real, scaled, rtol=1e-14, atol=0.0)
        assert np.isclose(real, 1.5, rtol=1e-14).any()


class TestOctaveRule:
    def test_converged_panels_take_one_kronrod_rule(self, monkeypatch):
        # every panel of power(1.5) at n = 3 converges at its first check:
        # 241 panels of 15 Gauss-Kronrod nodes are 3,615 nodes (the 24-node
        # pair took 11,809, the 24-node rule and its halves 17,352)
        level = quadrature.gl_rows
        nodes = [0]

        def counted(f, a, b, npanels, nodes_per=32, ids=None, absolute=False):
            nodes[0] += int(np.sum(npanels)) * (2 * nodes_per + 1)
            return level(f, a, b, npanels, nodes_per, ids, absolute)

        monkeypatch.setattr(quadrature, "gl_rows", counted)
        rep = NormReport(x1=0.0, x2=0.0, ym=[])
        assert all(math.isfinite(v) for v in norm_X(profiles.power(1.5), 3, report=rep))
        assert rep.unconverged_panels == 0
        assert nodes[0] == 241 * 15

    @pytest.mark.parametrize("alpha", [0.6, 1.5, 3.0])
    def test_head_panel_is_exact_at_even_n(self, alpha, monkeypatch):
        # at n = 2, |(f r^{1/2})'| ~ r^{-1/2} at 0; in s = sqrt(r) the head
        # panel [0, eps] is smooth and gives (1 + eps)^{-alpha} eps^{1/2}
        driver = norms._panel_integrals
        calls = []

        def spy(f, edges, floor=False, kinks=None):
            calls.append(driver(f, edges, floor, kinks))
            return calls[-1]

        monkeypatch.setattr(norms, "_panel_integrals", spy)
        norm_X(profiles.power(alpha), 2)
        (vals, capped, _), = calls
        eps = 2.0 ** norms.K_MIN
        want = (1.0 + eps) ** -alpha * math.sqrt(eps)
        assert vals[0, 1].real == pytest.approx(want, rel=1e-15, abs=0.0)
        assert not capped[0].any()

    def test_power_at_n2_splits_its_kink_row(self, monkeypatch):
        # (f r^{1/2})' of power(0.6) changes sign at r = 5, so the X2
        # integrand, its modulus, has a kink there; the row holding it is cut
        # there and no panel of the report is capped
        driver, pieces = quadrature.refine_rows, []

        def spy(f, a, b, *args, **kw):
            pieces.append((a, b))
            return driver(f, a, b, *args, **kw)

        monkeypatch.setattr(norms, "refine_rows", spy)
        norm_X(profiles.power(0.6), 2)
        (_, _), (lo, hi) = pieces
        assert np.isclose(hi, 5.0, rtol=1e-14).any() and np.isclose(lo, 5.0, rtol=1e-14).any()
        monkeypatch.undo()
        assert norm_report(profiles.power(0.6), 2).unconverged_panels == 0
