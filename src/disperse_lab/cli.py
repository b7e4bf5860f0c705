"""Command-line front end: sweeps, CSV/JSON emission, baseline verification."""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import math
import sys
from typing import List, Optional, Sequence

import numpy as np

from . import appendix, blowup, decay, norms, profiles, special
from .propagator import EvalPoint, evolve_radial


# ---------------------------------------------------------------------------
# emission helpers
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def emit_csv(rows: Sequence[Sequence], header: Sequence[str],
             out: Optional[str]) -> None:
    if not rows:
        raise ValueError("no rows to write")
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(v) for v in row])
    _write(buf.getvalue(), out)


def _json_default(o):
    if isinstance(o, np.ndarray):
        return list(o)
    if isinstance(o, (np.floating, np.integer)):
        return float(o)
    if isinstance(o, complex):
        return {"re": o.real, "im": o.imag}
    raise TypeError(f"unserializable {type(o)}")


def emit_json(obj, out: Optional[str]) -> None:
    def roundtrip(x):
        # floats at 17 significant digits survive the round trip bit-exactly
        return json.loads(json.dumps(x, default=_json_default))
    _write(json.dumps(roundtrip(obj), indent=2, sort_keys=False) + "\n", out)


def _write(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _parse_grid(text: str) -> np.ndarray:
    """'a:b:num' geometric grid, or comma-separated values."""
    if ":" in text:
        a, b, num = text.split(":")
        a, b = float(a), float(b)
        num = int(num) if num not in ("geometric", "") else 10
        if num < 1:
            raise ValueError(f"grid {text!r} needs a count >= 1, got {num}")
        return np.geomspace(a, b, num)
    return np.array([float(v) for v in text.split(",")])


def _fit_json(fit: decay.DecayFit) -> dict:
    return {
        "axis": fit.axis,
        "grid": [float(g) for g in fit.grid],
        "fitted_exponent": fit.fitted_exponent,
        "half_width": fit.half_width,
        "max_residual": fit.max_residual,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_special(args) -> int:
    if args.mode == "fresnel":
        v = special.fresnel_xi(args.m, args.a, args.s)
        emit_json({"m": args.m, "a": args.a, "s": args.s,
                   "re": complex(v).real, "im": complex(v).imag}, args.out)
    else:
        res = special.splitting_residual(args.n, args.K, args.z)
        emit_json({"n": args.n, "K": args.K, "z": args.z,
                   "residual": res}, args.out)
    return 0


def cmd_propagate(args) -> int:
    profile = profiles.from_spec(args.profile)
    ts = _parse_grid(args.t)
    xs = _parse_grid(args.x)
    pts = [(float(t), float(x)) for t in ts for x in xs]

    def one(tx):
        t, x = tx
        amp = evolve_radial(profile, EvalPoint(args.n, x, t))
        return (args.n, t, x, amp.value.real, amp.value.imag,
                abs(amp.value), amp.err_est)

    rows = [one(tx) for tx in pts]
    rows.sort(key=lambda r: (r[1], r[2]))
    emit_csv(rows, ["n", "t", "x_abs", "re", "im", "abs", "err_est"], args.out)
    return 0


def _norm_value(profile, n: int, which: str) -> float:
    if which.upper() == "X":
        return sum(norms.norm_X(profile, n))
    if which[:1] in ("Y", "y") and which[1:].isdigit():
        return norms.norm_Ym(profile, n, int(which[1:]))
    raise ValueError(f"unknown norm {which!r}: expected X or Y0..Yn")


def cmd_norm(args) -> int:
    if args.scan:
        key, _, rng = args.scan.partition("=")
        if key.strip() != "alpha" or rng.count(":") != 2:
            raise ValueError(f"--scan expects alpha=a:b:step, got {args.scan!r}")
        a, b, step = (float(v) for v in rng.split(":"))
        if not step > 0:
            raise ValueError(f"--scan step must be positive, got {step:g}")
        grid = np.arange(a, b + 1e-12, step)
        if grid.size == 0:
            raise ValueError(f"--scan range {rng!r} is empty: need a <= b")
        fam, _, rest = args.family.partition(":")
        kv = dict(item.partition("=")[::2] for item in rest.split(",") if item)
        omega = float(kv.get("omega", 0.0))

        def one(alpha):
            spec = norms.FamilySpec(family=fam, alpha=float(alpha), omega=omega)
            val = _norm_value(spec.build(args.n), args.n, args.which)
            return (float(alpha), "DIV" if math.isinf(val) else val)

        rows = [one(alpha) for alpha in grid]
        emit_csv(rows, ["param", "value"], args.out)
    else:
        val = _norm_value(profiles.from_spec(args.family), args.n, args.which)
        emit_csv([(args.which, "DIV" if math.isinf(val) else val)],
                 ["which", "value"], args.out)
    return 0


def _measure_components(entries) -> list:
    """(weight, profile) pairs from the --measure JSON list."""
    if not isinstance(entries, list):
        raise ValueError("--measure expects a JSON list of components")
    comps = []
    for i, e in enumerate(entries):
        e = e if isinstance(e, dict) else {}
        if not (isinstance(e.get("family"), str) and isinstance(e.get("params", {}), dict)):
            raise ValueError(f"--measure entry {i} needs a 'family' name "
                             "and an optional 'params' object")
        weight = (e.get("weight_re"), e.get("weight_im", 0.0))
        if not all(type(w) in (int, float) for w in weight):
            raise ValueError(f"--measure entry {i} needs numbers weight_re "
                             f"and weight_im, got {weight[0]!r} and {weight[1]!r}")
        params = ",".join(f"{k}={v}" for k, v in e.get("params", {}).items())
        comps.append((complex(*weight), profiles.from_spec(f"{e['family']}:{params}")))
    return comps


def cmd_decay(args) -> int:
    if args.measure:
        with open(args.measure) as fh:
            entries = json.load(fh)
        measure = decay.DiscreteMeasure(_measure_components(entries))
        rep = decay.superposition_bound(measure, args.n, m=args.m)
        emit_json({
            "n": rep.n, "m": rep.m,
            "norm_sum_space": rep.norm_sum_space,
            "norm_sum_time": rep.norm_sum_time,
            "c_space": rep.c_space, "c_time": rep.c_time,
            "linearity_err": rep.linearity_err,
        }, args.out)
        return 0
    if args.profile is None:
        raise ValueError("decay needs --profile or --measure")
    profile = profiles.from_spec(args.profile)
    if args.mode == "time":
        fit = decay.time_decay_fit(profile, args.n, args.m, x_abs=args.x_abs)
    else:
        fit = decay.space_decay_fit(profile, args.n)
    emit_json(_fit_json(fit), args.out)
    return 0


def cmd_blowup(args) -> int:
    datum = blowup.ChirpDatum(args.n, args.sigma)
    ts = sorted(_parse_grid(args.tgrid))
    prof = blowup.limit_profile(datum, np.geomspace(0.05, 20.0, 120), tol=1e-7)
    r1, r2 = blowup.select_annulus(prof)
    zs = np.linspace(r1, r2, 7)

    def one(t):
        k = blowup.k_of_t(float(t))
        lq = blowup.annulus_lq(datum, float(t), args.q, r1, r2)
        resc = blowup.rescaled_modulus(datum, float(t), zs)
        return [float(t), k, lq] + [float(v) for v in resc]

    rows = [one(t) for t in ts]
    header = ["t", "k_t", "annulus_lq"] + [f"profile_z{z:.3f}" for z in zs]
    emit_csv(rows, header, args.out)
    return 0


def cmd_gate(args) -> int:
    if args.n < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {args.n}")
    if not args.r >= 1.0:
        raise ValueError(f"exponent r must be >= 1 (inf allowed), got {args.r:g}")
    if args.p is not None and args.q is not None:
        v = blowup.strichartz_gate(args.n, args.p, args.q, args.r)
        emit_json({"n": v.n, "p": v.p, "q": v.q, "r": v.r,
                   "permitted": v.permitted, "binding": v.binding,
                   "p_bound": v.p_bound, "scaling_ok": v.scaling_ok}, args.out)
        return 0
    if math.isinf(args.r):
        # 2/p + n/q = 0 leaves only p = q = inf, which JSON cannot hold
        raise ValueError("at r = inf the only scaling pair is p = q = inf; give --p and --q")
    qg = list(np.geomspace(max(args.r * 1.01, 1.01), 200.0, 40))
    table = []
    for q in qg:
        p = blowup.scaling_p(args.n, q, args.r)
        if math.isnan(p):
            continue
        v = blowup.strichartz_gate(args.n, p, q, args.r)
        table.append({"p": p, "q": float(q), "permitted": v.permitted,
                      "binding": v.binding})
    emit_json({"n": args.n, "r": args.r,
               "all_forbidden": all(not e["permitted"] for e in table),
               "pairs": table}, args.out)
    return 0


def cmd_appendix(args) -> int:
    if args.mode == "phi":
        v = appendix.singular_phi(args.delta, args.n, args.x)
        emit_json({"delta": args.delta, "n": args.n, "x": args.x,
                   "re": v.real, "im": v.imag, "abs": abs(v)}, args.out)
    elif args.mode == "psi":
        v = appendix.singular_psi(args.delta, args.n, args.x, args.t)
        emit_json({"delta": args.delta, "n": args.n, "x": args.x, "t": args.t,
                   "re": v.real, "im": v.imag, "abs": abs(v)}, args.out)
    elif args.mode == "region":
        v = appendix.lpq_region(args.delta, args.n, args.p, args.q)
        emit_json({"p": v.p, "q": v.q, "delta": v.delta, "n": v.n,
                   "member": v.member, "binding": v.binding}, args.out)
    else:
        b = appendix.necessary_p_bound(args.r, args.n)
        emit_json({"r": args.r, "n": args.n,
                   "p_bound": ("no finite p" if math.isinf(b) else b)}, args.out)
    return 0


# ---------------------------------------------------------------------------
# verification against shipped baselines
# ---------------------------------------------------------------------------

def _checks_fast() -> List[tuple]:
    base = decay.load_baselines()
    cons = base["constants"]
    tols = base["tolerances"]
    checks = []

    def add(name, fn):
        checks.append((name, fn))

    add("fresnel-origin", lambda: abs(
        complex(special.fresnel_xi(0, 0.0, 0.0))
        - cmath.exp(1j * math.pi / 4.0) * math.sqrt(math.pi) / 2.0) <= 1e-10)
    add("splitting-exact-n3", lambda: special.splitting_residual(3, 1, 40.0) <= 1e-9)

    def gaussian_check():
        prof = profiles.gaussian(1.0, 0.0)
        worst = 0.0
        for (x, t) in ((0.7, 0.4), (2.0, 1.5), (4.0, 3.0)):
            got = evolve_radial(prof, EvalPoint(3, x, t)).value
            want = (1.0 + 4.0j * t) ** -1.5 * cmath.exp(-x * x / (1.0 + 4.0j * t))
            worst = max(worst, abs(got - want) / abs(want))
        return worst <= 1e-4
    add("gaussian-closed-form", gaussian_check)

    def herglotz_check():
        pair = profiles.herglotz_pair(1.0, 3)
        worst = 0.0
        for t in (0.5, 5.0):
            for x in (1.0, 4.0):
                amp = sum(evolve_radial(p, EvalPoint(3, x, t)).value for p in pair)
                datum = sum(p.phi_rad(x) for p in pair)
                worst = max(worst, abs(abs(amp) - abs(datum)) / abs(datum))
        return worst <= 1e-4
    add("herglotz-modulus", herglotz_check)

    def gate_check():
        ok = blowup.strichartz_gate(3, 2.0, 6.0, 2.0).permitted
        qg = list(np.geomspace(3.1, 120, 40))
        ok &= blowup.forbidden_for_all_p(3, 3.0, qg)
        ok &= all(abs(appendix.necessary_p_bound(2.0, n) - 2.0) < 1e-12
                  for n in range(2, 7))
        return ok
    add("strichartz-gate", gate_check)

    def constants_check():
        ct, cs = decay.theorem_constants(profiles.bump(), 3, 0)
        rel = tols["constants_rel"]
        return (abs(ct - cons["theorem_c_time_bump_n3_m0"]) <= rel * cons["theorem_c_time_bump_n3_m0"]
                and abs(cs - cons["theorem_c_space_bump_n3"]) <= rel * cons["theorem_c_space_bump_n3"])
    add("recorded-constants", constants_check)
    return checks


def _checks_all() -> List[tuple]:
    checks = _checks_fast()

    def threshold_check():
        grid = np.arange(0.8, 1.3, 0.05)
        spec = norms.FamilySpec(family="power", alpha=1.0, omega=0.0)
        scan = norms.membership_scan(spec, 3, "X", grid)
        thr = norms.empirical_threshold(scan)
        return abs(thr - 1.0) <= 0.051
    checks.append(("x-threshold-n3", threshold_check))

    def appendix_rates():
        f = appendix.phi_space_fit(0.5, 3)
        ok = abs(f.fitted_exponent - (-1.5)) <= 0.1
        g = appendix.psi_time_fit(0.5, 3)
        ok &= abs(g.fitted_exponent - (-0.5)) <= 0.1
        return ok
    checks.append(("appendix-rates", appendix_rates))
    return checks


def cmd_verify(args) -> int:
    checks = _checks_all() if args.suite == "all" else _checks_fast()
    failed = 0
    for name, fn in checks:
        try:
            ok = bool(fn())
        except Exception as exc:      # surfaced as a failure, not a crash
            ok = False
            print(f"[error] {name}: {exc}")
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failed += 1
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="disperse-lab",
        description="radial Schroedinger flow: propagation, weighted norms, "
                    "decay fits, focusing blow-up, admissibility gates")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("special", help="Fresnel iterates / Bessel splitting")
    p.add_argument("--mode", choices=("fresnel", "splitting"), required=True)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--K", type=int, default=1)
    p.add_argument("--z", type=float, default=40.0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_special)

    p = sub.add_parser("propagate", help="evaluate the evolved datum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--t", required=True, help="grid a:b:num or v1,v2,...")
    p.add_argument("--x", required=True, help="grid a:b:num or v1,v2,...")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_propagate)

    p = sub.add_parser("norm", help="weighted norms and membership scans")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--which", required=True, help="X or Y0..Yn")
    p.add_argument("--scan", default=None, help="alpha=a:b:step")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("decay", help="decay-exponent fits")
    p.add_argument("--mode", choices=("time", "space"), default="time")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--profile", default=None)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--x-abs", type=float, default=1.0)
    p.add_argument("--measure", default=None, help="JSON component file")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_decay)

    p = sub.add_parser("blowup", help="focusing L^q growth sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--tgrid", default="0.9:0.999:8")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_blowup)

    p = sub.add_parser("gate", help="space-time admissibility verdicts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_gate)

    p = sub.add_parser("appendix", help="singular-density superposition")
    p.add_argument("--mode", choices=("phi", "psi", "region", "pbound"),
                   required=True)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=float, default=1.0)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--r", type=float, default=2.0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_appendix)

    p = sub.add_parser("verify", help="run checks against shipped baselines")
    p.add_argument("--suite", choices=("fast", "all"), default="fast")
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
