#!/usr/bin/env python3
"""Fixed-input timings of the quadrature routines, evolve_radial and evolve_rows, the datum phi_rad, bessel_j, the focusing evaluation and the norms.

    python3 tools/bench_layers.py --label NAME [--src DIR --src-label NAME] [--out F]

Times each case below in one process, as the median over ROUNDS rounds, next
to its quartiles (q1_us, q3_us); a round calls every case once, in turn, so
slow phases of a shared machine fall on all cases alike.  With --src the library under DIR is timed too, in
alternation with this checkout's: within a round each case runs once per
tree, the tree going first alternating from round to round, so the ratio of
the two labels holds across the machine's phases (labels recorded in
different sittings are not comparable).  Each tree's package is imported
under its own name, so both live in the one process.  Next to each timing
sit the integrand calls and nodes that the case passes through
quadrature.gl_rows, counted once, which do not depend on the hardware (the
end-term calls of rotated_tail do not pass through gl_rows and are not
counted).  Each tree's result is stored under its label in the JSON file
--out (default BENCH_layers.json), next to the results of other labels.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import importlib.util
import json
import platform
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 400
# the focusing cases: the first rule of annulus_lq on (0.5, 2.5) at t = 1 - u,
# u = 1e-3 and the small end 2e-4 of the focusing benchmark, with its sigma
# per n; the collapse probes' 25-point grid at sigma = n - 1
FOCUS_SIGMA = {2: 1.05, 3: 1.95}
FOCUS_U = (1e-3, 2e-4)
Z_GRID = np.geomspace(0.3, 3.0, 25)
# the CLI blowup command's limit-profile grid, at its tol 1e-7, at n = 2 and
# at n = 4, where the even-n Hankel truncation once set its error
CLI_Z_GRID = np.geomspace(0.05, 20.0, 120)
CLI_SIGMA = {2: 1.05, 4: 0.6}
# the block sizes that evolve_radial heads pass to phi_rad, and one large block
HEAD_NODES = (130, 520)
BIG_BLOCK = 8192
# J_0 past the Cephes range: the arguments of even-n compact heads at large x
BESSEL_FAR = np.linspace(100.0, 3000.0, 2501)[1:]
# 64-point grids at t = 1: bump(1, 2) from x = 0.5, and unbounded data at
# x/sqrt(t) > 2; and the mass of bump(1, 2) within r = 30 at t = 1/2, a
# third of criterion 3's first mass integral
GRID_BUMP, GRID_FAR = np.linspace(0.5, 20.0, 64), np.linspace(2.5, 20.0, 64)


def load(src: Path, name: str):
    """The modules of the package src/disperse_lab, imported as `name`."""
    pkg = src / "disperse_lab"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}")
                              for m in ("special", "quadrature", "propagator", "profiles",
                                        "blowup", "norms")})


def annulus_points(Q):
    """The points of annulus_lq's first rule on (0.5, 2.5) in the tree of
    quadrature module Q: one panel of its 16-node Gauss-Kronrod pair (33
    points), or, in a tree without gk_nodes, the 16-node Gauss rule and its
    two halves (48 points)."""
    if hasattr(Q, "gk_nodes"):
        return 1.5 + Q.gk_nodes(16)[0]
    x, _ = np.polynomial.legendre.leggauss(16)
    return np.concatenate([1.5 + x, 1.0 + 0.5 * x, 2.0 + 0.5 * x])


def grid(P, prof, n, xs):
    """psi on the grid xs at t = 1: one evolve_rows call, or, in a tree
    without it, a loop of one-point calls."""
    if hasattr(P, "evolve_rows"):
        return P.evolve_rows(prof, n, xs, 1.0)
    return [P.evolve_radial(prof, P.EvalPoint(n, float(x), 1.0)) for x in xs]


def cases(lib):
    """name -> zero-argument call, with its fixed inputs."""
    Q, P, B, N, profiles = lib.quadrature, lib.propagator, lib.blowup, lib.norms, lib.profiles
    # the library's complex power; a tree from before special.cpow used numpy's
    cpow = getattr(lib.special, "cpow", np.power)
    one = lambda rho, row: np.ones_like(rho)          # noqa: E731
    pt = P.EvalPoint(3, 1.0, 0.5)
    far = {n: P.EvalPoint(n, 10.0, 1.0) for n in (2, 3)}
    bump, power, power15 = profiles.bump(1.0, 2.0), profiles.power(1.2), profiles.power(1.5)
    herglotz = profiles.herglotz_pair(1.0, 3)[0]
    herglotz2, mirror4 = profiles.herglotz_pair(1.0, 2)[0], profiles.herglotz_pair(1.0, 4)[1]
    gauss = profiles.gaussian(1.0)
    t, t_small = (1.0 - u for u in FOCUS_U)
    xs, xs_small = (B.SelfSimilarFrame(tt).x_of_z(annulus_points(Q)) for tt in (t, t_small))
    chirp = {n: B.ChirpDatum(n, s) for n, s in FOCUS_SIGMA.items()}
    chirp_cli = {n: B.ChirpDatum(n, s) for n, s in CLI_SIGMA.items()}
    table = {
        "rotated_tail.one_ray": lambda: Q.rotated_tail(one, 0.5, 1.0),
        "rotated_tail.stationary": lambda: Q.rotated_tail(one, 0.5, -3.0),
        "rotated_tail.delta_0.5": lambda: Q.rotated_tail(one, 0.5, 1.0, delta=0.5),
        # a ray integrand with a non-integer complex power, r^{-0.95}, on one
        # row and on 96 rows, the Hankel rows of a 48-point annulus rule
        "rotated_tail.power_1row": lambda: Q.rotated_tail(lambda r, row: cpow(r, -0.95), 0.5, 1.0),
        "rotated_tail.power_96rows": lambda: Q.rotated_tail(lambda r, row: cpow(r, -0.95),
                                                            np.full(96, 0.5), 1.0),
        "osc_integral.span_20": lambda: Q.osc_integral(lambda x: np.exp(20j * x), 0.0, 1.0, 20.0),
        "osc_integral.empty": lambda: Q.osc_integral(lambda x: np.exp(20j * x), 1.0, 1.0, 0.0),
        "evolve_radial.compact": lambda: P.evolve_radial(bump, pt),
        "evolve_radial.power_ray": lambda: P.evolve_radial(power, pt),
        "evolve_radial.herglotz": lambda: P.evolve_radial(herglotz, pt),
        # beta = 10: the real-axis head, then the Hankel rows from the split
        "evolve_radial.power_hankel_n2": lambda: P.evolve_radial(power, far[2]),
        "evolve_radial.power_hankel_n3": lambda: P.evolve_radial(power, far[3]),
        # propagate benchmark points whose heads the break radii cut, and a
        # gaussian at Bessel arguments past 100
        "evolve_radial.herglotz_n2": lambda: P.evolve_radial(herglotz2, P.EvalPoint(2, 20.4, 19.7)),
        "evolve_radial.herglotz_n4_mirror": lambda: P.evolve_radial(mirror4,
                                                                    P.EvalPoint(4, 26.36, 272.1)),
        "evolve_radial.bump_n4": lambda: P.evolve_radial(bump, P.EvalPoint(4, 5.16, 1.48)),
        "evolve_radial.gaussian_n2": lambda: P.evolve_radial(gauss, P.EvalPoint(2, 21.8, 0.22)),
        "bessel_j.nu0_far": lambda: lib.special.bessel_j(0.0, BESSEL_FAR),
        "evolve_rows.bump_n3": lambda: grid(P, bump, 3, GRID_BUMP),
        "evolve_rows.power_n2": lambda: grid(P, power, 2, GRID_FAR),
        "evolve_rows.herglotz_n2": lambda: grid(P, herglotz2, 2, GRID_FAR),
        "solution_mass.bump_n3": lambda: P.solution_mass(bump, 3, 0.5, 30.0),
        "chirp_values.n2_annulus": lambda: B._chirp_values(chirp[2], t, xs),
        "chirp_values.n3_annulus": lambda: B._chirp_values(chirp[3], t, xs),
        "chirp_values.n2_annulus_u2e-4": lambda: B._chirp_values(chirp[2], t_small, xs_small),
        "chirp_values.n3_annulus_u2e-4": lambda: B._chirp_values(chirp[3], t_small, xs_small),
        "limit_profile.n2": lambda: B.limit_profile(B.ChirpDatum(2, 1.0), Z_GRID),
        "limit_profile.n3": lambda: B.limit_profile(B.ChirpDatum(3, 2.0), Z_GRID),
        "limit_profile.cli_n2": lambda: B.limit_profile(chirp_cli[2], CLI_Z_GRID, tol=1e-7),
        "limit_profile.cli_n4": lambda: B.limit_profile(chirp_cli[4], CLI_Z_GRID, tol=1e-7),
        # the octave panels at n = 3: a smooth power law, and bump(1, 2),
        # whose X and Y_1 integrands have kinks inside panels
        "norm_X.power_n3": lambda: N.norm_X(power15, 3),
        "norm_X.bump_n3": lambda: N.norm_X(bump, 3),
        "norm_Ym.bump_n3_m1": lambda: N.norm_Ym(bump, 3, 1),
        "norm_Ym.power_n3_m3": lambda: N.norm_Ym(power15, 3, 3),
    }
    # the datum on one head block of evolve_radial, HEAD_NODES nodes spread
    # over the head: [0, support] of compact data, [0, 1.5/omega] of Herglotz data
    heads = {"bump": (bump, 2.0), "gaussian": (profiles.gaussian(1.0), 13.0),
             "herglotz_n2": (profiles.herglotz_pair(1.0, 2)[0], 1.5),
             "herglotz_n3": (herglotz, 1.5)}
    for name, (prof, hi) in heads.items():
        for size in HEAD_NODES + ((BIG_BLOCK,) if name == "herglotz_n2" else ()):
            r = np.linspace(0.0, hi, size + 2)[1:-1]
            table[f"phi_rad.{name}_{size}"] = lambda prof=prof, r=r: prof.phi_rad(r)
    return table


def counts(Q, call):
    """(integrand calls, nodes) that one call passes through Q.gl_rows."""
    tally = [0, 0]
    inner = Q.gl_rows

    def counted(f, *args, **kw):
        def g(x, *rest):
            tally[0] += 1
            tally[1] += x.size
            return f(x, *rest)
        return inner(g, *args, **kw)

    Q.gl_rows = counted
    try:
        call()
    finally:
        Q.gl_rows = inner
    return tuple(tally)


def measure(libs):
    """Per tree, name -> median time, its quartiles and counts, timed in alternation."""
    tables = [cases(lib) for lib in libs]
    for table in tables:                 # caches and lazy set-up
        for call in table.values():
            call()
    secs = [{name: [] for name in table} for table in tables]
    for r in range(ROUNDS):
        for name in tables[0]:
            for k in (range(len(libs)) if r % 2 == 0 else reversed(range(len(libs)))):
                call = tables[k][name]
                t0 = time.perf_counter()
                call()
                secs[k][name].append(time.perf_counter() - t0)
    out = []
    for lib, table, times in zip(libs, tables, secs):
        rows = {}
        for name, call in table.items():
            calls, nodes = counts(lib.quadrature, call)
            q1, med, q3 = statistics.quantiles(times[name], n=4)
            rows[name] = {"us": round(med * 1e6, 1), "q1_us": round(q1 * 1e6, 1),
                          "q3_us": round(q3 * 1e6, 1), "integrand_calls": calls, "nodes": nodes}
        out.append(rows)
    return out


def host():
    cpu, info = platform.processor(), Path("/proc/cpuinfo")
    if info.is_file():
        cpu = next((line.split(":", 1)[1].strip() for line in info.read_text().splitlines()
                    if line.startswith("model name")), cpu)
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="label of this checkout's ./src")
    ap.add_argument("--src", type=Path, default=None,
                    help="another tree's src directory, timed in alternation")
    ap.add_argument("--src-label", default=None, help="label of the tree under --src")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_layers.json")
    args = ap.parse_args(argv)
    trees = [(args.label, ROOT / "src")]
    if args.src is not None:
        if not args.src_label or args.src_label == args.label:
            ap.error("--src needs a --src-label other than --label")
        trees.insert(0, (args.src_label, args.src))
    libs = [load(src, f"disperse_lab_bench{k}") for k, (_, src) in enumerate(trees)]
    results = measure(libs)
    doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
    doc["about"] = __doc__.split("\n\n")[0].strip()
    labels = [label for label, _ in trees]
    for label, rows in zip(labels, results):
        doc.setdefault("runs", {})[label] = {"host": host(), "rounds": ROUNDS,
                                             "timed_with": [x for x in labels if x != label],
                                             "cases": rows}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{'case':28s} " + " ".join(f"{label:>12s}" for label in labels) + "   calls   nodes")
    for name in results[0]:
        print(f"{name:28s} " + " ".join(f"{rows[name]['us']:9.1f} us" for rows in results)
              + "".join(f"  {rows[name]['integrand_calls']:4d} {rows[name]['nodes']:7d}"
                        for rows in results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
