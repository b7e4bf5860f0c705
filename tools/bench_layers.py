#!/usr/bin/env python3
"""Fixed-input timings of the quadrature routines, evolve_radial and the focusing evaluation.

    python3 tools/bench_layers.py --label NAME [--src DIR --src-label NAME] [--out F]

Times each case below in one process, as the median over ROUNDS rounds; a round
calls every case once, in turn, so slow phases of a shared machine fall on
all cases alike.  With --src the library under DIR is timed too, in
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


def load(src: Path, name: str):
    """The modules of the package src/disperse_lab, imported as `name`."""
    pkg = src / "disperse_lab"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    sys.modules[name] = module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}")
                              for m in ("special", "quadrature", "propagator", "profiles",
                                        "blowup")})


def annulus_points(Q):
    """The points of annulus_lq's first rule on (0.5, 2.5) in the tree of
    quadrature module Q: one panel of its 16-node Gauss-Kronrod pair (33
    points), or, in a tree without gk_nodes, the 16-node Gauss rule and its
    two halves (48 points)."""
    if hasattr(Q, "gk_nodes"):
        return 1.5 + Q.gk_nodes(16)[0]
    x, _ = np.polynomial.legendre.leggauss(16)
    return np.concatenate([1.5 + x, 1.0 + 0.5 * x, 2.0 + 0.5 * x])


def cases(lib):
    """name -> zero-argument call, with its fixed inputs."""
    Q, P, B, profiles = lib.quadrature, lib.propagator, lib.blowup, lib.profiles
    # the library's complex power; a tree from before special.cpow used numpy's
    cpow = getattr(lib.special, "cpow", np.power)
    one = lambda rho, row: np.ones_like(rho)          # noqa: E731
    pt = P.EvalPoint(3, 1.0, 0.5)
    far = {n: P.EvalPoint(n, 10.0, 1.0) for n in (2, 3)}
    bump, power = profiles.bump(1.0, 2.0), profiles.power(1.2)
    herglotz = profiles.herglotz_pair(1.0, 3)[0]
    t, t_small = (1.0 - u for u in FOCUS_U)
    xs, xs_small = (B.SelfSimilarFrame(tt).x_of_z(annulus_points(Q)) for tt in (t, t_small))
    chirp = {n: B.ChirpDatum(n, s) for n, s in FOCUS_SIGMA.items()}
    return {
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
        "chirp_values.n2_annulus": lambda: B._chirp_values(chirp[2], t, xs),
        "chirp_values.n3_annulus": lambda: B._chirp_values(chirp[3], t, xs),
        "chirp_values.n2_annulus_u2e-4": lambda: B._chirp_values(chirp[2], t_small, xs_small),
        "chirp_values.n3_annulus_u2e-4": lambda: B._chirp_values(chirp[3], t_small, xs_small),
        "limit_profile.n2": lambda: B.limit_profile(B.ChirpDatum(2, 1.0), Z_GRID),
        "limit_profile.n3": lambda: B.limit_profile(B.ChirpDatum(3, 2.0), Z_GRID),
    }


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
    """Per tree, name -> median time and counts, timed in alternation."""
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
            rows[name] = {"us": round(statistics.median(times[name]) * 1e6, 1),
                          "integrand_calls": calls, "nodes": nodes}
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
