#!/usr/bin/env python3
"""Fixed-input timings of the quadrature routines and of evolve_radial.

    python3 tools/bench_layers.py --label NAME [--src DIR] [--out F]

Times each case below in one process, as the median over ROUNDS rounds; a round
calls every case once, in turn, so slow phases of a shared machine fall on
all cases alike.  Next to each timing sit the integrand calls and nodes
that the case passes through quadrature.gl_rows, counted once, which do not
depend on the hardware (the end-term calls of rotated_tail do not pass
through gl_rows and are not counted).  The library is imported from --src
(default ./src), so the same script times another checkout.  The result is
stored under --label in the JSON file --out (default BENCH_layers.json),
next to the results of other labels.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 400


def cases(Q, P, profiles):
    """name -> zero-argument call, with its fixed inputs."""
    one = lambda rho, row: np.ones_like(rho)          # noqa: E731
    pt = P.EvalPoint(3, 1.0, 0.5)
    bump, power = profiles.bump(1.0, 2.0), profiles.power(1.2)
    herglotz = profiles.herglotz_pair(1.0, 3)[0]
    return {
        "rotated_tail.one_ray": lambda: Q.rotated_tail(one, 0.5, 1.0),
        "rotated_tail.stationary": lambda: Q.rotated_tail(one, 0.5, -3.0),
        "rotated_tail.delta_0.5": lambda: Q.rotated_tail(one, 0.5, 1.0, delta=0.5),
        "osc_integral.span_20": lambda: Q.osc_integral(lambda x: np.exp(20j * x), 0.0, 1.0, 20.0),
        "osc_integral.empty": lambda: Q.osc_integral(lambda x: np.exp(20j * x), 1.0, 1.0, 0.0),
        "evolve_radial.compact": lambda: P.evolve_radial(bump, pt),
        "evolve_radial.power_ray": lambda: P.evolve_radial(power, pt),
        "evolve_radial.herglotz": lambda: P.evolve_radial(herglotz, pt),
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


def measure(src: Path):
    sys.path.insert(0, str(src))
    from disperse_lab import profiles, propagator as P, quadrature as Q
    table = cases(Q, P, profiles)
    for call in table.values():          # caches and lazy set-up
        call()
    secs = {name: [] for name in table}
    for _ in range(ROUNDS):
        for name, call in table.items():
            t0 = time.perf_counter()
            call()
            secs[name].append(time.perf_counter() - t0)
    out = {}
    for name, call in table.items():
        calls, nodes = counts(Q, call)
        out[name] = {"us": round(statistics.median(secs[name]) * 1e6, 1),
                     "integrand_calls": calls, "nodes": nodes}
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
    ap.add_argument("--label", required=True)
    ap.add_argument("--src", type=Path, default=ROOT / "src")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_layers.json")
    args = ap.parse_args(argv)
    result = {"host": host(), "rounds": ROUNDS, "cases": measure(args.src)}
    doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
    doc.setdefault("about", __doc__.split("\n\n")[0].strip())
    doc.setdefault("runs", {})[args.label] = result
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for name, row in result["cases"].items():
        print(f"{name:28s} {row['us']:9.1f} us  {row['integrand_calls']:4d} calls "
              f"{row['nodes']:7d} nodes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
