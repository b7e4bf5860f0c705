#!/usr/bin/env python3
"""disperse-lab benchmark: seeded workloads on a closed loop with one caller.

    python3 perfbench/run.py --workload {propagate,norms,focusing} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ./src.  One
process, one thread: DISPERSE_LAB_THREADS is unset and the BLAS/OpenMP pools
are pinned to one thread before numpy loads.  An op is one public library
call, timed on its own.  The timed phase runs whole passes over the
workload's ops in a seeded order, as many as fit in --seconds at the pace
of the fastest pass but at least three and at least 100 ops, so every run
measures the same mix.  Each attempt is divided by the machine's slowdown,
measured by calibration tasks just before and after it, and an op's latency
is the median of its calibrated attempts.  Outputs of the first pass are
checked against exact references; later passes must reproduce them bit for
bit.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one pass untraced
and one pass with every public layer function rebound to a span-recording
wrapper, then prints the per-layer metrics; spans go to perfbench/out/.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("DISPERSE_LAB_THREADS", None)

import argparse
import importlib
import json
import math
import pickle
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import scipy.special

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MODULES = ("special", "quadrature", "profiles", "propagator", "norms", "blowup", "appendix")
SETUP_REPEATS = 3
MIN_SAMPLES = 100
MIN_PASSES = 3
IMPORT_CHILD = (
    "import time, importlib\n"
    "t0 = time.perf_counter()\n"
    f"for m in {MODULES!r}: importlib.import_module('disperse_lab.' + m)\n"
    "print(time.perf_counter() - t0)\n")

# Calibration.  The measuring host is shared, and other tenants' load slows
# our code by up to 1.9x, in phases that last from a second to minutes, so
# neither the fastest nor the median raw attempt of a 30 s run is steady
# (NOTES.md, "Steadiness").  Before and after every timed op the benchmark
# runs four small tasks that never call the library: a SIMD transcendental,
# an interpreter loop, a scipy special function and a loop of small-array
# numpy calls.  Load slows each kind of code differently, and the library
# mixes all four.  The machine's slowdown is the geometric mean of each
# task's time over its time on an unloaded core; an op's calibrated time is
# its time over the mean slowdown of the two calibrations around it.  Raw
# times are in the report.
CAL_X = np.linspace(0.0, 50.0, 100_000)
CAL_XJ = np.linspace(0.1, 30.0, 1200)
CAL_A = np.linspace(0.0, 1.0, 64)


def _cal_simd():
    np.cos(CAL_X).sum()


def _cal_python():
    s = 0
    for i in range(12_000):
        s += i * i


def _cal_special():
    scipy.special.jv(2.5, CAL_XJ).sum()


def _cal_small_arrays():
    for _ in range(250):
        (CAL_A * 1.5 + CAL_A).sum()


# each task with its seconds on an unloaded core of a 2.0 GHz Xeon
CAL_TASKS = ((_cal_simd, 1.0e-3), (_cal_python, 0.8e-3),
             (_cal_special, 0.95e-3), (_cal_small_arrays, 0.6e-3))

E2E = [("setup_s", "s"), ("ops_per_s", "1/s"), ("op_ms.p50", "ms"),
       ("op_ms.p90", "ms"), ("peak_rss_mb", "MB")]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("propagate", "norms", "focusing"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_library():
    t0 = time.perf_counter()
    mods = {m: importlib.import_module("disperse_lab." + m) for m in MODULES}
    return SimpleNamespace(**mods), time.perf_counter() - t0


def slowdown():
    """How many times slower than an unloaded core the machine runs now."""
    logs = 0.0
    for task, unloaded_s in CAL_TASKS:
        t0 = time.perf_counter()
        task()
        logs += math.log((time.perf_counter() - t0) / unloaded_s)
    return math.exp(logs / len(CAL_TASKS))


def child_import_seconds():
    """Import time in a fresh interpreter, as a user of the library pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", IMPORT_CHILD], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(res.stdout.strip().splitlines()[-1])


def setup(lib, workloads, name, seed):
    """SETUP_REPEATS rounds of the library import in a fresh interpreter,
    input generation and one warm-up op of each kind.  Returns the workload,
    the median seconds of a round and the rounds.  Set-up time is not
    calibrated: the import mostly reads and maps files, and its time did not
    follow the calibration tasks."""
    rounds, wl = [], None
    for _ in range(SETUP_REPEATS):
        import_s = child_import_seconds()
        t0 = time.perf_counter()
        wl = workloads.make(lib, name, seed)
        for op in wl.warmup:
            op.call()
        rounds.append({"import_s": import_s, "build_and_warmup_s": time.perf_counter() - t0})
    return wl, statistics.median(sum(r.values()) for r in rounds), rounds


def fingerprint(out):
    return pickle.dumps(out, protocol=4)


def run_pass(wl, call=None):
    """One pass in run order: outputs, exceptions, per-op seconds and the
    mean slowdown measured just before and just after each op, all indexed
    like wl.ops.  `call`, if given, runs each op as call(index, op.call)."""
    n = len(wl.ops)
    outputs, errors, secs, cal = [None] * n, {}, [0.0] * n, [0.0] * n
    before = slowdown()
    for i in wl.order:
        t0 = time.perf_counter()
        try:
            outputs[i] = call(i, wl.ops[i].call) if call else wl.ops[i].call()
        except Exception as exc:       # a failing op is counted, never fatal
            errors[i] = f"{type(exc).__name__}: {exc}"
        secs[i] = time.perf_counter() - t0
        after = slowdown()
        cal[i] = 0.5 * (before + after)
        before = after
    return outputs, errors, secs, cal


def timed_phase(wl, seconds):
    """Whole passes over the ops, so every run measures the same mix: while
    one more fits in `seconds` at the pace of the fastest pass so far, and
    at least MIN_PASSES and MIN_SAMPLES attempts.  Returns first-pass
    outputs and errors, per-attempt op indices, latencies and slowdowns,
    the attempts that raised or did not reproduce pass one, and each pass's
    wall time."""
    begin = start = time.perf_counter()
    outputs, errors, lat, cal = run_pass(wl)
    walls = [time.perf_counter() - start]
    attempts, bad = list(range(len(wl.ops))), []
    least = max(MIN_PASSES, math.ceil(MIN_SAMPLES / len(wl.ops)))
    while (len(walls) < least
           or time.perf_counter() - begin + min(walls) <= seconds):
        start = time.perf_counter()
        out, err, secs, c = run_pass(wl)
        walls.append(time.perf_counter() - start)
        for i in range(len(wl.ops)):
            if i in err or i in errors or fingerprint(out[i]) != fingerprint(outputs[i]):
                bad.append(len(attempts) + i)
        lat += secs
        cal += c
        attempts += range(len(wl.ops))
    return outputs, errors, attempts, lat, cal, bad, walls


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  Unlike one order statistic it moves smoothly where
    the fixed op costs leave a gap in the sample."""
    x = np.sort(values)
    n = len(x)
    edges = scipy.special.betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x))


def environment(seed):
    return {"seed": seed, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "disperse_lab" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}; run from a disperse-lab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    lib, import_s = import_library()
    import workloads
    import spans as tracing

    wl, setup_s, setup_rounds = setup(lib, workloads, args.workload, args.seed)

    report = {"workload": args.workload, "why": workloads.WHY[args.workload],
              "environment": environment(args.seed), "ops_per_pass": len(wl.ops),
              "setup": {"in_process_import_s": import_s, "rounds": setup_rounds}}
    if args.workload == "propagate":
        report["regime_shares"] = workloads.regime_shares(wl.ops)

    if args.trace:
        result = traced_run(wl, lib, tracing, args, report)
    else:
        result = untraced_run(wl, args, setup_s, report)

    print(json.dumps(report, indent=1, default=str))
    print(json.dumps(result))
    return 0


def failure_summary(wl, errors, checked, report):
    failed_ops = set(errors) | checked.failed_ops
    report["failing_inputs"] = ([f"op {i} {wl.ops[i].kind} {wl.ops[i].info}: {e}"
                                 for i, e in sorted(errors.items())] + checked.failures)
    report["err_est_misses"] = checked.misses
    return failed_ops


def latency_metrics(ms):
    """ops_per_s, op_ms.p50 and op_ms.p90 from per-op latencies in ms."""
    return {"ops_per_s": 1e3 * len(ms) / sum(ms),
            "op_ms.p50": quantile(ms, 0.5), "op_ms.p90": quantile(ms, 0.9)}


def untraced_run(wl, args, setup_s, report):
    outputs, errors, attempts, lat, cal, bad, walls = timed_phase(wl, args.seconds)
    checked = wl.check(outputs)
    failed_ops = failure_summary(wl, errors, checked, report)
    failed = len(set(bad) | {k for k, i in enumerate(attempts) if i in failed_ops})
    # an op's latency is the median of its calibrated attempts
    per_op = [[] for _ in wl.ops]
    best_raw = [math.inf] * len(wl.ops)
    for i, secs, c in zip(attempts, lat, cal):
        per_op[i].append(secs / c)
        best_raw[i] = min(best_raw[i], secs)
    ms = [statistics.median(v) * 1e3 for v in per_op]
    metrics = {"setup_s": setup_s, **latency_metrics(ms),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    units = dict(E2E)
    report["samples"] = {"ops": len(ms), "attempts": len(attempts)}
    report["op_ms"] = ms
    report["pass_s"] = walls
    report["slowdown"] = {"median": statistics.median(cal), "min": min(cal), "max": max(cal)}
    raw_ms = [v * 1e3 for v in best_raw]
    report["raw"] = {"op_best_ms": raw_ms, **latency_metrics(raw_ms)}
    report["not_reproduced"] = len(bad)
    report["correctness"] = dict(error_rate=failed / len(attempts), **checked.figures)
    return {"correct": failed == 0, "attempted": len(attempts), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def traced_pass(wl, lib, tracing):
    """One untraced pass, then one pass with the layer functions rebound.
    Returns both passes' outputs and errors, their wall times and the tracer."""
    t0 = time.perf_counter()
    plain, errors, _, _ = run_pass(wl)
    plain_s = time.perf_counter() - t0
    tracer = tracing.Tracer()
    tracer.install(lib, wl.profiles)
    try:
        t0 = time.perf_counter()
        traced, traced_errors, _, _ = run_pass(wl, tracer.run_op)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return (plain, errors, plain_s), (traced, traced_errors, traced_s), tracer


def changed_by_tracing(plain, traced):
    (out0, err0, _), (out1, err1, _) = plain, traced
    return {i for i in range(len(out0))
            if fingerprint(out0[i]) != fingerprint(out1[i]) or (i in err0) != (i in err1)}


def traced_run(wl, lib, tracing, args, report):
    plain, traced, tracer = traced_pass(wl, lib, tracing)
    outputs, errors, plain_s = plain
    traced_s = traced[2]
    checked = wl.check(outputs)
    failed_ops = failure_summary(wl, errors, checked, report)
    changed = changed_by_tracing(plain, traced)
    failed = len(failed_ops | changed)
    values = tracer.metrics(traced_s - plain_s)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.json"
    tracer.write(spans_path)
    report.update(untraced_s=plain_s, traced_s=traced_s, spans=len(tracer.spans),
                  spans_file=str(spans_path.relative_to(ROOT)), absent=tracer.absent,
                  changed_by_tracing=sorted(changed),
                  inclusive_ms_per_call=tracer.inclusive_ms(lambda i: wl.ops[i].group),
                  correctness=dict(error_rate=failed / len(wl.ops), **checked.figures))
    return {"correct": failed == 0, "attempted": len(wl.ops), "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit, _ in tracing.layer_metric_specs()}}


if __name__ == "__main__":
    sys.exit(main())
