#!/usr/bin/env python3
"""Dump or compare the outputs of the benchmark workloads' ops.

    python3 tools/workload_outputs.py --seed N --out F
    python3 tools/workload_outputs.py --compare A B

Run from the root of a checkout; the library is imported from ./src and the
ops are built by perfbench/workloads.py, which this script only reads.  The
dump is a JSON list with one record per op of the propagate, norms and
focusing workloads (in op order): workload, op index, kind, group, inputs
and the repr of the op's output, with every float printed to its shortest
round-trip form, so two dumps are equal exactly when the outputs are
bit-identical.  --compare lists the ops whose repr differs and exits 1 if
any does; for a moved op whose output carries an error estimate (a
ComplexAmplitude's err_est, a LimitProfile's err) it prints the largest
|B - A| / err_est, with A's estimate, and after the list the largest such
ratio over them; for a moved op whose output is a number or a tuple of
numbers (the norms) it prints the largest relative move |B - A| / |A|.
"""

from __future__ import annotations

import argparse
import importlib
import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("propagate", "norms", "focusing")


def dump(seed: int):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import run as bench
    import workloads
    lib = SimpleNamespace(**{m: importlib.import_module("disperse_lab." + m)
                             for m in bench.MODULES})
    records = []
    with np.printoptions(floatmode="unique", threshold=sys.maxsize):
        for name in WORKLOADS:
            wl = workloads.make(lib, name, seed)
            for i, op in enumerate(wl.ops):
                try:
                    out = repr(op.call())
                except Exception as exc:        # recorded, like the benchmark does
                    out = f"raised {type(exc).__name__}: {exc}"
                records.append({"workload": name, "op": i, "kind": op.kind,
                                "group": op.group, "info": repr(op.info), "output": out})
    return records


def _number(text: str) -> complex:
    """A number printed by repr, bare or as np.float64(...) / np.complex128(...)."""
    return complex(re.sub(r"^np\.\w+\((.*)\)$", r"\1", text.strip()))


def estimate(output: str):
    """(values, error estimates) as arrays from the repr of a ComplexAmplitude
    or a LimitProfile (its v and err), else None."""
    amp = re.fullmatch(r"ComplexAmplitude\(value=(.*), err_est=(.*)\)", output, re.S)
    if amp:
        return np.array([_number(amp[1])]), np.array([_number(amp[2]).real])
    arrays = [re.search(rf"\b{name}=array\(\[(.*?)\]\)", output, re.S) for name in ("v", "err")]
    if output.startswith("LimitProfile(") and all(arrays):
        return tuple(np.array([float(x) for x in m[1].split(",")]) for m in arrays)
    return None


def numbers(output: str):
    """The entries of a number or a tuple of numbers as repr prints them,
    as an array, else None."""
    inner = re.fullmatch(r"\((.*)\)", output.strip(), re.S)
    try:
        return np.array([_number(x) for x in (inner[1] if inner else output).split(",")
                         if x.strip()])
    except ValueError:
        return None


def relative_move(out_a: str, out_b: str):
    """Largest |B - A| / |A| over the entries of two numeric outputs, or None."""
    a, b = numbers(out_a), numbers(out_b)
    if a is None or b is None or a.shape != b.shape:
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        move = np.where(a == b, 0.0, np.abs(b - a) / np.abs(a))
    return float(move.max())


def move_ratio(out_a: str, out_b: str):
    """Largest |B - A| / (A's err_est) over the entries, or None without estimates."""
    ea, eb = estimate(out_a), estimate(out_b)
    if ea is None or eb is None or ea[0].shape != eb[0].shape:
        return None
    delta = np.abs(eb[0] - ea[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(delta == 0.0, 0.0, delta / ea[1])
    return float(ratio.max())


def compare(a, b):
    """(lines, ratios): a line naming each op whose output differs between
    dumps a and b, with its move_ratio where the output carries an estimate,
    and those ratios."""
    key = lambda r: (r["workload"], r["op"])          # noqa: E731
    old, new = ({key(r): r for r in recs} for recs in (a, b))
    lines, ratios = [], []
    for k in sorted(old.keys() | new.keys(), key=lambda k: (WORKLOADS.index(k[0]), k[1])):
        ra, rb = old.get(k), new.get(k)
        if ra is None or rb is None:
            lines.append(f"{k[0]} op {k[1]}: only in {'B' if ra is None else 'A'}")
        elif ra["output"] != rb["output"] or ra["info"] != rb["info"]:
            ratio = move_ratio(ra["output"], rb["output"])
            rel = None if ratio is not None else relative_move(ra["output"], rb["output"])
            lines.append(f"{k[0]} op {k[1]} {ra['kind']} {ra['group']} {ra['info']}\n"
                         f"  A: {ra['output']}\n  B: {rb['output']}"
                         + ("" if ratio is None else f"\n  |B - A| / err_est(A) = {ratio:.3g}")
                         + ("" if rel is None else f"\n  |B - A| / |A| = {rel:.3g}"))
            if ratio is not None:
                ratios.append(ratio)
    return lines, ratios


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--seed", type=int)
    group.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--out", help="file the dump is written to (with --seed)")
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        lines, ratios = compare(a, b)
        print("\n".join(lines) if lines else f"all {len(a)} ops identical")
        if lines:
            print(f"{len(lines)} of {len(a)} ops differ")
        if ratios:
            print(f"largest |B - A| / err_est(A) over {len(ratios)} moved ops with an "
                  f"estimate: {max(ratios):.3g}")
        return 1 if lines else 0
    if not args.out:
        ap.error("--seed needs --out")
    Path(args.out).write_text(json.dumps(dump(args.seed), indent=0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
