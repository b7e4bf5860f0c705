"""Checks on the benchmark itself: seeded inputs, exact trace counts, and
tracing that leaves every output unchanged.

    python -m pytest perfbench/tests -q
"""

import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run as bench          # noqa: E402
import spans                 # noqa: E402
import workloads             # noqa: E402

lib = SimpleNamespace(**{m: importlib.import_module("disperse_lab." + m)
                         for m in bench.MODULES})


def small(name, seed, pick):
    """The workload with only the ops `pick` accepts, in their run order."""
    wl = workloads.make(lib, name, seed)
    keep = [i for i in wl.order if pick(wl.ops[i])]
    wl.order = keep
    return wl


def cheap_propagate(seed):
    return small("propagate", seed, lambda op: op.info.get("t", 0.0) < 2.0
                 and op.info.get("x", 1.0) > 1.0)


def cheap_focusing(seed):
    return small("focusing", seed, lambda op: op.kind == "rescaled_modulus" and op.n == 3)


def test_same_seed_same_inputs():
    a, b = (workloads.make(lib, "propagate", 5) for _ in range(2))
    c = workloads.make(lib, "propagate", 6)
    assert [op.info for op in a.ops] == [op.info for op in b.ops]
    assert a.order == b.order
    assert [op.info for op in a.ops] != [op.info for op in c.ops]


@pytest.mark.parametrize("make", [cheap_propagate, cheap_focusing])
def test_traced_counts_repeat_and_outputs_unchanged(make):
    wl = make(11)
    assert wl.order
    runs = [bench.traced_pass(wl, lib, spans) for _ in range(2)]
    (plain, traced, tracer), (_, _, tracer2) = runs
    assert bench.changed_by_tracing(plain, traced) == set()
    counts = tracer.counts()
    assert counts == tracer2.counts()
    assert sum(counts.values()) > 0
    assert not tracer.absent


def test_uninstall_restores_every_binding():
    before = {m: dict(vars(getattr(lib, m))) for m in bench.MODULES}
    wl = cheap_propagate(3)
    bench.traced_pass(wl, lib, spans)
    for m in bench.MODULES:
        after = vars(getattr(lib, m))
        assert all(after[k] is v for k, v in before[m].items()), m


def test_self_time_excludes_children():
    wl = small("propagate", 2, lambda op: op.regime == "tail" and op.info["t"] < 1.0)
    _, traced, tracer = bench.traced_pass(wl, lib, spans)
    m = tracer.metrics(0.0)
    total = sum(v for k, v in m.items() if k.endswith(".self_s"))
    roots = sum(s.end - s.start for s in tracer.spans if s.name == "op")
    assert 0.0 < total <= roots


def test_absent_target_is_reported(monkeypatch):
    monkeypatch.setitem(spans.TARGETS, "special",
                        spans.TARGETS["special"] + ("no_such_function",))
    wl = cheap_propagate(4)
    plain, traced, tracer = bench.traced_pass(wl, lib, spans)
    assert tracer.absent == ["special.no_such_function"]
    assert bench.changed_by_tracing(plain, traced) == set()


def test_every_attempt_gets_a_slowdown():
    wl = cheap_focusing(5)
    _, errors, secs, slow = bench.run_pass(wl)
    assert not errors
    for i in wl.order:
        assert secs[i] > 0.0 and 0.0 < slow[i] < math.inf


def test_checks_flag_a_wrong_output():
    wl = small("propagate", 9, lambda op: op.info.get("ref") == "gaussian")
    outputs, errors, _, _ = bench.run_pass(wl)
    assert not errors and not wl.check(outputs).failed_ops
    i = wl.order[0]
    outputs[i] = lib.propagator.ComplexAmplitude(outputs[i].value * 1.001, 0.0)
    assert i in wl.check(outputs).failed_ops


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "norms",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode != 0
    for line in res.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
