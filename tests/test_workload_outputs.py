"""tools/workload_outputs.py --compare on two synthetic dumps."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "workload_outputs.py"
_spec = importlib.util.spec_from_file_location("workload_outputs", _PATH)
workload_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workload_outputs)


def _record(workload, op, kind, output):
    return {"workload": workload, "op": op, "kind": kind, "group": "g", "info": "{}",
            "output": output}


def _amp(value, err):
    return f"ComplexAmplitude(value=np.complex128({value!r}), err_est=np.float64({err!r}))"


def _profile(v, err):
    arr = lambda xs: "array([" + ",\n       ".join(repr(x) for x in xs) + "])"  # noqa: E731
    return (f"LimitProfile(datum=ChirpDatum(n=2, sigma=1.0), z={arr([0.3, 0.6])}, "
            f"v={arr(v)}, err={arr(err)})")


A = [_record("propagate", 0, "evolve_radial", _amp(1 + 2j, 1e-10)),
     _record("propagate", 1, "evolve_radial", _amp(0.5j, 2e-12)),
     _record("norms", 0, "norm_X", "(inf, inf)"),
     _record("focusing", 0, "annulus_lq", "8.83048129125228"),
     _record("focusing", 1, "limit_profile", _profile([0.85, 0.75], [1e-9, 4e-9]))]
B = [A[0],
     _record("propagate", 1, "evolve_radial", _amp(0.5j + 1e-12, 2.1e-12)),
     A[2],
     _record("focusing", 0, "annulus_lq", "8.830481291252282"),
     _record("focusing", 1, "limit_profile", _profile([0.85 + 1e-10, 0.75 - 2e-9], [1e-9, 4e-9]))]


def test_estimates_are_read_from_both_reprs():
    values, errs = workload_outputs.estimate(_amp(1 + 2j, 1e-10))
    assert values.tolist() == [1 + 2j] and errs.tolist() == [1e-10]
    values, errs = workload_outputs.estimate(_profile([0.85, 0.75], [1e-9, 4e-9]))
    assert values.tolist() == [0.85, 0.75] and errs.tolist() == [1e-9, 4e-9]
    assert workload_outputs.estimate("8.83048129125228") is None


def test_compare_reports_each_move_over_the_parent_estimate():
    lines, ratios = workload_outputs.compare(A, B)
    assert len(lines) == 3
    assert lines[0].startswith("propagate op 1") and lines[0].endswith("= 0.5")
    assert "err_est" not in lines[1]                  # a float carries no estimate
    assert ratios == pytest.approx([0.5, 0.5])        # max(0.1, 2e-9 / 4e-9)
    assert workload_outputs.compare(A, A) == ([], [])


def test_main_prints_the_largest_ratio(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(A))
    b.write_text(json.dumps(B[:1] + [_record("propagate", 1, "evolve_radial", _amp(0.5j, 1e-12))]
                            + B[2:]))
    assert workload_outputs.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[-2] == "3 of 5 ops differ"
    # op 1 moved only in its estimate: ratio 0; the profile's is 0.5
    assert out[-1] == "largest |B - A| / err_est(A) over 2 moved ops with an estimate: 0.5"


def test_numeric_outputs_print_their_relative_move():
    a = [_record("norms", 0, "norm_X", "(np.float64(2.0), inf)")]
    b = [_record("norms", 0, "norm_X", "(np.float64(2.000002), inf)")]
    lines, ratios = workload_outputs.compare(a, b)
    assert lines[0].endswith("|B - A| / |A| = 1e-06") and ratios == []
    assert workload_outputs.relative_move("8.83048129125228", "8.83048129125228") == 0.0
    assert workload_outputs.relative_move("raised ValueError: x", "1.0") is None
