"""Command-line surface: formats, exit codes, determinism."""

import csv
import json
import math
import subprocess
import sys

import pytest

from disperse_lab import blowup, cli, norms, profiles
from disperse_lab.propagator import EvalPoint, evolve_radial


def run_cli(args, tmp_path, name="out"):
    out = tmp_path / name
    proc = subprocess.run(
        [sys.executable, "-m", "disperse_lab.cli", *args, "--out", str(out)],
        capture_output=True, text=True)
    return proc, out


class TestFormats:
    def test_propagate_csv(self, tmp_path):
        proc, out = run_cli(["propagate", "--n", "3", "--profile",
                             "bump:a=1,b=2", "--t", "0.5,1.0",
                             "--x", "1:4:3"], tmp_path)
        assert proc.returncode == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "t", "x_abs", "re", "im", "abs", "err_est"]
        assert len(rows) == 1 + 2 * 3
        # 17 significant digits: text -> float -> text is lossless
        for row in rows[1:]:
            for cell in row[3:6]:
                assert float(cell) == float(repr(float(cell)))
        # sorted by (t, x)
        keys = [(float(r[1]), float(r[2])) for r in rows[1:]]
        assert keys == sorted(keys)

    def test_gate_json(self, tmp_path):
        proc, out = run_cli(["gate", "--n", "3", "--r", "2", "--p", "2",
                             "--q", "6"], tmp_path)
        assert proc.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["permitted"] is True

    def test_fresnel_at_large_m(self, tmp_path):
        # Xi^100_0(0) = Gamma(101/2) e^{i pi 101/4} / (2 100!); it printed
        # -3.65e-96 (1 + i), off by 4.45x, with exit code 0
        assert cli.main(["special", "--mode", "fresnel", "--m", "100",
                         "--out", str(tmp_path / "f.json")]) == 0
        data = json.loads((tmp_path / "f.json").read_text())
        want = math.gamma(50.5) / (2.0 * math.factorial(100)) * complex(-1.0, -1.0) / math.sqrt(2.0)
        assert abs(complex(data["re"], data["im"]) - want) <= 1e-12 * abs(want)

    def test_norm_scan_marks_divergence(self, tmp_path):
        proc, out = run_cli(["norm", "--family", "power", "--n", "3",
                             "--which", "X", "--scan", "alpha=0.6:1.4:0.4"],
                            tmp_path)
        assert proc.returncode == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))[1:]
        vals = {float(a): v for a, v in rows}
        assert vals[0.6] == "DIV"
        assert float(vals[1.4]) > 0

    @pytest.mark.parametrize("argv, key, want", [
        # these printed "p_bound": Infinity and "p": Infinity, "q": Infinity
        (["gate", "--n", "3", "--r", "3", "--p", "2", "--q", "1.5"], "p_bound", "inf"),
        (["appendix", "--mode", "region", "--n", "3", "--delta", "0.5", "--p", "inf",
          "--q", "inf"], "q", "inf"),
    ])
    def test_json_is_strict_with_inf_as_string(self, argv, key, want, tmp_path):
        def no_constants(name):
            raise ValueError(f"{name} is not JSON")
        assert cli.main(argv + ["--out", str(tmp_path / "o.json")]) == 0
        doc = json.loads((tmp_path / "o.json").read_text(), parse_constant=no_constants)
        assert doc[key] == want

    def test_nan_in_json_is_two_with_one_error_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.special, "splitting_residual", lambda n, K, z: math.nan)
        code = cli.main(["special", "--mode", "splitting", "--z", "5",
                         "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert capsys.readouterr().err == "error: result is NaN, which JSON cannot hold\n"
        assert not (tmp_path / "o.json").exists()

    def test_norm_order_seven(self, tmp_path):
        # orders above 6 ended in an IndexError traceback from the stencils
        proc, out = run_cli(["norm", "--family", "herglotz", "--n", "7",
                             "--which", "Y7"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["which", "value"] and rows[1][0] == "Y7"
        assert math.isfinite(float(rows[1][1])) and float(rows[1][1]) > 0

    def test_appendix_psi_near_delta_one_is_finite(self, tmp_path):
        proc, out = run_cli(["appendix", "--mode", "psi", "--delta", "0.99",
                             "--n", "3", "--x", "3", "--t", "1e5"], tmp_path)
        assert proc.returncode == 0
        doc = json.loads(out.read_text())
        assert all(math.isfinite(doc[key]) for key in ("re", "im", "abs"))


class TestExitCodes:
    def test_invalid_profile_is_two(self, tmp_path):
        proc, _ = run_cli(["propagate", "--n", "3", "--profile", "nosuch",
                           "--t", "1", "--x", "1"], tmp_path)
        assert proc.returncode == 2

    def test_empty_grid_is_two(self, tmp_path):
        proc, _ = run_cli(["norm", "--family", "power", "--n", "3",
                           "--which", "X", "--scan", "alpha=2:1:0.5"],
                          tmp_path)
        assert proc.returncode == 2

    @pytest.mark.parametrize("n, which, scan, message", [
        ("3", "X", "alpha=1:2:0", "--scan step must be positive, got 0"),
        ("3", "X", "alpha=1:2:-0.5", "--scan step must be positive, got -0.5"),
        ("3", "Z", "alpha=1:2:1", "unknown norm 'Z': expected X or Y0..Yn"),
        ("3", "X", "beta=1:2:1", "--scan expects alpha=a:b:step, got 'beta=1:2:1'"),
        pytest.param("0", "X", "alpha=1:2:1", "dimension must be an integer >= 2, got 0",
                     id="0-X-alpha=1:2:1-dimension must be an integer >= 2"),
    ])
    def test_bad_norm_request_is_two_with_message(self, n, which, scan, message,
                                                   tmp_path, capsys):
        code = cli.main(["norm", "--family", "power", "--n", n, "--which", which,
                         "--scan", scan, "--out", str(tmp_path / "n.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "n.csv").exists()

    def test_runtime_error_is_two_without_traceback(self, tmp_path, monkeypatch,
                                                     capsys):
        def no_annulus(profile, frac=0.5):
            raise RuntimeError("no annulus with V above the threshold")
        monkeypatch.setattr(blowup, "select_annulus", no_annulus)
        code = cli.main(["blowup", "--n", "3", "--sigma", "2", "--q", "4",
                         "--tgrid", "0.9", "--out", str(tmp_path / "b.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: no annulus with V above the threshold\n"

    @pytest.mark.parametrize("argv, message", [
        (["blowup", "--n", "3", "--sigma", "1", "--q", "0", "--tgrid", "0.9"],
         "need q > 0, got 0"),
        (["norm", "--family", "power", "--n", "3", "--which", "X"],
         "profile 'power' needs alpha=<value>"),
        (["propagate", "--n", "3", "--profile", "gaussian:width=0", "--t", "1",
          "--x", "1"], "gaussian needs width > 0, got 0"),
        # a grid count below 1
        (["propagate", "--n", "3", "--profile", "bump", "--t", "1:2:0", "--x", "1"],
         "grid '1:2:0' needs a count >= 1, got 0"),
        (["propagate", "--n", "3", "--profile", "bump", "--t", "1", "--x", "1:2:0"],
         "grid '1:2:0' needs a count >= 1, got 0"),
        (["blowup", "--n", "3", "--sigma", "1", "--q", "4", "--tgrid", "0.5:0.9:0"],
         "grid '0.5:0.9:0' needs a count >= 1, got 0"),
        # these exited 0 with an L^q norm of 1, inf and 0
        (["blowup", "--n", "3", "--sigma", "1.95", "--q", "inf", "--tgrid", "0.9"],
         "need finite q, got inf"),
        (["blowup", "--n", "3", "--sigma", "1.95", "--q", "1e300", "--tgrid", "0.9"],
         "annulus L^q norm at q = 1e+300 is inf, not a positive finite number"),
        (["blowup", "--n", "3", "--sigma", "1.95", "--q", "1e-300", "--tgrid", "0.9"],
         "annulus L^q norm at q = 1e-300 is 0, not a positive finite number"),
        # m! overflows a float: this was a traceback
        (["special", "--mode", "fresnel", "--m", "171"],
         "need integer 0 <= m <= 170 (m! overflows a float past 170), got 171"),
        # grids that hold one bad point: the message names it
        (["propagate", "--n", "3", "--profile", "bump", "--t", "0,1", "--x", "1"],
         "need x_abs > 0 and t > 0, got x_abs=1, t=0"),
        (["propagate", "--n", "3", "--profile", "power:alpha=1.2", "--t", "1,2",
          "--x", "1,1e200"], "phase x_abs^2/(4t) overflows at x_abs=1e+200, t=1"),
    ])
    def test_bad_input_is_two_with_one_error_line(self, argv, message, tmp_path,
                                                   capsys):
        code = cli.main(argv + ["--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["norm", "--family", "power:alpha=nan", "--n", "3", "--which", "X"],
         "power needs finite parameters, got alpha=nan"),
        (["norm", "--family", "power:alpha=inf", "--n", "3", "--which", "X"],
         "power needs finite parameters, got alpha=inf"),
        (["propagate", "--n", "3", "--profile", "power:alpha=nan", "--t", "1", "--x", "1"],
         "power needs finite parameters, got alpha=nan"),
        (["propagate", "--n", "3", "--profile", "gaussian:width=inf", "--t", "1",
          "--x", "1"], "gaussian needs finite parameters, got width=inf"),
        (["norm", "--family", "bump:a=1,b=inf", "--n", "3", "--which", "X"],
         "bump needs finite parameters, got b=inf"),
        (["propagate", "--n", "3", "--profile", "bump:omega=-inf", "--t", "1", "--x", "1"],
         "bump needs finite parameters, got omega=-inf"),
        (["norm", "--family", "herglotz:omega=nan", "--n", "3", "--which", "X"],
         "herglotz needs finite parameters, got omega=nan"),
        (["propagate", "--n", "3", "--profile", "herglotz:omega=inf", "--t", "1", "--x", "1"],
         "herglotz needs finite parameters, got omega=inf"),
    ])
    def test_non_finite_parameter_is_two(self, argv, message, tmp_path, capsys):
        # these printed X,nan, a NaN row or err_est = nan with exit code 0
        code = cli.main(argv + ["--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["appendix", "--mode", "psi", "--n", "3", "--t", "nan"],
         "singular_psi needs finite parameters, got t=nan"),
        (["propagate", "--n", "3", "--profile", "power:alpha=1.2", "--t", "1",
          "--x", "1e300"], "phase x_abs^2/(4t) overflows at x_abs=1e+300, t=1"),
        (["appendix", "--mode", "psi", "--n", "3", "--x", "inf"],
         "singular_psi needs finite parameters, got x_abs=inf"),
        (["propagate", "--n", "3", "--profile", "power:alpha=1.2", "--t", "inf",
          "--x", "1"], "evaluation point needs finite parameters, got t=inf"),
        (["appendix", "--mode", "region", "--n", "3", "--p", "nan"],
         "exponents must be numbers or inf, got p=nan"),
        # these ended in an OverflowError traceback with exit code 1
        (["special", "--mode", "splitting", "--z", "inf"],
         "splitting_residual requires finite z >= 2, got z=inf"),
        (["special", "--mode", "splitting", "--z", "1e308", "--K", "3"],
         "z^(n/2) overflows a float at z=1e+308, n=3"),
        (["special", "--mode", "splitting", "--n", "4", "--z", "1e200", "--K", "3"],
         "z^(n/2) overflows a float at z=1e+200, n=4"),
        # these printed numpy RuntimeWarnings before a NaN result
        (["special", "--mode", "fresnel", "--a", "nan"],
         "fresnel_xi needs finite a and s, got a=nan, s=0"),
        (["special", "--mode", "fresnel", "--s", "inf"],
         "fresnel_xi needs finite a and s, got a=0, s=inf"),
        (["special", "--mode", "fresnel", "--a", "1e300"],
         "fresnel_xi phase s^2 + a s or a^2/4 overflows at a=1e+300, s=0"),
        (["special", "--mode", "fresnel", "--s", "1e160"],
         "fresnel_xi phase s^2 + a s or a^2/4 overflows at a=0, s=1e+160"),
    ])
    def test_non_finite_point_is_two(self, argv, message, tmp_path, capsys):
        # these ended in a traceback, or printed NaN or a verdict with exit 0
        code = cli.main(argv + ["--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("argv, measure, message", [
        # the decay probes ended in a TypeError, KeyError, TypeError and
        # AttributeError traceback
        (["decay", "--n", "3"], None, "decay needs --profile or --measure"),
        (["decay", "--n", "3"], [{"weight_re": 1.0}],
         "--measure entry 0 needs a 'family' name and an optional 'params' object"),
        (["decay", "--n", "3"], [{"family": "bump", "weight_re": "1"}],
         "--measure entry 0 needs numbers weight_re and weight_im, got '1' and 0.0"),
        (["decay", "--n", "3"], {"family": "bump", "weight_re": 1.0},
         "--measure expects a JSON list of components"),
        # the gate probes exited 0 with an empty or vacuous table
        (["gate", "--n", "3", "--r", "nan"], None, "exponent r must be >= 1 (inf allowed), got nan"),
        (["gate", "--n", "3", "--r", "0.5"], None, "exponent r must be >= 1 (inf allowed), got 0.5"),
        (["gate", "--n", "0", "--r", "3"], None, "dimension must be an integer >= 2, got 0"),
        # this printed "p": Infinity (not JSON) and a numpy RuntimeWarning
        (["gate", "--n", "3", "--r", "inf"], None,
         "at r = inf the only scaling pair is p = q = inf; give --p and --q"),
    ])
    def test_bad_decay_or_gate_request_is_two(self, argv, measure, message, tmp_path,
                                              capsys):
        if measure is not None:
            (tmp_path / "m.json").write_text(json.dumps(measure))
            argv = argv + ["--measure", str(tmp_path / "m.json")]
        code = cli.main(argv + ["--out", str(tmp_path / "o.json")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o.json").exists()

    def test_verify_fast_passes(self):
        proc = subprocess.run(
            [sys.executable, "-m", "disperse_lab.cli", "verify",
             "--suite", "fast"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        lines = [l for l in proc.stdout.splitlines() if l.strip()]
        assert lines and all(l.startswith("PASS") for l in lines)


class TestProfileDescriptors:
    """One vocabulary of families and keys, built at the command's --n."""

    @staticmethod
    def _value(argv, tmp_path):
        assert cli.main(argv + ["--out", str(tmp_path / "o.csv")]) == 0
        with open(tmp_path / "o.csv") as fh:
            return list(csv.reader(fh))[1]

    def test_norm_herglotz_takes_the_command_dimension(self, tmp_path):
        # this printed DIV: the n = 3 envelope judged in X at n = 5
        row = self._value(["norm", "--family", "herglotz", "--n", "5", "--which", "X"],
                          tmp_path)
        assert float(row[1]) == sum(norms.norm_X(profiles.herglotz(1.0, 5), 5))
        assert math.isfinite(float(row[1]))

    def test_propagate_herglotz_takes_the_command_dimension(self, tmp_path):
        # this evolved the n = 3 envelope in 2-D
        row = self._value(["propagate", "--n", "2", "--profile", "herglotz", "--t", "1",
                           "--x", "1"], tmp_path)
        want = evolve_radial(profiles.herglotz(1.0, 2), EvalPoint(2, 1.0, 1.0)).value
        assert complex(float(row[3]), float(row[4])) == want

    def test_oscillating_power_runs_without_scan(self, tmp_path):
        # this was an unknown profile family outside --scan
        row = self._value(["norm", "--family", "oscillating_power:alpha=2", "--n", "2",
                           "--which", "X"], tmp_path)
        assert float(row[1]) == sum(norms.norm_X(profiles.oscillating_power(2.0), 2))

    @pytest.mark.parametrize("argv, message", [
        # unknown keys were dropped: these ran as plain bump and gaussian
        (["norm", "--family", "bump:width=3", "--n", "3", "--which", "X"],
         "profile 'bump' takes the keys a, b, omega; got 'width'"),
        (["propagate", "--n", "3", "--profile", "gaussian:alpha=7", "--t", "1", "--x", "1"],
         "profile 'gaussian' takes the keys width, omega; got 'alpha'"),
        # this printed the same value on every row
        (["norm", "--family", "bump", "--n", "3", "--which", "X", "--scan",
          "alpha=1:1.2:0.2"], "profile 'bump' takes the keys a, b, omega; got 'alpha'"),
        (["norm", "--family", "herglotz", "--n", "3", "--which", "X", "--scan",
          "alpha=1:1.2:0.2"], "profile 'herglotz' takes the keys omega; got 'alpha'"),
        # the dimension is the command's --n, not a key
        (["norm", "--family", "herglotz:n=5", "--n", "5", "--which", "X"],
         "profile 'herglotz' takes the keys omega; got 'n'"),
        (["propagate", "--n", "3", "--profile", "power:alpha", "--t", "1", "--x", "1"],
         "profile 'power:alpha': 'alpha' is not key=<number>"),
        # these printed p_bound 0.714 and "spatial q > inf" with exit 0
        (["appendix", "--mode", "pbound", "--n", "-3", "--r", "5"],
         "dimension must be an integer >= 2, got -3"),
        (["appendix", "--mode", "region", "--n", "0"],
         "dimension must be an integer >= 2, got 0"),
    ])
    def test_bad_descriptor_or_dimension_is_two(self, argv, message, tmp_path, capsys):
        code = cli.main(argv + ["--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("argv", [
        # these read "need integer dimension n >= 2" (herglotz), "dimension
        # must be an integer >= 2" (power) and "..., got 1" (gate)
        ["norm", "--family", "herglotz", "--n", "1", "--which", "X"],
        ["norm", "--family", "power:alpha=1.5", "--n", "1", "--which", "X"],
        ["gate", "--n", "1", "--r", "3"],
        ["propagate", "--n", "1", "--profile", "bump", "--t", "1", "--x", "1"],
        ["blowup", "--n", "1", "--sigma", "0.5", "--q", "4"],
    ])
    def test_one_message_for_a_bad_dimension(self, argv, tmp_path, capsys):
        code = cli.main(argv + ["--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert capsys.readouterr().err == "error: dimension must be an integer >= 2, got 1\n"

    def test_measure_params_must_be_numbers(self, tmp_path, capsys):
        # the params were formatted into a descriptor and parsed back
        (tmp_path / "m.json").write_text(json.dumps(
            [{"family": "bump", "weight_re": 1.0, "params": {"a": "1"}}]))
        code = cli.main(["decay", "--n", "3", "--measure", str(tmp_path / "m.json"),
                         "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert capsys.readouterr().err == "error: profile 'bump' needs a number a, got '1'\n"


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["propagate", "--n", "3", "--profile", "gaussian:width=1",
                "--t", "0.5:2:3", "--x", "0.5:8:5"]
        _, out1 = run_cli(args, tmp_path, "a.csv")
        _, out2 = run_cli(args, tmp_path, "b.csv")
        assert out1.read_bytes() == out2.read_bytes()


class TestColdStart:
    def test_import_leaves_out_scipy_stats_and_integrate(self):
        # each costs a fraction of a second at start-up for one small function;
        # an iterated Fresnel integral past its stationary point loads neither
        code = ("import sys, disperse_lab.cli; "
                "from disperse_lab import special; special.fresnel_xi(3, -100.0, 0.0); "
                "print([m for m in ('scipy.stats', 'scipy.integrate') if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestHelpers:
    def test_parse_grid_forms(self):
        assert list(cli._parse_grid("1,2,4")) == [1.0, 2.0, 4.0]
        g = cli._parse_grid("1:100:3")
        assert len(g) == 3 and g[0] == pytest.approx(1.0) \
            and g[-1] == pytest.approx(100.0)

    def test_emit_csv_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError, match="no rows to write"):
            cli.emit_csv([], ["a"], str(tmp_path / "x.csv"))
        assert not (tmp_path / "x.csv").exists()

    def test_float_formatting_roundtrip(self):
        for v in (1.0 / 3.0, 2.0 ** -40, 1e300):
            assert float(cli._fmt(v)) == v
