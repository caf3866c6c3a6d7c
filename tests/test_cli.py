import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from schemelab.cli import main


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASE = {
    "version": 1,
    "scheme": {"name": "forward_difference"},
    "model": {"n": 1, "F": "zero", "G": "state", "theta": "one"},
    "solver": {"N": 12, "M": 48, "dt": 1e-3, "T": 0.02,
               "record_times": [0.01, 0.02], "eps_ref": 0.01},
    "experiment": {"eps_ladder": [0.25, 0.125, 0.0625], "samples": 2,
                   "alpha": 0.45, "times": [0.2]},
    "seed": 7,
}


class TestExitCodes:
    def test_check_scheme_ok(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE)
        code = main(["check-scheme", "--config", cfg,
                     "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "scheme_report.json").exists()
        assert "PASS mu_moments" in capsys.readouterr().out

    def test_check_scheme_invalid_scheme_exits_2(self, tmp_path):
        bad = dict(BASE)
        bad["scheme"] = {"f": {"name": "one"}, "h": {"name": "one"},
                         "mu": [[1.0, 1.0]]}
        cfg = write_config(tmp_path, bad)
        code = main(["check-scheme", "--config", cfg,
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_malformed_config_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["lambda", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2

    def test_missing_version_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"scheme": {"name": "forward_difference"}})
        assert main(["lambda", "--config", cfg,
                     "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("command", ["simulate", "converge", "correction"])
    def test_solver_command_with_nu_two_exits_2(self, tmp_path, capsys, command):
        payload = json.loads(json.dumps(BASE))
        payload["scheme2"] = {"name": "central_difference"}
        payload["experiment"]["nu"] = 2.0
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "nu = 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "converge", "correction"])
    @pytest.mark.parametrize("solver, message", [
        ({"N": 12, "M": 24}, "M >= 2N+1"),
        ({"T": 0.0205}, "multiple of dt"),
        ({"initial": {"kind": "bogus"}}, "unknown initial kind"),
        ({"initial": {"kind": "sine", "amplitude": 1.0, "mode": 13}}, "initial mode"),
        ({"initial": {"kind": "sine", "amplitude": 1.0, "mode": 0}}, "initial mode"),
        ({"record_times": [0.0015, 0.02]}, "not on the step grid"),
    ])
    def test_bad_solver_setting_exits_2(self, tmp_path, capsys, command, solver, message):
        payload = json.loads(json.dumps(BASE))
        payload["scheme2"] = {"name": "central_difference"}
        payload["solver"].update(solver)
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err

    @pytest.mark.parametrize("command", ["fluctuation", "lift"])
    def test_lift_grid_too_small_exits_2(self, tmp_path, capsys, command):
        payload = json.loads(json.dumps(BASE))
        payload["solver"]["M"] = 2 * payload["solver"]["N"]
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "M >= 2N+1" in err

    @pytest.mark.parametrize("command", ["simulate", "fluctuation", "lambda"])
    @pytest.mark.parametrize("seed", [7.9, 7.0, "7", True])
    def test_non_integer_config_seed_exits_2(self, tmp_path, capsys, command, seed):
        payload = json.loads(json.dumps(BASE))
        payload["seed"] = seed
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "non-negative integer" in err

    @pytest.mark.parametrize("command", ["simulate", "fluctuation", "lambda"])
    @pytest.mark.parametrize("key", ["N", "M", "samples", "mode"])
    @pytest.mark.parametrize("value", [12.9, 12.0, "12", True])
    def test_non_integer_config_count_exits_2(self, tmp_path, capsys, command, key, value):
        payload = json.loads(json.dumps(BASE))
        block = {"N": payload["solver"], "M": payload["solver"],
                 "samples": payload["experiment"]}.get(key)
        if block is None:
            block = payload["solver"]["initial"] = {"kind": "sine", "amplitude": 0.5}
        block[key] = value
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"{key} must be an integer" in err

    @pytest.mark.parametrize("stride", [2.5, True])
    def test_non_integer_norms_stride_exits_2(self, tmp_path, capsys, stride):
        payload = json.loads(json.dumps(BASE))
        payload["norms"] = {"stride": stride}
        cfg = write_config(tmp_path, payload)
        assert main(["converge", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "stride must be an integer" in err

    @pytest.mark.parametrize("block", [
        {"alpha": 0.46}, {"alpha_star": 0.48}, {"beta": 0.4}, {"beta_tilde": 0.35},
        {"alpha_tilde": 0.3}, {"alpha_tilde": 0.5}])
    def test_bad_norms_block_exits_2(self, tmp_path, capsys, block):
        # the gap metric reads alpha_tilde and stride, and nothing else
        payload = json.loads(json.dumps(BASE))
        payload["norms"] = block
        cfg = write_config(tmp_path, payload)
        assert main(["converge", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: bad norms block")
        assert ("1/3 < alpha_tilde < 1/2" if "alpha_tilde" in block else
                f"'{next(iter(block))}'") in err

    @pytest.mark.parametrize("command, N", [
        ("check-scheme", -1), ("simulate", -1), ("converge", -1), ("correction", -1),
        ("lambda", 0), ("lift", 0), ("fluctuation", 0)])
    def test_too_small_N_exits_2(self, tmp_path, capsys, command, N):
        payload = json.loads(json.dumps(BASE))
        payload["scheme2"] = {"name": "central_difference"}
        payload["solver"]["N"] = N
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"N >= {N + 1}, not {N}" in err

    @pytest.mark.parametrize("command", [
        "check-scheme", "lambda", "lift", "fluctuation", "simulate", "converge",
        "correction"])
    def test_empty_eps_ladder_exits_2(self, tmp_path, capsys, command):
        payload = json.loads(json.dumps(BASE))
        payload["scheme2"] = {"name": "central_difference"}
        payload["experiment"]["eps_ladder"] = []
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "eps ladder must not be empty" in err

    @pytest.mark.parametrize("command", ["lambda", "lift", "fluctuation"])
    def test_empty_times_exits_2(self, tmp_path, capsys, command):
        # fluctuation used to exit 0 with a statistic 0.0 that no lift made,
        # lambda with a zero-byte lambda_table.csv
        payload = json.loads(json.dumps(BASE))
        payload["experiment"]["times"] = []
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "at least one time" in err
        assert not (tmp_path / "o" / "samples.csv").exists()
        assert not (tmp_path / "o" / "lambda_table.csv").exists()

    @pytest.mark.parametrize("command", ["lambda", "lift", "fluctuation"])
    @pytest.mark.parametrize("times", [[0.0], [-0.1, 0.2], [0.0, 0.2]])
    def test_nonpositive_time_exits_2(self, tmp_path, capsys, command, times):
        # these used to stop with a traceback (exit 1), or for lift with a
        # last time > 0 to run
        payload = json.loads(json.dumps(BASE))
        payload["experiment"]["times"] = times
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "times must be positive" in err

    @pytest.mark.parametrize("command", ["lift", "fluctuation"])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, -0.2, 0.7])
    def test_alpha_outside_open_half_interval_exits_2(self, tmp_path, capsys, command, alpha):
        payload = json.loads(json.dumps(BASE))
        payload["experiment"]["alpha"] = alpha
        cfg = write_config(tmp_path, payload)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "alpha must lie in (0, 1/2)" in err

    @pytest.mark.parametrize("command", ["simulate", "converge", "lambda"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, BASE)
        assert main([command, "--config", cfg, "--seed", "-1",
                     "--out", str(tmp_path / "o")]) == 2
        assert "non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["two", "0", "-3", ""])
    def test_bad_worker_count_exits_2(self, tmp_path, capsys, monkeypatch, workers):
        monkeypatch.setenv("SCHEMELAB_WORKERS", workers)
        cfg = write_config(tmp_path, BASE)
        assert main(["converge", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "SCHEMELAB_WORKERS must be a positive integer" in capsys.readouterr().err

    def test_lambda_with_nu_two_runs(self, tmp_path, capsys):
        payload = json.loads(json.dumps(BASE))
        payload["experiment"]["nu"] = 2.0
        cfg = write_config(tmp_path, payload)
        assert main(["lambda", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        value = float(capsys.readouterr().out.split("lambda = ")[1].split()[0])
        assert value == pytest.approx(0.125, abs=1e-6)

    def test_numerical_abort_exits_3(self, tmp_path):
        bad = json.loads(json.dumps(BASE))
        bad["solver"]["blowup_cap"] = 1e-12
        bad["solver"]["initial"] = {"kind": "sine", "amplitude": 1.0}
        cfg = write_config(tmp_path, bad)
        code = main(["converge", "--config", cfg,
                     "--out", str(tmp_path / "out")])
        assert code == 3


class TestCommands:
    def test_lambda_writes_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE)
        code = main(["lambda", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        out = capsys.readouterr().out
        value = float(out.split("lambda = ")[1].split()[0])
        assert value == pytest.approx(0.25, abs=1e-6)
        assert (tmp_path / "o" / "lambda_table.csv").exists()

    def test_simulate_writes_snapshots_and_metadata(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        meta = json.loads((tmp_path / "o" / "run.json").read_text())
        assert meta["seed"] == 7
        assert meta["truncation_time"] is None
        body = (tmp_path / "o" / "trajectory.csv").read_text().splitlines()
        assert body[0] == "t,component,x,value"
        assert len(body) == 1 + 2 * 48

    def test_converge_writes_record(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        code = main(["converge", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        record = json.loads((tmp_path / "o" / "record.json").read_text())
        assert record["kind"] == "converge"
        assert (tmp_path / "o" / "samples.csv").exists()
        assert (tmp_path / "o" / "aggregates.csv").exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        main(["simulate", "--config", cfg, "--seed", "123",
              "--out", str(tmp_path / "a")])
        meta = json.loads((tmp_path / "a" / "run.json").read_text())
        assert meta["seed"] == 123

    def test_correction_requires_scheme2(self, tmp_path):
        cfg = write_config(tmp_path, BASE)
        # scheme2 missing: surfaces as a validation failure, not a crash
        code = main(["correction", "--config", cfg,
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_correction_with_scheme2(self, tmp_path, capsys):
        payload = json.loads(json.dumps(BASE))
        payload["scheme2"] = {"name": "central_difference"}
        payload["experiment"]["eps_ladder"] = [0.0625]
        cfg = write_config(tmp_path, payload)
        code = main(["correction", "--config", cfg,
                     "--out", str(tmp_path / "o")])
        assert code == 0
        assert "gap ratio" in capsys.readouterr().out

    def test_custom_scheme_with_function_params(self, tmp_path, capsys):
        payload = json.loads(json.dumps(BASE))
        payload["scheme"] = {
            "name": "forward_difference",
            "h": {"name": "indicator", "params": {"cutoff": 1.0}},
        }
        cfg = write_config(tmp_path, payload)
        code = main(["lambda", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 0
        out = capsys.readouterr().out
        value = float(out.split("lambda = ")[1].split()[0])
        assert value == pytest.approx(0.0774106, abs=1e-5)

    def test_full_custom_scheme_block(self, tmp_path):
        payload = json.loads(json.dumps(BASE))
        payload["scheme"] = {
            "f": {"name": "one_plus_sq"},
            "h": {"name": "gaussian"},
            "mu": [[1.0, 1.0], [0.0, -1.0]],
            "c_f": 0.5,
        }
        cfg = write_config(tmp_path, payload)
        assert main(["check-scheme", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 0

    def test_fluctuation_and_lift(self, tmp_path):
        payload = json.loads(json.dumps(BASE))
        payload["experiment"]["eps_ladder"] = [0.25, 0.125, 0.0625]
        payload["experiment"]["times"] = [0.2]
        payload["solver"]["N"] = 16
        payload["solver"]["M"] = 64
        cfg = write_config(tmp_path, payload)
        assert main(["fluctuation", "--config", cfg,
                     "--out", str(tmp_path / "f")]) == 0
        assert main(["lift", "--config", cfg,
                     "--out", str(tmp_path / "l")]) == 0
        rec = json.loads((tmp_path / "f" / "record.json").read_text())
        assert "lambda_decay" in rec["extras"]


ROOT = Path(__file__).resolve().parents[1]


CONFIGS = sorted(str(p) for d in ("configs", "perfbench/configs")
                 for p in (ROOT / d).glob("*.json"))


def _fresh_interpreter(script, *args):
    """stdout of ``script`` run by a new interpreter on the package source."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *args], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}).stdout


def test_cli_import_loads_neither_scipy_stats_nor_the_process_pool():
    # a fresh interpreter: this process has imported scipy and the pool long
    # ago.  No scipy module at all: Si and the fit's t quantile are computed
    # or tabulated in the package, and the pool is imported when
    # SCHEMELAB_WORKERS > 1 (test_worker_pool_matches_serial runs it)
    script = """
import sys
import schemelab.cli
from schemelab.config import load_config
for path in sys.argv[1:]:
    load_config(path)
print(" ".join(sorted(m for m in sys.modules if m == "concurrent.futures.process"
                      or m.partition(".")[0] == "scipy")))
"""
    assert len(CONFIGS) >= 8
    assert _fresh_interpreter(script, *CONFIGS).strip() == ""


def test_cli_runs_load_no_module_after_set_up(tmp_path):
    # a benchmark round times cli.main after importing schemelab.cli and
    # loading the config, so a module a run imports lazily (numpy 2 loads
    # numpy.random and numpy.fft on first use) would load inside the timed
    # call.  That includes the standard library's locale, which argparse's
    # gettext imports when the first parser is built: the CLI builds its
    # parser on import
    payload = json.loads(json.dumps(BASE))
    payload["scheme"]["h"] = {"name": "indicator"}          # Si in the closed form
    payload["scheme2"] = {"name": "central_difference"}
    payload["model"]["theta"] = "bounded_sqrt"
    payload["solver"].update(N=8, M=32, T=0.01, record_times=[0.01], eps_ref=0.0625)
    payload["experiment"]["eps_ladder"] = [0.5, 0.25, 0.125]
    cfg = write_config(tmp_path, payload)
    script = """
import contextlib, io, os, sys
import schemelab.cli
from schemelab.config import load_config
cfg, out = sys.argv[1:]
load_config(cfg, kind="correction")
before = set(sys.modules)
for command in ("correction", "converge", "fluctuation", "lift", "lambda"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert schemelab.cli.main([command, "--config", cfg,
                                   "--out", os.path.join(out, command)]) == 0
print(" ".join(sorted(set(sys.modules) - before)))
"""
    assert _fresh_interpreter(script, cfg, str(tmp_path / "o")).strip() == ""


def test_closed_form_lambda_loads_no_quadrature():
    # every shipped scheme has f = 1 and h = one or indicator, so its Lambda
    # is the closed form; scipy.integrate comes in with the first quadrature
    script = """
import sys
import schemelab.cli
from schemelab.config import load_config
from schemelab.correction import lambda_exact
from schemelab.schemes import make_function, make_scheme
for path in sys.argv[1:]:
    cfg = load_config(path)
    for scheme in filter(None, (cfg.scheme, cfg.scheme2)):
        assert lambda_exact(scheme, nu=cfg.nu).evaluations == 0
print("scipy.integrate" in sys.modules)
lambda_exact(make_scheme("forward_difference", h=make_function("gaussian")))
print("scipy.integrate" in sys.modules)
"""
    assert len(CONFIGS) >= 8
    assert _fresh_interpreter(script, *CONFIGS).split() == ["False", "True"]
