import json

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
