import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from schemelab import config as schema
from schemelab.cli import main
from schemelab.config import ConfigError, load_config, parse_config


ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def rejected(tmp_path, capsys, command, payload, *args):
    """stderr of a run of ``payload`` that must exit 2 with a config error
    and create no output directory."""
    cfg = write_config(tmp_path, payload)
    assert main([command, "--config", cfg, *args, "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    return err


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


def schema_rows(table=schema.TOP, prefix=""):
    """(dotted path, row) of every key of the schema, nested blocks included."""
    for row in table:
        yield prefix + row.key, row
        if not isinstance(row.type, str):
            yield from schema_rows(row.type, f"{prefix}{row.key}.")


DELETE = object()
WRONG_TYPE = {"int": [1.5, True, "1"], "float": [True, "1", None], "bool": ["no", "false", 0],
              "str": [1, None], "floats": [None, [True], 0.5], "pairs": [[[1.0]], None],
              "object": [[], None]}
OUT_OF_RANGE = {
    "version": [2], "seed": [-1], "scheme2": [DELETE],
    "experiment.eps_ladder": [[], [0.125, 0.25], [0.25, 0.25], [0.25, 0.0]],
    "experiment.samples": [0], "experiment.alpha": [0.0, 0.5],
    "experiment.times": [[], [0.0, 0.2]], "solver.N": [-1], "solver.M": [24],
    "solver.blowup_cap": [-1.0, 0.0], "solver.eps_ref": [0.0, 0.0625, 1.0],
}
COMMAND_OF = {kind: command for command, kind in schema.KIND_BY_COMMAND.items()}
# keys the schema no longer has: no computation read them (nu is fixed at 1)
RETIRED = ("scheme.delta", "scheme2.delta", "experiment.nu")


def table_cases():
    """(command, path, value, message) for each way a file can break a row
    of the schema: a misspelt key, a value of another JSON type and a value
    outside the range; a retired key, whatever its value; and a function
    block whose params its function does not take.  The CLI's command sets
    the kind, so a file's kind is tested on parse_config."""
    cases = []
    for path, row in schema_rows():
        if path == "kind":
            continue
        typ = row.type if isinstance(row.type, str) else "object"
        cases.append(("converge", path + path[-1], 1, f"unknown key {path + path[-1]};"))
        cases += [("converge", path, value,
                   f"{path} must be {schema._TYPES[typ][0]}, not {value!r}")
                  for value in WRONG_TYPE[typ]]
        if row.range:
            command = COMMAND_OF[row.kinds[0]] if row.kinds else "converge"
            cases += [(command, path, value, f"{path} must be {row.range[0]}")
                      for value in OUT_OF_RANGE[path]]
    cases += [("converge", path, value, f"unknown key {path};")
              for path in RETIRED for value in [1.0, *WRONG_TYPE["float"]]]
    cases.append(("simulate", "scheme.h", {"name": "indicator", "params": {"cutof": 1.0}},
                  "function 'indicator' params: got an unexpected keyword argument 'cutof'"))
    return cases


TABLE_CASES = table_cases()


def with_value(path, value):
    """BASE, with a scheme2, and ``value`` at ``path`` (DELETE removes it)."""
    payload = json.loads(json.dumps(dict(BASE, scheme2={"name": "central_difference"})))
    *parents, key = path.split(".")
    block = payload
    for part in parents:
        block = block.setdefault(part, {"name": "one"} if part in ("f", "h") else {})
    if value is DELETE:
        del block[key]
    else:
        block[key] = value
    return payload


def test_every_range_has_its_out_of_range_values():
    ranged = {path for path, row in schema_rows() if row.range} - {"kind"}
    assert ranged == set(OUT_OF_RANGE)


def test_the_readme_schema_table_lists_every_key():
    readme = (ROOT / "README.md").read_text()
    table = readme[readme.index("## Config schema"):readme.index("## Outputs")]
    for path, _ in schema_rows():                    # scheme2 takes scheme's keys
        path = path.replace("scheme2", "scheme").replace("scheme.h.", "scheme.f.")
        assert f"| `{path}`" in table or f"`, `{path}` |" in table, path


def test_a_file_kind_outside_the_known_kinds_is_a_config_error():
    for raw, message in ((dict(BASE, kind="bogus"), "kind must be one of scheme-audit"),
                         (BASE, "missing key kind")):
        with pytest.raises(ConfigError, match=message):
            parse_config(raw)
    assert parse_config(BASE, kind="converge").kind == "converge"


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
        assert "unknown key experiment.nu;" in rejected(tmp_path, capsys, command, payload)

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
        # the checks of SolverConfig and of the initial field, which the loader calls
        payload = json.loads(json.dumps(BASE))
        payload["scheme2"] = {"name": "central_difference"}
        payload["solver"].update(solver)
        assert message in rejected(tmp_path, capsys, command, payload)

    @pytest.mark.parametrize("command", ["fluctuation", "lift"])
    def test_lift_grid_too_small_exits_2(self, tmp_path, capsys, command):
        payload = json.loads(json.dumps(BASE))
        payload["solver"]["M"] = 2 * payload["solver"]["N"]
        err = rejected(tmp_path, capsys, command, payload)
        assert f"solver.M must be >= 2N+1 for {command}, not 24" in err

    @pytest.mark.parametrize("command", ["simulate", "fluctuation", "lambda"])
    @pytest.mark.parametrize("seed", [7.9, 7.0, "7", True])
    def test_non_integer_config_seed_exits_2(self, tmp_path, capsys, command, seed):
        payload = dict(BASE, seed=seed)
        err = rejected(tmp_path, capsys, command, payload)
        assert f"seed must be an integer, not {seed!r}" in err

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
        err = rejected(tmp_path, capsys, command, payload)
        assert f"{key} must be an integer, not {value!r}" in err

    @pytest.mark.parametrize("stride", [2.5, True])
    def test_non_integer_norms_stride_exits_2(self, tmp_path, capsys, stride):
        payload = dict(BASE, norms={"stride": stride})
        err = rejected(tmp_path, capsys, "converge", payload)
        assert f"norms.stride must be an integer, not {stride!r}" in err

    @pytest.mark.parametrize("block", [
        {"alpha": 0.46}, {"alpha_star": 0.48}, {"beta": 0.4}, {"beta_tilde": 0.35},
        {"alpha_tilde": 0.3}, {"alpha_tilde": 0.5}])
    def test_bad_norms_block_exits_2(self, tmp_path, capsys, block):
        # the gap metric reads alpha_tilde and stride, and nothing else
        err = rejected(tmp_path, capsys, "converge", dict(BASE, norms=block))
        assert ("1/3 < alpha_tilde < 1/2" if "alpha_tilde" in block else
                f"unknown key norms.{next(iter(block))};") in err

    @pytest.mark.parametrize("command, N", [
        ("check-scheme", -1), ("simulate", -1), ("converge", -1), ("correction", -1),
        ("lambda", 0), ("lift", 0), ("fluctuation", 0)])
    def test_too_small_N_exits_2(self, tmp_path, capsys, command, N):
        payload = json.loads(json.dumps(BASE))
        payload["scheme2"] = {"name": "central_difference"}
        payload["solver"]["N"] = N
        err = rejected(tmp_path, capsys, command, payload)
        assert f"solver.N must be >= 0, and >= 1 for lambda-table, lift and fluctuation, " \
               f"not {N}" in err

    @pytest.mark.parametrize("command", [
        "check-scheme", "lambda", "lift", "fluctuation", "simulate", "converge",
        "correction"])
    def test_empty_eps_ladder_exits_2(self, tmp_path, capsys, command):
        payload = json.loads(json.dumps(BASE))
        payload["scheme2"] = {"name": "central_difference"}
        payload["experiment"]["eps_ladder"] = []
        err = rejected(tmp_path, capsys, command, payload)
        assert "experiment.eps_ladder must be non-empty" in err

    @pytest.mark.parametrize("command", ["lambda", "lift", "fluctuation"])
    def test_empty_times_exits_2(self, tmp_path, capsys, command):
        # fluctuation used to exit 0 with a statistic 0.0 that no lift made,
        # lambda with a zero-byte lambda_table.csv
        payload = json.loads(json.dumps(BASE))
        payload["experiment"]["times"] = []
        err = rejected(tmp_path, capsys, command, payload)
        assert "experiment.times must be non-empty and positive" in err

    @pytest.mark.parametrize("command", ["lambda", "lift", "fluctuation"])
    @pytest.mark.parametrize("times", [[0.0], [-0.1, 0.2], [0.0, 0.2]])
    def test_nonpositive_time_exits_2(self, tmp_path, capsys, command, times):
        # these used to stop with a traceback (exit 1), or for lift with a
        # last time > 0 to run
        payload = json.loads(json.dumps(BASE))
        payload["experiment"]["times"] = times
        err = rejected(tmp_path, capsys, command, payload)
        assert "experiment.times must be non-empty and positive" in err

    @pytest.mark.parametrize("command", ["lift", "fluctuation"])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, -0.2, 0.7])
    def test_alpha_outside_open_half_interval_exits_2(self, tmp_path, capsys, command, alpha):
        payload = json.loads(json.dumps(BASE))
        payload["experiment"]["alpha"] = alpha
        err = rejected(tmp_path, capsys, command, payload)
        assert f"experiment.alpha must be in (0, 1/2) for {command}, not {alpha!r}" in err

    @pytest.mark.parametrize("command", ["simulate", "converge", "lambda"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        err = rejected(tmp_path, capsys, command, BASE, "--seed", "-1")
        assert "seed must be >= 0, not -1" in err

    @pytest.mark.parametrize("command, path, value, message", TABLE_CASES,
                             ids=[f"{c[1]}={c[2]!r}" for c in TABLE_CASES])
    def test_every_row_of_the_schema_rejects_a_bad_value(self, tmp_path, capsys, command,
                                                         path, value, message):
        assert message in rejected(tmp_path, capsys, command, with_value(path, value))

    @pytest.mark.parametrize("workers", ["two", "0", "-3", ""])
    def test_bad_worker_count_exits_2(self, tmp_path, capsys, monkeypatch, workers):
        monkeypatch.setenv("SCHEMELAB_WORKERS", workers)
        cfg = write_config(tmp_path, BASE)
        assert main(["converge", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "SCHEMELAB_WORKERS must be a positive integer" in capsys.readouterr().err

    def test_lambda_with_nu_two_exits_2(self, tmp_path, capsys):
        # the lambda table once honoured nu; the workbench now fixes nu = 1,
        # and lambda_exact(scheme, nu) gives Lambda / nu in code
        payload = json.loads(json.dumps(BASE))
        payload["experiment"]["nu"] = 2.0
        assert "unknown key experiment.nu;" in rejected(tmp_path, capsys, "lambda", payload)

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

    def test_simulate_hash_covers_the_seed(self, tmp_path):
        # run.json used to hash the solver settings alone, so two seeds, two
        # different trajectories, wrote one hash
        cfg = write_config(tmp_path, BASE)
        runs = {}
        for seed in (1, 2):
            out = tmp_path / str(seed)
            assert main(["simulate", "--config", cfg, "--seed", str(seed),
                         "--out", str(out)]) == 0
            meta = json.loads((out / "run.json").read_text())
            assert meta["config_hash"] == load_config(cfg, "simulate", seed).config_hash()
            runs[meta["config_hash"]] = (out / "trajectory.csv").read_text()
        assert len(runs) == 2 and len(set(runs.values())) == 2

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
        assert lambda_exact(scheme).evaluations == 0
print("scipy.integrate" in sys.modules)
lambda_exact(make_scheme("forward_difference", h=make_function("gaussian")))
print("scipy.integrate" in sys.modules)
"""
    assert len(CONFIGS) >= 8
    assert _fresh_interpreter(script, *CONFIGS).split() == ["False", "True"]
