"""The package names the benchmark binds, read from ``perfbench/spans.py``.

The tracer wraps every function of its ``TRACED`` table by name, reads the
return values named in ``AMOUNTS`` and times each workload's
``<name>_experiment``.  A name deleted or renamed in the package fails every
traced benchmark run; these tests fail first, without running one.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np

from schemelab import cli, experiments, solver
from schemelab.correction import lambda_exact
from schemelab.schemes import make_scheme

ROOT = Path(__file__).resolve().parents[1]


def load_spans():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_resolves():
    for modname, names in load_spans().TRACED.items():
        module = importlib.import_module(f"schemelab.{modname}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert missing == [], modname


def test_experiments_binds_the_solvers_simulate():
    assert experiments.simulate is solver.simulate


def test_every_workload_has_an_experiment_and_a_command():
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    for name in (w["name"] for w in workloads):
        assert callable(getattr(experiments, f"{name}_experiment")), name
        assert name in cli._COMMANDS, name


def test_amounts_read_what_the_functions_return():
    amounts = load_spans().AMOUNTS
    result = lambda_exact(make_scheme("forward_difference"))
    assert amounts["correction.lambda_exact"](result) == result.evaluations
    increments = solver.draw_noise(np.random.default_rng(0), 3, 4, 1)
    assert amounts["solver.draw_noise"](increments) == increments.nbytes / 1e6
