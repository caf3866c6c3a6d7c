"""Self-tests of the benchmark: span arithmetic, tracer install and restore,
the correctness checks, and byte-identical output for a repeated seed.

    python3 perfbench/selftest.py
"""

import csv
import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import checks
import run
import spans

sys.path.insert(0, run.SRC)

# cut-down shapes: seconds per call, same code paths as the workloads
SMALL = {
    "correction": {
        "version": 1, "scheme": {"name": "forward_difference"},
        "scheme2": {"name": "central_difference"},
        "model": {"n": 1, "F": "zero", "G": "state", "theta": "one"},
        "solver": {"N": 16, "M": 48, "dt": 1e-3, "T": 0.01,
                   "record_times": [0.005, 0.01]},
        "experiment": {"eps_ladder": [0.125], "samples": 2}},
    "converge": {
        "version": 1,
        "scheme": {"name": "forward_difference",
                   "h": {"name": "indicator", "params": {"cutoff": 1.0}}},
        "model": {"n": 1, "F": "zero", "G": "state", "theta": "bounded_sqrt"},
        "solver": {"N": 16, "M": 48, "dt": 1e-3, "T": 0.01,
                   "record_times": [0.005, 0.01], "eps_ref": 0.015625},
        "experiment": {"eps_ladder": [0.25, 0.125, 0.0625], "samples": 2},
        "norms": {"stride": 4}},
    "fluctuation": {
        "version": 1, "scheme": {"name": "forward_difference"},
        "model": {"n": 1}, "solver": {"N": 16, "M": 40},
        "experiment": {"eps_ladder": [0.25, 0.125, 0.0625], "samples": 3,
                       "alpha": 0.45, "times": [0.1, 0.5]}},
}


def _scratch():
    base = os.path.join(run.OUT, "work")
    os.makedirs(base, exist_ok=True)
    return tempfile.mkdtemp(prefix="selftest-", dir=base)


class SpanArithmetic(unittest.TestCase):
    def test_self_time_on_synthetic_tree(self):
        #   a [0, 10]
        #   +- b [1, 4]
        #   |  +- c [2, 3]
        #   +- d [5, 9]
        #   +- b [9.5, 9.9]
        tree = [["a", 0.0, 10.0, -1, 0.0], ["b", 1.0, 4.0, 0, 0.0],
                ["c", 2.0, 3.0, 1, 0.0], ["d", 5.0, 9.0, 0, 2.5],
                ["b", 9.5, 9.9, 0, 0.0]]
        got = spans.summarize(tree)
        self.assertEqual({k: v["calls"] for k, v in got.items()},
                         {"a": 1, "b": 2, "c": 1, "d": 1})
        self.assertAlmostEqual(got["a"]["total_s"], 10.0)
        self.assertAlmostEqual(got["a"]["self_s"], 10.0 - 3.0 - 4.0 - 0.4)
        self.assertAlmostEqual(got["b"]["total_s"], 3.4)
        self.assertAlmostEqual(got["b"]["self_s"], 2.0 + 0.4)
        self.assertAlmostEqual(got["c"]["self_s"], 1.0)
        self.assertAlmostEqual(got["d"]["self_s"], 4.0)
        self.assertEqual(got["d"]["amount"], 2.5)

    def test_tracer_links_children_to_parents(self):
        tracer = spans.Tracer()
        inner = tracer.wrap("inner", lambda x: x + 1)
        outer = tracer.wrap("outer", lambda x: inner(x) + inner(x))
        self.assertEqual(outer(1), 4)
        self.assertEqual([(s[0], s[3]) for s in tracer.spans],
                         [("outer", -1), ("inner", 0), ("inner", 0)])
        for name, start, end, _parent, _amount in tracer.spans:
            self.assertLessEqual(start, end)


class InstallRestore(unittest.TestCase):
    def test_every_binding_is_wrapped_then_restored(self):
        importlib.import_module("schemelab.cli")
        modules = spans._schemelab_modules()
        before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
        cli = sys.modules["schemelab.cli"]
        commands = dict(cli._COMMANDS)
        solver = sys.modules["schemelab.solver"]
        experiments = sys.modules["schemelab.experiments"]
        step, simulate = solver.step, solver.simulate

        undo = spans.install(spans.Tracer(), "correction")
        try:
            self.assertIsNot(solver.step, step)
            self.assertIsNot(experiments.simulate, simulate)
            self.assertIs(experiments.simulate, solver.simulate)
            self.assertIsNot(cli.simulate, simulate)
            self.assertIsNot(cli._COMMANDS["correction"], commands["correction"])
            self.assertIs(cli._COMMANDS["converge"], commands["converge"])
        finally:
            spans.uninstall(undo)
        after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)
        self.assertEqual(cli._COMMANDS, commands)


def _rows_and_aggregate(values_by_key, key, value):
    rows, aggregates = [], []
    for k, values in values_by_key.items():
        rows += [{key: k, "sample": s, value: v} for s, v in enumerate(values)]
        mean, se = checks._mean_se(values)
        aggregates.append({key: k, "mean": mean, "se": se, "n": len(values)})
    return rows, aggregates


def good_correction():
    a, b, signed = [0.053, 0.061], [0.015, 0.016], [-0.049, -0.051]
    rows = [{"eps": 0.03125, "sample": s, "gap_uncorrected": a[s],
             "gap_corrected": b[s], "signed_mean_gap": signed[s]} for s in range(2)]
    aggregates = []
    for q, vals in (("gap_uncorrected", a), ("gap_corrected", b)):
        mean, se = checks._mean_se(vals)
        aggregates.append({"quantity": q, "mean": mean, "se": se, "n": 2})
    record = {"aggregates": aggregates, "extras": {
        "lambda1": 0.25, "ratio": aggregates[0]["mean"] / aggregates[1]["mean"],
        "signed_mean_gap": checks._mean_se(signed)[0]}}
    return record, rows


def good_converge():
    rows, aggregates = _rows_and_aggregate(
        {0.25: [0.67, 0.58], 0.125: [0.52, 0.49], 0.0625: [0.26, 0.30],
         0.03125: [0.19, 0.17]}, "eps", "sup_error")
    for agg in aggregates:
        agg["truncated_fraction"] = 0.0
    record = {"aggregates": aggregates, "fit": {"slope": 0.6},
              "extras": {"lambda": checks.lambda_indicator_forward()}}
    return record, rows


def good_fluctuation(N=16):
    rows, aggregates = _rows_and_aggregate(
        {0.125: [0.34, 0.35], 0.0625: [0.26, 0.27]}, "eps", "statistic")
    decay = [{"eps": e, "t": t, "lambda_eps": checks.lambda_eps_flat(
        checks.FORWARD_DIFFERENCE, e, t, N)} for e in (0.125, 0.0625) for t in (0.1, 2.0)]
    record = {"aggregates": aggregates, "fit": {"slope": 0.39},
              "extras": {"lambda_decay": {"lambda": 0.25, "rows": decay}}}
    return record, rows


class ChecksRejectWrongOutputs(unittest.TestCase):
    def assertRejected(self, errors, fragment):
        self.assertTrue(any(fragment in e for e in errors), errors)

    def test_correct_outputs_pass(self):
        self.assertEqual(checks.check_correction(*good_correction()), [])
        self.assertEqual(checks.check_converge(*good_converge()), [])
        self.assertEqual(checks.check_fluctuation(*good_fluctuation(), 16), [])

    def test_lambda_off_by_1e_3(self):
        record, rows = good_correction()
        record["extras"]["lambda1"] += 1e-3
        self.assertRejected(checks.check_correction(record, rows), "lambda1")
        record, rows = good_converge()
        record["extras"]["lambda"] += 1e-3
        self.assertRejected(checks.check_converge(record, rows), "lambda")
        record, rows = good_fluctuation()
        record["extras"]["lambda_decay"]["lambda"] += 1e-3
        self.assertRejected(checks.check_fluctuation(record, rows, 16), "lambda =")
        record, rows = good_fluctuation()
        record["extras"]["lambda_decay"]["rows"][2]["lambda_eps"] *= 1 + 1e-3
        self.assertRejected(checks.check_fluctuation(record, rows, 16), "lambda_eps")

    def test_non_monotone_ladder(self):
        record, rows = good_converge()
        aggs = record["aggregates"]
        aggs[1]["mean"], aggs[2]["mean"] = aggs[2]["mean"], aggs[1]["mean"]
        self.assertRejected(checks.check_converge(record, rows), "strictly decrease")

    def test_slope_outside_range(self):
        record, rows = good_converge()
        record["fit"]["slope"] = -0.1
        self.assertRejected(checks.check_converge(record, rows), "slope")
        for slope in (0.2, 0.7, None):
            record, rows = good_fluctuation()
            record["fit"]["slope"] = slope
            self.assertRejected(checks.check_fluctuation(record, rows, 16), "slope")

    def test_correction_ratio_sign_and_recomputation(self):
        record, rows = good_correction()
        record["extras"]["ratio"] = 1.9
        self.assertRejected(checks.check_correction(record, rows), "< 2")
        record, rows = good_correction()
        record["extras"]["signed_mean_gap"] = 0.05
        self.assertRejected(checks.check_correction(record, rows), "negative")
        record, rows = good_correction()
        rows[1]["gap_corrected"] = 0.017
        self.assertRejected(checks.check_correction(record, rows), "samples.csv")

    def test_truncation_and_row_mismatch(self):
        record, rows = good_converge()
        record["aggregates"][3]["truncated_fraction"] = 0.5
        self.assertRejected(checks.check_converge(record, rows), "truncated")
        record, rows = good_fluctuation()
        rows[0]["statistic"] = 0.9
        self.assertRejected(checks.check_fluctuation(record, rows, 16), "samples.csv")


def _worker(config_path, command, seed, out):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "worker.py"), "--src", run.SRC,
         "--command", command, "--config", config_path, "--seed", str(seed),
         "--out", out], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, SCHEMELAB_WORKERS="1"))
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if report["exit_code"] != 0:
        raise AssertionError(f"{command} exited {report['exit_code']}")
    with open(os.path.join(out, "samples.csv"), "rb") as fh:
        return fh.read()


class Reproducible(unittest.TestCase):
    def setUp(self):
        self.dir = _scratch()
        self.addCleanup(shutil.rmtree, self.dir, True)

    def test_same_seed_writes_identical_samples_csv(self):
        for command, config in SMALL.items():
            path = os.path.join(self.dir, f"{command}.json")
            with open(path, "w") as fh:
                json.dump(config, fh)
            out = [_worker(path, command, seed, os.path.join(self.dir, f"{command}{i}"))
                   for i, seed in enumerate((5, 5, 6))]
            self.assertEqual(out[0], out[1], command)
            self.assertNotEqual(out[0], out[2], command)
            rows = list(csv.DictReader(out[0].decode().splitlines()))
            self.assertTrue(rows, command)

    def test_refuses_to_run_without_sources(self):
        bare = os.path.join(self.dir, "bare")
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fluctuation",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
