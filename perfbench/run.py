"""Benchmark of schemelab's three Monte-Carlo experiments.

    python3 perfbench/run.py --workload correction|converge|fluctuation|all \
        --seed N --seconds S --trace 0|1

Each round runs one ``schemelab.cli.main`` experiment call in a fresh
process (``perfbench/worker.py``, ``SCHEMELAB_WORKERS=1``) on the
workload's config in ``perfbench/configs`` with master seed N, then checks
the files it wrote (``perfbench/checks.py``) and that its ``samples.csv``
is byte-identical to the first round's.  Rounds repeat for S seconds: a
run stops before a round that would end after S seconds, once at least
three rounds (one untraced-traced pair with ``--trace 1``) ran.  An
operation is one Monte-Carlo sample; a round whose CLI call fails counts
all its samples as failed.

With ``--trace 0`` the last stdout line reports the end-to-end metrics,
each the median over the rounds: ``setup_s`` (import schemelab and parse
the config), ``samples_per_s`` (samples over the wall time of the
``cli.main`` call) and ``peak_rss_mb`` (peak resident memory of the
round's process).  With ``--trace 1`` rounds alternate untraced and traced
(``perfbench/spans.py``) and the last line reports the per-layer metrics.
A fuller result file, with the environment and every round, goes to
``perfbench/out/results``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("correction", "converge", "fluctuation")
MIN_ROUNDS = 3
ROUND_TIMEOUT_S = 150
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# (span, statistic); the metric is "<span>.<statistic>"
PER_LAYER = (
    ("solver.step", "calls"), ("solver.step", "self_s"),
    ("solver.step", "us_per_call"),
    ("solver.simulate", "calls"), ("solver.simulate", "self_s"),
    ("solver.draw_noise", "self_s"), ("solver.draw_noise", "mb"),
    ("solver.corrected_reference", "total_s"),
    ("spectral.to_physical", "calls"), ("spectral.to_physical", "self_s"),
    ("spectral.holder_seminorm_estimate", "calls"),
    ("spectral.holder_seminorm_estimate", "self_s"),
    ("spectral.eval_modes_on_grid", "calls"),
    ("spectral.eval_modes_on_grid", "self_s"),
    ("spectral.sobolev_minus_alpha_norm", "self_s"),
    ("lift.lift_XX", "calls"), ("lift.lift_XX", "self_s"),
    ("lift.evolve_modes", "self_s"), ("lift.draw_increments", "self_s"),
    ("lift.d_eps_xx", "self_s"), ("lift.fluctuation_statistic", "self_s"),
    ("correction.lambda_eps", "calls"), ("correction.lambda_eps", "self_s"),
    ("correction.lambda_exact", "total_s"),
    ("correction.lambda_exact", "evaluations"),
    ("experiments.experiment", "self_s"), ("cli.main", "self_s"),
)
UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "us_per_call": "us",
         "mb": "MB", "evaluations": "count"}
# statistics that must repeat exactly from one traced round to the next
EXACT = ("calls", "mb", "evaluations")


def _stat(summary, span, stat):
    entry = summary.get(span)
    if entry is None:
        return 0 if stat in EXACT else 0.0
    if stat == "calls":
        return entry["calls"]
    if stat == "us_per_call":
        return entry["total_s"] / entry["calls"] * 1e6
    if stat in ("mb", "evaluations"):
        return entry["amount"]
    return entry[stat]


def per_layer_metrics(summaries, untraced_main_s, traced_main_s):
    """Per-layer metrics from the span summaries of the traced rounds.

    Counts come from the first round and must repeat exactly in the others
    (returned as errors); times are medians over the rounds.
    """
    metrics, errors = {}, []
    for span, stat in PER_LAYER:
        values = [_stat(s, span, stat) for s in summaries]
        if stat in EXACT:
            if any(v != values[0] for v in values):
                errors.append(f"{span}.{stat} differs between traced rounds: {values}")
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[f"{span}.{stat}"] = {"value": value, "unit": UNITS[stat]}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced_main_s) - statistics.median(untraced_main_s),
        "unit": "s"}
    return metrics, errors


def run_round(command, config_path, seed, out_dir, traced):
    """One worker process; returns its report, or None if the call failed."""
    env = dict(os.environ, SCHEMELAB_WORKERS="1")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--src", SRC,
            "--command", command, "--config", config_path, "--seed", str(seed),
            "--out", out_dir] + (["--trace"] if traced else [])
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{command}: round timed out after {ROUND_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    if report is None or report["exit_code"] != 0:
        print(f"{command}: round failed (worker exit {proc.returncode}):\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return report


def run_workload(command, seed, seconds, trace):
    config_path = os.path.join(HERE, "configs", f"{command}.json")
    with open(config_path) as fh:
        config = json.load(fh)
    samples = config["experiment"]["samples"]
    os.makedirs(os.path.join(OUT, "work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{command}-{seed}-", dir=os.path.join(OUT, "work"))
    rounds, errors = [], []
    reference_csv = None
    start = time.monotonic()
    try:
        while True:
            traced = trace and len(rounds) % 2 == 1
            out_dir = os.path.join(work, f"round{len(rounds)}")
            report = run_round(command, config_path, seed, out_dir, traced)
            rounds.append({"traced": traced, "report": report})
            if report is not None:
                errors += checks.check_round(command, out_dir, config)
                with open(os.path.join(out_dir, "samples.csv"), "rb") as fh:
                    csv_bytes = fh.read()
                if reference_csv is None:
                    reference_csv = csv_bytes
                elif csv_bytes != reference_csv:
                    errors.append(f"round {len(rounds) - 1}: samples.csv differs "
                                  "from round 0 under the same seed")
            shutil.rmtree(out_dir, ignore_errors=True)
            # stop once another round (a pair when tracing) would overrun
            step = 2 if trace else 1
            if len(rounds) % step:
                continue
            elapsed = time.monotonic() - start
            if (len(rounds) >= (2 if trace else MIN_ROUNDS)
                    and elapsed * (1 + step / len(rounds)) > seconds):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    elapsed = time.monotonic() - start

    ok = [r for r in rounds if r["report"] is not None]
    plain = [r["report"] for r in ok if not r["traced"]]
    traced_reports = [r["report"] for r in ok if r["traced"]]
    if not plain or (trace and not traced_reports):
        return None
    if trace:
        metrics, count_errors = per_layer_metrics(
            [r["spans"] for r in traced_reports],
            [r["main_s"] for r in plain], [r["main_s"] for r in traced_reports])
        errors += count_errors
    else:
        metrics = {
            "setup_s": {"value": statistics.median(r["setup_s"] for r in plain),
                        "unit": "s"},
            "samples_per_s": {
                "value": statistics.median(samples / r["main_s"] for r in plain),
                "unit": "1/s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain),
                            "unit": "MB"},
        }
    result = {"correct": not errors, "attempted": len(rounds) * samples,
              "failed": (len(rounds) - len(ok)) * samples, "metrics": metrics}
    details = {
        "workload": command, "seed": seed, "seconds": seconds, "trace": trace,
        "elapsed_s": elapsed, "samples_per_round": samples,
        "rounds": len(rounds), "untraced_rounds": len(plain),
        "traced_rounds": len(traced_reports),
        "statistic": "median over rounds; no tail percentile below 40 rounds",
        "environment": {
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": plain[0]["numpy"], "scipy": plain[0]["scipy"],
            "SCHEMELAB_WORKERS": "1", "machine": platform.machine(),
            "thread_pins": {k: os.environ[k] for k in THREAD_PINS if k in os.environ},
        },
        "config": config, "errors": errors, "result": result,
        "per_round": [{k: v for k, v in (r["report"] or {}).items() if k != "spans"}
                      | {"traced": r["traced"]} for r in rounds],
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", f"{command}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(details, fh, indent=2)
        fh.write("\n")
    return result, details, path


def _print_summary(result, details, path):
    env = details["environment"]
    print(f"{details['workload']} seed {details['seed']}: {details['rounds']} rounds "
          f"({details['traced_rounds']} traced) in {details['elapsed_s']:.1f} s; "
          f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    print(f"  nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"scipy {env['scipy']}, SCHEMELAB_WORKERS 1, "
          f"thread pins {env['thread_pins'] or 'none'}")
    print("  times are medians over the rounds; counts are per round")
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
    for err in details["errors"]:
        print(f"  CHECK FAILED: {err}")
    print(f"  result file: {os.path.relpath(path, ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "schemelab", "cli.py")):
        print(f"perfbench: no schemelab sources under {SRC}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for command in workloads:
        outcome = run_workload(command, args.seed, args.seconds, bool(args.trace))
        if outcome is None:
            print(f"perfbench: every round of {command} failed", file=sys.stderr)
            return 1
        result, details, path = outcome
        _print_summary(result, details, path)
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
