"""Command-line harness.

Subcommands: check-scheme, lambda, lift, fluctuation, simulate, converge,
correction.  Each takes --config PATH, --seed U64 (overriding the config
seed), --out DIR.  Exit codes: 0 success, 2 validation failure (a config that
the schema tables of ``schemelab.config`` or the objects it builds reject, a
scheme failing its audit, or a bad SCHEMELAB_WORKERS), 3 numerical abort.
SCHEMELAB_WORKERS is the only environment knob (process count for sample
dispatch, a positive integer).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from schemelab.config import KIND_BY_COMMAND, ConfigError, load_config
from schemelab.correction import QuadratureError, lambda_exact
from schemelab.experiments import (
    ExperimentFailure,
    converge_experiment,
    correction_experiment,
    fluctuation_experiment,
    lambda_decay_table,
    lift_experiment,
    _write_csv,
)
from schemelab.schemes import validate_scheme
from schemelab.solver import NumericalAbort, simulate
from schemelab.spectral import grid_points

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _cmd_check_scheme(cfg, out_dir):
    report = validate_scheme(cfg.scheme)
    with open(os.path.join(out_dir, "scheme_report.json"), "w") as fh:
        fh.write(report.to_json() + "\n")
    for check in report.checks:
        print(f"{'PASS' if check.passed else 'FAIL'} {check.name}: "
              f"{check.value:.6g}")
    return EXIT_OK if report.passed else EXIT_VALIDATION


def _cmd_lambda(cfg, out_dir):
    result = lambda_exact(cfg.scheme)
    how = ("closed form" if result.evaluations == 0 else
           f"error estimate {result.error_estimate:.3g}, "
           f"{result.evaluations} integrand evaluations")
    print(f"lambda = {result.value:.12g} ({how})")
    table = lambda_decay_table(cfg)
    _write_csv(os.path.join(out_dir, "lambda_table.csv"), table["rows"])
    with open(os.path.join(out_dir, "lambda.json"), "w") as fh:
        json.dump(table, fh, indent=2, default=float)
        fh.write("\n")
    return EXIT_OK


def _cmd_simulate(cfg, out_dir):
    eps = cfg.eps_ladder[0]
    solver_cfg = cfg.solver_config(eps)
    traj = simulate(solver_cfg, seed=cfg.master_seed)
    xs = grid_points(cfg.M)
    rows = []
    for i, t in enumerate(traj.times):
        for j, values in enumerate(traj.grid(i, cfg.M)):
            for x, value in zip(xs, values):
                rows.append({"t": t, "component": j, "x": x, "value": value})
    _write_csv(os.path.join(out_dir, "trajectory.csv"), rows)
    meta = {
        "config_hash": cfg.config_hash(),
        "seed": cfg.master_seed,
        "eps": eps,
        "truncation_time": traj.truncation_time,
        "recorded_times": list(traj.times),
    }
    with open(os.path.join(out_dir, "run.json"), "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    print(f"simulated to T = {solver_cfg.T} "
          f"({'truncated at %g' % traj.truncation_time if traj.truncation_time else 'no truncation'})")
    return EXIT_OK


def _record_command(runner):
    def cmd(cfg, out_dir):
        record = runner(cfg)
        record.save(out_dir)
        if record.fit:
            slope = record.fit.get("slope")
            print(f"fitted slope: {slope if slope is not None else 'degenerate'}")
        for agg in record.aggregates:
            print(json.dumps(agg, default=float))
        if record.extras.get("ratio") is not None:
            print(f"gap ratio (uncorrected/corrected): {record.extras['ratio']:.4g}")
        return EXIT_OK

    return cmd


_COMMANDS = {
    "check-scheme": _cmd_check_scheme,
    "lambda": _cmd_lambda,
    "simulate": _cmd_simulate,
    "lift": _record_command(lift_experiment),
    "fluctuation": _record_command(fluctuation_experiment),
    "converge": _record_command(converge_experiment),
    "correction": _record_command(correction_experiment),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schemelab",
        description="Workbench for Fourier-multiplier approximation schemes "
                    "of Burgers-type SPDEs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None,
                       help="master seed (overrides the config)")
        p.add_argument("--out", default="out", help="output directory")
    return parser


# built once, at import: the first parser's gettext call imports locale,
# which a timed call to main should not
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = load_config(args.config, kind=KIND_BY_COMMAND[args.command],
                          seed=args.seed)
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalAbort, QuadratureError, ExperimentFailure) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
