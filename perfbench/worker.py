"""One round of a workload in a fresh process: set up, run the CLI, report.

    python3 perfbench/worker.py --src SRC --command CMD --config PATH \
        --seed N --out DIR [--trace]

Set-up is the wall time to import schemelab and parse the config.  The
``schemelab.cli.main`` call is timed on its own, with its stdout sent to
``DIR/cli_stdout.txt``.  The last stdout line is one JSON object with
``exit_code``, ``setup_s``, ``main_s``, ``peak_rss_mb``, the numpy and scipy
versions, and with ``--trace`` the span summary.  Only the standard library
is imported before the set-up clock starts.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--command", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, args.src)

    t0 = time.perf_counter()
    import schemelab.cli as cli
    from schemelab.config import load_config

    load_config(args.config, kind=args.command, seed=args.seed)
    setup_s = time.perf_counter() - t0

    import numpy
    import scipy

    undo = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        undo = spans.install(tracer, args.command)
    argv = [args.command, "--config", args.config, "--seed", str(args.seed),
            "--out", args.out]
    os.makedirs(args.out, exist_ok=True)
    try:
        with open(os.path.join(args.out, "cli_stdout.txt"), "w") as fh, \
                contextlib.redirect_stdout(fh):
            t1 = time.perf_counter()
            code = cli.main(argv)
            main_s = time.perf_counter() - t1
    finally:
        if undo is not None:
            spans.uninstall(undo)

    report = {
        "exit_code": code,
        "setup_s": setup_s,
        "main_s": main_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if args.trace:
        report["spans"] = spans.summarize(tracer.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
