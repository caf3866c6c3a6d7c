"""In-memory spans around the public functions of schemelab's layers.

The benchmark never edits the library.  It rebinds each traced function, in
every schemelab module that holds a reference to it, to a wrapper that
records one span per call: (name, start, end, parent index, amount).  A
function imported by name (``experiments.simulate``, ``lift.eval_modes_on_grid``)
is therefore traced where it is called, and ``solver.step`` is traced as
called from ``simulate``.  ``uninstall`` puts every original object back.

Spans are kept in memory and reduced at the end of the run: a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# module -> public functions timed in that layer
TRACED = {
    "solver": ("step", "simulate", "draw_noise", "corrected_reference"),
    "spectral": ("to_physical", "holder_seminorm_estimate",
                 "eval_modes_on_grid", "sobolev_minus_alpha_norm"),
    "lift": ("lift_XX", "evolve_modes", "draw_increments", "d_eps_xx",
             "fluctuation_statistic"),
    "correction": ("lambda_eps", "lambda_exact"),
    "cli": ("main",),
}

# span name -> amount recorded from the return value
AMOUNTS = {
    "solver.draw_noise": lambda inc: inc.nbytes / 1e6,          # MB drawn
    "correction.lambda_exact": lambda res: res.evaluations,     # integrand calls
}

EXPERIMENT_SPAN = "experiments.experiment"


class Tracer:
    """Records nested spans of the wrapped calls of one process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, amount]
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        amount_of = AMOUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if amount_of is not None:
                rec[4] = amount_of(result)
            return result

        return traced


def summarize(spans) -> dict:
    """Per span name: calls, total_s, self_s and the summed amount."""
    child_time = [0.0] * len(spans)
    for _name, start, end, parent, _amount in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, _parent, amount) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                    "amount": 0})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += (end - start) - child_time[i]
        agg["amount"] += amount
    return out


def _schemelab_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == "schemelab" or name.startswith("schemelab."))]


def install(tracer: Tracer, command: str):
    """Wrap every traced function in every schemelab module that binds it.

    ``command`` names the experiment whose ``<command>_experiment`` function
    is traced as ``experiments.experiment``.  Returns the undo list for
    ``uninstall``.
    """
    targets = []
    for modname, names in TRACED.items():
        home = importlib.import_module(f"schemelab.{modname}")
        targets += [(f"{modname}.{fn}", getattr(home, fn)) for fn in names]
    experiments = importlib.import_module("schemelab.experiments")
    runner = getattr(experiments, f"{command}_experiment")
    targets.append((EXPERIMENT_SPAN, runner))

    undo = []
    modules = _schemelab_modules()
    for name, original in targets:
        wrapped = tracer.wrap(name, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        if original is runner:
            # the CLI's command table captured the experiment function in a
            # closure at import time; rebinding module names cannot reach it
            cli = importlib.import_module("schemelab.cli")
            undo.append((cli._COMMANDS, command, cli._COMMANDS[command]))
            cli._COMMANDS[command] = cli._record_command(wrapped)
    return undo


def uninstall(undo) -> None:
    for target, key, original in reversed(undo):
        if isinstance(target, dict):
            target[key] = original
        else:
            setattr(target, key, original)
