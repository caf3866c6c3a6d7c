"""JSON configuration schema (version 1) and its loader.

The schema is one table per block: TOP, SCHEME (``scheme`` and ``scheme2``),
FUNCTION (their ``f`` and ``h``), MODEL, EXPERIMENT, SOLVER (``N``, ``M``,
``dt``, ``T``, ``record_times``, ``blowup_cap``, ``eps_ref``,
``conservation_form`` and ``initial``), INITIAL and NORMS.  A Row gives a
key, its type (a key of _TYPES, or the table of a nested block), its default
(a value, a function of the config read so far, or REQUIRED), its range
(text, test(value, config read so far)) and the kinds the range applies to
(None: every kind).  A key in no table is a config error.  A key that a kind
does not read is accepted, so one file serves several kinds.  The checks
that code callers rely on stay with what the loader builds and are called,
not restated: the registries, NormConfig and SolverConfig.  The workbench
fixes nu = 1: no key sets it.  The README's "Config schema" table lists
every row.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple

from schemelab.experiments import ConfigError, ExperimentConfig
from schemelab.models import make_model
from schemelab.schemes import AtomicSignedMeasure, CutoffScheme, make_function, make_scheme
from schemelab.spectral import NormConfig

KIND_BY_COMMAND = {"check-scheme": "scheme-audit", "lambda": "lambda-table",
                   "lift": "lift", "fluctuation": "fluctuation", "simulate": "simulate",
                   "converge": "converge", "correction": "correction"}
STEPPED = ("simulate", "converge", "correction")        # kinds that run the solver
TIMED = ("lambda-table", "lift", "fluctuation")         # kinds that read times
REQUIRED = object()
Row = namedtuple("Row", "key type default range kinds", defaults=(None, None))


def _finite(v):
    return type(v) in (int, float) and math.isfinite(v)


_TYPES = {                        # an int is never a bool, a float never a bool
    "int": ("an integer", lambda v: type(v) is int),
    "float": ("a finite number", _finite),
    "bool": ("true or false", lambda v: type(v) is bool),
    "str": ("a string", lambda v: type(v) is str),
    "floats": ("a list of finite numbers",
               lambda v: type(v) is list and all(map(_finite, v))),
    "pairs": ("a list of [location, weight] pairs",
              lambda v: type(v) is list and all(type(p) is list and len(p) == 2
                                                and all(map(_finite, p)) for p in v)),
    "object": ("an object", lambda v: type(v) is dict),
}

FUNCTION = (
    Row("name", "str", REQUIRED),
    Row("params", "object", {}),
)
SCHEME = (                      # a named scheme, or f, h and mu
    Row("name", "str", None),
    Row("f", FUNCTION, None),
    Row("h", FUNCTION, None),
    Row("mu", "pairs", None),
    Row("c_f", "float", 0.25),
)
MODEL = (
    Row("n", "int", 1),
    Row("F", "str", "zero"),
    Row("G", "str", "zero"),
    Row("theta", "str", "one"),
)
EXPERIMENT = (
    Row("eps_ladder", "floats", (0.25,),
        ("non-empty, positive and strictly decreasing",
         lambda v, r: len(v) > 0 and v[-1] > 0 and all(a > b for a, b in zip(v, v[1:])))),
    Row("samples", "int", 1, (">= 1", lambda v, r: v >= 1)),
    Row("alpha", "float", 0.45, ("in (0, 1/2)", lambda v, r: 0 < v < 0.5),
        ("lift", "fluctuation")),
    Row("times", "floats", (0.5,),
        ("non-empty, positive and distinct",
         lambda v, r: len(v) > 0 and min(v) > 0 and len(set(v)) == len(v)), TIMED),
)
INITIAL = (
    Row("kind", "str", "zero"),
    Row("amplitude", "float", 0.0),
    Row("mode", "int", 1),
)
SOLVER = (
    Row("N", "int", 64, (">= 0, and >= 1 for lambda-table, lift and fluctuation",
                         lambda v, r: v >= (r["kind"] in TIMED))),
    Row("M", "int", lambda r: 3 * r["solver"]["N"] + 2,
        (">= 2N+1", lambda v, r: v >= 2 * r["solver"]["N"] + 1), ("lift", "fluctuation")),
    Row("dt", "float", 1e-3),
    Row("T", "float", 0.1),
    Row("record_times", "floats", None,                   # ExperimentConfig's (T,)
        ("a list with a time > 0", lambda v, r: v is None or max(v, default=0) > 0),
        ("converge", "correction")),
    Row("blowup_cap", "float", 1e6, ("> 0", lambda v, r: v > 0), STEPPED),
    Row("eps_ref", "float", 1e-2, ("in (0, the finest eps_ladder rung)",
                                   lambda v, r: 0 < v < r["experiment"]["eps_ladder"][-1]),
        ("converge",)),
    Row("conservation_form", "bool", False),
    Row("initial", INITIAL, {}),
)
NORMS = (
    Row("alpha_tilde", "float", 0.34),
    Row("stride", "int", 4),
)
TOP = (                         # experiment before solver: eps_ref reads the ladder
    Row("version", "int", REQUIRED, ("1", lambda v, r: v == 1)),
    Row("kind", "str", REQUIRED, ("one of " + ", ".join(KIND_BY_COMMAND.values()),
                                  lambda v, r: v in KIND_BY_COMMAND.values())),
    Row("seed", "int", 0, (">= 0", lambda v, r: v >= 0)),
    Row("scheme", SCHEME, REQUIRED),
    Row("scheme2", SCHEME, None, ("given", lambda v, r: v is not None), ("correction",)),
    Row("model", MODEL, {}),
    Row("experiment", EXPERIMENT, {}),
    Row("solver", SOLVER, {}),
    Row("norms", NORMS, {}),
)


def _read(table, block, prefix: str, out: dict, config: dict) -> None:
    """Check one block against its table and store each value, or its
    default, in ``out``: a nested block as a dict of its own, which
    ``config``, the whole config read so far, holds too."""
    known = [row.key for row in table]
    for key in block:
        if key not in known:
            raise ConfigError(f"unknown key {prefix}{key}; "
                              f"{prefix[:-1] or 'the top level'} takes {', '.join(known)}")
    for row in table:
        path = prefix + row.key
        nested = not isinstance(row.type, str)
        if row.key in block:
            value = block[row.key]
            name, test = _TYPES["object" if nested else row.type]
            if not test(value):
                raise ConfigError(f"{path} must be {name}, not {value!r}")
            if row.type == "float":
                value = float(value)
            elif row.type == "floats":
                value = tuple(map(float, value))
        elif row.default is REQUIRED:
            raise ConfigError(f"missing key {path}")
        else:
            value = row.default(config) if callable(row.default) else row.default
        if row.range and (row.kinds is None or config["kind"] in row.kinds) \
                and not row.range[1](value, config):
            kinds = "" if row.kinds is None else f" for {config['kind']}"
            raise ConfigError(f"{path} must be {row.range[0]}{kinds}, not {value!r}")
        if nested and value is not None:
            out[row.key] = {}
            _read(row.type, value, path + ".", out[row.key], config)
        else:
            out[row.key] = value


def _scheme(block: dict, path: str) -> CutoffScheme:
    f, h = (block[key] and make_function(block[key]["name"], **block[key]["params"])
            for key in ("f", "h"))
    if block["name"] is not None:
        return make_scheme(block["name"], f=f, h=h, c_f=block["c_f"])
    if None in (f, h, block["mu"]):
        raise ConfigError(f"{path} needs a name, or f, h and mu")
    return CutoffScheme(f=f, h=h, mu=AtomicSignedMeasure(block["mu"]), c_f=block["c_f"])


def parse_config(raw: dict, kind: str | None = None,
                 seed: int | None = None) -> ExperimentConfig:
    """The ExperimentConfig of a parsed JSON file; ``kind`` and ``seed``,
    when given, replace the file's."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    overrides = {key: value for key, value in (("kind", kind), ("seed", seed))
                 if value is not None}
    config = {}
    _read(TOP, {**raw, **overrides}, "", config, config)
    solver = config["solver"]
    initial = {f"initial_{key}": value for key, value in solver.pop("initial").items()}
    try:
        # each key of the experiment and solver blocks is the field of its name
        cfg = ExperimentConfig(
            kind=config["kind"], master_seed=config["seed"],
            scheme=_scheme(config["scheme"], "scheme"),
            scheme2=config["scheme2"] and _scheme(config["scheme2"], "scheme2"),
            model=make_model(**config["model"]), norms=NormConfig(**config["norms"]),
            **initial, **solver, **config["experiment"])
        if cfg.kind in STEPPED:
            cfg.solver_config(cfg.eps_ladder[0]).steps     # the solver's own checks
    except KeyError as exc:                                # an unknown registry name
        raise ConfigError(exc.args[0]) from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def load_config(path, kind: str | None = None,
                seed: int | None = None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(raw, kind=kind, seed=seed)
