"""JSON configuration schema (version 1) and builders.

Top-level keys:

    version      required, must be 1
    kind         experiment kind (may be overridden by the CLI subcommand)
    scheme       {"name": ...} or {"f": {...}, "h": {...}, "mu": [[z, w], ...],
                  "c_f": ..., "delta": ...}
    scheme2      optional second scheme (correction experiment)
    model        {"n": 1, "F": "zero", "G": "state", "theta": "one"}
    solver       {"N", "M", "dt", "T", "record_times", "blowup_cap",
                  "eps_ref", "initial": {"kind", "amplitude", "mode"}}
    experiment   {"eps_ladder", "samples", "alpha", "times", "nu"}
    norms        {"alpha_tilde", "stride"}
    seed         master seed (unsigned integer)
"""

from __future__ import annotations

import json

from schemelab.experiments import ConfigError, ExperimentConfig, require_unit_nu
from schemelab.models import make_model
from schemelab.schemes import AtomicSignedMeasure, CutoffScheme, make_function, make_scheme
from schemelab.spectral import NormConfig

KNOWN_KINDS = ("scheme-audit", "lambda-table", "lift", "fluctuation",
               "simulate", "converge", "correction")


def _function_from_block(block):
    if not isinstance(block, dict) or "name" not in block:
        raise ConfigError("function blocks look like "
                          '{"name": ..., "params": {...}}')
    return make_function(block["name"], **dict(block.get("params") or {}))


def build_scheme(block) -> CutoffScheme:
    if not isinstance(block, dict):
        raise ConfigError("scheme block must be an object")
    try:
        if "name" in block:
            extra = {}
            if "f" in block:
                extra["f"] = _function_from_block(block["f"])
            if "h" in block:
                extra["h"] = _function_from_block(block["h"])
            return make_scheme(block["name"], c_f=block.get("c_f", 0.25),
                               delta=block.get("delta", 1.0), **extra)
        return CutoffScheme(
            f=_function_from_block(block["f"]),
            h=_function_from_block(block["h"]),
            mu=AtomicSignedMeasure(block["mu"]),
            c_f=float(block.get("c_f", 0.25)),
            delta=float(block.get("delta", 1.0)),
        )
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad scheme block: {exc}") from exc


def build_model(block):
    block = dict(block or {})
    try:
        return make_model(n=block.get("n", 1), F=block.get("F", "zero"),
                          G=block.get("G", "zero"),
                          theta=block.get("theta", "one"))
    except KeyError as exc:
        raise ConfigError(f"bad model block: {exc}") from exc


def build_norms(block) -> NormConfig:
    block = block or {}
    try:
        if "stride" in block:
            _integer(block, "stride", 4)        # NormConfig checks >= 1
        return NormConfig(**block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad norms block: {exc}") from exc


def _integer(block: dict, key: str, default: int) -> int:
    value = block.get(key, default)
    if type(value) is not int:                          # no bool, no float
        raise ConfigError(f"{key} must be an integer, not {value!r}")
    return value


def parse_config(raw: dict, kind: str | None = None,
                 seed: int | None = None) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if raw.get("version") != 1:
        raise ConfigError("config must declare version 1")
    kind = kind or raw.get("kind")
    if kind not in KNOWN_KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    if kind == "correction" and not raw.get("scheme2"):
        raise ConfigError("correction experiments need a scheme2 block")

    solver = dict(raw.get("solver") or {})
    experiment = dict(raw.get("experiment") or {})
    initial = dict(solver.get("initial") or {"kind": "zero"})

    try:
        master_seed = seed if seed is not None else raw.get("seed", 0)
        N = _integer(solver, "N", 64)
        least = 1 if kind in ("lambda-table", "lift", "fluctuation") else 0
        if N < least:
            raise ValueError(f"{kind} needs N >= {least}, not {N}")
        cfg = ExperimentConfig(
            kind=kind,
            scheme=build_scheme(raw["scheme"]),
            scheme2=build_scheme(raw["scheme2"]) if raw.get("scheme2") else None,
            model=build_model(raw.get("model")),
            eps_ladder=tuple(experiment.get("eps_ladder", [0.25])),
            samples=_integer(experiment, "samples", 1),
            master_seed=master_seed,
            N=N,
            M=_integer(solver, "M", 3 * N + 2),
            dt=float(solver.get("dt", 1e-3)),
            T=float(solver.get("T", 0.1)),
            record_times=tuple(solver.get("record_times", [float(solver.get("T", 0.1))])),
            blowup_cap=float(solver.get("blowup_cap", 1e6)),
            eps_ref=float(solver.get("eps_ref", 1e-2)),
            conservation_form=bool(solver.get("conservation_form", False)),
            norms=build_norms(raw.get("norms")),
            alpha=float(experiment.get("alpha", 0.45)),
            times=tuple(experiment.get("times", [0.5])),
            nu=float(experiment.get("nu", 1.0)),
            initial_kind=initial.get("kind", "zero"),
            initial_amplitude=float(initial.get("amplitude", 0.0)),
            initial_mode=_integer(initial, "mode", 1),
        )
        if kind in ("simulate", "converge", "correction"):
            require_unit_nu(cfg)
            cfg.solver_config(cfg.eps_ladder[0]).steps     # the solver's own checks
        elif kind in ("lift", "fluctuation") and cfg.M < 2 * cfg.N + 1:
            raise ValueError("need M >= 2N+1")             # the lift's grid
    except KeyError as exc:
        raise ConfigError(f"missing config key: {exc}") from exc
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
