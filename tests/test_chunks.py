"""Chunked Monte-Carlo experiments against the per-sample path.

``converge_experiment`` and ``correction_experiment`` step the runs of a
chunk of samples as one batch, each sample with its own noise stream, and
``fluctuation_experiment`` lifts a chunk at every eps of the ladder from
one draw of its increments.  ``sample_oracle`` is the path they replace,
one batch per sample or one (eps, chunk) pair at a time; every check here
asks for bitwise equality with it.
"""

import dataclasses

import numpy as np
import pytest

import sample_oracle as oracle
from schemelab import experiments
from schemelab.correction import lambda_exact
from schemelab.experiments import (
    ExperimentConfig,
    converge_experiment,
    correction_experiment,
    fluctuation_experiment,
)
from schemelab.models import ModelFunctions, make_model
from schemelab.schemes import make_function, make_scheme
from schemelab.solver import (
    NumericalAbort,
    SolverConfig,
    draw_noise,
    simulate_coupled,
)
from schemelab.spectral import NormConfig


def small_cfg(kind, **overrides):
    base = dict(
        kind=kind, scheme=make_scheme("forward_difference"),
        scheme2=make_scheme("central_difference"),
        model=make_model(1, G="state", theta="one"),
        eps_ladder=(0.25, 0.125, 0.0625), samples=6, master_seed=5, N=16, M=64,
        dt=1e-3, T=0.04, record_times=(0.02, 0.04), eps_ref=0.01,
        norms=NormConfig(stride=8))
    base.update(overrides)
    return ExperimentConfig(**base)


def oracle_rows(cfg):
    Lambda = lambda_exact(cfg.scheme).value
    if cfg.kind == "converge":
        return [r for s in range(cfg.samples) for r in oracle.converge_rows(cfg, Lambda, s)]
    return [oracle.correction_row(cfg, Lambda, s) for s in range(cfg.samples)]


RUNNERS = {"converge": converge_experiment, "correction": correction_experiment}


def assert_rows_identical(new, old):
    # repr keeps every bit of a float and prints nan equal to nan
    assert repr(new) == repr(old)


@pytest.mark.parametrize("chunk", [1, 3, 8])
@pytest.mark.parametrize("kind", ["converge", "correction"])
def test_rows_equal_the_per_sample_path(monkeypatch, kind, chunk):
    """Nine samples over 300 steps, read in noise sub-blocks of 8 to 85
    steps (3 to 32 runs per chunk), most of them ending in a partial one."""
    scheme = make_scheme("forward_difference", h=make_function("indicator", cutoff=1.0))
    cfg = small_cfg(kind, scheme=scheme, samples=9, T=0.3,
                    record_times=(0.1, 0.2, 0.3),
                    model=make_model(1, G="state", theta="bounded_sqrt"))
    monkeypatch.setattr(experiments, "CHUNK_SAMPLES", chunk)
    assert len(experiments._chunks(cfg.samples)) == -(-cfg.samples // chunk)
    assert_rows_identical(RUNNERS[kind](cfg).per_sample, oracle_rows(cfg))


@pytest.mark.parametrize("chunk", [1, 3, 8])
@pytest.mark.parametrize("n", [1, 2])
def test_fluctuation_rows_equal_the_per_eps_path(monkeypatch, n, chunk):
    """Nine samples, three eps and three times: one pass over the ladder
    with shared draws, one plan per eps and the statistic of a chunk at
    once give the rows of one (eps, chunk) pair at a time."""
    cfg = small_cfg("fluctuation", model=ModelFunctions(n=n, F=None, G=None, DG=None, theta=None),
                    samples=9, M=40, times=(0.1, 0.5, 2.0))
    monkeypatch.setattr(experiments, "CHUNK_SAMPLES", chunk)
    assert_rows_identical(fluctuation_experiment(cfg).per_sample, oracle.fluctuation_rows(cfg))


def test_truncation_stays_in_its_sample():
    """Sample 3 loses its reference and coarsest run to the cap, samples 0,
    1 and 5 lose every run and samples 2 and 4 none; the chunk's rows are the
    per-sample rows, and the untouched samples' rows are those of an
    uncapped run."""
    cfg = small_cfg("converge", master_seed=6, blowup_cap=0.7)
    rows = converge_experiment(cfg).per_sample
    assert_rows_identical(rows, oracle_rows(cfg))
    cut = {(r["sample"], r["eps"]) for r in rows if r["truncated"]}
    assert (3, 0.25) in cut and (3, 0.125) not in cut
    assert not {s for s, _ in cut} & {2, 4}
    free = converge_experiment(dataclasses.replace(cfg, blowup_cap=1e6)).per_sample
    assert not any(r["truncated"] for r in free)
    untouched = [[r for r in table if r["sample"] in (2, 4)] for table in (rows, free)]
    assert_rows_identical(*untouched)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("chunk", [1, 3, 8])
def test_abort_reports_the_lowest_failing_sample(monkeypatch, chunk):
    """Samples 1, 2, 4 and 5 go non-finite, 2 and 4 earlier than 1; the
    experiment aborts at sample 1's time, as the serial path does."""
    model = dataclasses.replace(make_model(1, G="state", theta="one"),
                                F=lambda u: np.where(np.abs(u) > 0.6, np.inf, 0.0))
    cfg = small_cfg("correction", model=model, eps_ladder=(0.0625,), master_seed=11)
    Lambda1 = lambda_exact(cfg.scheme).value
    times = {}
    for s in range(cfg.samples):
        try:
            oracle.correction_row(cfg, Lambda1, s)
        except NumericalAbort as exc:
            times[s] = exc.time
    first = min(times)
    assert first > 0 and any(times[s] < times[first] for s in times if s > first)
    monkeypatch.setattr(experiments, "CHUNK_SAMPLES", chunk)
    with pytest.raises(NumericalAbort) as excinfo:
        correction_experiment(cfg)
    assert excinfo.value.time == times[first]


def test_runs_sharing_a_drift_evaluate_it_once_per_step():
    """Four drift runs of three Lambdas and a run with Lambda = 0: each step
    makes one theta call, on the whole batch, whose grid gives both the
    noise term and the drifts' theta theta^T, and one DG call, on the drift
    runs; every run has the bits of the run stepped alone."""
    base = make_model(1, G="state", theta="bounded_sqrt")
    scheme = make_scheme("forward_difference")
    calls = []

    def counted(name, f):
        def wrapped(u):
            calls.append((name, u.shape))
            return f(u)
        return wrapped

    model = dataclasses.replace(base, DG=counted("DG", base.DG),
                                theta=counted("theta", base.theta))

    def cfg(eps, Lambda):
        return SolverConfig(scheme=scheme, eps=eps, N=8, M=32, dt=1e-3, T=0.02,
                            model=model, Lambda=Lambda, record_times=(0.01, 0.02))

    configs = [cfg(eps, Lambda) for eps, Lambda in zip((0.5, 0.25, 0.125, 0.0625, 0.03125),
                                                       (0.25, 0.0, -0.4, 0.25, 0.1))]
    inc = draw_noise(np.random.default_rng(3), 20, 8, 1)
    runs = simulate_coupled(configs, inc)
    assert calls == [("theta", (1, 5, 32)), ("DG", (1, 4, 32))] * 20
    for config, run in zip(configs, runs):
        alone = simulate_coupled([config], inc)[0]
        assert all(np.array_equal(x, y) for x, y in zip(run.coeffs, alone.coeffs))
