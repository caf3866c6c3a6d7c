"""The replayable noise stream against the array draw it replaces.

``draw_noise`` holds a run's whole noise; ``NoiseStream`` replays it block
by block from saved generator states.  Every check here asks for bitwise
equality: the stream exists to change memory, not numbers.
"""

import tracemalloc

import numpy as np
import pytest

import solver_oracle as oracle
from test_coupled import assert_same_run
from schemelab.correction import lambda_exact
from schemelab.experiments import ExperimentConfig, _correction_sample
from schemelab.lift import draw_increments
from schemelab.models import make_model
from schemelab.schemes import make_scheme
from schemelab.solver import (
    NOISE_BLOCK,
    NoiseStream,
    SolverConfig,
    draw_noise,
    simulate,
    simulate_coupled,
)


def assert_blocks_equal(stream, drawn, order):
    for k in order:
        assert np.array_equal(stream.block(k),
                              drawn[k * NOISE_BLOCK:(k + 1) * NOISE_BLOCK])


@pytest.mark.parametrize("steps", [2 * NOISE_BLOCK, 2 * NOISE_BLOCK + 44,
                                   NOISE_BLOCK // 3])
@pytest.mark.parametrize("n", [1, 2])
def test_blocks_equal_the_array_draw(steps, n):
    N = 9
    stream_rng, array_rng = np.random.default_rng(17), np.random.default_rng(17)
    stream = NoiseStream(stream_rng, steps, N, n)
    drawn = draw_noise(array_rng, steps, N, n)
    assert stream.shape == drawn.shape
    blocks = -(-steps // NOISE_BLOCK)
    assert_blocks_equal(stream, drawn, range(blocks))
    # the generator is left where the array draw leaves it
    assert stream_rng.bit_generator.state == array_rng.bit_generator.state
    with pytest.raises(IndexError):
        stream.block(blocks)


def test_blocks_replay_out_of_order():
    steps, N, n = 3 * NOISE_BLOCK + 5, 4, 2
    stream = NoiseStream(np.random.default_rng(5), steps, N, n)
    drawn = draw_noise(np.random.default_rng(5), steps, N, n)
    assert_blocks_equal(stream, drawn, [3, 0, 2, 2, 1, 0, 3])


@pytest.mark.parametrize("seed", [0, 1, 99, 2024])
@pytest.mark.parametrize("N", [1, 7, 256])
@pytest.mark.parametrize("n", [1, 3])
def test_lift_increments_are_one_step_of_the_solver_draw(seed, N, n):
    rng = np.random.default_rng(seed)
    # the per-transition formula the lift used before it called draw_noise
    re = rng.standard_normal((N + 1, n))
    im = rng.standard_normal((N + 1, n))
    old = (re + 1j * im) / np.sqrt(2.0)
    old[0] = re[0]
    assert np.array_equal(draw_increments(np.random.default_rng(seed), N, n), old)
    assert np.array_equal(draw_noise(np.random.default_rng(seed), 1, N, n)[0], old)


def test_stream_and_array_drive_identical_runs():
    """Two runs truncate mid-block (at different blocks), one survives, and
    every run co-evolves its reference field; the runs also match the
    step-by-step oracle across the block boundaries."""
    forward, central = make_scheme("forward_difference"), make_scheme("central_difference")
    model = make_model(1, G="state", theta="one")
    steps = 2 * NOISE_BLOCK + 44

    def cfg(scheme, **kw):
        return SolverConfig(scheme=scheme, eps=0.25, N=8, M=32, dt=1e-3,
                            T=steps * 1e-3, model=model, blowup_cap=1.0,
                            record_times=(0.1, 0.2, steps * 1e-3), **kw)

    configs = [cfg(forward), cfg(central, extra_drift=lambda u: 12.0 * u,
                                 extra_drift_label="growth"), cfg(central)]
    from_stream = simulate_coupled(configs, NoiseStream(np.random.default_rng(11), steps, 8, 1),
                                   record_reference=True)
    inc = draw_noise(np.random.default_rng(11), steps, 8, 1)
    from_array = simulate_coupled(configs, inc, record_reference=True)
    cut = [r.truncation_time for r in from_stream]
    assert cut[0] is None
    cut_steps = {round(t / 1e-3) // NOISE_BLOCK: round(t / 1e-3) % NOISE_BLOCK
                 for t in cut[1:]}
    assert len(cut_steps) == 2 and 0 not in cut_steps.values()
    for a, b in zip(from_stream, from_array):
        assert a.times == b.times and a.truncation_time == b.truncation_time
        assert len(a.coeffs) == len(b.coeffs) == len(a.X_coeffs) == len(b.X_coeffs)
        for x, y in zip(a.coeffs + a.X_coeffs, b.coeffs + b.X_coeffs):
            assert np.array_equal(x, y)
    for config, run in zip(configs, from_array):
        assert_same_run(run, oracle.simulate(config, increments=inc,
                                             record_reference=True))
    # simulate(rng=...) streams the same noise
    solo = simulate(configs[0], rng=np.random.default_rng(11), record_reference=True)
    for x, y in zip(solo.coeffs + solo.X_coeffs, from_array[0].coeffs + from_array[0].X_coeffs):
        assert np.array_equal(x, y)


def test_correction_sample_holds_a_fraction_of_its_noise():
    """At a shape whose pre-drawn noise is 16.6 MB, one sample's peak traced
    memory stays below a quarter of it (the array draw alone exceeds it)."""
    N, dt, steps = 64, 1e-5, 16000
    cfg = ExperimentConfig(
        kind="correction", scheme=make_scheme("forward_difference"),
        scheme2=make_scheme("central_difference"),
        model=make_model(1, G="state", theta="one"), eps_ladder=(0.0625,),
        samples=1, master_seed=3, N=N, M=3 * N, dt=dt, T=steps * dt,
        record_times=(steps * dt / 2, steps * dt))
    noise_bytes = steps * (N + 1) * cfg.model.n * 16
    assert noise_bytes >= 16e6
    Lambda1 = lambda_exact(cfg.scheme).value
    tracemalloc.start()
    try:
        _correction_sample((cfg, Lambda1, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < noise_bytes / 4
