"""The replayable noise stream against the array draw it replaces.

``draw_noise`` holds a run's whole noise; ``NoiseStream`` replays it block
by block from saved generator states.  A batch may read several such
sources, one noise group each, and transforms its noise in sub-blocks.
Every check here asks for bitwise equality or bounds traced memory: the
stream and the sub-blocks exist to change memory, not numbers.
"""

import tracemalloc

import numpy as np
import pytest

import solver_oracle as oracle
from test_coupled import assert_same_run
from schemelab.correction import lambda_exact
from schemelab.experiments import (
    ExperimentConfig,
    _correction_chunk,
    _correction_configs,
)
from schemelab.lift import draw_increments
from schemelab.models import make_model
from schemelab.schemes import make_scheme
from schemelab.solver import (
    NOISE_BLOCK,
    NoiseStream,
    SolverConfig,
    _Operators,
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


def test_noise_groups_match_their_solo_batches():
    """Five noise sources, three runs each: a stream used by several runs,
    arrays and a stream given once per run.  The 15-run batch transforms
    its noise in sub-blocks shorter than a block, once per group for the
    runs of equal multipliers; every run, its reference field and its
    truncation equal those of its group's own batch."""
    forward, central = make_scheme("forward_difference"), make_scheme("central_difference")
    model = make_model(1, G="state", theta="one")
    steps, N = 2 * NOISE_BLOCK + 44, 8

    def cfg(scheme, **kw):
        return SolverConfig(scheme=scheme, eps=0.25, N=N, M=32, dt=1e-3,
                            T=steps * 1e-3, model=model, blowup_cap=1.0,
                            record_times=(0.1, 0.2, steps * 1e-3), **kw)

    trio = [cfg(forward), cfg(central, extra_drift=lambda u: 12.0 * u,
                              extra_drift_label="growth"), cfg(central)]
    seeds = (11, 12, 13, 14, 15)
    sources = [NoiseStream(np.random.default_rng(seeds[0]), steps, N, 1),
               draw_noise(np.random.default_rng(seeds[1]), steps, N, 1),
               NoiseStream(np.random.default_rng(seeds[2]), steps, N, 1),
               draw_noise(np.random.default_rng(seeds[3]), steps, N, 1)]
    per_run = [src for src in sources for _ in trio]
    # the same noise given once per run: three sources of one group each
    per_run += [NoiseStream(np.random.default_rng(seeds[4]), steps, N, 1)
                for _ in trio]
    # h = 1 gives both schemes the same noise multipliers: one noise per
    # group, and the stream given once per run is three groups
    groups = [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 5, 6]
    ops = _Operators(trio * 5, groups)
    assert list(ops.noise_row) == groups
    assert list(ops.take(np.arange(15) % 3 == 1).noise_row) == [0, 1, 2, 3, 4]
    runs = simulate_coupled(trio * 5, per_run, record_reference=True)
    truncated = [r.truncation_time is not None for r in runs]
    assert any(truncated) and not all(truncated)
    for g, seed in enumerate(seeds):
        solo = simulate_coupled(trio, draw_noise(np.random.default_rng(seed), steps, N, 1),
                                record_reference=True)
        for a, b in zip(runs[3 * g:3 * g + 3], solo):
            assert a.times == b.times and a.truncation_time == b.truncation_time
            for x, y in zip(a.coeffs + a.X_coeffs, b.coeffs + b.X_coeffs):
                assert np.array_equal(x, y)
    with pytest.raises(ValueError, match="one noise source per run"):
        simulate_coupled(trio, per_run[:2])


def correction_chunk_peak(samples):
    """Peak traced memory of one correction chunk of ``samples`` samples at
    a shape whose pre-drawn noise is 16.6 MB per sample, and that size."""
    N, dt, steps = 64, 1e-5, 16000
    cfg = ExperimentConfig(
        kind="correction", scheme=make_scheme("forward_difference"),
        scheme2=make_scheme("central_difference"),
        model=make_model(1, G="state", theta="one"), eps_ladder=(0.0625,),
        samples=samples, master_seed=3, N=N, M=3 * N, dt=dt, T=steps * dt,
        record_times=(steps * dt / 2, steps * dt))
    noise_bytes = steps * (N + 1) * cfg.model.n * 16
    assert noise_bytes >= 16e6
    configs = _correction_configs(cfg, lambda_exact(cfg.scheme).value)
    tracemalloc.start()
    try:
        rows = _correction_chunk((cfg, configs, range(samples)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == samples
    return peak, noise_bytes


def test_correction_sample_holds_a_fraction_of_its_noise():
    """One sample's peak traced memory stays below a quarter of its
    pre-drawn noise (the array draw alone exceeds it)."""
    peak, noise_bytes = correction_chunk_peak(1)
    assert peak < noise_bytes / 4


def test_correction_chunk_holds_a_fraction_of_its_noise_per_sample():
    peak, noise_bytes = correction_chunk_peak(3)
    assert peak < 3 * noise_bytes / 4


def test_noise_transform_stays_small_for_a_wide_batch():
    """Eight samples of three runs at N = 256, M = 768 over one block: the
    loop's peak traced memory stays below what one block's noise grid for
    all 24 runs would take, because the noise is transformed in sub-blocks
    of at most NOISE_ROWS grid rows."""
    model = make_model(1, G="state", theta="one")
    N, M, steps, samples = 256, 768, NOISE_BLOCK, 8
    trio = [SolverConfig(scheme=make_scheme(name), eps=1 / 32, N=N, M=M, dt=2e-5,
                         T=steps * 2e-5, model=model)
            for name in ("forward_difference", "central_difference", "central_difference")]
    streams = [NoiseStream(np.random.default_rng(s), steps, N, 1) for s in range(samples)]
    block_grid_bytes = steps * samples * len(trio) * M * 8
    tracemalloc.start()
    try:
        simulate_coupled(trio * samples, [s for s in streams for _ in trio])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < block_grid_bytes
