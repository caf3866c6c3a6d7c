"""The noise stream against the array draw it replaces.

``draw_noise`` holds a run's whole noise; ``NoiseStream`` keeps two
generator states and reads the same noise in order from them, a few steps
at a time.  A batch may read several such sources, one noise group each,
and makes its noise in sub-blocks as the stepping reaches them.  Every
check here asks for bitwise equality or bounds traced memory: the stream
and the sub-blocks exist to change memory, not numbers.
"""

import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import solver_oracle as oracle
from test_coupled import (assert_reference_matches_oracle, assert_same_run, linear_configs,
                          sub_block)
from schemelab.correction import lambda_exact
from schemelab.experiments import (
    ExperimentConfig,
    _correction_chunk,
    _correction_configs,
)
from schemelab.lift import draw_increments
from schemelab.models import make_model
from schemelab.schemes import make_function, make_scheme
from schemelab.solver import (
    NOISE_ROWS,
    NoiseStream,
    NumericalAbort,
    SolverConfig,
    _Operators,
    draw_noise,
    reference_config,
    simulate,
    simulate_coupled,
)


def assert_items_equal(items, drawn, length):
    """``items`` are ``drawn`` in order, ``length`` steps each but the last."""
    assert [len(item) for item in items[:-1]] == [length] * (len(items) - 1)
    assert 0 < len(items[-1]) <= length
    assert np.array_equal(np.concatenate(items), drawn)


@pytest.mark.parametrize("steps", [256, 300, 42, 1])
@pytest.mark.parametrize("n", [1, 2])
def test_blocks_equal_the_array_draw(steps, n):
    """The blocks that reads of 1, 7, 85, all and more than all steps yield
    join up to the array draw."""
    N = 9
    stream_rng, real_rng = np.random.default_rng(17), np.random.default_rng(17)
    stream = NoiseStream(stream_rng, steps, N, n)
    drawn = draw_noise(np.random.default_rng(17), steps, N, n)
    assert stream.shape == drawn.shape
    # the generator is left past the real parts only, where the imaginary
    # parts start, not where the array draw leaves it
    real_rng.standard_normal(drawn.shape)
    assert stream_rng.bit_generator.state == real_rng.bit_generator.state
    for length in (1, 7, 85, steps, steps + 5):
        assert_items_equal(list(stream.read(length)), drawn, length)


def test_interleaved_reads_give_equal_items():
    """Two reads of one stream, advanced in turn and on two threads, give
    the same items: a stream holds no read state."""
    steps, N, n = 3 * 85 + 5, 4, 2
    stream = NoiseStream(np.random.default_rng(5), steps, N, n)
    drawn = draw_noise(np.random.default_rng(5), steps, N, n)
    first, second = stream.read(7), stream.read(7)
    items = [[], []]
    for k in range(-(-steps // 7)):
        order = ((0, first), (1, second)) if k % 2 else ((1, second), (0, first))
        for i, reader in order:
            items[i].append(next(reader))
    for reader in (first, second):
        assert next(reader, None) is None
    for got in items:
        assert_items_equal(got, drawn, 7)
    threaded = [None, None]

    def read_all(i):
        threaded[i] = list(stream.read(3))

    workers = [threading.Thread(target=read_all, args=(i,)) for i in range(2)]
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=30)
        assert not w.is_alive()
    for got in threaded:
        assert_items_equal(got, drawn, 3)


def test_a_read_after_an_abandoned_one_gives_the_bits_of_a_fresh_stream():
    steps, N, n = 50, 6, 1
    stream = NoiseStream(np.random.default_rng(9), steps, N, n)
    abandoned = stream.read(7)
    next(abandoned), next(abandoned)
    del abandoned
    fresh = NoiseStream(np.random.default_rng(9), steps, N, n)
    for a, b in zip(stream.read(7), fresh.read(7), strict=True):
        assert np.array_equal(a, b)


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


@pytest.mark.parametrize("steps, N, n", [(2000, 256, 1), (300, 7, 3)])
def test_multi_step_draw_keeps_the_bits_of_the_complex_division(steps, N, n):
    rng = np.random.default_rng(5)
    # the formula draw_noise used before it wrote the real and imaginary parts
    # of one complex array
    re = rng.standard_normal((steps, N + 1, n))
    im = rng.standard_normal((steps, N + 1, n))
    old = (re + 1j * im) / np.sqrt(2.0)
    old[:, 0] = re[:, 0]
    assert np.array_equal(draw_noise(np.random.default_rng(5), steps, N, n), old)


def test_stream_and_array_drive_identical_runs():
    """Two runs truncate inside a noise sub-block (in different
    sub-blocks), one survives, and the runs of their reference fields, the
    linear model, all cross the cap inside a sub-block; the runs and the
    reference fields also match the step-by-step oracle across the
    sub-block boundaries."""
    forward, central = make_scheme("forward_difference"), make_scheme("central_difference")
    model = make_model(1, G="state", theta="one")
    steps = 300

    def cfg(scheme, **kw):
        return SolverConfig(scheme=scheme, eps=0.25, N=8, M=32, dt=1e-3,
                            T=steps * 1e-3, model=model, blowup_cap=1.0,
                            record_times=(0.05, 0.1, 0.2, steps * 1e-3), **kw)

    configs = [cfg(forward), cfg(central, Lambda=-8.0), cfg(central)]
    from_stream = simulate_coupled(configs, NoiseStream(np.random.default_rng(11), steps, 8, 1))
    inc = draw_noise(np.random.default_rng(11), steps, 8, 1)
    from_array = simulate_coupled(configs, inc)
    cut = [r.truncation_time for r in from_stream]
    assert cut[0] is None
    sub = sub_block(configs)
    cut_steps = {round(t / 1e-3) // sub: round(t / 1e-3) % sub for t in cut[1:]}
    assert len(cut_steps) == 2 and 0 not in cut_steps.values()
    ref_stream = assert_reference_matches_oracle(
        configs, inc, NoiseStream(np.random.default_rng(11), steps, 8, 1))
    ref_array = simulate_coupled(linear_configs(configs), inc)
    assert all(round(r.truncation_time / 1e-3) % sub for r in ref_array)
    for a, b in zip(from_stream + ref_stream, from_array + ref_array):
        assert a.times == b.times and a.truncation_time == b.truncation_time
        assert len(a.coeffs) == len(b.coeffs)
        for x, y in zip(a.coeffs, b.coeffs):
            assert np.array_equal(x, y)
    for config, run in zip(configs, from_array):
        assert_same_run(run, oracle.simulate(config, increments=inc))
    # simulate(rng=...) streams the same noise
    for config, run in ((configs[0], from_array[0]), (linear_configs(configs)[0], ref_array[0])):
        solo = simulate(config, rng=np.random.default_rng(11))
        for x, y in zip(solo.coeffs, run.coeffs):
            assert np.array_equal(x, y)


def test_noise_groups_match_their_solo_batches():
    """Five noise sources, three runs each: a stream used by several runs,
    arrays and a stream given once per run.  The 15-run batch reads and
    transforms its noise in sub-blocks of 17 steps, once per group for the
    runs of equal multipliers; every run, its reference field and its
    truncation equal those of its group's own batch, and so do the runs of
    its reference field, the linear model."""
    forward, central = make_scheme("forward_difference"), make_scheme("central_difference")
    model = make_model(1, G="state", theta="one")
    steps, N = 300, 8

    def cfg(scheme, **kw):
        return SolverConfig(scheme=scheme, eps=0.25, N=N, M=32, dt=1e-3,
                            T=steps * 1e-3, model=model, blowup_cap=1.0,
                            record_times=(0.1, 0.2, steps * 1e-3), **kw)

    trio = [cfg(forward), cfg(central, Lambda=-5.0), cfg(central)]
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
    assert list(_Operators(trio * 5, groups).noise_row) == groups
    # the plan of the runs left after the first and third of each trio leave
    assert list(_Operators(trio[1:2] * 5, groups[1::3]).noise_row) == [0, 1, 2, 3, 4]
    runs = simulate_coupled(trio * 5, per_run)
    refs = simulate_coupled(linear_configs(trio * 5), per_run)
    truncated = [r.truncation_time is not None for r in runs]
    assert any(truncated) and not all(truncated)
    for g, seed in enumerate(seeds):
        inc = draw_noise(np.random.default_rng(seed), steps, N, 1)
        for batch, solo in ((runs, simulate_coupled(trio, inc)),
                            (refs, simulate_coupled(linear_configs(trio), inc))):
            for a, b in zip(batch[3 * g:3 * g + 3], solo):
                assert a.times == b.times and a.truncation_time == b.truncation_time
                for x, y in zip(a.coeffs, b.coeffs):
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
    """Eight samples of three runs at N = 256, M = 768 over 128 steps: the
    loop's peak traced memory stays below what the noise grid of those
    steps for all 24 runs would take, because the noise is transformed in
    sub-blocks of at most NOISE_ROWS grid rows."""
    model = make_model(1, G="state", theta="one")
    N, M, steps, samples = 256, 768, 128, 8
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


class NoiseFault(RuntimeError):
    pass


class FaultyStream(NoiseStream):
    """A stream whose reads raise NoiseFault at item ``bad``."""

    def __init__(self, rng, steps, N, n, bad):
        super().__init__(rng, steps, N, n)
        self.bad = bad

    def read(self, length):
        for k, item in enumerate(super().read(length)):
            if k == self.bad:
                raise NoiseFault(f"item {k}")
            yield item


def test_a_faulty_stream_raises_at_its_item():
    stream = FaultyStream(np.random.default_rng(3), 20, 8, 1, bad=2)
    drawn = draw_noise(np.random.default_rng(3), 20, 8, 1)
    reader = stream.read(6)
    for k in range(2):
        assert np.array_equal(next(reader), drawn[6 * k:6 * (k + 1)])
    with pytest.raises(NoiseFault, match="item 2"):
        next(reader)


def lifetime_configs(**kw):
    """Two runs over three noise sub-blocks of a small grid."""
    model = make_model(1, G="state", theta="one")
    steps = 3 * (NOISE_ROWS // 2)
    return [SolverConfig(scheme=make_scheme(name), eps=0.25, N=8, M=32, dt=1e-3,
                         T=steps * 1e-3, model=model, record_times=(steps * 1e-3,), **kw)
            for name in ("forward_difference", "central_difference")], steps


@pytest.mark.parametrize("bad", [0, 1, 2])
def test_a_noise_error_comes_out_with_its_type(bad):
    """An error raised while a sub-block's noise is read reaches the caller
    as itself."""
    configs, steps = lifetime_configs()
    with pytest.raises(NoiseFault, match=f"item {bad}"):
        simulate_coupled(configs, FaultyStream(np.random.default_rng(3), steps, 8, 1, bad))


def test_an_early_exit_leaves_the_stream_replaying_the_same_bits():
    """Every run is truncated in the first sub-block, so the loop leaves
    with the stream's reads unfinished; the stream then gives the bits of a
    fresh one, read by itself and as a run's noise."""
    configs, steps = lifetime_configs(Lambda=-5.0, blowup_cap=0.05)
    stream = NoiseStream(np.random.default_rng(4), steps, 8, 1)
    runs = simulate_coupled(configs, stream)
    assert all(r.truncation_time is not None
               and r.truncation_time < sub_block(configs) * 1e-3 for r in runs)
    fresh = NoiseStream(np.random.default_rng(4), steps, 8, 1)
    for a, b in zip(stream.read(100), fresh.read(100), strict=True):
        assert np.array_equal(a, b)
    plain, _ = lifetime_configs()
    again = simulate_coupled(plain, stream)
    for a, b in zip(again, simulate_coupled(plain, fresh)):
        assert a.times == b.times
        for x, y in zip(a.coeffs, b.coeffs):
            assert np.array_equal(x, y)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_stream_source_run_raises_numerical_abort():
    # the drift -Lambda overflows the forward transform of its rest row
    configs, steps = lifetime_configs(Lambda=1e308)
    with pytest.raises(NumericalAbort):
        simulate_coupled(configs, NoiseStream(np.random.default_rng(5), steps, 8, 1))


def batch_truncations_after_solo_check(configs, steps):
    """Steps ``configs`` as one batch on a stream, checks that each run has
    the bits of the run stepped alone on the same stream, and returns the
    batch's truncation times."""
    def stream():
        return NoiseStream(np.random.default_rng(21), steps, 8, 1)

    batch = simulate_coupled(configs, stream())
    for a, config in zip(batch, configs):
        b = simulate_coupled([config], stream())[0]
        assert a.times == b.times and a.truncation_time == b.truncation_time
        for x, y in zip(a.coeffs, b.coeffs):
            assert np.array_equal(x, y)
    return [r.truncation_time for r in batch]


def test_grid_noise_batch_with_mid_sub_block_truncations_equals_solo_runs():
    """A batch whose noise goes to the grid and whose runs leave it
    mid-sub-block, so that later sub-blocks are made for the live runs
    only, gives the bits of each run stepped alone on the same stream."""
    forward, central = make_scheme("forward_difference"), make_scheme("central_difference")
    model = make_model(1, G="state", theta="bounded_sqrt")
    steps = 300

    def cfg(scheme, **kw):
        return SolverConfig(scheme=scheme, eps=0.25, N=8, M=32, dt=1e-3,
                            T=steps * 1e-3, model=model, blowup_cap=2.0,
                            record_times=(0.1, 0.2, steps * 1e-3), **kw)

    # the drifts -Lambda theta^2 of theta = bounded_sqrt lie in [-2 Lambda, -Lambda]
    configs = [cfg(forward), cfg(central, Lambda=-5.0), cfg(central, Lambda=-12.0)]
    cut = batch_truncations_after_solo_check(configs, steps)
    assert cut[0] is None and None not in cut[1:] and cut[1] != cut[2]


def test_runs_after_a_truncated_one_keep_their_own_noise():
    """The first run of a grid-noise batch leaves it mid-sub-block; the two
    runs after it, whose noise multipliers differ from each other, get
    their own rows in every later sub-block, made for the live runs only,
    and give the bits of each run stepped alone on the same stream."""
    model = make_model(1, G="state", theta="bounded_sqrt")
    steps = 300

    def cfg(cutoff, **kw):
        scheme = make_scheme("forward_difference",
                             h=make_function("indicator", cutoff=cutoff))
        return SolverConfig(scheme=scheme, eps=0.25, N=8, M=32, dt=1e-3,
                            T=steps * 1e-3, model=model, blowup_cap=2.0,
                            record_times=(0.1, 0.2, steps * 1e-3), **kw)

    configs = [cfg(2.0, Lambda=-20.0), cfg(1.0), cfg(0.5)]
    assert len(_Operators(configs).noise_runs) == 3
    cut = batch_truncations_after_solo_check(configs, steps)
    assert cut[1:] == [None, None]
    assert 0 < round(cut[0] / 1e-3) % sub_block(configs) and cut[0] < 0.2


def test_noise_in_flight_is_two_sub_blocks(monkeypatch):
    """Two samples of the converge shape (B = 10, theta bounded_sqrt, so the
    noise goes to the grid) over 256 steps: while the next sub-block's noise
    is made, only the sub-block just stepped is alive, and the peak traced
    memory stays below the noise grid of 128 steps for the batch."""
    N, M, dt, steps = 256, 768, 1e-4, 256
    cfg = ExperimentConfig(
        kind="converge", scheme=make_scheme("forward_difference"),
        model=make_model(1, G="state", theta="bounded_sqrt"),
        eps_ladder=(0.25, 0.125, 0.0625, 0.03125), samples=2, master_seed=1,
        N=N, M=M, dt=dt, T=steps * dt, record_times=(steps * dt,), eps_ref=1 / 512)
    ladder = [cfg.solver_config(eps) for eps in cfg.eps_ladder]
    configs = [reference_config(ladder[0], cfg.eps_ref,
                                lambda_exact(cfg.scheme).value)] + ladder
    streams = [NoiseStream(np.random.default_rng(s), steps, N, 1) for s in range(2)]
    made, alive_at_call = [], []
    noise = _Operators.noise

    def tracked(self, draws):
        alive_at_call.append(sum(ref() is not None for ref in made))
        out = noise(self, draws)
        made.append(weakref.ref(out))
        return out

    monkeypatch.setattr(_Operators, "noise", tracked)
    grid_bytes = 128 * len(configs) * len(streams) * M * 8
    tracemalloc.start()
    try:
        runs = simulate_coupled(configs * 2, [s for s in streams for _ in configs])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.truncation_time is None for r in runs)
    assert len(made) == -(-steps // sub_block(configs * 2))     # 25 steps each
    assert max(alive_at_call) == 1
    assert peak < grid_bytes
