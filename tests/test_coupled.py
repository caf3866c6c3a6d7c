"""The batched half-spectrum solver against the full-spectrum oracle.

``solver_oracle`` is the one-run-at-a-time, full-spectrum integrator the
package used before; every check here runs the same increments through
both and compares run by run.  The reference field X of a run is the run
of its linear-model config (``linear_configs``); it is checked against the
X the oracle co-evolves with the run.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import solver_oracle as oracle
from sample_oracle import _common_positive_times, _trajectory_gap
from strategies import schemes
from schemelab.correction import lambda_exact
from schemelab.experiments import (
    ExperimentConfig,
    converge_experiment,
    correction_experiment,
    sample_rng,
    upsilon_diagnostic,
    xi_diagnostic,
)
from schemelab.models import ModelFunctions, make_model
from schemelab.schemes import make_function, make_scheme
from schemelab import solver
from schemelab.solver import (
    NOISE_ROWS,
    NumericalAbort,
    SolverConfig,
    _Operators,
    draw_noise,
    simulate,
    simulate_coupled,
    stochastic_convolution,
)
from schemelab.spectral import NormConfig, Transform, grid_points
from spectral_oracle import half_spectrum

RTOL = 1e-12


def rel_gap(a, b):
    scale = max(float(np.abs(b).max()), 1e-300)
    return float(np.abs(np.asarray(a) - np.asarray(b)).max()) / scale


def assert_same_run(new, old):
    assert new.times == old.times
    assert new.truncation_time == old.truncation_time
    assert len(new.coeffs) == len(old.coeffs)
    for a, b in zip(new.coeffs, old.coeffs):
        assert rel_gap(a, b) <= RTOL


def sub_block(configs):
    """Steps per noise sub-block of a batch of ``configs``."""
    return max(1, NOISE_ROWS // (configs[0].model.n * len(configs)))


def linear_configs(configs):
    """The runs of the reference field X of ``configs``: each config with the
    linear model (F = G = 0, theta = Id declared constant), Lambda = 0,
    zero initial data and no conservation form."""
    n = configs[0].model.n
    model = make_model(1, G="zero", theta="one") if n == 1 else ModelFunctions(
        n=n, F=None, G=_constant(np.zeros((n, n))),
        DG=_constant(np.zeros((n, n, n))), theta=_constant(np.eye(n)),
        label=f"n{n}:linear", theta_constant=np.eye(n))
    return [dataclasses.replace(c, model=model, Lambda=0.0, initial=None,
                                conservation_form=False) for c in configs]


def assert_reference_matches_oracle(configs, inc, source=None):
    """The runs of ``linear_configs(configs)`` on ``source`` (default
    ``inc``) against the X the oracle co-evolves with each config's run on
    ``inc``, at the times both record: the oracle's X stops where the
    config's run is truncated, a linear run where X crosses the cap.
    Returns the linear runs."""
    runs = simulate_coupled(linear_configs(configs), inc if source is None else source)
    for config, run in zip(configs, runs):
        old = oracle.simulate(config, increments=inc, record_reference=True)
        k = min(len(run.times), len(old.times))
        assert k > 0 and run.times[:k] == old.times[:k]
        assert len(old.X_coeffs) == len(old.times)
        for a, b in zip(run.coeffs[:k], old.X_coeffs):
            assert rel_gap(a, b) <= RTOL
    return runs


# -- strategies ---------------------------------------------------------------

def band_limited(rng, N, K, scale):
    """Real field with modes |k| <= K <= N, as (1, N+1) modes 0..N."""
    c = np.zeros(2 * N + 1, dtype=complex)
    c[N - K:N + K + 1] = scale * (rng.standard_normal(2 * K + 1)
                                  + 1j * rng.standard_normal(2 * K + 1))
    return half_spectrum(c)[None, :]


@st.composite
def batches(draw):
    """Configs that may share a batch, plus the increments they share."""
    N = draw(st.sampled_from([4, 7, 12]))
    M = 2 * N + 1 + draw(st.integers(0, 6))
    dt = 1e-3
    steps = draw(st.integers(4, 24))
    model = make_model(1, G=draw(st.sampled_from(["zero", "state"])),
                       theta=draw(st.sampled_from(["one", "state", "bounded_sqrt"])))
    record_steps = sorted(draw(st.sets(st.integers(0, steps), min_size=1, max_size=4)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    configs = []
    for _ in range(draw(st.integers(1, 4))):
        conservative = model.potential is not None and draw(st.booleans())
        initial = (band_limited(rng, N, draw(st.integers(0, N)), 0.4)
                   if draw(st.booleans()) else None)
        configs.append(SolverConfig(
            scheme=draw(schemes()), eps=draw(st.floats(0.05, 0.5)), N=N, M=M,
            dt=dt, T=steps * dt, model=model,
            Lambda=draw(st.sampled_from([0.0, 0.25, -0.4])),
            record_times=tuple(j * dt for j in record_steps),
            initial=initial, conservation_form=conservative))
    inc = draw_noise(rng, steps, N, 1)
    if draw(st.booleans()):
        # hand-made increments may carry an imaginary part in the real mode 0
        inc[:, 0] += 1j * rng.standard_normal((steps, 1))
    return configs, inc


# -- oracle equivalence -------------------------------------------------------

@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(batches(), st.booleans())
def test_batch_matches_oracle_run_by_run(batch, with_reference):
    configs, inc = batch
    runs = simulate_coupled(configs, inc)
    assert len(runs) == len(configs)
    for config, run in zip(configs, runs):
        assert_same_run(run, oracle.simulate(config, increments=inc))
    if with_reference:
        assert_reference_matches_oracle(configs, inc)


def growth_batch(cap=2.0, model=None, Lambdas=(0.0, -15.0, 0.0)):
    """Three runs; the middle one carries a strong growth drift (Lambda < 0)
    and a larger start, so it alone crosses ``cap`` partway through."""
    forward, central = make_scheme("forward_difference"), make_scheme("central_difference")
    model = model or make_model(1, G="state", theta="one")
    rng = np.random.default_rng(11)

    def cfg(scheme, scale, **kw):
        return SolverConfig(scheme=scheme, eps=0.25, N=8, M=32, dt=1e-3, T=0.2,
                            model=model, record_times=(0.05, 0.1, 0.15, 0.2),
                            blowup_cap=cap, initial=band_limited(rng, 8, 3, scale),
                            **kw)

    configs = [cfg(forward, 0.05, Lambda=Lambdas[0]), cfg(central, 0.2, Lambda=Lambdas[1]),
               cfg(central, 0.05, Lambda=Lambdas[2])]
    return configs, draw_noise(rng, configs[0].steps, 8, 1) * 0.1


def test_blowup_leaves_batch_others_equal_solo_runs():
    configs, inc = growth_batch()
    runs = simulate_coupled(configs, inc)
    assert runs[1].truncation_time is not None
    assert 0.0 < runs[1].truncation_time < configs[1].T
    assert all(t < runs[1].truncation_time for t in runs[1].times[1:])
    for config, run in zip(configs, runs):
        assert_same_run(run, oracle.simulate(config, increments=inc))
    for i in (0, 2):
        assert runs[i].truncation_time is None
        solo = simulate_coupled([configs[i]], inc)[0]
        assert runs[i].times == solo.times
        for a, b in zip(runs[i].coeffs, solo.coeffs):
            assert np.array_equal(a, b)


def test_reference_of_a_truncated_run_matches_oracle():
    """The middle run of the growth batch is truncated inside a noise
    sub-block; its reference field, a run of the linear model, goes on to T
    and agrees with the oracle's X up to the truncation."""
    configs, inc = growth_batch()
    cut = simulate_coupled(configs, inc)[1].truncation_time
    assert cut is not None and round(cut / 1e-3) % sub_block(configs) != 0
    refs = assert_reference_matches_oracle(configs, inc)
    assert all(ref.truncation_time is None for ref in refs)
    assert all(ref.times == configs[0].record_times for ref in refs)
    assert max(refs[1].times) > cut


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_first_non_finite_run_in_list_order_sets_the_abort_time():
    # with G = theta = state the drift is -Lambda u^2: it blows up in finite
    # time, sooner for the larger -Lambda, and under a cap this high the
    # state overflows before it crosses the cap; so run 1 goes non-finite
    # late, run 2 (after it in the list) early
    configs, inc = growth_batch(cap=1e300, model=make_model(1, G="state", theta="state"),
                                Lambdas=(0.0, -100.0, -1000.0))
    expected = None
    for config in configs:
        try:
            oracle.simulate(config, increments=inc)
        except NumericalAbort as exc:
            expected = exc.time
            break
    with pytest.raises(NumericalAbort) as excinfo:
        oracle.simulate(configs[2], increments=inc)
    assert expected is not None and excinfo.value.time < expected
    with pytest.raises(NumericalAbort) as excinfo:
        simulate_coupled(configs, inc)
    assert excinfo.value.time == expected


def test_batch_settings_must_agree():
    configs, inc = growth_batch()
    configs[2].blowup_cap = 3.0
    with pytest.raises(ValueError, match="blowup_cap"):
        simulate_coupled(configs, inc)
    with pytest.raises(ValueError):
        simulate_coupled([], inc)


def test_stochastic_convolution_matches_oracle(forward):
    steps, N, M, dt = 30, 10, 40, 2e-3
    inc = draw_noise(np.random.default_rng(21), steps, N, 1)
    x = grid_points(M)
    theta = np.stack([(1.0 + 0.4 * np.sin(x + 0.1 * j))[None, None, :]
                      for j in range(steps)])
    new = stochastic_convolution(theta, forward, 0.1, dt, N, M, inc)
    old = oracle.stochastic_convolution(theta, forward, 0.1, dt, N, M, inc)
    assert rel_gap(new, old) <= RTOL


@pytest.mark.parametrize("theta", ["one", "state"])
def test_diagnostics_match_oracle(theta):
    scheme = make_scheme("forward_difference")
    cfg = SolverConfig(scheme=scheme, eps=0.125, N=16, M=64, dt=1e-3, T=0.05,
                       model=make_model(1, G="state", theta=theta),
                       record_times=(0.01, 0.02, 0.03, 0.04, 0.05),
                       initial=band_limited(np.random.default_rng(4), 16, 4, 0.5))
    inc = draw_noise(np.random.default_rng(5), cfg.steps, cfg.N, 1)
    traj = simulate(cfg, increments=inc)
    [reference] = assert_reference_matches_oracle([cfg], inc)
    # the oracle's diagnostics read X off the trajectory
    with_x = oracle.Trajectory(**vars(traj), X_coeffs=reference.coeffs)
    for new, old in ((upsilon_diagnostic, oracle.upsilon_diagnostic),
                     (xi_diagnostic, oracle.xi_diagnostic)):
        assert rel_gap(new(traj, cfg, reference), old(with_x, cfg)) <= RTOL


# -- constant theta: noise added to the spectrum against the grid path ------

def assert_paths_agree(build, model, inc):
    """The runs ``build(model)`` with theta's constant declared, whose noise
    is added to the spectrum and whose theta is never called, equal those
    with the constant undeclared, whose noise is multiplied by theta on the
    grid.  Returns the runs of the declared model."""
    calls = []

    def counted(u):
        calls.append(u.shape)
        return model.theta(u)

    declared = dataclasses.replace(model, theta=counted)
    calls.clear()                                   # the constant's probe
    spectral = simulate_coupled(build(declared), inc)
    assert calls == []
    undeclared = dataclasses.replace(model, theta_constant=None)
    grid = simulate_coupled(build(undeclared), inc)
    assert len(spectral) == len(grid)
    for a, b in zip(spectral, grid):
        assert_same_run(a, b)
    return spectral


def correction_runs(N=12, M=40, steps=150):
    """The correction experiment's three runs (forward difference, central
    difference, central difference with a correction drift) as a function
    of the model, over a full noise block and a partial one."""
    dt = 1e-3
    initial = band_limited(np.random.default_rng(9), N, 4, 0.4)

    def build(model):
        def cfg(scheme, Lambda=0.0):
            return SolverConfig(
                scheme=make_scheme(scheme), eps=0.125, N=N, M=M, dt=dt,
                T=steps * dt, model=model, Lambda=Lambda,
                record_times=(0.05, 0.1, 0.15),
                initial=np.repeat(initial, model.n, axis=0))
        return [cfg("forward_difference"), cfg("central_difference"),
                cfg("central_difference", 0.25)]
    return build


@pytest.mark.parametrize("with_reference", [False, True])
def test_constant_theta_correction_runs_match_grid_path(with_reference):
    inc = draw_noise(np.random.default_rng(31), 150, 12, 1)
    build = correction_runs()
    model = make_model(1, G="state", theta="one")
    runs = assert_paths_agree(build, model, inc)
    assert all(run.truncation_time is None for run in runs)
    if with_reference:
        assert_reference_matches_oracle(build(model), inc)


def test_constant_theta_truncated_run_matches_grid_path():
    inc = growth_batch()[1]
    runs = assert_paths_agree(lambda model: growth_batch(model=model)[0],
                              make_model(1, G="state", theta="one"), inc)
    assert runs[1].truncation_time is not None
    assert runs[0].truncation_time is None and runs[2].truncation_time is None


# not normal: Theta Theta^T != Theta^T Theta
THETA2 = np.array([[1.0, 0.3], [-0.2, 0.8]])
DG2 = np.array([[[1.0, 0.0], [0.0, 1.0]],
                [[0.0, 0.5], [-0.3, 1.0]]])       # DG[d, i, j] = dG^i_j / du_d


def _g2(u):
    return np.array([[u[0], 0.5 * u[1]], [-0.3 * u[1], u[0] + u[1]]])


def _constant(matrix):
    """The callable u -> ``matrix`` at every point of u."""
    return lambda u: np.multiply.outer(matrix, np.ones(u.shape[1:]))


def vector_model():
    return ModelFunctions(n=2, F=lambda u: np.zeros_like(u), G=_g2, DG=_constant(DG2),
                          theta=_constant(THETA2), label="n2:constant",
                          theta_constant=THETA2)


def test_constant_theta_vector_model_matches_grid_path():
    """n = 2 with a non-identity constant Theta: the noise is Theta w, the
    correction drift contracts Theta Theta^T, and the reference X, a run of
    the n = 2 linear model, is driven by w itself."""
    inc = draw_noise(np.random.default_rng(32), 150, 12, 2)
    build = correction_runs()
    runs = assert_paths_agree(build, vector_model(), inc)
    assert all(run.truncation_time is None for run in runs)
    assert_reference_matches_oracle(build(vector_model()), inc)


# -- the step plan: rest rows, a declared-zero F, folded scales ---------------

def forward_rows(monkeypatch):
    """The rows (second axis) of every forward transform made from now on:
    the B products and the R rest rows of each step."""
    rows = []
    grid_sums = Transform.grid_sums

    def spy(self, values, **kwargs):
        rows.append(values.shape[-2])
        return grid_sums(self, values, **kwargs)

    monkeypatch.setattr(Transform, "grid_sums", spy)
    return rows


def assert_oracle_run_by_run(configs, inc):
    runs = simulate_coupled(configs, inc)
    for config, run in zip(configs, runs):
        assert_same_run(run, oracle.simulate(config, increments=inc))
    return runs


def test_declared_zero_F_is_never_called_and_rest_rows_are_drift_runs(monkeypatch):
    """make_model declares F = 0 as None: with constant theta and DG no run
    has a rest row; the plan transforms the drift run's constant drift once
    (1 row) and each step its 3 products.  The same model with a zero F
    callable calls it once per step on the whole batch and transforms a
    rest row for every run (3 + 3)."""
    model = make_model(1, G="state", theta="one")
    assert model.F is None
    inc = draw_noise(np.random.default_rng(33), 150, 12, 1)
    build = correction_runs()
    rows = forward_rows(monkeypatch)
    declared = simulate_coupled(build(model), inc)
    assert rows == [1] + [3] * 150
    calls = []

    def zero(u):
        calls.append(u.shape)
        return np.zeros_like(u)

    rows.clear()
    called = simulate_coupled(build(dataclasses.replace(model, F=zero)), inc)
    assert calls == [(1, 3, 40)] * 150
    assert rows == [6] * 150
    for a, b in zip(declared, called):
        assert_same_run(a, b)


def truncated_correction_runs(truncate, N=12, M=40, steps=150):
    """The correction experiment's three runs under a cap that run
    ``truncate`` alone crosses mid-batch: the drift run (2), whose drift
    -Lambda DG theta theta^T with Lambda = -10 raises its mean, or the
    forward-difference run (0), which starts with a mean just under the cap
    that the noise pushes over."""
    model = make_model(1, G="state", theta="one")
    Lambda = -10.0 if truncate == 2 else 0.25

    def cfg(scheme, Lambda=0.0, mean=0.0):
        c = np.zeros((1, N + 1), dtype=complex)
        c[0, 0] = mean * math.sqrt(2.0 * math.pi)
        return SolverConfig(
            scheme=make_scheme(scheme), eps=0.125, N=N, M=M, dt=1e-3, T=steps * 1e-3,
            model=model, Lambda=Lambda, record_times=(0.02, 0.05, 0.1, 0.15),
            blowup_cap=1.5, initial=c)

    return [cfg("forward_difference", mean=1.0 if truncate == 0 else 0.0),
            cfg("central_difference"),
            cfg("central_difference", Lambda)]


def undeclared_dg(configs):
    """``configs`` with the model's constant DG left undeclared."""
    model = dataclasses.replace(configs[0].model, dg_constant=None)
    return [dataclasses.replace(c, model=model) for c in configs]


@pytest.mark.parametrize("declared", [True, False])
@pytest.mark.parametrize("truncate", [2, 0])
def test_truncation_replans_the_rest_rows(monkeypatch, truncate, declared):
    """With DG declared constant, a truncated drift run takes its drift
    with it (the plan of the two runs left transforms none), and a truncated
    run without a drift leaves the drift run, whose drift the new plan
    transforms once more (1 row); every step transforms its products alone
    (3, then 2 rows).  With DG undeclared, the drift run has a rest row: a
    truncated drift run takes it with it (R goes 1 -> 0, 2 + 0 rows), a
    truncated run without a drift leaves R = 1 (2 + 1 rows).  Every run
    matches the oracle."""
    configs = truncated_correction_runs(truncate)
    if not declared:
        configs = undeclared_dg(configs)
    inc = draw_noise(np.random.default_rng(41), configs[0].steps, 12, 1)
    rows = forward_rows(monkeypatch)
    runs = assert_oracle_run_by_run(configs, inc)
    cut = [run.truncation_time for run in runs]
    assert [t is not None for t in cut] == [b == truncate for b in range(3)]
    k = round(cut[truncate] / 1e-3)
    assert 0.02 < cut[truncate] < 0.15 and k % sub_block(configs) != 0
    after = configs[0].steps - k - 1
    # the step from state k, whose grid shows the crossing, still has 3 runs
    if declared:
        assert rows == [1] + [3] * (k + 1) + [1] * (truncate == 0) + [2] * after
    else:
        assert rows == [4] * (k + 1) + [2 + (truncate == 0)] * after


@pytest.mark.parametrize("truncate", [2, 0])
def test_constant_drift_takes_no_dg_call_and_no_contraction(monkeypatch, truncate):
    """A plan with theta and DG declared constant and F = None makes the
    drift run's drift once, by the one contraction of a plan, and its steps
    call neither DG nor the contraction.  The same model with DG undeclared
    makes one DG call and one contraction per step and gives the same
    trajectories bit for bit, beside a truncating run."""
    calls = []

    def counted(name, f):
        def wrapped(*args):
            calls.append(name)
            return f(*args)
        return wrapped

    configs = truncated_correction_runs(truncate)
    model = configs[0].model
    model = dataclasses.replace(model, DG=counted("DG", model.DG))
    configs = [dataclasses.replace(c, model=model) for c in configs]
    monkeypatch.setattr(solver, "_contract", counted("contract", solver._contract))
    inc = draw_noise(np.random.default_rng(41), configs[0].steps, 12, 1)
    calls.clear()                          # the probe of the model's check
    folded = simulate_coupled(configs, inc)
    k = round(folded[truncate].truncation_time / 1e-3)
    plans = 1 + (truncate == 0)            # a drift run is left after the cut
    assert calls == ["contract"] * plans
    calls.clear()
    per_step = simulate_coupled(undeclared_dg(configs), inc)
    drift_steps = k + 1 + (truncate == 0) * (configs[0].steps - k - 1)
    assert calls == ["DG", "contract"] * drift_steps
    for a, b in zip(folded, per_step):
        assert a.times == b.times and a.truncation_time == b.truncation_time
        assert all(np.array_equal(x, y) for x, y in zip(a.coeffs, b.coeffs))


@pytest.mark.parametrize("theta, plan, rows", [("one", [1], 3), ("bounded_sqrt", [], 3 + 3)])
def test_conservation_form_run_with_a_drift_matches_oracle(monkeypatch, theta, plan, rows):
    """A conservation-form run carrying a correction drift, beside a plain
    run and a conservation-form run without one: the output multipliers
    fold D_eps into the first and third runs' product rows only.  With
    theta constant the plan transforms the drift (``plan`` rows) and the
    steps no rest row."""
    model = make_model(1, G="state", theta=theta)
    rng = np.random.default_rng(12)
    forward, central = make_scheme("forward_difference"), make_scheme("central_difference")

    def cfg(scheme, conservative, Lambda=0.0):
        return SolverConfig(
            scheme=scheme, eps=0.125, N=12, M=40, dt=1e-3, T=0.15, model=model,
            Lambda=Lambda, record_times=(0.05, 0.1, 0.15), initial=band_limited(rng, 12, 4, 0.4),
            conservation_form=conservative)

    configs = [cfg(forward, True, 0.25), cfg(central, False),
               cfg(central, True)]
    inc = draw_noise(rng, configs[0].steps, 12, 1)
    spy = forward_rows(monkeypatch)
    runs = assert_oracle_run_by_run(configs, inc)
    assert all(run.truncation_time is None for run in runs)
    assert spy == plan + [rows] * configs[0].steps


@pytest.mark.parametrize("theta, plan, rows",
                         [("one", [1], (3, 2)), ("bounded_sqrt", [], (3 + 3, 2 + 2))])
def test_truncated_conservation_run_leaves_a_replanned_batch(monkeypatch, theta, plan, rows):
    """A conservation-form run leaves the batch in the middle of a noise
    sub-block, beside a conservation-form drift run and a plain run.  The
    first run has an indicator h and the other two share their noise
    multipliers (h = 1), so the plan of the two runs left holds new
    conservation masks, rest rows and noise rows (0, 1, 1 becomes 0, 0).
    Every run and its truncation time match the oracle."""
    model = make_model(1, G="state", theta=theta)
    N, steps = 12, 150

    def cfg(scheme, conservative, Lambda=0.0, mean=0.0):
        c = np.zeros((1, N + 1), dtype=complex)
        c[0, 0] = mean * math.sqrt(2.0 * math.pi)
        return SolverConfig(
            scheme=scheme, eps=0.125, N=N, M=40, dt=1e-3, T=steps * 1e-3, model=model,
            Lambda=Lambda, record_times=(0.02, 0.05, 0.1, 0.15), blowup_cap=1.5,
            initial=c, conservation_form=conservative)

    narrow = make_scheme("forward_difference", h=make_function("indicator", cutoff=1.0))
    central = make_scheme("central_difference")
    configs = [cfg(narrow, True, mean=1.0), cfg(central, True, Lambda=0.25),
               cfg(central, False)]
    inc = draw_noise(np.random.default_rng(41), steps, N, 1)
    assert list(_Operators(configs).noise_row) == [0, 1, 1]
    spy = forward_rows(monkeypatch)
    runs = assert_oracle_run_by_run(configs, inc)
    cut = [run.truncation_time for run in runs]
    assert cut[0] is not None and cut[1:] == [None, None]
    k, sub = round(cut[0] / 1e-3), sub_block(configs)
    # a recorded time before the cut, and a sub-block made for the runs left
    assert 0.02 < cut[0] and k % sub != 0 and (k // sub + 1) * sub < steps
    assert spy == plan + [rows[0]] * (k + 1) + plan + [rows[1]] * (steps - k - 1)


def _f2(u):
    return np.array([-0.5 * u[0] + 0.2 * u[1], 0.3 * np.sin(u[0]) - 0.1 * u[1] * u[1]])


def test_vector_model_with_F_and_constant_theta_matches_oracle(monkeypatch):
    """n = 2 with a nonzero F and the non-normal constant Theta: every run
    has a rest row although the noise is added to the spectrum."""
    model = dataclasses.replace(vector_model(), F=_f2, label="n2:F")
    configs = correction_runs()(model)
    inc = draw_noise(np.random.default_rng(34), configs[0].steps, 12, 2)
    rows = forward_rows(monkeypatch)
    runs = assert_oracle_run_by_run(configs, inc)
    assert all(run.truncation_time is None for run in runs)
    assert rows == [3 + 3] * configs[0].steps


# -- per-sample experiment rows -----------------------------------------------

def small_cfg(kind, **overrides):
    base = dict(
        kind=kind, scheme=make_scheme("forward_difference"),
        scheme2=make_scheme("central_difference"),
        model=make_model(1, G="state", theta="one"),
        eps_ladder=(0.25, 0.125, 0.0625), samples=2, master_seed=5, N=16, M=64,
        dt=1e-3, T=0.04, record_times=(0.02, 0.04), eps_ref=0.01,
        norms=NormConfig(stride=8))
    base.update(overrides)
    return ExperimentConfig(**base)


def oracle_correction_row(cfg, Lambda1, s):
    eps = min(cfg.eps_ladder)
    inc = draw_noise(sample_rng(cfg.master_seed, s), cfg.solver_config(eps).steps,
                     cfg.N, cfg.model.n)
    run1 = oracle.simulate(cfg.solver_config(eps), increments=inc)
    run2 = oracle.simulate(cfg.solver_config(eps, scheme=cfg.scheme2), increments=inc)
    run2c = oracle.simulate(cfg.solver_config(eps, scheme=cfg.scheme2, Lambda=Lambda1),
                            increments=inc)
    ia, jb, _t = _common_positive_times(run1, run2, cfg.T)[-1]
    return {"eps": eps, "sample": s,
            "gap_uncorrected": _trajectory_gap(run1, run2, cfg.M, cfg.T)[0],
            "gap_corrected": _trajectory_gap(run1, run2c, cfg.M, cfg.T)[0],
            "signed_mean_gap": float((run1.grid(ia, cfg.M)
                                      - run2.grid(jb, cfg.M)).mean())}


def oracle_converge_rows(cfg, Lambda, s):
    base = cfg.solver_config(cfg.eps_ladder[0])
    inc = draw_noise(sample_rng(cfg.master_seed, s), base.steps, cfg.N, cfg.model.n)
    ref = oracle.simulate(SolverConfig(
        scheme=make_scheme("central_difference"), eps=cfg.eps_ref, N=cfg.N, M=cfg.M,
        dt=cfg.dt, T=cfg.T, model=cfg.model, Lambda=Lambda, record_times=base.record_times,
        blowup_cap=base.blowup_cap, initial=base.initial), increments=inc)
    rows = []
    for eps in cfg.eps_ladder:
        traj = oracle.simulate(cfg.solver_config(eps), increments=inc)
        sup_err, holder_err, last = _trajectory_gap(
            traj, ref, cfg.M, cfg.T, holder_gamma=cfg.norms.alpha_tilde,
            stride=cfg.norms.stride)
        rows.append({"eps": eps, "sample": s, "sup_error": sup_err,
                     "holder_error": holder_err, "last_common_time": last,
                     "truncated": traj.truncation_time is not None,
                     "ref_truncated": ref.truncation_time is not None})
    return rows


def assert_rows_close(new, old):
    assert new.keys() == old.keys()
    for key, value in old.items():
        if isinstance(value, float) and not isinstance(value, bool):
            assert math.isclose(new[key], value, rel_tol=RTOL, abs_tol=0.0), key
        else:
            assert new[key] == value, key


def test_correction_rows_match_oracle():
    cfg = small_cfg("correction", eps_ladder=(0.0625,), dt=5e-4)
    Lambda1 = lambda_exact(cfg.scheme).value
    rows = correction_experiment(cfg).per_sample
    assert len(rows) == cfg.samples
    for s, row in enumerate(rows):
        assert_rows_close(row, oracle_correction_row(cfg, Lambda1, s))


def test_converge_rows_match_oracle():
    scheme = make_scheme("forward_difference", h=make_function("indicator", cutoff=1.0))
    cfg = small_cfg("converge", scheme=scheme,
                    model=make_model(1, G="state", theta="bounded_sqrt"))
    Lambda = lambda_exact(cfg.scheme).value
    rows = converge_experiment(cfg).per_sample
    old = [r for s in range(cfg.samples) for r in oracle_converge_rows(cfg, Lambda, s)]
    assert len(rows) == len(old)
    for a, b in zip(rows, old):
        assert_rows_close(a, b)
