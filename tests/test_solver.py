import dataclasses

import numpy as np
import pytest

from schemelab.lift import mode_amplitudes
from schemelab.models import ModelFunctions, make_model, validate_gradient
from schemelab.schemes import make_scheme
from schemelab.solver import (
    NoiseStream,
    NumericalAbort,
    SolverConfig,
    _Operators,
    corrected_reference,
    draw_noise,
    remainder_diagnostic,
    simulate,
    simulate_coupled,
    step,
    stochastic_convolution,
)
from schemelab.spectral import Transform, full_spectrum, semigroup_apply, to_physical
from spectral_oracle import half_spectrum


def random_initial(rng, N, scale=0.3):
    """Modes 0..N (1, N+1) of a random real field."""
    c = scale * (rng.standard_normal(2 * N + 1)
                 + 1j * rng.standard_normal(2 * N + 1))
    return half_spectrum(0.5 * (c + np.conj(c[::-1])))[None, :]


def zero_model():
    return make_model(1, F="zero", G="zero", theta="one")


class TestModels:
    def test_gradient_validation(self):
        model = make_model(1, G="state")
        probe = np.linspace(-2, 2, 9)[None, :].T
        assert validate_gradient(model, probe) <= 1e-6

    def test_bounded_theta_range(self):
        model = make_model(1, theta="bounded_sqrt")
        u = np.linspace(-50, 50, 101)[None, :]
        th = model.theta(u)[0, 0]
        assert np.all(th >= 1.0) and np.all(th <= np.sqrt(2.0) + 1e-12)

    def test_bounded_theta_is_its_closed_form_bit_for_bit(self):
        rng = np.random.default_rng(8)
        v = np.concatenate([[0.0, -0.0, 1e-200, 1e150, 1e200, -1e200, np.inf, -np.inf],
                            rng.standard_normal(400) * 10.0 ** rng.integers(-8, 8, 400)])
        with np.errstate(over="ignore", invalid="ignore"):
            th = make_model(1, theta="bounded_sqrt").theta(v.reshape(1, 2, -1))
            closed = np.sqrt(1.0 + v * v / (1.0 + v * v))
        # past |v| = 1.3e154 v * v overflows, and the closed form's inf / inf
        # is nan; theta stays at its bound there
        huge = np.abs(v) > 1e154
        assert huge.sum() == 4 and np.isnan(closed[huge]).all()
        closed[huge] = np.sqrt(2.0)
        assert th.shape == (1, 1, 2, v.size // 2)
        assert np.array_equal(th.ravel().view(np.int64), closed.view(np.int64))

    def test_constant_theta_is_declared_only_for_theta_one(self):
        assert np.array_equal(make_model(1, theta="one").theta_constant, [[1.0]])
        for theta in ("state", "bounded_sqrt"):
            assert make_model(1, theta=theta).theta_constant is None

    def test_constant_dg_is_declared_for_every_g(self):
        assert make_model(1, G="state").dg_constant.tolist() == [[[1.0]]]
        assert make_model(1, G="zero").dg_constant.tolist() == [[[0.0]]]
        for theta in ("one", "state", "bounded_sqrt"):
            assert make_model(1, G="state", theta=theta).dg_constant is not None

    def test_separately_built_models_still_batch(self, forward):
        a, b = (make_model(1, G="state", theta="one") for _ in range(2))
        assert a.theta_constant is not b.theta_constant and a == b
        configs = [SolverConfig(scheme=forward, eps=0.1, N=8, M=32, dt=1e-3, T=0.01,
                                model=m, record_times=(0.0, 0.01)) for m in (a, b)]
        runs = simulate_coupled(configs, draw_noise(np.random.default_rng(2), 10, 8, 1))
        assert len(runs) == 2 and all(len(r.coeffs) == 2 for r in runs)

    def test_models_compare_theta_constants_by_value(self):
        theta2 = np.array([[1.0, 0.5], [0.0, 2.0]])

        def theta(u):
            return np.broadcast_to(theta2[..., None], (2, 2) + u.shape[1:])

        def model(const):
            return ModelFunctions(n=2, F=None, G=None, DG=None, theta=theta,
                                  label="n2", theta_constant=const)

        # two (2, 2) arrays, whose == alone would not be a bool
        assert model(theta2.copy()) == model(theta2.copy())
        assert model(theta2) != model(None)
        base = make_model(1, G="state", theta="one")
        assert base != dataclasses.replace(base, theta_constant=None)

    def test_models_compare_dg_constants_by_value(self):
        a, b = (make_model(1, G="state") for _ in range(2))
        assert a.dg_constant is not b.dg_constant and a == b
        assert a != dataclasses.replace(a, dg_constant=None)
        dg2 = np.arange(8.0).reshape(2, 2, 2)

        def dg(u):
            return np.broadcast_to(dg2[..., None], (2, 2, 2) + u.shape[1:])

        def model(const):
            return ModelFunctions(n=2, F=None, G=None, DG=dg, theta=None,
                                  label="n2", dg_constant=const)

        assert model(dg2.copy()) == model(dg2.copy())
        assert model(dg2) != model(None)

    def test_theta_constant_must_fit_theta(self):
        base = make_model(1, G="state", theta="one")
        with pytest.raises(ValueError, match="shape"):
            dataclasses.replace(base, theta_constant=np.ones((2, 2)))
        with pytest.raises(ValueError, match="shape"):
            dataclasses.replace(base, theta_constant=np.ones(1))
        with pytest.raises(ValueError, match="differs"):
            dataclasses.replace(base, theta_constant=[[2.0]])
        state = make_model(1, G="state", theta="state")
        with pytest.raises(ValueError, match="differs"):
            dataclasses.replace(state, theta_constant=[[1.0]])
        const = dataclasses.replace(base, theta_constant=[[1.0]]).theta_constant
        assert const.shape == (1, 1) and not const.flags.writeable

    def test_dg_constant_must_fit_dg(self):
        base = make_model(1, G="state", theta="one")
        with pytest.raises(ValueError, match="shape"):
            dataclasses.replace(base, dg_constant=np.ones((1, 1)))
        with pytest.raises(ValueError, match="shape"):
            dataclasses.replace(base, dg_constant=np.ones((2, 2, 2)))
        with pytest.raises(ValueError, match="dg_constant differs from DG"):
            dataclasses.replace(base, dg_constant=[[[2.0]]])
        with pytest.raises(ValueError, match="differs"):
            dataclasses.replace(base, dg_constant=[[[1.0 + 1e-9]]])
        zero = make_model(1, G="zero", theta="one")
        with pytest.raises(ValueError, match="differs"):        # 0 fits 0 alone
            dataclasses.replace(zero, dg_constant=[[[1e-300]]])
        with pytest.raises(ValueError, match="differs"):
            dataclasses.replace(zero, dg_constant=[[[1.0]]])
        const = dataclasses.replace(base, dg_constant=[[[1.0]]]).dg_constant
        assert const.shape == (1, 1, 1) and not const.flags.writeable


class TestReality:
    """The fields are real: a run's state and snapshots are modes 0..N with
    a real mode 0."""

    def test_initial_data_must_be_modes_0_to_N(self, forward):
        kw = dict(scheme=forward, eps=0.1, N=8, M=32, dt=1e-3, T=0.01, model=make_model(1))
        for shape in ((1, 17), (2, 9), (1, 8), (9,)):       # (1, 17): modes -8..8
            with pytest.raises(ValueError, match="shape"):
                SolverConfig(initial=np.zeros(shape, dtype=complex), **kw)
        half = np.zeros((1, 9), dtype=complex)
        half[0, 3] = 0.2 + 0.1j
        half[0, 0] = 0.5 + 1e-300j
        with pytest.raises(ValueError, match="real mode 0"):
            SolverConfig(initial=half, **kw)
        half[0, 0] = 0.5
        assert np.array_equal(SolverConfig(initial=half, **kw).initial, half)

    @pytest.mark.parametrize("conservative", [False, True])
    @pytest.mark.parametrize("theta", ["one", "bounded_sqrt", "state"])
    def test_every_snapshot_has_a_real_mode_0(self, forward, theta, conservative):
        """A plain run and a drift run of one batch, from real initial data
        with a nonzero mode 0, record an imaginary part of exactly 0 in mode
        0 at every recorded time."""
        rng = np.random.default_rng(17)
        N, dt = 12, 1e-3
        initial = random_initial(rng, N)
        initial[0, 0] = 0.3
        configs = [SolverConfig(scheme=forward, eps=0.125, N=N, M=40, dt=dt, T=0.05,
                                model=make_model(1, G="state", theta=theta), Lambda=Lambda,
                                record_times=(0.0, 0.01, 0.03, 0.05), initial=initial,
                                conservation_form=conservative)
                   for Lambda in (0.0, 0.25)]
        runs = simulate_coupled(configs, NoiseStream(rng, configs[0].steps, N, 1))
        for run in runs:
            assert run.truncation_time is None and len(run.coeffs) == 4
            assert [float(np.abs(c[:, 0].imag).max()) for c in run.coeffs] == [0.0] * 4
        assert not np.array_equal(runs[0].coeffs[-1], runs[1].coeffs[-1])


class TestStep:
    def test_pure_decay_single_mode(self, forward):
        N = 8
        cfg = SolverConfig(scheme=forward, eps=0.1, N=N, M=32, dt=1e-2,
                           T=0.1, model=zero_model())
        u = np.zeros((1, 1, N + 1), dtype=complex)      # (n, B, N+1)
        u[0, 0, 3] = 1.0
        # theta = 1 is constant, so step takes the noise as modes 0..N
        out, _ = step(u, _Operators([cfg]), np.zeros((1, 1, N + 1), dtype=complex))
        assert out[0, 0, 3] == pytest.approx(np.exp(-9 * 1e-2))

    def test_additive_noise_mode_variance(self, forward):
        # theta = 1, F = G = 0: the state is the reference convolution; its
        # mode variance approaches h^2 K / (2 k^2 f) (here f = h = 1)
        rng = np.random.default_rng(8)
        N, M, dt, T = 8, 32, 2e-3, 0.5
        cfg = SolverConfig(scheme=forward, eps=0.1, N=N, M=M, dt=dt, T=T,
                           model=zero_model(), record_times=(T,))
        S = 400
        # S runs in one batch, each on its own stream of its own generator:
        # streams made one after another from one generator would overlap
        streams = [NoiseStream(r, cfg.steps, N, 1) for r in rng.spawn(S)]
        acc = np.zeros(N + 1)
        for traj in simulate_coupled([cfg] * S, streams):
            acc += np.abs(traj.coeffs[-1][0]) ** 2
        acc /= S
        for k in (1, 2, 5):
            K = 1.0 - np.exp(-2.0 * k * k * T)
            expected = 2 * np.pi * mode_amplitudes(forward, 0.1, N)[k] ** 2 * K
            se = expected * np.sqrt(2.0 / S)
            assert abs(acc[k] - expected) <= 5 * se + 0.01 * expected

    def test_conservation_vs_nonconservation_form(self, forward):
        # u D_eps u against D_eps(u^2/2) on smooth data: the gap halves with eps
        from schemelab.schemes import derivative_multiplier

        N, M = 32, 128
        x = -np.pi + 2 * np.pi * np.arange(M) / M
        u = (1.0 + 0.5 * np.sin(x) + 0.2 * np.cos(2 * x))[None, :]
        t = Transform(N, M)
        gaps = []
        for eps in (0.2, 0.1, 0.05):
            # modes 0..N: the multiplier of mode -k is the conjugate of mode k's
            mult = derivative_multiplier(forward, np.arange(N + 1), eps)
            direct = u * t.to_grid(t.to_coeffs(u) * mult)
            conserv = t.to_grid(t.to_coeffs(0.5 * u ** 2) * mult)
            gaps.append(np.abs(direct - conserv).max())
        assert gaps[1] <= 0.6 * gaps[0]
        assert gaps[2] <= 0.6 * gaps[1]


class TestSimulate:
    def test_exact_linear_integration(self, forward):
        rng = np.random.default_rng(3)
        N, M, dt, T = 32, 128, 5e-5, 0.05
        u0 = random_initial(rng, N)
        cfg = SolverConfig(scheme=forward, eps=0.1, N=N, M=M, dt=dt, T=T,
                           model=zero_model(), record_times=(T,), initial=u0)
        steps = cfg.steps
        traj = simulate(cfg, increments=np.zeros((steps, N + 1, 1), complex))
        exact = semigroup_apply(u0, forward, 0.1, T)
        assert np.abs(traj.coeffs[-1] - exact).max() <= 1e-13

    def test_record_times_default_to_the_final_time(self, forward):
        cfg = SolverConfig(scheme=forward, eps=0.5, N=8, M=32, dt=1e-3, T=0.01,
                           model=make_model(1))
        assert cfg.record_times == (0.01,)
        traj = simulate(cfg, np.random.default_rng(4))
        assert traj.times == (0.01,) and len(traj.coeffs) == 1
        assert traj.coeffs[0].shape == (1, 9) and np.abs(traj.coeffs[0]).max() > 0

    def test_bitwise_determinism(self, forward):
        model = make_model(1, G="state", theta="bounded_sqrt")
        cfg = SolverConfig(scheme=forward, eps=0.25, N=16, M=64, dt=1e-3,
                           T=0.05, model=model, record_times=(0.025, 0.05))
        t1 = simulate(cfg, seed=42)
        t2 = simulate(cfg, seed=42)
        for a, b in zip(t1.coeffs, t2.coeffs):
            assert np.array_equal(a, b)

    def test_noise_coupling_across_eps(self, forward):
        # the drawn increments are a function of (steps, N, n) only
        rng1 = np.random.default_rng(7)
        rng2 = np.random.default_rng(7)
        inc1 = draw_noise(rng1, 50, 16, 1)
        inc2 = draw_noise(rng2, 50, 16, 1)
        assert np.array_equal(inc1, inc2)

    def test_ito_convention_gbm_mode_zero(self, forward):
        # G = F = 0, theta(u) = u, single mode: the Ito integral is a
        # martingale, so the state mean stays at its initial value
        model = make_model(1, G="zero", theta="state")
        N, M, dt, T = 0, 4, 2e-3, 0.4
        c = np.array([[2.0 + 0.0j]])
        cfg = SolverConfig(scheme=forward, eps=0.1, N=N, M=M, dt=dt, T=T,
                           model=model, record_times=(T,),
                           initial=c)
        rng = np.random.default_rng(10)
        S = 1500
        # S runs in one batch, each on its own stream, drawn from rng in the
        # order S simulate calls would draw them
        streams = [NoiseStream(rng, cfg.steps, N, 1) for _ in range(S)]
        finals = np.array([traj.coeffs[-1][0, 0].real
                           for traj in simulate_coupled([cfg] * S, streams)])
        lone = simulate(cfg, rng=np.random.default_rng(10))
        assert finals[0] == lone.coeffs[-1][0, 0].real
        se = finals.std(ddof=1) / np.sqrt(S)
        assert abs(finals.mean() - 2.0) <= 5 * se

    def test_blowup_truncation(self, forward):
        # strong deterministic growth against a low cap: with G = theta =
        # state the corrected drift is -Lambda u^2, which blows up for Lambda < 0
        model = make_model(1, G="state", theta="state")
        rng = np.random.default_rng(1)
        u0 = random_initial(rng, 8, scale=1.0)
        cfg = SolverConfig(scheme=forward, eps=0.25, N=8, M=32, dt=1e-3,
                           T=2.0, model=model, Lambda=-5.0,
                           record_times=(0.5, 1.0, 2.0), blowup_cap=2.0,
                           initial=u0)
        traj = simulate(cfg, increments=np.zeros((cfg.steps, 9, 1), complex))
        assert traj.truncation_time is not None
        assert all(t < traj.truncation_time for t in traj.times[1:])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_aborts(self, forward):
        # the drift -Lambda of G = state, theta = one overflows the forward
        # transform of its rest row at the first step
        model = make_model(1, G="state", theta="one")
        cfg = SolverConfig(scheme=forward, eps=0.25, N=4, M=16, dt=1e-3,
                           T=0.1, model=model, Lambda=1e308)
        rng = np.random.default_rng(0)
        u0 = random_initial(rng, 4)
        cfg.initial = u0
        with pytest.raises(NumericalAbort):
            simulate(cfg, rng=rng)


class TestStochasticConvolution:
    def test_zero_theta(self, forward):
        steps, N, M = 20, 8, 32
        inc = draw_noise(np.random.default_rng(0), steps, N, 1)
        theta = np.zeros((steps, 1, 1, M))
        out = stochastic_convolution(theta, forward, 0.1, 1e-3, N, M, inc)
        assert np.all(out == 0.0)

    def test_identity_theta_matches_reference_field(self, forward):
        steps, N, M, dt = 30, 12, 48, 1e-3
        inc = draw_noise(np.random.default_rng(4), steps, N, 1)
        theta = np.tile(np.eye(1)[:, :, None], (steps, 1, 1, M))
        psi = stochastic_convolution(theta, forward, 0.1, dt, N, M, inc)
        cfg = SolverConfig(scheme=forward, eps=0.1, N=N, M=M, dt=dt,
                           T=steps * dt, model=zero_model(),
                           record_times=(steps * dt,))
        # the linear model's run is the reference field X
        ref = to_physical(simulate(cfg, increments=inc).coeffs[-1], M)
        np.testing.assert_allclose(psi, ref, atol=1e-12)

    def test_deterministic_theta_mode_variance(self, forward):
        # spatially varying deterministic theta: the discrete variance of each
        # mode is an explicit sum; MC must reproduce it
        rng = np.random.default_rng(9)
        steps, N, M, dt = 40, 6, 32, 5e-3
        x = -np.pi + 2 * np.pi * np.arange(M) / M
        theta_field = (1.0 + 0.5 * np.cos(x))[None, None, :]
        theta = np.tile(theta_field, (steps, 1, 1, 1))
        S = 800
        acc = np.zeros(2 * N + 1)
        for _ in range(S):
            inc = draw_noise(rng, steps, N, 1)
            psi = stochastic_convolution(theta, forward, 0.1, dt, N, M, inc)
            acc += np.abs(full_spectrum(Transform(N, M).to_coeffs(psi)[0])) ** 2
        acc /= S
        # exact discrete second moment: per step the mode-k input is
        # (1/sqrt(2pi)) sum_l theta_hat(k-l) h dw_l, then decay weights apply
        th_hat = full_spectrum(Transform(2 * N, M).to_coeffs(theta_field[0, 0]))
        ks = np.arange(-N, N + 1)
        expected = np.zeros(2 * N + 1)
        for i, k in enumerate(ks):
            decay = np.exp(-(k ** 2) * dt)
            tot = 0.0
            for l in range(-N, N + 1):
                tl = th_hat[(k - l) + 2 * N] if abs(k - l) <= 2 * N else 0.0
                tot += abs(tl) ** 2 / (2 * np.pi) * dt
            # geometric sum of decay^2 over steps, one decay factor per step
            g = decay ** 2 * (1 - decay ** (2 * steps)) / (1 - decay ** 2) \
                if k != 0 else steps
            expected[i] = tot * g
        for i, k in enumerate(ks):
            se = expected[i] * np.sqrt(2.0 / S)
            assert abs(acc[i] - expected[i]) <= 5 * se + 1e-12


class TestRemainderDiagnostic:
    def setup_psi(self, theta_const):
        forward = make_scheme("forward_difference")
        steps, N, M, dt = 50, 16, 64, 1e-3
        inc = draw_noise(np.random.default_rng(12), steps, N, 1)
        theta = np.full((steps, 1, 1, M), theta_const)
        psi = stochastic_convolution(theta, forward, 0.1, dt, N, M, inc)
        cfg = SolverConfig(scheme=forward, eps=0.1, N=N, M=M, dt=dt,
                           T=steps * dt, model=zero_model(),
                           record_times=(steps * dt,))
        X = to_physical(simulate(cfg, increments=inc).coeffs[-1], M)
        return psi, X, theta[0]

    def test_constant_theta_remainder_vanishes(self):
        psi, X, theta0 = self.setup_psi(0.8)
        # psi = 0.8 X exactly, so R = dPsi - 0.8 dX = 0
        val = remainder_diagnostic(psi, theta0, X, gamma=0.4)
        assert val <= 1e-10

    def test_zero_theta_zero(self):
        psi, X, _ = self.setup_psi(0.0)
        val = remainder_diagnostic(psi, np.zeros((1, 1, X.shape[-1])), X, 0.4)
        assert val == 0.0

    def test_small_gamma_approaches_sup(self):
        forward = make_scheme("forward_difference")
        steps, N, M, dt = 40, 12, 64, 1e-3
        inc = draw_noise(np.random.default_rng(15), steps, N, 1)
        x = -np.pi + 2 * np.pi * np.arange(M) / M
        theta = np.tile((1.0 + 0.3 * np.sin(x))[None, None, :], (steps, 1, 1, 1))
        psi = stochastic_convolution(theta, forward, 0.1, dt, N, M, inc)
        cfg = SolverConfig(scheme=forward, eps=0.1, N=N, M=M, dt=dt,
                           T=steps * dt, model=zero_model(),
                           record_times=(steps * dt,))
        X = to_physical(simulate(cfg, increments=inc).coeffs[-1], M)
        sup_R = 0.0
        P, Xv, th = psi, X, theta[0]
        for i in range(M):
            R = (P - P[:, i][:, None]) - th[:, :, i] @ (Xv - Xv[:, i][:, None])
            sup_R = max(sup_R, np.abs(R).max())
        tiny_gamma = remainder_diagnostic(psi, theta[0], X, gamma=1e-9)
        assert tiny_gamma == pytest.approx(sup_R, rel=1e-6)


class TestCorrectedReference:
    def test_zero_lambda_is_plain_run(self, central):
        model = make_model(1, G="state", theta="one")
        cfg = SolverConfig(scheme=central, eps=0.05, N=16, M=64, dt=1e-3,
                           T=0.05, model=model, record_times=(0.05,))
        inc = draw_noise(np.random.default_rng(2), cfg.steps, 16, 1)
        ref = corrected_reference(cfg, eps_ref=0.05, increments=inc)
        plain = simulate(cfg, increments=inc)
        for a, b in zip(ref.coeffs, plain.coeffs):
            assert np.array_equal(a, b)

    def test_scalar_drift_constant(self, central):
        # G = state, theta = one: the drift is the constant -Lambda, so a
        # run from 0 without noise is the flat field -Lambda t
        model = make_model(1, G="state", theta="one")
        cfg = SolverConfig(scheme=central, eps=0.25, N=4, M=16, dt=1e-3, T=0.1,
                           model=model, Lambda=0.25, record_times=(0.05, 0.1))
        traj = simulate(cfg, increments=np.zeros((cfg.steps, 5, 1), complex))
        for i, t in enumerate(traj.times):
            np.testing.assert_allclose(traj.grid(i, 16), -0.25 * t, rtol=1e-12)

    def test_lambda_must_be_finite(self, central):
        with pytest.raises(ValueError, match="Lambda must be finite"):
            SolverConfig(scheme=central, eps=0.25, N=4, M=16, dt=1e-3, T=0.1,
                         model=make_model(1, G="state"), Lambda=np.inf)

    def test_drift_gap_grows_with_lambda(self, forward):
        # paired-seed runs with two different explicit drifts separate more
        # for the larger drift magnitude
        model = make_model(1, G="state", theta="one")
        cfg = SolverConfig(scheme=forward, eps=0.05, N=32, M=128, dt=5e-4,
                           T=0.1, model=model, record_times=(0.1,))
        inc = draw_noise(np.random.default_rng(3), cfg.steps, 32, 1)
        plain = simulate(cfg, increments=inc)
        gaps = []
        for lam in (0.1, 0.3):
            drifted = SolverConfig(
                scheme=forward, eps=0.05, N=32, M=128, dt=5e-4, T=0.1,
                model=model, Lambda=lam, record_times=(0.1,))
            run = simulate(drifted, increments=inc)
            gaps.append(np.abs(run.coeffs[-1] - plain.coeffs[-1]).max())
        assert gaps[1] > 2.0 * gaps[0]

    def test_conservation_run_vs_corrected_reference(self, forward):
        # the chain-rule-respecting discretisation carries no correction, so
        # a corrected reference drifts away from it at a rate set by Lambda
        model = make_model(1, G="state", theta="one")
        cons = SolverConfig(scheme=forward, eps=0.02, N=32, M=128, dt=5e-4,
                            T=0.1, model=model, record_times=(0.1,),
                            conservation_form=True)
        inc = draw_noise(np.random.default_rng(6), cons.steps, 32, 1)
        cons_run = simulate(cons, increments=inc)
        gaps = []
        for lam in (0.1, 0.3):
            ref = corrected_reference(cons, eps_ref=0.02, Lambda=lam,
                                      increments=inc)
            gaps.append(np.abs(ref.coeffs[-1] - cons_run.coeffs[-1]).max())
        assert gaps[1] > 2.0 * gaps[0]

    def test_conservation_requires_potential(self, forward):
        model = make_model(1, G="zero", theta="one")
        with pytest.raises(ValueError):
            SolverConfig(scheme=forward, eps=0.1, N=8, M=32, dt=1e-3, T=0.01,
                         model=model, conservation_form=True)
