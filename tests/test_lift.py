import pickle

import numpy as np
import pytest
from scipy.integrate import simpson

from schemelab.correction import lambda_eps
from schemelab.lift import (
    LiftPlan,
    MissingOffsetError,
    ModeState,
    assemble_X,
    d_eps_xx,
    draw_increments,
    evolve_modes,
    fluctuation_statistic,
    lift_offsets,
    lift_XX,
    mode_amplitudes,
    state_from_coeffs,
)
from schemelab import lift as lift_module, spectral
from schemelab.schemes import CutoffScheme, make_function, make_scheme
from schemelab.spectral import SQRT_2PI, grid_points, sobolev_minus_alpha_norm

def random_state(rng, scheme, eps, N, n, t=0.7):
    state = ModeState.zero(scheme, eps, N, n)
    return evolve_modes(state, t, draw_increments(rng, N, n))


def eval_X(state, xs):
    """Direct evaluation of the mode sum at arbitrary points (slow oracle)."""
    N, n = state.N, state.n
    q = mode_amplitudes(state.scheme, state.eps, N)
    ks = np.arange(-N, N + 1)
    a = np.zeros((2 * N + 1, n), dtype=complex)
    a[N:] = q[:, None] * state.xi
    a[:N] = np.conj(a[N + 1:])[::-1]
    phases = np.exp(1j * np.outer(xs, ks))
    return np.real(phases @ a)


def eval_Xprime(state, xs):
    N, n = state.N, state.n
    q = mode_amplitudes(state.scheme, state.eps, N)
    ks = np.arange(-N, N + 1)
    a = np.zeros((2 * N + 1, n), dtype=complex)
    a[N:] = q[:, None] * state.xi
    a[:N] = np.conj(a[N + 1:])[::-1]
    phases = (1j * ks) * np.exp(1j * np.outer(xs, ks))
    return np.real(phases @ a)


class TestEvolveModes:
    def test_zero_increments_pure_decay(self, forward):
        state = ModeState(np.ones((5, 1), dtype=complex), forward, 0.1, 0.0)
        out = evolve_modes(state, 0.3, np.zeros((5, 1), dtype=complex))
        for k in range(5):
            expected = np.exp(-k * k * 0.3) if k else 1.0
            assert out.xi[k, 0] == pytest.approx(expected)

    def test_variance_matches_kernel(self, forward):
        # MC check of E|xi_k(t)|^2 = 1 - exp(-2 k^2 t) (f = 1), mode 0 -> t
        rng = np.random.default_rng(11)
        t, N, S = 0.4, 6, 4000
        acc = np.zeros(N + 1)
        for _ in range(S):
            st = ModeState.zero(forward, 0.1, N, 1)
            st = evolve_modes(st, t, draw_increments(rng, N, 1))
            acc += np.abs(st.xi[:, 0]) ** 2
        acc /= S
        for k in range(N + 1):
            K = t if k == 0 else 1.0 - np.exp(-2.0 * k * k * t)
            se = K * np.sqrt(2.0 / S)
            assert abs(acc[k] - K) <= 5 * se

    def test_two_steps_match_one_in_second_moment(self, forward):
        rng = np.random.default_rng(5)
        N, S, dt = 4, 4000, 0.15
        acc2, acc1 = np.zeros(N + 1), np.zeros(N + 1)
        for _ in range(S):
            st = ModeState.zero(forward, 0.2, N, 1)
            st = evolve_modes(st, dt, draw_increments(rng, N, 1))
            st = evolve_modes(st, dt, draw_increments(rng, N, 1))
            acc2 += np.abs(st.xi[:, 0]) ** 2
            st1 = ModeState.zero(forward, 0.2, N, 1)
            st1 = evolve_modes(st1, 2 * dt, draw_increments(rng, N, 1))
            acc1 += np.abs(st1.xi[:, 0]) ** 2
        acc1 /= S
        acc2 /= S
        np.testing.assert_allclose(acc2, acc1, atol=5 * np.sqrt(2.0 / S))

    def test_mode_zero_is_brownian(self, forward):
        rng = np.random.default_rng(2)
        st = ModeState.zero(forward, 0.1, 3, 2)
        st = evolve_modes(st, 0.5, draw_increments(rng, 3, 2))
        assert np.all(st.xi[0].imag == 0.0)


class TestAssembleX:
    def test_zero_state_zero_field(self, forward):
        field = assemble_X(ModeState.zero(forward, 0.1, 8, 2))
        assert field.shape == (2, 9) and np.all(field == 0.0)

    def test_single_mode_profile(self, forward):
        xi = np.zeros((5, 1), dtype=complex)
        xi[2, 0] = 1.0
        state = ModeState(xi, forward, 0.1, 1.0)
        field, grid = assemble_X(state, 64)
        q = mode_amplitudes(forward, 0.1, 4)[2]
        np.testing.assert_allclose(grid[0], 2 * q * np.cos(2 * grid_points(64)),
                                   atol=1e-12)

    def test_reality(self, rng, forward):
        state = random_state(rng, forward, 0.1, 16, 2)
        field = assemble_X(state)
        assert np.all(field[:, 0].imag == 0.0)          # mode 0 is real

    def test_spatial_variance_matches_series(self, forward):
        rng = np.random.default_rng(31)
        eps, t, N, S = 0.1, 2.0, 32, 2000
        acc = 0.0
        for _ in range(S):
            st = random_state(rng, forward, eps, N, 1, t=t)
            _, grid = assemble_X(st, 128)
            acc += (grid[0] ** 2).mean()
        acc /= S
        q = mode_amplitudes(forward, eps, N)
        K = np.array([t] + [1.0 - np.exp(-2.0 * k * k * t)
                            for k in range(1, N + 1)])
        expected = q[0] ** 2 * K[0] + 2 * float((q[1:] ** 2 * K[1:]).sum())
        assert acc == pytest.approx(expected, rel=0.1)

    def test_state_round_trip(self, rng, forward):
        state = random_state(rng, forward, 0.1, 12, 2)
        field = assemble_X(state)
        back = state_from_coeffs(field, forward, 0.1, state.t)
        np.testing.assert_allclose(back.xi, state.xi, atol=1e-13)


class TestLiftXX:
    def test_zero_offset_zero_matrices(self, rng, forward):
        state = random_state(rng, forward, 0.1, 8, 1)
        lift = lift_XX(state, 64, [2 * np.pi / 64, 0.0])
        assert np.all(lift.offset(0.0).values == 0.0)

    def test_series_matches_quadrature_oracle(self, forward):
        # direct Simpson quadrature of the defining integral, small N
        rng = np.random.default_rng(17)
        for n in (1, 2):
            state = random_state(rng, forward, 0.25, 12, n)
            u = 0.83
            lift = lift_XX(state, 64, [2 * np.pi / 64, u])
            vals = lift.offset(u).values
            x0_idx = 10
            x0 = lift.rough.x[x0_idx]
            zs = np.linspace(x0, x0 + u, 4001)
            X = eval_X(state, zs)
            Xp = eval_Xprime(state, zs)
            integrand = np.einsum("ma,mb->mab", X - X[0], Xp)
            oracle = simpson(integrand, x=zs, axis=0)
            np.testing.assert_allclose(vals[x0_idx], oracle, atol=1e-8)

    def test_chen_consistency_across_offsets(self, rng, forward):
        # series-level consistency at grid-aligned shifts u and 2u:
        # XX(x, x+2u) - XX(x, x+u) - XX(x+u, x+2u) = dX(x, x+u) (x) dX(x+u, x+2u)
        state = random_state(rng, forward, 0.1, 24, 2)
        M = 128
        s = 16
        u = s * 2 * np.pi / M
        lift = lift_XX(state, M, [2 * np.pi / M, u, 2 * u])
        A = lift.offset(u).values
        B = lift.offset(2 * u).values
        X = lift.rough.X
        lhs = B - A - np.roll(A, -s, axis=0)
        dX1 = np.roll(X, -s, axis=0) - X
        dX2 = np.roll(X, -2 * s, axis=0) - np.roll(X, -s, axis=0)
        rhs = np.einsum("ma,mb->mab", dX1, dX2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_scalar_geometricity(self, rng, forward):
        state = random_state(rng, forward, 0.1, 32, 1)
        M = 128
        u = 0.37
        lift = lift_XX(state, M, [2 * np.pi / M, u])
        xs = lift.rough.x
        dX = eval_X(state, xs + u) - eval_X(state, xs)
        np.testing.assert_allclose(lift.offset(u).values[:, 0, 0],
                                   0.5 * dX[:, 0] ** 2, atol=1e-10)

    def test_grid_spacing_required(self, rng, forward):
        state = random_state(rng, forward, 0.1, 8, 1)
        with pytest.raises(ValueError):
            lift_XX(state, 64, [0.5])

    def test_grid_aligned_offset_matches_composition(self, rng, forward):
        # when eps z lands on the grid, the offset table must agree with the
        # Chen composition of adjacent increments
        from schemelab.roughpath import xx_eval

        state = random_state(rng, forward, 0.1, 24, 2)
        M, s = 96, 5
        u = s * 2 * np.pi / M
        lift = lift_XX(state, M, [2 * np.pi / M, u])
        table = lift.offset(u).values
        for i in (0, 17, 90):
            composed = xx_eval(lift.rough, i, i + s)
            np.testing.assert_allclose(table[i], composed, atol=1e-11)

    def test_xx_ignores_the_mode_zero_amplitude(self, rng, forward):
        # XX does not depend on a_0; a large a_0 must not even round into it
        state = random_state(rng, forward, 0.1, 12, 2)
        M = 40
        offsets = [2 * np.pi / M, 0.1, -0.1, 1.3]
        lifts = []
        for xi0 in (0.0, 1e3 * np.sqrt(2 * np.pi)):      # a_0 = q_0 xi_0 = 0, 1e3
            xi = state.xi.copy()
            xi[0] = xi0
            lifts.append(lift_XX(ModeState(xi, forward, 0.1, state.t), M, offsets))
        zero, big = lifts
        for u in offsets:
            assert np.array_equal(zero.offset(u).coeffs, big.offset(u).coeffs)
            assert np.array_equal(zero.offset(u).values, big.offset(u).values)
        np.testing.assert_allclose(big.rough.X - zero.rough.X, 1e3, rtol=1e-15)


def skewed_full_spectrum(bad):
    """``full_spectrum`` with the negative modes of sample ``bad``'s field
    doubled, which breaks its conjugate symmetry: the m = 0 block of that
    sample's lift, sum_k w_k conj(a_k) a_k^T, is then not real."""
    def full(half):
        out = spectral.full_spectrum(half)
        if half.ndim == 3:          # the field modes of a chunk, (S, n, N+1)
            out[bad, :, :half.shape[-1] - 1] *= 2.0
        return out
    return full


class TestChunk:
    """A lift of S states stacked on a leading sample axis."""

    @pytest.mark.parametrize("S, bad", [(1, 0), (4, 2)])
    def test_lost_reality_raises(self, monkeypatch, forward, S, bad):
        rng = np.random.default_rng(61)
        xi = np.stack([random_state(rng, forward, 0.1, 12, 2).xi for _ in range(S)])
        state = ModeState(xi, forward, 0.1, 0.7)
        offsets = lift_offsets(forward, 0.1, 40)
        lift_XX(state, 40, offsets)                       # intact: no error
        monkeypatch.setattr(lift_module, "full_spectrum", skewed_full_spectrum(bad))
        with pytest.raises(FloatingPointError, match="reality"):
            lift_XX(state, 40, offsets)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("name", ["forward_difference", "central_difference"])
    def test_bits_of_one_sample_lifts(self, n, name):
        scheme = make_scheme(name)
        rng = np.random.default_rng(67)
        eps, N, M, S = 0.125, 16, 48, 3
        offsets = lift_offsets(scheme, eps, M) + [0.0, 1.3]
        singles = [ModeState.zero(scheme, eps, N, n) for _ in range(S)]
        chunk = ModeState(np.zeros((S, N + 1, n)), scheme, eps, 0.0)
        for dt in (0.1, 0.4):
            increments = [draw_increments(rng, N, n) for _ in range(S)]
            singles = [evolve_modes(st, dt, z) for st, z in zip(singles, increments)]
            chunk = evolve_modes(chunk, dt, np.stack(increments))
        assert np.array_equal(chunk.xi, np.stack([st.xi for st in singles]))
        lift = lift_XX(chunk, M, offsets)
        lifts = [lift_XX(st, M, offsets) for st in singles]
        field = d_eps_xx(lift, scheme, eps)
        stats = fluctuation_statistic(lift, scheme, eps, chunk.t, 0.45)
        for s, one in enumerate(lifts):
            for u in offsets:
                assert np.array_equal(lift.offset(u).coeffs[s], one.offset(u).coeffs)
                assert np.array_equal(lift.offset(u).values[s], one.offset(u).values)
            assert np.array_equal(lift.rough[s].x, one.rough.x)
            assert np.array_equal(lift.rough[s].X, one.rough.X)
            assert np.array_equal(lift.rough[s].XXinc, one.rough.XXinc)
            one_field = d_eps_xx(one, scheme, eps)
            assert np.array_equal(field.coeffs[s], one_field.coeffs)
            assert np.array_equal(field.values[s], one_field.values)
            assert stats[s] == fluctuation_statistic(one, scheme, eps, chunk.t, 0.45)


class TestPlan:
    """A lift plan built once and passed in, as the experiments pass it."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("name", ["forward_difference", "central_difference"])
    def test_prebuilt_plan_gives_the_same_bits(self, n, name):
        scheme = make_scheme(name)
        rng = np.random.default_rng(71)
        eps, N, M, S = 0.125, 16, 48, 3
        offsets = lift_offsets(scheme, eps, M) + [0.0, 1.3]
        plan = pickle.loads(pickle.dumps(LiftPlan(scheme, eps, N, M, offsets)))
        increments = np.stack([draw_increments(rng, N, n) for _ in range(S)])
        state = evolve_modes(ModeState(np.zeros((S, N + 1, n)), scheme, eps, 0.0), 0.4, increments)
        built, given = lift_XX(state, M, offsets), lift_XX(state, plan=plan)
        for u in offsets:
            assert np.array_equal(built.offset(u).coeffs, given.offset(u).coeffs)
            assert np.array_equal(built.offset(u).values, given.offset(u).values)
        for a, b in zip(built.rough, given.rough):
            assert np.array_equal(a.X, b.X) and np.array_equal(a.XXinc, b.XXinc)

    def test_plan_of_another_lift_raises(self, rng, forward):
        state = random_state(rng, forward, 0.1, 8, 1)
        offsets = lift_offsets(forward, 0.1, 32)
        for plan in (LiftPlan(forward, 0.2, 8, 32, offsets), LiftPlan(forward, 0.1, 9, 32, offsets),
                     LiftPlan(make_scheme("central_difference"), 0.1, 8, 32, offsets)):
            with pytest.raises(ValueError, match="plan"):
                lift_XX(state, plan=plan)
        with pytest.raises(TypeError, match="plan"):
            lift_XX(state, 32, offsets, plan=LiftPlan(forward, 0.1, 8, 32, offsets))


class TestDEpsXX:
    def test_missing_offset_raises(self, rng, forward):
        state = random_state(rng, forward, 0.1, 8, 1)
        lift = lift_XX(state, 64, [2 * np.pi / 64])
        with pytest.raises(MissingOffsetError):
            d_eps_xx(lift, forward, 0.1)

    def test_weight_scaling_exact(self, rng, forward):
        from schemelab.schemes import AtomicSignedMeasure, CutoffScheme

        state = random_state(rng, forward, 0.1, 16, 1)
        lift = lift_XX(state, 64, [2 * np.pi / 64, 0.1])
        base = d_eps_xx(lift, forward, 0.1).values
        doubled_mu = AtomicSignedMeasure([(1.0, 2.0), (0.0, -2.0)])
        doubled = CutoffScheme(f=forward.f, mu=doubled_mu, h=forward.h,
                               c_f=forward.c_f)
        out = d_eps_xx(lift, doubled, 0.1).values
        np.testing.assert_allclose(out, 2.0 * base, atol=1e-14)

    def test_central_difference_mean_vanishes(self, central):
        rng = np.random.default_rng(23)
        eps, N, M, t, S = 0.1, 32, 128, 0.5, 400
        acc = np.zeros(M)
        for _ in range(S):
            st = random_state(rng, central, eps, N, 1, t=t)
            lift = lift_XX(st, M, [2 * np.pi / M, eps, -eps])
            acc += d_eps_xx(lift, central, eps).values[:, 0, 0]
        mean = acc.mean() / S
        spread = acc.std() / S
        assert abs(mean) <= 5 * max(spread / np.sqrt(M), 1e-3)

    def test_forward_difference_mean_matches_lambda_eps(self, forward):
        rng = np.random.default_rng(29)
        eps, N, M, t, S = 0.1, 64, 256, 0.5, 600
        vals = []
        for _ in range(S):
            st = random_state(rng, forward, eps, N, 1, t=t)
            lift = lift_XX(st, M, [2 * np.pi / M, eps])
            vals.append(d_eps_xx(lift, forward, eps).values[:, 0, 0].mean())
        vals = np.array(vals)
        target = lambda_eps(forward, eps, t, N)
        se = vals.std(ddof=1) / np.sqrt(S)
        assert abs(vals.mean() - target) <= 5 * se


class TestFluctuationStatistic:
    def test_central_case_no_centering(self, central):
        rng = np.random.default_rng(41)
        eps, N, M, t = 0.1, 24, 96, 0.5
        st = random_state(rng, central, eps, N, 1, t=t)
        lift = lift_XX(st, M, [2 * np.pi / M, eps, -eps])
        stat = fluctuation_statistic(lift, central, eps, t, 0.45)
        # Lambda_eps = 0, so the statistic is the norm of the field itself
        field = d_eps_xx(lift, central, eps)
        raw = sobolev_minus_alpha_norm(SQRT_2PI * field.coeffs[:, 0, 0], 0.45)
        assert stat == pytest.approx(raw, rel=1e-12)

    def test_time_mismatch_rejected(self, rng, forward):
        st = random_state(rng, forward, 0.1, 8, 1, t=0.5)
        lift = lift_XX(st, 64, [2 * np.pi / 64, 0.1])
        with pytest.raises(ValueError):
            fluctuation_statistic(lift, forward, 0.1, 0.9, 0.45)

    def test_centering_reduces_norm_on_mean(self, forward):
        # averaging many lifts isolates the mean; the centred statistic of the
        # average must be far below the uncentred one
        rng = np.random.default_rng(53)
        eps, N, M, t, S = 0.1, 32, 128, 0.5, 300
        acc = None
        for _ in range(S):
            st = random_state(rng, forward, eps, N, 1, t=t)
            lift = lift_XX(st, M, [2 * np.pi / M, eps])
            field = d_eps_xx(lift, forward, eps)
            acc = field.coeffs if acc is None else acc + field.coeffs
        acc /= S
        uncentred = sobolev_minus_alpha_norm(SQRT_2PI * acc[:, 0, 0], 0.45)
        centred_coeffs = acc.copy()
        centred_coeffs[2 * N, 0, 0] -= lambda_eps(forward, eps, t, N)
        centred = sobolev_minus_alpha_norm(SQRT_2PI * centred_coeffs[:, 0, 0], 0.45)
        assert centred <= 0.25 * uncentred

    @pytest.mark.parametrize("smooth", [False, True])
    @pytest.mark.parametrize("eps, t, N", [(0.1, 0.5, 64), (0.25, 0.05, 40)])
    def test_mode_zero_at_the_mean_amplitudes_is_lambda_eps(self, forward, smooth, eps, t, N):
        # the m = 0 coefficient of D_eps XX is quadratic in |xi_k|^2, so with
        # |xi_k|^2 at its mean K_k(t) = 1 - e^{-2 k^2 f(eps k) t} it is the
        # statistic's mean; it equals the centring constant only when the lift
        # and Lambda_eps use the same amplitudes q_k
        scheme = forward if not smooth else CutoffScheme(
            f=make_function("one_plus_sq"), h=make_function("gaussian", width=0.7),
            mu=forward.mu, c_f=0.5)
        k = np.arange(N + 1, dtype=float)
        xi = np.sqrt(1.0 - np.exp(-2.0 * k * k * scheme.f(eps * k) * t))[:, None]
        xi[0] = 0.0
        M = 2 * N + 2
        lift = lift_XX(ModeState(xi, scheme, eps, t), M, lift_offsets(scheme, eps, M))
        mean = d_eps_xx(lift, scheme, eps).coeffs[2 * N, 0, 0].real
        assert mean == pytest.approx(lambda_eps(scheme, eps, t, N), rel=1e-14, abs=0.0)
