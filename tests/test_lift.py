import pickle

import numpy as np
import pytest
from scipy.integrate import simpson

from schemelab.correction import lambda_eps
import spectral_oracle
from schemelab.lift import (
    LiftPlan,
    assemble_X,
    d_eps_xx,
    draw_increments,
    evolve_modes,
    fluctuation_statistic,
    lift_XX,
    mode_amplitudes,
    state_from_coeffs,
)
from schemelab import lift as lift_module, spectral
from schemelab.schemes import CutoffScheme, make_function, make_scheme
from schemelab.spectral import SQRT_2PI, Transform, full_spectrum, sobolev_minus_alpha_norm


def random_state(rng, plan, n, t=0.7):
    """The state of ``plan``'s field at t, one transition from zero."""
    zero = np.zeros((plan.N + 1, n), dtype=complex)
    return evolve_modes(plan, zero, t, draw_increments(rng, plan.N, n))


def mode_coefficients(plan, xi):
    """a_l = q_l xi_l for l = -N..N, (2N+1, n)."""
    return full_spectrum(np.swapaxes(plan.q[:, None] * xi, 0, 1)).T


def eval_X(plan, xi, xs):
    """Direct evaluation of the mode sum at arbitrary points (slow oracle)."""
    ks = np.arange(-plan.N, plan.N + 1)
    return np.real(np.exp(1j * np.outer(xs, ks)) @ mode_coefficients(plan, xi))


def eval_Xprime(plan, xi, xs):
    ks = np.arange(-plan.N, plan.N + 1)
    phases = (1j * ks) * np.exp(1j * np.outer(xs, ks))
    return np.real(phases @ mode_coefficients(plan, xi))


class TestEvolveModes:
    def test_zero_increments_pure_decay(self, forward):
        plan = LiftPlan(forward, 0.1, 4, 9)
        out = evolve_modes(plan, np.ones((5, 1), dtype=complex), 0.3,
                           np.zeros((5, 1), dtype=complex))
        for k in range(5):
            expected = np.exp(-k * k * 0.3) if k else 1.0
            assert out[k, 0] == pytest.approx(expected)

    def test_variance_matches_kernel(self, forward):
        # MC check of E|xi_k(t)|^2 = 1 - exp(-2 k^2 t) (f = 1), mode 0 -> t
        rng = np.random.default_rng(11)
        t, N, S = 0.4, 6, 4000
        plan = LiftPlan(forward, 0.1, N, 2 * N + 1)
        acc = np.zeros(N + 1)
        for _ in range(S):
            acc += np.abs(random_state(rng, plan, 1, t)[:, 0]) ** 2
        acc /= S
        for k in range(N + 1):
            K = t if k == 0 else 1.0 - np.exp(-2.0 * k * k * t)
            se = K * np.sqrt(2.0 / S)
            assert abs(acc[k] - K) <= 5 * se

    def test_two_steps_match_one_in_second_moment(self, forward):
        rng = np.random.default_rng(5)
        N, S, dt = 4, 4000, 0.15
        plan = LiftPlan(forward, 0.2, N, 2 * N + 1)
        acc2, acc1 = np.zeros(N + 1), np.zeros(N + 1)
        for _ in range(S):
            st = random_state(rng, plan, 1, dt)
            st = evolve_modes(plan, st, dt, draw_increments(rng, N, 1))
            acc2 += np.abs(st[:, 0]) ** 2
            acc1 += np.abs(random_state(rng, plan, 1, 2 * dt)[:, 0]) ** 2
        acc1 /= S
        acc2 /= S
        np.testing.assert_allclose(acc2, acc1, atol=5 * np.sqrt(2.0 / S))

    def test_mode_zero_is_brownian(self, forward):
        rng = np.random.default_rng(2)
        st = random_state(rng, LiftPlan(forward, 0.1, 3, 7), 2, 0.5)
        assert np.all(st[0].imag == 0.0)


class TestAssembleX:
    def test_zero_state_zero_field(self, forward):
        field = assemble_X(LiftPlan(forward, 0.1, 8, 17), np.zeros((9, 2), dtype=complex))
        assert field.shape == (2, 9) and np.all(field == 0.0)

    def test_single_mode_profile(self, forward):
        xi = np.zeros((5, 1), dtype=complex)
        xi[2, 0] = 1.0
        grid = Transform(4, 64).to_grid(assemble_X(LiftPlan(forward, 0.1, 4, 64), xi))
        q = mode_amplitudes(forward, 0.1, 4)[2]
        np.testing.assert_allclose(grid[0], 2 * q * np.cos(2 * spectral.grid_points(64)),
                                   atol=1e-12)

    def test_reality(self, rng, forward):
        plan = LiftPlan(forward, 0.1, 16, 33)
        field = assemble_X(plan, random_state(rng, plan, 2))
        assert np.all(field[:, 0].imag == 0.0)          # mode 0 is real

    def test_spatial_variance_matches_series(self, forward):
        rng = np.random.default_rng(31)
        eps, t, N, S = 0.1, 2.0, 32, 2000
        plan, transform = LiftPlan(forward, eps, N, 128), Transform(N, 128)
        acc = 0.0
        for _ in range(S):
            grid = transform.to_grid(assemble_X(plan, random_state(rng, plan, 1, t)))
            acc += (grid[0] ** 2).mean()
        acc /= S
        q = mode_amplitudes(forward, eps, N)
        K = np.array([t] + [1.0 - np.exp(-2.0 * k * k * t)
                            for k in range(1, N + 1)])
        expected = q[0] ** 2 * K[0] + 2 * float((q[1:] ** 2 * K[1:]).sum())
        assert acc == pytest.approx(expected, rel=0.1)

    def test_state_round_trip(self, rng, forward):
        plan = LiftPlan(forward, 0.1, 12, 25)
        xi = random_state(rng, plan, 2)
        back = state_from_coeffs(plan, assemble_X(plan, xi))
        np.testing.assert_allclose(back, xi, atol=1e-13)


class TestLiftXX:
    def test_zero_offset_zero_matrices(self, rng, forward):
        plan = LiftPlan(forward, 0.1, 8, 64, shifts=(0.0,))
        lift = lift_XX(plan, random_state(rng, plan, 1))
        assert np.all(lift.offset(0.0).values == 0.0)

    def test_plan_lifts_the_atom_shifts_and_the_grid_spacing(self, rng, central):
        plan = LiftPlan(central, 0.1, 8, 64, shifts=(0.3,))
        assert plan.us == [0.1, -0.1, 0.3, 2 * np.pi / 64]
        lift = lift_XX(plan, random_state(rng, plan, 1))
        assert list(lift.offsets) == [0.1, -0.1, 0.3]        # the grid spacing on first read
        lift.offset(2 * np.pi / 64)
        assert list(lift.offsets) == plan.us

    def test_unlifted_shift_raises_key_error(self, rng, forward):
        plan = LiftPlan(forward, 0.1, 8, 64)
        lift = lift_XX(plan, random_state(rng, plan, 1))
        with pytest.raises(KeyError, match="not lifted"):
            lift.offset(0.5)

    def test_series_matches_quadrature_oracle(self, forward):
        # direct Simpson quadrature of the defining integral, small N
        rng = np.random.default_rng(17)
        u = 0.83
        plan = LiftPlan(forward, 0.25, 12, 64, shifts=(u,))
        for n in (1, 2):
            xi = random_state(rng, plan, n)
            lift = lift_XX(plan, xi)
            vals = lift.offset(u).values
            x0_idx = 10
            x0 = lift.rough.x[x0_idx]
            zs = np.linspace(x0, x0 + u, 4001)
            X = eval_X(plan, xi, zs)
            Xp = eval_Xprime(plan, xi, zs)
            integrand = np.einsum("ma,mb->mab", X - X[0], Xp)
            oracle = simpson(integrand, x=zs, axis=0)
            np.testing.assert_allclose(vals[x0_idx], oracle, atol=1e-8)

    def test_chen_consistency_across_offsets(self, rng, forward):
        # series-level consistency at grid-aligned shifts u and 2u:
        # XX(x, x+2u) - XX(x, x+u) - XX(x+u, x+2u) = dX(x, x+u) (x) dX(x+u, x+2u)
        M = 128
        s = 16
        u = s * 2 * np.pi / M
        plan = LiftPlan(forward, 0.1, 24, M, shifts=(u, 2 * u))
        lift = lift_XX(plan, random_state(rng, plan, 2))
        A = lift.offset(u).values
        B = lift.offset(2 * u).values
        X = lift.rough.X
        lhs = B - A - np.roll(A, -s, axis=0)
        dX1 = np.roll(X, -s, axis=0) - X
        dX2 = np.roll(X, -2 * s, axis=0) - np.roll(X, -s, axis=0)
        rhs = np.einsum("ma,mb->mab", dX1, dX2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_scalar_geometricity(self, rng, forward):
        M = 128
        u = 0.37
        plan = LiftPlan(forward, 0.1, 32, M, shifts=(u,))
        xi = random_state(rng, plan, 1)
        lift = lift_XX(plan, xi)
        xs = lift.rough.x
        dX = eval_X(plan, xi, xs + u) - eval_X(plan, xi, xs)
        np.testing.assert_allclose(lift.offset(u).values[:, 0, 0],
                                   0.5 * dX[:, 0] ** 2, atol=1e-10)

    def test_grid_aligned_offset_matches_composition(self, rng, forward):
        # when eps z lands on the grid, the offset table must agree with the
        # Chen composition of adjacent increments
        from schemelab.roughpath import xx_eval

        M, s = 96, 5
        u = s * 2 * np.pi / M
        plan = LiftPlan(forward, 0.1, 24, M, shifts=(u,))
        lift = lift_XX(plan, random_state(rng, plan, 2))
        table = lift.offset(u).values
        for i in (0, 17, 90):
            composed = xx_eval(lift.rough, i, i + s)
            np.testing.assert_allclose(table[i], composed, atol=1e-11)

    def test_xx_ignores_the_mode_zero_amplitude(self, rng, forward):
        # XX does not depend on a_0; a large a_0 must not even round into it
        plan = LiftPlan(forward, 0.1, 12, 40, shifts=(-0.1, 1.3))
        xi = random_state(rng, plan, 2)
        lifts = []
        for xi0 in (0.0, 1e3 * np.sqrt(2 * np.pi)):      # a_0 = q_0 xi_0 = 0, 1e3
            xi = xi.copy()
            xi[0] = xi0
            lifts.append(lift_XX(plan, xi))
        zero, big = lifts
        for u in plan.us:
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


def full_layout_statistic(field, alpha, center):
    """The fluctuation statistic of one sample's D_eps XX by the full -2N..2N
    Sobolev norm of each matrix entry, one entry at a time."""
    n = field.shape[0]
    coeffs = field.copy()
    coeffs[range(n), range(n), 0] -= center
    return float(np.sqrt(sum(spectral_oracle.sobolev_minus_alpha_norm(
        full_spectrum(SQRT_2PI * coeffs[i, j]), alpha) ** 2
        for i in range(n) for j in range(n))))


class TestChunk:
    """A lift of S states stacked on a leading sample axis."""

    @pytest.mark.parametrize("S, bad", [(1, 0), (4, 2)])
    def test_lost_reality_raises(self, monkeypatch, forward, S, bad):
        rng = np.random.default_rng(61)
        plan = LiftPlan(forward, 0.1, 12, 40)
        xi = np.stack([random_state(rng, plan, 2) for _ in range(S)])
        lift_XX(plan, xi)                                 # intact: no error
        monkeypatch.setattr(lift_module, "full_spectrum", skewed_full_spectrum(bad))
        with pytest.raises(FloatingPointError, match="reality"):
            lift_XX(plan, xi)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("name", ["forward_difference", "central_difference"])
    def test_bits_of_one_sample_lifts(self, n, name):
        scheme = make_scheme(name)
        rng = np.random.default_rng(67)
        eps, N, M, S = 0.125, 16, 48, 3
        plan = LiftPlan(scheme, eps, N, M, shifts=(0.0, 1.3))
        singles = [np.zeros((N + 1, n), dtype=complex) for _ in range(S)]
        chunk = np.zeros((S, N + 1, n), dtype=complex)
        for dt in (0.1, 0.4):
            increments = [draw_increments(rng, N, n) for _ in range(S)]
            singles = [evolve_modes(plan, st, dt, z) for st, z in zip(singles, increments)]
            chunk = evolve_modes(plan, chunk, dt, np.stack(increments))
        assert np.array_equal(chunk, np.stack(singles))
        center = lambda_eps(scheme, eps, 0.5, N)
        lift = lift_XX(plan, chunk)
        lifts = [lift_XX(plan, st) for st in singles]
        field = d_eps_xx(lift)
        stats = fluctuation_statistic(lift, 0.45, center)
        for s, one in enumerate(lifts):
            for u in plan.us:
                assert np.array_equal(lift.offset(u).coeffs[s], one.offset(u).coeffs)
                assert np.array_equal(lift.offset(u).values[s], one.offset(u).values)
            assert np.array_equal(lift.rough[s].x, one.rough.x)
            assert np.array_equal(lift.rough[s].X, one.rough.X)
            assert np.array_equal(lift.rough[s].XXinc, one.rough.XXinc)
            one_field = d_eps_xx(one)
            assert np.array_equal(field.coeffs[s], one_field.coeffs)
            assert np.array_equal(field.values[s], one_field.values)
            assert stats[s] == fluctuation_statistic(one, 0.45, center)

    @pytest.mark.parametrize("n", [1, 2])
    def test_statistic_matches_the_full_layout_norm(self, n, forward):
        # one sample and a chunk of three against the -2N..2N norm it replaced
        rng = np.random.default_rng(73)
        eps, N, M, t = 0.125, 24, 64, 0.5
        plan = LiftPlan(forward, eps, N, M)
        center = lambda_eps(forward, eps, t, N)
        chunk = np.stack([random_state(rng, plan, n, t) for _ in range(3)])
        field = d_eps_xx(lift_XX(plan, chunk)).coeffs
        stats = fluctuation_statistic(lift_XX(plan, chunk), 0.45, center)
        one = fluctuation_statistic(lift_XX(plan, chunk[0]), 0.45, center)
        for stat, expected in zip([one] + stats, [field[0]] + list(field)):
            assert stat == pytest.approx(full_layout_statistic(expected, 0.45, center),
                                         rel=1e-12, abs=0.0)


class TestPlan:
    """A lift plan built once and passed in, as the experiments pass it."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("name", ["forward_difference", "central_difference"])
    def test_prebuilt_plan_gives_the_same_bits(self, n, name):
        scheme = make_scheme(name)
        rng = np.random.default_rng(71)
        eps, N, M, S = 0.125, 16, 48, 3
        built = LiftPlan(scheme, eps, N, M, shifts=(0.0, 1.3))
        plan = pickle.loads(pickle.dumps(built))
        increments = np.stack([draw_increments(rng, N, n) for _ in range(S)])
        xi = evolve_modes(plan, np.zeros((S, N + 1, n), dtype=complex), 0.4, increments)
        assert np.array_equal(xi, evolve_modes(built, np.zeros_like(xi), 0.4, increments))
        built, given = lift_XX(built, xi), lift_XX(plan, xi)
        for u in plan.us:
            assert np.array_equal(built.offset(u).coeffs, given.offset(u).coeffs)
            assert np.array_equal(built.offset(u).values, given.offset(u).values)
        for a, b in zip(built.rough, given.rough):
            assert np.array_equal(a.X, b.X) and np.array_equal(a.XXinc, b.XXinc)


class TestDEpsXX:
    def test_missing_offset_raises(self, rng, forward):
        plan = LiftPlan(forward, 0.1, 8, 64)
        lift = lift_XX(plan, random_state(rng, plan, 1))
        del lift.offsets[0.1]
        with pytest.raises(KeyError):
            d_eps_xx(lift)

    def test_weight_scaling_exact(self, rng, forward):
        from schemelab.schemes import AtomicSignedMeasure

        doubled_mu = AtomicSignedMeasure([(1.0, 2.0), (0.0, -2.0)])
        doubled = CutoffScheme(f=forward.f, mu=doubled_mu, h=forward.h,
                               c_f=forward.c_f)
        plan = LiftPlan(forward, 0.1, 16, 64)
        xi = random_state(rng, plan, 1)
        base = d_eps_xx(lift_XX(plan, xi)).values
        out = d_eps_xx(lift_XX(LiftPlan(doubled, 0.1, 16, 64), xi)).values
        np.testing.assert_allclose(out, 2.0 * base, atol=1e-14)

    def test_central_difference_mean_vanishes(self, central):
        rng = np.random.default_rng(23)
        eps, N, M, t, S = 0.1, 32, 128, 0.5, 400
        plan = LiftPlan(central, eps, N, M)
        acc = np.zeros(M)
        for _ in range(S):
            acc += d_eps_xx(lift_XX(plan, random_state(rng, plan, 1, t))).values[:, 0, 0]
        mean = acc.mean() / S
        spread = acc.std() / S
        assert abs(mean) <= 5 * max(spread / np.sqrt(M), 1e-3)

    def test_forward_difference_mean_matches_lambda_eps(self, forward):
        rng = np.random.default_rng(29)
        eps, N, M, t, S = 0.1, 64, 256, 0.5, 600
        plan = LiftPlan(forward, eps, N, M)
        vals = []
        for _ in range(S):
            lift = lift_XX(plan, random_state(rng, plan, 1, t))
            vals.append(d_eps_xx(lift).values[:, 0, 0].mean())
        vals = np.array(vals)
        target = lambda_eps(forward, eps, t, N)
        se = vals.std(ddof=1) / np.sqrt(S)
        assert abs(vals.mean() - target) <= 5 * se


class TestFluctuationStatistic:
    def test_central_case_no_centering(self, central):
        rng = np.random.default_rng(41)
        eps, N, M, t = 0.1, 24, 96, 0.5
        plan = LiftPlan(central, eps, N, M)
        lift = lift_XX(plan, random_state(rng, plan, 1, t))
        # Lambda_eps = 0, so the statistic is the norm of the field itself
        assert lambda_eps(central, eps, t, N) == 0.0
        stat = fluctuation_statistic(lift, 0.45, 0.0)
        field = d_eps_xx(lift)
        raw = sobolev_minus_alpha_norm(SQRT_2PI * field.coeffs[0, 0], 0.45)
        assert stat == pytest.approx(raw, rel=1e-12)

    def test_centering_reduces_norm_on_mean(self, forward):
        # averaging many lifts isolates the mean; the centred statistic of the
        # average must be far below the uncentred one
        rng = np.random.default_rng(53)
        eps, N, M, t, S = 0.1, 32, 128, 0.5, 300
        plan = LiftPlan(forward, eps, N, M)
        acc = None
        for _ in range(S):
            field = d_eps_xx(lift_XX(plan, random_state(rng, plan, 1, t)))
            acc = field.coeffs if acc is None else acc + field.coeffs
        acc /= S
        uncentred = sobolev_minus_alpha_norm(SQRT_2PI * acc[0, 0], 0.45)
        centred_coeffs = acc.copy()
        centred_coeffs[0, 0, 0] -= lambda_eps(forward, eps, t, N)
        centred = sobolev_minus_alpha_norm(SQRT_2PI * centred_coeffs[0, 0], 0.45)
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
        lift = lift_XX(LiftPlan(scheme, eps, N, 2 * N + 2), xi)
        mean = d_eps_xx(lift).coeffs[0, 0, 0].real
        assert mean == pytest.approx(lambda_eps(scheme, eps, t, N), rel=1e-14, abs=0.0)
