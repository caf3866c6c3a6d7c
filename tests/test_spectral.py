import dataclasses

import numpy as np
import pytest

import lift_oracle
from schemelab.spectral import (
    NormConfig,
    SQRT_2PI,
    Transform,
    eval_modes_on_grid,
    full_spectrum,
    grid_points,
    holder_seminorm_estimate,
    semigroup_apply,
    sobolev_minus_alpha_norm,
    to_physical,
)
import spectral_oracle
from spectral_oracle import half_spectrum


def random_field(rng, n, N, scale=1.0):
    """Modes 0..N (n, N+1) of a random real field."""
    return half_spectrum(scale * (rng.standard_normal((n, 2 * N + 1))
                                  + 1j * rng.standard_normal((n, 2 * N + 1))))


class TestTransforms:
    def test_zero_round_trip(self):
        g = to_physical(np.zeros((2, 9), dtype=complex), 32)
        assert np.all(g == 0.0)
        assert np.all(Transform(8, 32).to_coeffs(g) == 0.0)

    def test_single_mode_is_cosine(self):
        half = np.zeros((1, 3), dtype=complex)
        half[0, 1] = SQRT_2PI / 2       # modes +1 and -1
        g = to_physical(half, 16)
        np.testing.assert_allclose(g[0], np.cos(grid_points(16)), atol=1e-14)

    def test_round_trip_identity(self, rng):
        f = random_field(rng, 2, 12)
        back = Transform(12, 25).to_coeffs(to_physical(f, 25))
        np.testing.assert_allclose(back, f, atol=1e-12)

    def test_round_trip_reality_exact(self, rng):
        half = Transform(15, 31).to_coeffs(rng.standard_normal((2, 31)))
        assert np.all(half[:, 0].imag == 0.0)          # mode 0 is real

    def test_grid_too_small_rejected(self, rng):
        f = random_field(rng, 1, 8)
        with pytest.raises(ValueError):
            to_physical(f, 16)
        with pytest.raises(ValueError):
            Transform(8, 16)

    def test_parseval(self, rng):
        f = random_field(rng, 2, 20)
        g = to_physical(f, 64)
        lhs = float((np.abs(full_spectrum(f)) ** 2).sum())
        rhs = 2.0 * np.pi / 64 * float((g ** 2).sum())
        assert lhs == pytest.approx(rhs, abs=1e-10)


    @pytest.mark.parametrize("N, M", [(0, 1), (3, 7), (3, 8), (16, 40), (16, 33)])
    def test_grid_evaluation_without_folding_is_bitwise(self, rng, N, M):
        # M >= 2N+1: no two modes share a residue mod M, as in to_physical
        ks = np.arange(-N, N + 1)
        c = rng.standard_normal((2, 3, 2 * N + 1)) + 1j * rng.standard_normal((2, 3, 2 * N + 1))
        assert np.array_equal(eval_modes_on_grid(c, ks, M),
                              lift_oracle.eval_modes_on_grid(c, ks, M))

    @pytest.mark.parametrize("k0, K, M", [(-40, 81, 16), (5, 30, 7), (-3, 100, 9),
                                          (-12, 25, 24)])
    def test_grid_evaluation_folds_modes(self, rng, k0, K, M):
        ks = np.arange(k0, k0 + K)
        c = rng.standard_normal((4, K)) + 1j * rng.standard_normal((4, K))
        new = eval_modes_on_grid(c, ks, M)
        old = lift_oracle.eval_modes_on_grid(c, ks, M)
        assert np.abs(new - old).max() <= 1e-15 * np.abs(old).max()
        # the direct sum at the grid points x_m = -pi + 2 pi m / M
        x = -np.pi + 2.0 * np.pi * np.arange(M) / M
        direct = c @ np.exp(1j * np.outer(ks, x))
        np.testing.assert_allclose(new, direct, rtol=0, atol=1e-12 * np.abs(direct).max())

    def test_grid_evaluation_needs_consecutive_modes(self):
        with pytest.raises(ValueError):
            eval_modes_on_grid(np.ones(3), np.array([0, 1, 3]), 8)


class TestMultipliers:
    def test_derivative_multiplier_composition(self, forward):
        from schemelab.schemes import derivative_multiplier

        c = np.zeros((1, 9), dtype=complex)
        c[0, 7] = 2.0      # mode +3
        c[0, 1] = 2.0
        out = c * derivative_multiplier(forward, np.arange(-4, 5), 0.2)
        assert out[0, 7] == pytest.approx(
            2.0 * (np.exp(3j * 0.2) - 1.0) / 0.2)


class TestSemigroup:
    def test_t_zero_identity(self, rng, quadratic_f_scheme):
        f = random_field(rng, 1, 8)
        out = semigroup_apply(f, quadratic_f_scheme, 0.5, 0.0)
        np.testing.assert_array_equal(out, f)

    def test_exact_heat_factor(self, forward):
        half = np.zeros((1, 4), dtype=complex)
        half[0, 3] = 1.0   # mode 3
        out = semigroup_apply(half, forward, 0.0, 0.1)
        assert out[0, 3] == pytest.approx(np.exp(-0.9))

    def test_quadratic_f_factor(self, quadratic_f_scheme):
        # f(x) = 1 + x^2 at eps=1, mode 2: rate 4 * 5, t = 0.1
        half = np.zeros((1, 3), dtype=complex)
        half[0, 2] = 1.0
        out = semigroup_apply(half, quadratic_f_scheme, 1.0, 0.1)
        assert out[0, 2] == pytest.approx(np.exp(-2.0))

    def test_semigroup_property(self, rng, quadratic_f_scheme):
        f = random_field(rng, 2, 10)
        one = semigroup_apply(f, quadratic_f_scheme, 0.3, 0.7)
        two = semigroup_apply(
            semigroup_apply(f, quadratic_f_scheme, 0.3, 0.3),
            quadratic_f_scheme, 0.3, 0.4)
        np.testing.assert_allclose(one, two, atol=1e-12)

    def test_heat_kernel_matches_gaussian_sum(self, forward):
        # for f = 1 and moderate t, the wrapped-Gaussian representation of the
        # periodic heat kernel agrees with the truncated mode sum: the
        # semigroup applied to uhat(k) = 1, which is sqrt(2 pi) times a delta
        t, N, M = 0.25, 64, 256
        delta = np.ones((1, N + 1), dtype=complex)
        kernel = to_physical(semigroup_apply(delta, forward, 0.1, t), M)
        x = grid_points(M)
        wrapped = sum(np.exp(-(x - 2 * np.pi * w) ** 2 / (4 * t))
                      for w in range(-4, 5)) / np.sqrt(4 * np.pi * t)
        np.testing.assert_allclose(kernel[0] / np.sqrt(2 * np.pi),
                                   wrapped, atol=1e-10)


class TestNorms:
    def test_sobolev_single_coefficient(self):
        c = np.zeros(6, dtype=complex)
        c[3] = 1.0   # modes +3 and -3
        assert sobolev_minus_alpha_norm(c, 0.45) == pytest.approx(
            np.sqrt(2.0) * (1.0 + 9.0) ** (-0.225))
        c = np.zeros(6, dtype=complex)
        c[0] = 2.0   # mode 0 alone
        assert sobolev_minus_alpha_norm(c, 0.45) == 2.0

    def test_sobolev_zero(self):
        assert np.all(sobolev_minus_alpha_norm(np.zeros((2, 6), dtype=complex), 0.3) == 0.0)

    def test_sobolev_parseval_additivity(self):
        c1 = np.zeros(6, dtype=complex); c1[2] = 2.0
        c2 = np.zeros(6, dtype=complex); c2[4] = 1.5
        a = sobolev_minus_alpha_norm(c1, 0.4)
        b = sobolev_minus_alpha_norm(c2, 0.4)
        both = sobolev_minus_alpha_norm(c1 + c2, 0.4)
        assert both == pytest.approx(np.hypot(a, b))

    def test_sobolev_rows_of_a_batch_are_the_one_row_fields_bit_for_bit(self):
        rng = np.random.default_rng(5)
        c = rng.standard_normal((3, 2, 4, 17)) + 1j * rng.standard_normal((3, 2, 4, 17))
        norms = sobolev_minus_alpha_norm(c, 0.45)
        assert norms.shape == (3, 2, 4)
        for idx in np.ndindex(norms.shape):
            assert norms[idx] == sobolev_minus_alpha_norm(c[idx][None], 0.45)[0]

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.45])
    def test_sobolev_matches_the_full_spectrum_norm(self, alpha):
        # a real field's modes 0..K against the -K..K sum it replaced: one
        # field, and a batch of them
        rng = np.random.default_rng(9)
        c = random_field(rng, 6, 40)
        c[:, 0] += 3.0                                  # a dominant mode 0
        norms = sobolev_minus_alpha_norm(c, alpha)
        np.testing.assert_allclose(norms, spectral_oracle.sobolev_minus_alpha_norm(
            full_spectrum(c), alpha), rtol=1e-12, atol=0.0)
        assert sobolev_minus_alpha_norm(c[2], alpha) == pytest.approx(
            spectral_oracle.sobolev_minus_alpha_norm(full_spectrum(c[2]), alpha),
            rel=1e-12, abs=0.0)

    def test_holder_constant_field(self):
        assert holder_seminorm_estimate(np.ones((1, 64)), 0.5) == 0.0

    def test_holder_cosine_lipschitz(self):
        M = 2048
        x = -np.pi + 2 * np.pi * np.arange(M) / M
        est = holder_seminorm_estimate(np.cos(x)[None, :], 0.999999)
        assert est == pytest.approx(1.0, abs=2e-3)

    def test_holder_sawtooth_slope(self):
        M = 256
        x = -np.pi + 2 * np.pi * np.arange(M) / M
        s = 0.7
        saw = s * np.where(np.abs(x) <= np.pi / 2, x,
                           np.sign(x) * (np.pi - np.abs(x)))
        est = holder_seminorm_estimate(saw[None, :], 0.999999)
        assert est == pytest.approx(s, rel=1e-3)

    def test_holder_nondecreasing_under_stride_refinement(self, rng):
        u = rng.standard_normal((1, 256))
        e4 = holder_seminorm_estimate(u, 0.4, stride=4)
        e2 = holder_seminorm_estimate(u, 0.4, stride=2)
        e1 = holder_seminorm_estimate(u, 0.4, stride=1)
        assert e4 <= e2 <= e1


class TestNormConfig:
    def test_default_valid(self):
        cfg = NormConfig()
        assert 1.0 / 3.0 < cfg.alpha_tilde < 0.5
        # the fields every config hash reads
        assert dataclasses.asdict(cfg) == {"alpha_tilde": 0.34, "stride": 4}

    def test_rejects_alpha_tilde_outside_the_window(self):
        for alpha_tilde in (1.0 / 3.0, 0.3, 0.5, 0.6):
            with pytest.raises(ValueError, match="1/3 < alpha_tilde < 1/2"):
                NormConfig(alpha_tilde=alpha_tilde)
        assert NormConfig(alpha_tilde=0.49).alpha_tilde == 0.49
