import numpy as np
import pytest

from schemelab.lift import LiftPlan, draw_increments, evolve_modes, lift_XX, mode_amplitudes
from schemelab.roughpath import (
    ControlledPath,
    RoughPathSample,
    chen_defect,
    constant_controlled,
    contract_second_order,
    estimate_f11,
    geometricity_defect,
    rough_integral,
    scaled_integral_approx,
    second_order_correction,
    self_controlled,
    xx_eval,
    young_integral,
)
from schemelab.schemes import make_function, make_scheme


def gaussian_rough(rng, N=48, M=256, n=1, eps=0.1, t=0.5, scheme=None):
    plan = LiftPlan(scheme or make_scheme("forward_difference"), eps, N, M)
    xi = evolve_modes(plan, np.zeros((N + 1, n), dtype=complex), t, draw_increments(rng, N, n))
    return lift_XX(plan, xi).rough


def sincos_rough(M=256):
    """Exact rough path over the smooth two-component path (sin x, cos x)."""
    scheme = make_scheme("forward_difference")
    N, eps = 2, 0.1
    q = mode_amplitudes(scheme, eps, N)
    xi = np.zeros((N + 1, 2), dtype=complex)
    xi[1, 0] = 1.0 / (2j * q[1])
    xi[1, 1] = 1.0 / (2.0 * q[1])
    return lift_XX(LiftPlan(scheme, eps, N, M), xi).rough


def coarsen(rp: RoughPathSample, s: int) -> RoughPathSample:
    idx = np.arange(0, rp.M, s)
    xx = np.stack([xx_eval(rp, i, i + s) for i in idx])
    return RoughPathSample(x=rp.x[idx], X=rp.X[idx], XXinc=xx)


class TestChen:
    def test_diagonal_vanishes(self, rng):
        rp = gaussian_rough(rng)
        assert np.all(xx_eval(rp, 17, 17) == 0.0)

    def test_adjacent_increment_unchanged(self, rng):
        rp = gaussian_rough(rng)
        np.testing.assert_array_equal(xx_eval(rp, 5, 6), rp.XXinc[5])

    def test_two_step_matches_three_term_formula(self, rng):
        rp = gaussian_rough(rng)
        i = 11
        direct = (rp.XXinc[i] + rp.XXinc[i + 1]
                  + np.outer(rp.X[i + 1] - rp.X[i], rp.X[i + 2] - rp.X[i + 1]))
        np.testing.assert_allclose(xx_eval(rp, i, i + 2), direct, atol=1e-15)

    def test_defect_small_for_composed_data(self, rng):
        rp = gaussian_rough(rng, n=2)
        gen = np.random.default_rng(5)
        for _ in range(200):
            i, j, k = sorted(gen.integers(0, rp.M + 1, size=3))
            assert chen_defect(rp, i, j, k) <= 1e-12

    def test_degenerate_triple(self, rng):
        rp = gaussian_rough(rng)
        assert chen_defect(rp, 4, 4, 9) <= 1e-14

    def test_fold_order_independence(self, rng):
        # composing increments left to right, right to left, or by splitting
        # in the middle must agree: the consistency relation is associative
        rp = gaussian_rough(rng, n=2)
        i, j = 10, 200
        left = np.zeros((2, 2))
        for m in range(i, j):
            left = left + rp.XXinc[m] + np.outer(rp.X[m] - rp.X[i],
                                                 rp.X[m + 1] - rp.X[m])
        mid = (i + j) // 2
        split = (xx_eval(rp, i, mid) + xx_eval(rp, mid, j)
                 + np.outer(rp.X[mid] - rp.X[i], rp.X[j] - rp.X[mid]))
        np.testing.assert_allclose(left, xx_eval(rp, i, j), atol=1e-12)
        np.testing.assert_allclose(split, xx_eval(rp, i, j), atol=1e-12)

    def test_perturbed_increment_enters_composition_linearly(self, rng):
        rp = gaussian_rough(rng)
        bump = 0.37
        ref = xx_eval(rp, 8, 12)[0, 0]
        rp.XXinc[10][0, 0] += bump
        val = xx_eval(rp, 8, 12)[0, 0]
        assert val - ref == pytest.approx(bump, abs=1e-12)


class TestGeometricity:
    def test_exact_lift_is_geometric(self, rng):
        rp = gaussian_rough(rng, n=2)
        for (i, j) in [(0, 1), (3, 40), (10, 256)]:
            assert geometricity_defect(rp, i, j) <= 1e-12

    def test_quadrature_lift_defect_shrinks_with_grid(self):
        # XX per increment from a left-point quadrature on a fixed sub-mesh:
        # the defect is a discretisation artefact and shrinks as M grows
        defects = []
        for M in (64, 128):
            x = -np.pi + 2 * np.pi * np.arange(M) / M
            X = np.stack([np.sin(x), np.cos(x)], axis=1)
            sub = 16
            xx = np.zeros((M, 2, 2))
            for i in range(M):
                zs = x[i] + (2 * np.pi / M) * np.arange(sub) / sub
                Xz = np.stack([np.sin(zs), np.cos(zs)], axis=1)
                dXz = np.stack([np.sin(zs + 2 * np.pi / M / sub) - np.sin(zs),
                                np.cos(zs + 2 * np.pi / M / sub) - np.cos(zs)],
                               axis=1)
                xx[i] = sum(np.outer(Xz[m] - X[i], dXz[m]) for m in range(sub))
            rp = RoughPathSample(x=x, X=X, XXinc=xx)
            defects.append(max(geometricity_defect(rp, i, i + 3)
                               for i in range(0, M - 3, 7)))
        assert defects[1] < 0.5 * defects[0]

    def test_antisymmetric_perturbation_invisible(self, rng):
        rp = gaussian_rough(rng, n=2)
        before = geometricity_defect(rp, 2, 9)
        rp.XXinc[5] += np.array([[0.0, 0.4], [-0.4, 0.0]])
        after = geometricity_defect(rp, 2, 9)
        assert after == pytest.approx(before, abs=1e-12)


class TestRoughIntegral:
    def test_constant_integrand(self, rng):
        rp = gaussian_rough(rng, n=2)
        Y = constant_controlled(rp, [2.0, -1.0])
        Z = self_controlled(rp)
        out = rough_integral(Y, Z, 3, 77)
        expected = np.outer([2.0, -1.0], rp.X[77] - rp.X[3])
        np.testing.assert_allclose(out, expected, atol=1e-13)

    def test_self_integral_symmetric_part(self, rng):
        # int X (x) dX minus X(x) (x) dX has symmetric part dX (x) dX / 2
        rp = gaussian_rough(rng, n=2, N=64, M=512)
        Y = self_controlled(rp)
        i, j = 30, 400
        out = rough_integral(Y, Y, i, j) - np.outer(rp.X[i], rp.X[j] - rp.X[i])
        sym = 0.5 * (out + out.T)
        d = rp.X[j] - rp.X[i]
        np.testing.assert_allclose(sym, 0.5 * np.outer(d, d), atol=1e-11)

    def test_smooth_sincos_value(self):
        rp = sincos_rough(M=2048)
        full = self_controlled(rp)
        out = rough_integral(full, full, 0, rp.M)
        # the (0, 1) entry is int sin d(cos) = -pi, exact for the exact lift
        assert out[0, 1] == pytest.approx(-np.pi, abs=1e-10)

    def test_additivity(self, rng):
        rp = gaussian_rough(rng, n=2)
        Y = self_controlled(rp)
        whole = rough_integral(Y, Y, 10, 200)
        parts = rough_integral(Y, Y, 10, 90) + rough_integral(Y, Y, 90, 200)
        np.testing.assert_allclose(whole, parts, atol=1e-13)

    def test_mismatched_references_rejected(self, rng):
        rp1 = gaussian_rough(rng)
        rp2 = gaussian_rough(rng)
        with pytest.raises(ValueError):
            rough_integral(self_controlled(rp1), self_controlled(rp2), 0, 5)

    def test_refinement_order_at_least_3alpha_minus_1(self):
        # a nonlinear integrand sin(X) keeps the per-panel Gubinelli remainder
        # alive; single paths are noisy, so average the refinement gaps over a
        # small ensemble before fitting the order
        alpha_hats, all_diffs = [], []
        for seed in range(8):
            rp = gaussian_rough(np.random.default_rng(1000 + seed),
                                N=256, M=1536, n=1, t=1.0)
            seps = np.array([8, 16, 32, 64])
            rms = [np.sqrt(np.mean((np.roll(rp.X[:, 0], -s) - rp.X[:, 0]) ** 2))
                   for s in seps]
            alpha_hats.append(np.polyfit(np.log(seps), np.log(rms), 1)[0])
            vals = {}
            for s in (64, 32, 16, 8):
                sub = coarsen(rp, s)
                Z = self_controlled(sub)
                Y = ControlledPath(Y=np.sin(sub.X),
                                   Yprime=np.cos(sub.X)[:, :, None],
                                   reference=sub)
                vals[s] = rough_integral(Y, Z, 0, sub.M)[0, 0]
            all_diffs.append([abs(vals[64] - vals[32]),
                              abs(vals[32] - vals[16]),
                              abs(vals[16] - vals[8])])
        alpha_hat = np.mean(alpha_hats)
        mean_diffs = np.mean(all_diffs, axis=0)
        order = np.polyfit(np.log([64.0, 32.0, 16.0]), np.log(mean_diffs), 1)[0]
        assert order >= 3 * alpha_hat - 1


class TestYoungIntegral:
    def test_constant(self, rng):
        rp = gaussian_rough(rng, n=2)
        Ya = np.tile([1.5, 0.5], (rp.M, 1))
        out = young_integral(Ya, rp.X, 0, 64)
        np.testing.assert_allclose(
            out, np.outer([1.5, 0.5], rp.X[64] - rp.X[0]), atol=1e-13)

    def test_sincos_left_sum(self):
        rp = sincos_rough(M=4096)
        out = young_integral(rp.X, rp.X, 0, rp.M)
        assert out[0, 1] == pytest.approx(-np.pi, abs=2e-6)

    def test_gap_to_rough_is_second_order_term(self, rng):
        rp = gaussian_rough(rng, n=2, N=64, M=256)
        Y = self_controlled(rp)
        gap = rough_integral(Y, Y, 0, rp.M) - young_integral(rp.X, rp.X, 0, rp.M)
        corr = second_order_correction(Y, Y, 0, rp.M)
        np.testing.assert_allclose(gap, corr, atol=1e-12)

    def test_young_does_not_absorb_the_correction(self):
        # as resolution grows with modes, the rough-young gap stays order one
        for seed, (N, M) in zip((1, 2, 3), ((32, 128), (64, 256), (128, 512))):
            rp = gaussian_rough(np.random.default_rng(seed), N=N, M=M, n=2,
                                t=2.0)
            Y = self_controlled(rp)
            corr = second_order_correction(Y, Y, 0, rp.M)
            assert np.trace(corr + corr.T) / 2 >= 0.3


class TestScaledApprox:
    def test_constant_path_telescopes(self, rng):
        rp = gaussian_rough(rng, n=1, M=256)
        Y = constant_controlled(rp, [1.0])
        Z = self_controlled(rp)
        one = make_function("one")
        eps = 8 * 2 * np.pi / rp.M
        out = scaled_integral_approx(one, 0.5, eps, "+", Y, Z)
        n_eps = int(np.floor(np.pi / eps))
        lo = rp.M // 2 - 8 * n_eps
        hi = rp.M // 2 + 8 * n_eps
        expected = rp.point(hi) - rp.point(lo)
        assert out[0, 0] == pytest.approx(expected[0], abs=1e-12)

    def test_eps_lambda_constraint(self, rng):
        rp = gaussian_rough(rng, M=256)
        Y = self_controlled(rp)
        with pytest.raises(ValueError):
            scaled_integral_approx(make_function("gaussian"), 20.0,
                                   8 * 2 * np.pi / 256, "+", Y, Y)

    def test_smooth_convergence_and_reversal(self):
        rp = sincos_rough(M=4096)
        Y = self_controlled(rp)
        ker = make_function("gaussian")
        lam = 2.0
        # fine oracle by dense quadrature of f(lam x) sin(x) d cos(x)
        xs = np.linspace(-np.pi, np.pi, 200001)
        from scipy.integrate import simpson

        oracle = simpson(ker(lam * xs) * np.sin(xs) * (-np.sin(xs)), x=xs)
        errs_p, errs_m = [], []
        for s in (64, 32, 16, 8):
            eps = s * 2 * np.pi / rp.M
            ip = scaled_integral_approx(ker, lam, eps, "+", Y, Y)[0, 1]
            im = scaled_integral_approx(ker, lam, eps, "-", Y, Y)[0, 1]
            errs_p.append(abs(ip - oracle))
            errs_m.append(abs(-im - oracle))
        assert all(b < a for a, b in zip(errs_p, errs_p[1:]))
        order = np.polyfit(np.log([64, 32, 16, 8]), np.log(errs_p), 1)[0]
        assert order >= 3 * 0.45 - 1 - 0.1
        # the backward sum approximates the negative of the integral
        assert errs_m[-1] <= 10 * errs_p[-1] + 1e-8


class TestContractedForm:
    def test_scalar_case_coincides_with_outer(self, rng):
        Yp = rng.standard_normal((1, 1))
        Zp = rng.standard_normal((1, 1))
        XX = rng.standard_normal((1, 1))
        DG = rng.standard_normal((1, 1, 1))
        contracted = contract_second_order(DG, Yp, XX, Zp)
        outer = DG[0, 0, 0] * (Yp @ XX @ Zp.T)[0, 0]
        assert contracted[0] == pytest.approx(outer)

    def test_index_pattern(self):
        n = 2
        DG = np.zeros((n, n, n)); DG[1, 0, 1] = 1.0
        Yp = np.array([[1.0, 2.0], [3.0, 4.0]])
        Zp = np.array([[5.0, 6.0], [7.0, 8.0]])
        XX = np.array([[1.0, -1.0], [0.5, 2.0]])
        out = contract_second_order(DG, Yp, XX, Zp)
        # out^i = DG[k,i,j] Yp[k,l] XX[l,m] Zp[j,m]; only k=1, i=0, j=1 active
        expected = sum(Yp[1, l] * XX[l, m] * Zp[1, m]
                       for l in range(n) for m in range(n))
        assert out[0] == pytest.approx(expected)
        assert out[1] == 0.0


def test_estimate_f11_gaussian_kernel_finite():
    val = estimate_f11(make_function("gaussian"), window=20.0)
    assert 2.0 < val < 10.0
