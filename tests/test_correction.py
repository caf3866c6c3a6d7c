import inspect
import math

import numpy as np
import pytest

from schemelab.correction import (
    LambdaResult,
    QuadratureError,
    _si,
    corrected_drift,
    lambda_eps,
    lambda_exact,
    lambda_integral,
    lambda_z_eps,
)
from schemelab.schemes import (
    BACKWARD_DIFFERENCE,
    CENTRAL_DIFFERENCE,
    FORWARD_DIFFERENCE,
    AtomicSignedMeasure,
    CutoffScheme,
    _eval_indicator,
    make_function,
    make_scheme,
)


def closed_form(mu, nu=1.0):
    # (1/(4 nu)) int |y| mu(dy); valid for f = h = 1 only
    return 0.25 / nu * sum(w * abs(z) for z, w in mu.atoms)


class TestLambdaExact:
    def test_forward(self, forward):
        res = lambda_integral(forward.mu.atoms, forward.f, forward.h)
        assert res.value == pytest.approx(0.25, abs=1e-6)
        assert res.error_estimate <= 1e-9
        assert res.evaluations > 0
        assert lambda_exact(forward) == LambdaResult(0.25, 0.0, 0)

    def test_backward(self, backward):
        assert lambda_exact(backward).value == pytest.approx(-0.25, abs=1e-6)

    def test_central_vanishes(self, central):
        assert abs(lambda_exact(central).value) <= 1e-10

    def test_matches_closed_form_for_offset_stencil(self):
        mu = AtomicSignedMeasure([(2.0, 0.5), (0.0, -0.5)])
        scheme = CutoffScheme(f=make_function("one"), mu=mu,
                              h=make_function("one"))
        assert lambda_exact(scheme).value == pytest.approx(
            closed_form(mu), abs=1e-6)

    def test_nu_scaling(self, forward):
        assert lambda_exact(forward, nu=4.0).value == pytest.approx(
            0.0625, abs=1e-6)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @pytest.mark.filterwarnings(
        "ignore::scipy.integrate.IntegrationWarning")
    def test_budget_exhaustion_carries_partial(self, forward):
        with pytest.raises(QuadratureError) as info:
            lambda_integral(forward.mu.atoms, forward.f, forward.h,
                            tol=1e-16, limit=3)
        assert info.value.partial_value == pytest.approx(0.25, abs=1e-2)
        assert info.value.error_estimate > 1e-16

    def test_indicator_h(self):
        # noise window kills frequencies above 1; the constant drops accordingly
        scheme = make_scheme("forward_difference",
                             h=make_function("indicator", cutoff=1.0))
        from scipy.integrate import quad

        expected, _ = quad(lambda t: (1 - np.cos(t)) / t**2, 1e-12, 1.0)
        assert lambda_exact(scheme).value == pytest.approx(
            expected / (2 * np.pi), abs=1e-6)

    @pytest.mark.parametrize("h", [make_function("one"),
                                   make_function("indicator", cutoff=1.0),
                                   make_function("indicator", cutoff=2.5)],
                             ids=["one", "indicator-1", "indicator-2.5"])
    @pytest.mark.parametrize("mu, nu", [
        (FORWARD_DIFFERENCE, 1.0), (BACKWARD_DIFFERENCE, 1.0),
        (CENTRAL_DIFFERENCE, 1.0),
        (AtomicSignedMeasure([(2.0, 0.5), (0.0, -0.5)]), 1.0),
        (FORWARD_DIFFERENCE, 4.0)],
        ids=["forward", "backward", "central", "offset", "forward-nu4"])
    def test_closed_form_matches_quadrature(self, mu, nu, h):
        # criterion 4's tolerance; the quadrature stays the reference
        scheme = CutoffScheme(f=make_function("one"), mu=mu, h=h)
        closed = lambda_exact(scheme, nu=nu)
        assert (closed.error_estimate, closed.evaluations) == (0.0, 0)
        quad = lambda_integral(mu.atoms, scheme.f, h, nu=nu)
        assert quad.evaluations > 0
        assert closed.value == pytest.approx(quad.value, abs=1e-6)

    def test_indicator_cutoff_defaults_as_the_function(self, forward):
        # make_function("indicator") evaluates with _eval_indicator's default
        h = make_function("indicator")
        default = inspect.signature(_eval_indicator).parameters["cutoff"].default
        assert lambda_exact(make_scheme("forward_difference", h=h)) == lambda_exact(
            make_scheme("forward_difference",
                        h=make_function("indicator", cutoff=default)))
        assert lambda_exact(make_scheme("forward_difference", h=h)).value == (
            pytest.approx(lambda_integral(forward.mu.atoms, forward.f, h).value,
                          abs=1e-12))

    @pytest.mark.parametrize("f, h", [
        (make_function("one_plus_sq"), make_function("one")),
        (make_function("one"), make_function("gaussian")),
        (make_function("one_plus_sq"), make_function("indicator")),
        (make_function("one"), make_function("indicator", cutoff=0.0))],
        ids=["one_plus_sq-one", "one-gaussian", "one_plus_sq-indicator",
             "one-indicator-0"])
    def test_other_functions_use_quadrature(self, forward, f, h):
        scheme = make_scheme("forward_difference", f=f, h=h)
        res = lambda_exact(scheme)
        assert res.evaluations > 0
        assert res == lambda_integral(forward.mu.atoms, scheme.f, scheme.h)

    def test_linearity_in_atom_weights(self):
        f = make_function("one")
        h = make_function("gaussian")
        a1 = [(1.0, 0.7)]
        a2 = [(-0.5, 0.4)]
        v1 = lambda_integral(a1, f, h).value
        v2 = lambda_integral(a2, f, h).value
        v12 = lambda_integral(a1 + a2, f, h).value
        assert v12 == pytest.approx(v1 + v2, abs=1e-9)

    def test_reflection_antisymmetry(self):
        f = make_function("one_plus_sq")
        h = make_function("gaussian")
        atoms = [(1.0, 1.0), (0.5, -0.25)]
        flipped = [(-z, -w) for z, w in atoms]
        assert lambda_integral(flipped, f, h).value == pytest.approx(
            -lambda_integral(atoms, f, h).value, abs=1e-9)


class TestSineIntegral:
    # the closed-form Lambda's one special function, against scipy's
    SWITCH = 4.0                      # series at and below, continued fraction above

    def test_matches_scipy_sici(self):
        from scipy.special import sici

        x = np.concatenate([np.logspace(-8, 6, 1201),
                            [np.nextafter(self.SWITCH, 0.0), self.SWITCH,
                             np.nextafter(self.SWITCH, 5.0), 3.9, 4.1, 1.0, 2.5]])
        want = sici(x)[0]
        got = np.array([_si(float(v)) for v in x])
        rel = np.abs(got - want) / want
        assert rel.max() <= 2e-15, x[rel.argmax()]

    def test_limits(self):
        assert _si(0.0) == 0.0
        assert _si(1e-300) == 1e-300                      # Si(x) = x - x^3/18 + ...
        assert _si(1e15) == pytest.approx(math.pi / 2, rel=1e-15)


class TestLambdaEps:
    def test_zero_shift(self, forward):
        assert lambda_z_eps(forward, 0.0, 0.1, 1.0, 128) == 0.0

    def test_even_in_z(self, forward):
        a = lambda_z_eps(forward, 1.3, 0.1, 1.0, 128)
        b = lambda_z_eps(forward, -1.3, 0.1, 1.0, 128)
        assert a == pytest.approx(b, rel=1e-14)

    def test_nonnegative(self, forward):
        for z in (0.2, 1.0, 3.7):
            assert lambda_z_eps(forward, z, 0.05, 0.3, 256) >= 0.0

    def test_matches_direct_summation_oracle(self, forward):
        # independent second implementation: term-by-term fsum in reversed order
        z, eps, t, N = 1.0, 0.1, 1.0, 512
        terms = []
        for k in range(N, 0, -1):
            q2 = 1.0 / (k * k * 4.0 * np.pi)
            K = 1.0 - math.exp(-2.0 * k * k * t)
            terms.append(2.0 * q2 * K * (1.0 - math.cos(k * eps * z)) / eps)
        oracle = math.fsum(terms)
        assert lambda_z_eps(forward, z, eps, t, N) == pytest.approx(
            oracle, abs=1e-10)

    def test_central_difference_vanishes(self, central):
        for eps in (0.2, 0.05):
            assert lambda_eps(central, eps, 0.7, 256) == pytest.approx(
                0.0, abs=1e-15)

    def test_small_time_vanishes(self, forward):
        assert lambda_eps(forward, 0.1, 1e-12, 256) == pytest.approx(
            0.0, abs=1e-9)

    def test_approaches_lambda_as_eps_shrinks(self, forward):
        gaps = [abs(lambda_eps(forward, eps, 0.5, 2048) - 0.25)
                for eps in (0.25, 0.125, 0.0625)]
        assert gaps[2] < gaps[1] < gaps[0]

    def test_monotone_in_t_for_positive_stencil(self, forward):
        vals = [lambda_eps(forward, 0.1, t, 256) for t in (0.1, 0.3, 1.0, 3.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_kernel_factor_monotone_in_t(self, forward):
        # termwise monotonicity of the time kernel, signed measures aside
        k = np.arange(1, 50)
        K1 = 1.0 - np.exp(-2 * k * k * 0.2)
        K2 = 1.0 - np.exp(-2 * k * k * 0.9)
        assert np.all(K2 >= K1)


class TestCorrectedDrift:
    def test_scalar_contraction(self):
        out = corrected_drift(
            F_eval=lambda u: np.zeros(1),
            G_jacobian_eval=lambda u: np.ones((1, 1, 1)),
            theta_eval=lambda u: np.ones((1, 1)),
            Lambda=0.25,
            u=np.zeros(1),
        )
        assert out[0] == pytest.approx(-0.25)

    def test_lambda_zero_is_identity(self, rng):
        u = rng.standard_normal(3)
        F = lambda v: v ** 2
        DG = lambda v: rng.standard_normal((3, 3, 3))
        th = lambda v: np.eye(3)
        np.testing.assert_array_equal(
            corrected_drift(F, DG, th, 0.0, u), F(u))

    def test_theta_zero_is_identity(self, rng):
        u = rng.standard_normal(2)
        F = lambda v: np.array([1.0, -2.0])
        DG = lambda v: rng.standard_normal((2, 2, 2))
        th = lambda v: np.zeros((2, 2))
        np.testing.assert_array_equal(
            corrected_drift(F, DG, th, 0.7, u), F(u))

    def test_index_order(self):
        # DG[j, i, l] with a non-symmetric theta pins the contraction order
        n = 2
        DG = np.zeros((n, n, n))
        DG[0, 1, 0] = 1.0          # dG^1_0 / du_0
        theta = np.array([[2.0, 0.0], [0.0, 3.0]])
        out = corrected_drift(lambda u: np.zeros(n), lambda u: DG,
                              lambda u: theta, 1.0, np.zeros(n))
        # correction_i = DG[j,i,l] (theta theta^T)[j,l]; only (j=0,i=1,l=0)
        assert out[1] == pytest.approx(-4.0)
        assert out[0] == 0.0
