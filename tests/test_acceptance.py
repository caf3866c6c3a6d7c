"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them inline).
Criteria 10 and 11 run Monte-Carlo ladders and take a few minutes each;
everything else completes in seconds.
"""

import numpy as np
from scipy.integrate import simpson

from schemelab.correction import lambda_eps, lambda_exact
from schemelab.experiments import (
    ExperimentConfig,
    converge_experiment,
    correction_experiment,
    fluctuation_experiment,
    rate_fit,
)
from schemelab.lift import (
    LiftPlan,
    draw_increments,
    evolve_modes,
    lift_XX,
    mode_amplitudes,
)
from schemelab.models import make_model
from schemelab.roughpath import (
    ControlledPath,
    chen_defect,
    rough_integral,
    scaled_integral_approx,
    second_order_correction,
    self_controlled,
    young_integral,
)
from schemelab.schemes import make_function, make_scheme
from schemelab.solver import SolverConfig, simulate
from schemelab.spectral import NormConfig, semigroup_apply


def _report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    return ok


def _random_state(plan, rng, n, t):
    """The state of ``plan``'s field at t, one transition from zero."""
    zero = np.zeros((plan.N + 1, n), dtype=complex)
    return evolve_modes(plan, zero, t, draw_increments(rng, plan.N, n))


def _random_lift(seed, N, M, n, eps=0.1, t=0.5, scheme=None):
    plan = LiftPlan(scheme or make_scheme("forward_difference"), eps, N, M)
    return lift_XX(plan, _random_state(plan, np.random.default_rng(seed), n, t))


def _sincos_rough(M):
    scheme = make_scheme("forward_difference")
    q = mode_amplitudes(scheme, 0.1, 2)
    xi = np.zeros((3, 2), dtype=complex)
    xi[1, 0] = 1.0 / (2j * q[1])
    xi[1, 1] = 1.0 / (2.0 * q[1])
    return lift_XX(LiftPlan(scheme, 0.1, 2, M), xi).rough


def test_criterion_1_chen_relation():
    """chen_defect <= 1e-12 over 10^4 random triples on M = 256 grids."""
    gen = np.random.default_rng(1001)
    worst = 0.0
    for lift in (_random_lift(1, N=100, M=256, n=1),
                 _random_lift(2, N=64, M=256, n=2)):
        rp = lift.rough
        for _ in range(5000):
            i, j, k = sorted(gen.integers(0, rp.M + 1, size=3))
            worst = max(worst, chen_defect(rp, i, j, k))
    assert _report(1, worst <= 1e-12, f"max Chen defect {worst:.3e} <= 1e-12")


def test_criterion_2_scalar_geometricity():
    """n=1 lift, N=256, t=0.5: XX(x, x+u) equals (dX)^2/2 to 1e-8 scale."""
    scheme = make_scheme("forward_difference")
    eps, N, M = 0.1, 256, 640
    worst_rel = 0.0
    plan = LiftPlan(scheme, eps, N, M)
    for s in range(20):
        xi = _random_state(plan, np.random.default_rng(2000 + s), 1, 0.5)
        lift = lift_XX(plan, xi)
        ks = np.arange(-N, N + 1)
        q = mode_amplitudes(scheme, eps, N)
        a = np.concatenate([np.conj((q[1:] * xi[1:, 0]))[::-1],
                            q * xi[:, 0]])
        for u in (2 * np.pi / M, eps):
            xs = lift.rough.x
            Xu = np.real(np.exp(1j * np.outer(xs + u, ks)) @ a)
            X0 = np.real(np.exp(1j * np.outer(xs, ks)) @ a)
            dX = Xu - X0
            defect = np.abs(lift.offset(u).values[:, 0, 0] - 0.5 * dX ** 2).max()
            scale = max(1.0, float((dX ** 2).max()))
            worst_rel = max(worst_rel, defect / scale)
    assert _report(2, worst_rel <= 1e-8,
                   f"max geometricity defect {worst_rel:.3e} of |dX|^2 scale")


def test_criterion_3_lift_oracle_equivalence():
    """Double-series XX matches direct quadrature of the defining integral."""
    worst = 0.0
    for seed, (n, N) in enumerate([(1, 4), (1, 8), (2, 16)]):
        scheme = make_scheme("forward_difference")
        rng = np.random.default_rng(3000 + seed)
        M = 64
        xi = _random_state(LiftPlan(scheme, 0.25, N, M), rng, n, 0.7)
        for u in (0.9, 0.37):
            lift = lift_XX(LiftPlan(scheme, 0.25, N, M, shifts=(u,)), xi)
            ks = np.arange(-N, N + 1)
            q = mode_amplitudes(scheme, 0.25, N)
            a = np.zeros((2 * N + 1, n), dtype=complex)
            a[N:] = q[:, None] * xi
            a[:N] = np.conj(a[N + 1:])[::-1]
            for idx in (3, 40):
                x0 = lift.rough.x[idx]
                zs = np.linspace(x0, x0 + u, 8001)
                ph = np.exp(1j * np.outer(zs, ks))
                X = np.real(ph @ a)
                Xp = np.real(ph * (1j * ks) @ a)
                oracle = simpson(np.einsum("ma,mb->mab", X - X[0], Xp), x=zs,
                                 axis=0)
                worst = max(worst, float(np.abs(
                    lift.offset(u).values[idx] - oracle).max()))
    assert _report(3, worst <= 1e-8, f"max series-vs-quadrature gap {worst:.3e}")


def test_criterion_4_correction_constants():
    """lambda_exact reproduces the closed form (1/4) int |y| mu(dy)."""
    fw = lambda_exact(make_scheme("forward_difference")).value
    ct = lambda_exact(make_scheme("central_difference")).value
    bw = lambda_exact(make_scheme("backward_difference")).value
    ok = (abs(fw - 0.25) <= 1e-6 and abs(ct) <= 1e-10
          and abs(bw + 0.25) <= 1e-6)
    assert _report(4, ok,
                   f"forward {fw:.9f}, central {ct:.2e}, backward {bw:.9f}")


def test_criterion_5_lambda_eps_decay():
    """Slope of log|Lambda_eps(0.5) - Lambda| against log eps >= 0.3."""
    scheme = make_scheme("forward_difference")
    L = lambda_exact(scheme).value
    points = [(2.0 ** -j, abs(lambda_eps(scheme, 2.0 ** -j, 0.5, 2048) - L))
              for j in range(2, 7)]
    fit = rate_fit(points)
    assert _report(5, fit.slope >= 0.3,
                   f"decay slope {fit.slope:.3f} >= 0.3 "
                   f"(gaps {[f'{v:.2e}' for _, v in points]})")


def test_criterion_6_fluctuation_decay():
    """Fitted slope of E|D_eps XX - Lambda_eps Id|_{H^-0.45} in [0.25, 0.65]."""
    cfg = ExperimentConfig(
        kind="fluctuation",
        scheme=make_scheme("forward_difference"),
        model=make_model(1),
        eps_ladder=(2.0 ** -3, 2.0 ** -4, 2.0 ** -5, 2.0 ** -6),
        samples=100,
        master_seed=4242,
        N=256,
        M=640,
        alpha=0.45,
        times=(0.5,),
    )
    record = fluctuation_experiment(cfg)
    slope = record.fit["slope"]
    assert _report(6, 0.25 <= slope <= 0.65,
                   f"fluctuation slope {slope:.3f} in [0.25, 0.65]")


def test_criterion_7_mode_covariance():
    """MC over 10^4 draws reproduces the mode kernel within 5 standard errors."""
    scheme = make_scheme("forward_difference")
    N, n, S = 50, 2, 10 ** 4
    ks = (0, 1, 5, 50)
    stages = (0.1, 1.0)
    sums = {(k, t): np.zeros((n, n), dtype=complex) for k in ks for t in stages}
    sqsums = {(k, t): np.zeros((n, n)) for k in ks for t in stages}
    rng = np.random.default_rng(7007)
    plan = LiftPlan(scheme, 0.1, N, 2 * N + 1)
    for _ in range(S):
        xi = np.zeros((N + 1, n), dtype=complex)
        prev = 0.0
        for t in stages:
            xi = evolve_modes(plan, xi, t - prev, draw_increments(rng, N, n))
            prev = t
            for k in ks:
                outer = np.outer(xi[k], np.conj(xi[k]))
                sums[(k, t)] += outer
                sqsums[(k, t)] += np.abs(outer) ** 2
    ok = True
    worst = 0.0
    for k in ks:
        for t in stages:
            K = t if k == 0 else 1.0 - np.exp(-2.0 * k * k * t)
            mean = sums[(k, t)] / S
            var = sqsums[(k, t)] / S - np.abs(mean) ** 2
            se = np.sqrt(np.maximum(var, 1e-30) / S)
            dev = np.abs(mean - K * np.eye(n)) / se
            worst = max(worst, float(dev.max()))
            ok = ok and bool((dev <= 5.0).all())
    assert _report(7, ok, f"max deviation {worst:.2f} standard errors (<= 5)")


def test_criterion_8a_smooth_integrals_value():
    """Young and rough sums on sin/cos data, M=4096, against -pi to 1e-6.

    The rough sum with the exact lift completes every panel exactly.  The
    left-point Young sum equals -(M/2) sin(2 pi / M) identically, so its gap
    to -pi is pi (1 - sinc(2 pi / M)) = 1.2321e-6 at M = 4096 for any
    implementation of the stated convention; the 1e-6 requirement is
    unattainable on the Young side at this grid (it would need M >= 4551).
    Kept faithful to the stated tolerance rather than widened.
    """
    rp = _sincos_rough(4096)
    full = self_controlled(rp)
    rough_val = rough_integral(full, full, 0, rp.M)[0, 1]
    young_val = young_integral(rp.X, rp.X, 0, rp.M)[0, 1]
    rough_gap = abs(rough_val + np.pi)
    young_gap = abs(young_val + np.pi)
    ok = rough_gap <= 1e-6 and young_gap <= 1e-6
    _report("8a", ok,
            f"rough gap {rough_gap:.3e}, young gap {young_gap:.3e} "
            f"(analytic left-sum gap pi*(1-sinc(2pi/M)) = "
            f"{np.pi * (1 - np.sinc(1.0 / 2048)):.3e})")
    assert rough_gap <= 1e-6
    assert young_gap <= 1e-6, (
        "left-point Young sum at M=4096 deviates from -pi by "
        f"{young_gap:.6e} > 1e-6; this equals the closed form "
        "pi*(1 - sinc(2pi/M)) and cannot be reduced without changing the "
        "pinned grid size or evaluation rule")


def test_criterion_8b_rough_young_identity():
    """rough - young equals the second-order sum exactly on lift data."""
    worst = 0.0
    for seed, (N, M) in zip((81, 82), ((64, 256), (128, 512))):
        rp = _random_lift(seed, N=N, M=M, n=2).rough
        Y = self_controlled(rp)
        gap = (rough_integral(Y, Y, 0, rp.M)
               - young_integral(rp.X, rp.X, 0, rp.M))
        corr = second_order_correction(Y, Y, 0, rp.M)
        worst = max(worst, float(np.abs(gap - corr).max()))
    assert _report("8b", worst <= 1e-12,
                   f"identity defect {worst:.3e} <= 1e-12")


def test_criterion_9_exact_linear_integration():
    """Noise-free, nonlinearity-free simulate matches the semigroup to 1e-13."""
    scheme = make_scheme("forward_difference")
    rng = np.random.default_rng(9)
    N, M, dt, T = 32, 128, 5e-5, 0.05           # 10^3 steps
    c = 0.3 * (rng.standard_normal(2 * N + 1)
               + 1j * rng.standard_normal(2 * N + 1))
    c = 0.5 * (c + np.conj(c[::-1]))
    u0 = c[None, N:]                            # modes 0..N of the real field
    cfg = SolverConfig(scheme=scheme, eps=0.1, N=N, M=M, dt=dt, T=T,
                       model=make_model(1), record_times=(T,), initial=u0)
    traj = simulate(cfg, increments=np.zeros((cfg.steps, N + 1, 1), complex))
    exact = semigroup_apply(u0, scheme, 0.1, T)
    gap = float(np.abs(traj.coeffs[-1] - exact).max())
    assert _report(9, gap <= 1e-13, f"gap {gap:.3e} after {cfg.steps} steps")


def test_criterion_10_self_convergence_ladder():
    """Coupled-noise ladder: mean sup error strictly decreasing, slope > 0.

    The forward-difference scheme is run with the spectral noise window
    h = 1_{|x| <= 1}: with a flat h the pinned band limit N = 256 starves the
    scheme's implicit correction by ~1/(2 pi N eps), which turns the ladder
    non-monotone; the windowed noise keeps the band-limited system exactly
    aligned with its small-eps limit.
    """
    scheme = make_scheme("forward_difference",
                         h=make_function("indicator", cutoff=1.0))
    cfg = ExperimentConfig(
        kind="converge",
        scheme=scheme,
        model=make_model(1, G="state", theta="bounded_sqrt"),
        eps_ladder=(2.0 ** -2, 2.0 ** -3, 2.0 ** -4, 2.0 ** -5),
        samples=50,
        master_seed=1010,
        N=256,
        M=768,
        dt=1e-4,
        T=0.25,
        record_times=(0.05, 0.1, 0.15, 0.2, 0.25),
        eps_ref=2.0 ** -9,
        norms=NormConfig(stride=16),
    )
    record = converge_experiment(cfg)
    means = [a["mean"] for a in record.aggregates]
    slope = record.fit["slope"]
    decreasing = all(b < a for a, b in zip(means, means[1:]))
    assert _report(10, decreasing and slope > 0,
                   f"means {[f'{m:.4f}' for m in means]}, slope {slope:.3f}")


def test_criterion_11_correction_term_detection():
    """Gap ratio (uncorrected)/(corrected) >= 2 for forward vs central."""
    cfg = ExperimentConfig(
        kind="correction",
        scheme=make_scheme("forward_difference"),
        scheme2=make_scheme("central_difference"),
        model=make_model(1, G="state", theta="one"),
        eps_ladder=(2.0 ** -5,),
        samples=50,
        master_seed=1111,
        N=256,
        M=768,
        dt=2e-5,
        T=0.25,
        record_times=(0.05, 0.1, 0.15, 0.2, 0.25),
    )
    record = correction_experiment(cfg)
    ratio = record.extras["ratio"]
    assert _report(11, ratio >= 2.0, f"gap ratio {ratio:.2f} >= 2")


def test_criterion_12_scaled_approximation():
    """I_+ converges to the scaled integral with order >= 3*0.45 - 1 - 0.1."""
    rp = _sincos_rough(4096)
    Y = self_controlled(rp)
    ker = make_function("gaussian")
    lam = 2.0
    xs = np.linspace(-np.pi, np.pi, 200001)
    oracle = simpson(ker(lam * xs) * np.sin(xs) * (-np.sin(xs)), x=xs)
    errs = []
    steps = (64, 32, 16, 8)
    for s in steps:
        eps = s * 2 * np.pi / rp.M
        val = scaled_integral_approx(ker, lam, eps, "+", Y, Y)[0, 1]
        errs.append(abs(val - oracle))
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    order = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    threshold = 3 * 0.45 - 1 - 0.1
    assert _report(12, decreasing and order >= threshold,
                   f"errors {[f'{e:.2e}' for e in errs]}, order {order:.2f} "
                   f">= {threshold:.2f}")
