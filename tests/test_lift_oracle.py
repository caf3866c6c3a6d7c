"""The transform-based lift against the direct-convolution oracle.

``lift_oracle`` is the shift-by-shift, O(N^2) direct-convolution lift the
package used before; every check here lifts the same state through both
and compares coefficients, grid values, the rough-path sample, D_eps XX,
the fluctuation statistic and the per-sample rows of the experiments.
"""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

import lift_oracle as oracle
from strategies import schemes
from schemelab import experiments
from schemelab.correction import lambda_eps
from schemelab.experiments import ExperimentConfig, _fluctuation_chunk, lift_experiment
from schemelab.lift import (
    LiftPlan,
    d_eps_xx,
    draw_increments,
    evolve_modes,
    fluctuation_statistic,
    lift_XX,
)
from schemelab.models import ModelFunctions
from schemelab.schemes import make_scheme

RTOL = 1e-12
# Both lifts round at the size of the terms they add, not of their sum.  A
# term of C_m(u) is at most |a_k| |l a_l| (2 + |u|), so each check allows,
# beside RTOL of the oracle's largest entry, ROUND times that term scale:
# with h(eps k) tiny for every k != 0 the field is nearly constant and the
# O(a_0) terms that cancel exactly dwarf the lift itself.  Below TINY,
# products of subnormal amplitudes keep no relative precision at all.
ROUND = 1e-15
TINY = 1e-300


def gap_within(new, old, slack=0.0):
    new, old = np.asarray(new), np.asarray(old)
    gap = float(np.abs(new - old).max())
    return gap <= RTOL * float(np.abs(old).max()) + ROUND * slack + TINY


def term_scale(plan, xi, u):
    """(sum_l |a_l|)(sum_l |l a_l|)(2 + |u|) over l = -N..N, a_l = q_l xi_l."""
    a = np.abs(plan.q[:, None] * xi)
    l = np.arange(plan.N + 1)[:, None]
    return float((a[0] + 2 * a[1:].sum(axis=0)).max()
                 * (2 * l * a).sum(axis=0).max() * (2.0 + abs(u)))


@st.composite
def lift_cases(draw):
    """A plan and a random state: M from the edge 2N+1 upward, extra shifts
    covering zero, negative, off-grid and |u| > pi."""
    n = draw(st.sampled_from([1, 2, 3]))
    N = draw(st.integers(1, 12))
    M = 2 * N + 1 + draw(st.integers(0, 2 * N + 3))
    scheme = draw(schemes())
    eps = draw(st.floats(0.05, 0.5))
    t = draw(st.floats(0.05, 2.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    extra = draw(st.lists(st.one_of(st.just(0.0), st.floats(-7.0, 7.0)), max_size=3))
    plan = LiftPlan(scheme, eps, N, M, extra)
    zero = np.zeros((N + 1, n), dtype=complex)
    return plan, evolve_modes(plan, zero, t, draw_increments(rng, N, n)), t


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lift_cases())
def test_lift_matches_oracle(case):
    plan, xi, t = case
    new, old = lift_XX(plan, xi), oracle.lift_XX(plan, xi)
    width = 4 * plan.N + 1
    # the grid-spacing shift is made on first read, the other shifts at once
    assert set(new.offsets) <= set(old.offsets)
    for u, entry in old.offsets.items():
        assert new.offset(u).coeffs.shape == entry.coeffs.shape
        assert new.offset(u).values.shape == entry.values.shape
        assert gap_within(new.offset(u).coeffs, entry.coeffs, term_scale(plan, xi, u))
        assert gap_within(new.offset(u).values, entry.values,
                          width * term_scale(plan, xi, u))
    assert np.array_equal(new.rough.x, old.rough.x)
    assert gap_within(new.rough.X, old.rough.X)
    assert gap_within(new.rough.XXinc, old.rough.XXinc,
                      width * term_scale(plan, xi, plan.us[-1]))

    scheme, eps = plan.scheme, plan.eps
    slack = sum(abs(w) * term_scale(plan, xi, eps * z) for z, w in scheme.mu.atoms) / eps
    dn, do = d_eps_xx(new), d_eps_xx(old)
    assert gap_within(dn.coeffs, do.coeffs, slack)
    assert gap_within(dn.values, do.values, width * slack)
    center = lambda_eps(scheme, eps, t, plan.N)
    assert gap_within(fluctuation_statistic(new, 0.45, center),
                      fluctuation_statistic(old, 0.45, center),
                      xi.shape[1] * width * slack)


def test_grid_spacing_shift_made_on_first_read_matches_oracle():
    """A chunk lifted by a prebuilt plan, as the experiments lift it, holds
    no grid-spacing shift until one is read; that shift and the rough paths
    built on it then match the oracle's."""
    scheme, eps, N, M, n = make_scheme("central_difference"), 0.2, 12, 30, 2
    rng = np.random.default_rng(4)
    increments = np.stack([draw_increments(rng, N, n) for _ in range(3)])
    plan = LiftPlan(scheme, eps, N, M)
    xi = evolve_modes(plan, np.zeros_like(increments), 0.4, increments)
    new, old = lift_XX(plan, xi), oracle.lift_XX(plan, xi)
    dx = 2 * np.pi / M
    assert dx not in new.offsets and len(new.offsets) == len(plan.us) - 1
    slack = max(term_scale(plan, one, dx) for one in xi)
    assert gap_within(new.offset(dx).coeffs, old.offset(dx).coeffs, slack)
    assert gap_within(new.offset(dx).values, old.offset(dx).values, (4 * N + 1) * slack)
    for a, b in zip(new.rough, old.rough, strict=True):
        assert gap_within(a.X, b.X)
        assert gap_within(a.XXinc, b.XXinc, (4 * N + 1) * slack)


# -- per-sample experiment rows -----------------------------------------------

def small_cfg(kind, **overrides):
    base = dict(kind=kind, scheme=make_scheme("forward_difference"),
                model=ModelFunctions(n=2, F=None, G=None, DG=None, theta=None),
                eps_ladder=(0.25, 0.125), samples=2, master_seed=9, N=16, M=40,
                times=(0.1, 0.5), alpha=0.45)
    base.update(overrides)
    return ExperimentConfig(**base)


def assert_rows_close(new, old):
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert a.keys() == b.keys()
        for key, value in b.items():
            if isinstance(value, float):
                assert math.isclose(a[key], value, rel_tol=RTOL, abs_tol=0.0), key
            else:
                assert a[key] == value, key


def test_fluctuation_rows_match_oracle(monkeypatch):
    cfg = small_cfg("fluctuation")
    args = ([LiftPlan(cfg.scheme, eps, cfg.N, cfg.M) for eps in cfg.eps_ladder],
            {(eps, t): lambda_eps(cfg.scheme, eps, t, cfg.N)
             for eps in cfg.eps_ladder for t in cfg.times})
    new = [row for rows in _fluctuation_chunk((cfg, *args, range(cfg.samples))) for row in rows]
    monkeypatch.setattr(experiments, "lift_XX", oracle.lift_XX)
    old = [row for rows in _fluctuation_chunk((cfg, *args, range(cfg.samples))) for row in rows]
    assert_rows_close(new, old)


def test_lift_rows_match_oracle(monkeypatch):
    # forward difference: under central difference dxx_trace_mean is zero up
    # to rounding, which no two lifts share
    cfg = small_cfg("lift", samples=3)
    new = lift_experiment(cfg).per_sample
    monkeypatch.setattr(experiments, "lift_XX", oracle.lift_XX)
    assert_rows_close(new, lift_experiment(cfg).per_sample)
