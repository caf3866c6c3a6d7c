"""The real-FFT grid transform and the blocked pair kernel against the
complex-FFT transforms and per-start-point loops of ``spectral_oracle``."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spectral_oracle as oracle
from schemelab import spectral
from schemelab.models import make_model
from schemelab.schemes import make_scheme
from schemelab.solver import SolverConfig, remainder_diagnostic, simulate
from schemelab.spectral import (
    GridField,
    SpectralField,
    Transform,
    full_spectrum,
    grr_norm_estimate,
    half_spectrum,
    holder_seminorm_estimate,
    to_physical,
    to_spectral,
)


def real_field(rng, n, N, scale=1.0):
    c = scale * (rng.standard_normal((n, 2 * N + 1))
                 + 1j * rng.standard_normal((n, 2 * N + 1)))
    return SpectralField(0.5 * (c + np.conj(c[:, ::-1])))


@st.composite
def fields(draw):
    """A real field (n, 2N+1) and a grid M >= 2N+1, odd or even."""
    n = draw(st.integers(1, 3))
    N = draw(st.integers(0, 24))
    M = 2 * N + 1 + draw(st.integers(0, 9))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return real_field(rng, n, N, scale), M


# -- the transform ------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(fields())
def test_grid_values_match_the_complex_transform(case):
    f, M = case
    new, old = to_physical(f, M).values, oracle.to_physical(f, M).values
    scale = float(np.abs(f.coeffs).max())
    assert np.abs(new - old).max() <= 1e-14 * scale * (2 * f.N + 1)
    half = Transform(f.N, M).to_grid(half_spectrum(f.coeffs))
    assert np.array_equal(new, half)


@settings(max_examples=120, deadline=None)
@given(fields())
def test_round_trip_reality_and_parseval(case):
    f, M = case
    g = to_physical(f, M)
    back = to_spectral(g, f.N)
    scale = float(np.abs(f.coeffs).max())
    assert np.abs(back.coeffs - f.coeffs).max() <= 1e-13 * scale
    assert back.reality_defect() == 0.0
    old = oracle.to_spectral(g, f.N)
    assert np.abs(back.coeffs - old.coeffs).max() <= 1e-13 * scale
    lhs = float((np.abs(f.coeffs) ** 2).sum())
    rhs = 2.0 * np.pi / M * float((g.values ** 2).sum())
    assert rhs == pytest.approx(lhs, rel=1e-12, abs=1e-300)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 20), st.integers(0, 9), st.integers(0, 2 ** 32 - 1))
def test_reality_is_exact_for_any_real_grid(N, extra, seed):
    M = 2 * N + 1 + extra
    g = GridField(np.random.default_rng(seed).standard_normal((2, M)))
    f = to_spectral(g, N)
    assert f.reality_defect() == 0.0
    assert np.array_equal(f.coeffs, full_spectrum(Transform(N, M).to_coeffs(g.values)))


def test_transform_rejects_a_small_grid():
    with pytest.raises(ValueError, match="too small"):
        Transform(8, 16)
    Transform(8, 17)


def test_to_physical_rejects_a_non_real_field():
    # a lone mode +1 is e^{ix}/sqrt(2 pi): not real; an irfft of its half
    # spectrum would silently drop the non-Hermitian part
    N = 4
    c = np.zeros((1, 2 * N + 1), dtype=complex)
    c[0, N + 1] = 1.0
    with pytest.raises(ValueError, match="reality"):
        to_physical(SpectralField(c), 16)
    # a defect within the tolerance passes
    f = real_field(np.random.default_rng(1), 1, N)
    c = f.coeffs.copy()
    c[0, N + 1] += 0.1 * spectral.REALITY_TOL
    to_physical(SpectralField(c), 16)


def test_trajectory_grid_and_spectral_agree():
    cfg = SolverConfig(scheme=make_scheme("forward_difference"), eps=0.25, N=12,
                       M=40, dt=1e-3, T=0.02, model=make_model(1, G="state"),
                       record_times=(0.01, 0.02))
    traj = simulate(cfg, seed=3)
    for i in range(len(traj.times)):
        assert traj.coeffs[i].shape == (1, cfg.N + 1)
        assert np.array_equal(traj.spectral(i).coeffs, full_spectrum(traj.coeffs[i]))
        assert np.array_equal(traj.grid(i, cfg.M).values,
                              to_physical(traj.spectral(i), cfg.M).values)


# -- the pair kernel ------------------------------------------------------------

def smooth_grid(rng, n, N, M):
    return to_physical(real_field(rng, n, N), M)


@pytest.mark.parametrize("stride", [1, 4, 16])
@pytest.mark.parametrize("n", [1, 2])
def test_holder_is_bitwise_the_loop(n, stride):
    u = smooth_grid(np.random.default_rng(5 + n), n, 256, 768)
    for gamma in (0.34, 0.46):
        assert (holder_seminorm_estimate(u, gamma, stride)
                == oracle.holder_seminorm_estimate(u, gamma, stride))


@pytest.mark.parametrize("stride", [1, 4, 16])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_remainder_is_bitwise_the_loop(n, stride):
    rng = np.random.default_rng(11 + n)
    psi, X = smooth_grid(rng, n, 64, 192), smooth_grid(rng, n, 64, 192)
    theta = 1.0 + 0.3 * rng.standard_normal((n, n, 192))
    for gamma in (1e-9, 0.4):
        assert (remainder_diagnostic(psi, theta, X, gamma, stride)
                == oracle.remainder_diagnostic(psi, theta, X, gamma, stride))
    if n == 1:                                   # a scalar theta field
        assert (remainder_diagnostic(psi, theta[0], X, 0.4, stride)
                == oracle.remainder_diagnostic(psi, theta[0], X, 0.4, stride))


@pytest.mark.parametrize("block", [1, 7, 64])
@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), M=st.integers(2, 48), stride=st.integers(1, 9),
       seed=st.integers(0, 2 ** 32 - 1))
def test_small_blocks_change_no_bit(block, n, M, stride, seed):
    rng = np.random.default_rng(seed)
    u, X = GridField(rng.standard_normal((n, M))), GridField(rng.standard_normal((n, M)))
    theta = rng.standard_normal((n, n, M))
    saved = spectral.PAIR_BLOCK
    spectral.PAIR_BLOCK = block
    try:
        assert (holder_seminorm_estimate(u, 0.4, stride)
                == oracle.holder_seminorm_estimate(u, 0.4, stride))
        assert (remainder_diagnostic(u, theta, X, 0.3, stride)
                == oracle.remainder_diagnostic(u, theta, X, 0.3, stride))
        new, old = grr_norm_estimate(u, 0.4, 4.0), oracle.grr_norm_estimate(u, 0.4, 4.0)
        assert new == pytest.approx(old, rel=1e-13)
    finally:
        spectral.PAIR_BLOCK = saved


@pytest.mark.parametrize("alpha, p", [(0.35, 4.0), (0.45, 2.0), (0.4, 1.0)])
def test_grr_matches_the_loop(alpha, p):
    u = smooth_grid(np.random.default_rng(17), 2, 96, 320)
    new, old = grr_norm_estimate(u, alpha, p), oracle.grr_norm_estimate(u, alpha, p)
    assert new == pytest.approx(old, rel=1e-13)


@pytest.mark.parametrize("stride", [0, -1])
def test_a_stride_below_one_is_rejected(stride):
    rng = np.random.default_rng(2)
    u = GridField(rng.standard_normal((1, 32)))
    with pytest.raises(ValueError, match="stride"):
        remainder_diagnostic(u, np.ones((1, 1, 32)), u, 0.4, stride)
    with pytest.raises(ValueError, match="stride"):
        holder_seminorm_estimate(u, 0.4, stride)
