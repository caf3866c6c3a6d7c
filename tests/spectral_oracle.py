"""Complex-FFT grid transforms and per-start-point pair loops, kept only to
check the package against.

These are the transforms and Hoelder-type estimators the package used
before one real-FFT ``schemelab.spectral.Transform`` and one blocked pair
kernel replaced them: ``to_physical`` evaluates the full -N..N spectrum with
a complex inverse FFT and keeps the real part, ``to_spectral`` takes a full
complex FFT and symmetrises, and every estimator loops over its start points
one at a time; ``sobolev_minus_alpha_norm`` sums over the full spectrum, in
which the lift once held its product modes.  They are deliberately slow and
simple.  Fields are arrays, as in the package: coefficients -N..N
(..., 2N+1) here, grid values (n, M); ``half_spectrum`` gives the package's
modes 0..N of the former and ``schemelab.spectral.full_spectrum`` their
inverse.
"""

from __future__ import annotations

import numpy as np

from schemelab.spectral import REALITY_TOL, SQRT_2PI, eval_modes_on_grid


def half_spectrum(coeffs: np.ndarray) -> np.ndarray:
    """Modes 0..N of the real field with (..., 2N+1) coefficients -N..N."""
    N = (coeffs.shape[-1] - 1) // 2
    return 0.5 * (coeffs[..., N:] + np.conj(coeffs[..., N::-1]))


def to_physical(coeffs: np.ndarray, M: int) -> np.ndarray:
    N = (coeffs.shape[-1] - 1) // 2
    if M < 2 * N + 1:
        raise ValueError(f"grid size {M} too small for max mode {N}")
    vals = eval_modes_on_grid(coeffs, np.arange(-N, N + 1), M) / SQRT_2PI
    defect = float(np.abs(vals.imag).max()) if vals.size else 0.0
    if defect > REALITY_TOL * max(1.0, float(np.abs(vals.real).max())):
        raise ValueError(f"field violates the reality constraint (defect {defect:.2e})")
    return vals.real


def to_spectral(values: np.ndarray, N: int) -> np.ndarray:
    M = values.shape[-1]
    if M < 2 * N + 1:
        raise ValueError(f"grid size {M} too small for requested max mode {N}")
    F = np.fft.fft(values, axis=-1)
    ks = np.arange(-N, N + 1)
    coeffs = F[:, np.mod(ks, M)] * np.where(ks % 2 == 0, 1.0, -1.0)
    coeffs *= SQRT_2PI / M
    return 0.5 * (coeffs + np.conj(coeffs[:, ::-1]))


def sobolev_minus_alpha_norm(coeffs: np.ndarray, alpha: float) -> np.ndarray:
    """( sum_k (1+k^2)^{-alpha} |uhat(k)|^2 )^(1/2) of each row of
    coefficients -K..K (..., 2K+1)."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    k = np.arange(-(coeffs.shape[-1] // 2), coeffs.shape[-1] // 2 + 1, dtype=float)
    return np.sqrt(((1.0 + k * k) ** (-alpha) * np.abs(coeffs) ** 2).sum(axis=-1))


def _pair_distances(M: int) -> np.ndarray:
    s = np.arange(M)
    d = 2.0 * np.pi * s / M
    return np.minimum(d, 2.0 * np.pi - d)


def holder_seminorm_estimate(u: np.ndarray, gamma: float, stride: int = 1) -> float:
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0, 1)")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    M = u.shape[-1]
    dist = _pair_distances(M)
    best = 0.0
    idx = np.arange(M)
    for i in range(0, M, stride):
        diff = np.linalg.norm(u - u[:, i][:, None], axis=0)
        sep = (idx - i) % M
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(sep > 0, diff / dist[sep] ** gamma, 0.0)
        best = max(best, float(ratio.max()))
    return best


def remainder_diagnostic(P: np.ndarray, theta: np.ndarray, X: np.ndarray,
                         gamma: float, stride: int = 1) -> float:
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    M = P.shape[-1]
    dist = 2.0 * np.pi * np.arange(M) / M
    dist = np.minimum(dist, 2.0 * np.pi - dist)
    idx = np.arange(M)
    best = 0.0
    for i in range(0, M, stride):
        dP = P - P[:, i][:, None]
        dX = X - X[:, i][:, None]
        R = dP - np.einsum("ij,jm->im", theta[:, :, i], dX)
        sep = (idx - i) % M
        mag = np.linalg.norm(R, axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(sep > 0, mag / dist[sep] ** (2.0 * gamma), 0.0)
        best = max(best, float(ratio.max()))
    return best
