"""Periodic vector-valued fields on [-pi, pi]: transforms, semigroups, norms.

Basis convention, fixed once for the whole package:

    u(x) = (1/sqrt(2 pi)) * sum_{|k| <= N} uhat(k) e^{i k x},

with grid points x_m = -pi + 2 pi m / M.  Under this convention Parseval
reads  sum |uhat|^2 = (2 pi / M) sum_m |u(x_m)|^2  for band-limited data,
and the heat semigroup acts modewise as exp(-k^2 f(eps k) t).

A field is its array.  The fields are real (uhat(-k) = conj uhat(k)), so
a spectral field is its half spectrum, modes 0..N, (..., N+1) complex with
a real mode 0, the layout every function here takes and returns; a grid
field is its (n, M) float values at the x_m.  ``full_spectrum`` gives the
modes -N..N of a half spectrum, for the one sum that runs over them, the
m = 0 block of the lift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.fft  # numpy 2 loads it lazily: load it with the module, not in a run
# the pocketfft ufuncs that np.fft's rfft and irfft call: a call of their own
# skips np.fft's Python wrapper and writes into ``out``.  The module is
# private; numpy 2.0 first ships it, and these names and their (a, fct, out=)
# calling convention are tested on numpy 2.4.6 (pyproject.toml bounds numpy
# to the tested minor versions, tests/test_transform.py checks the bits)
from numpy.fft import _pocketfft_umath as _pocketfft

from schemelab.schemes import CutoffScheme, laplacian_multiplier

SQRT_2PI = np.sqrt(2.0 * np.pi)
REALITY_TOL = 1e-10


def grid_points(M: int) -> np.ndarray:
    return -np.pi + 2.0 * np.pi * np.arange(M) / M


class Transform:
    """Real fields given by modes 0..N, uhat(-k) = conj uhat(k), to and from
    the M-point grid by one irfft or rfft; the grid phase (-1)^k and the scale
    1/sqrt(2 pi) are precomputed as one scalar and one mode array.

    ``mode_sums`` and ``grid_sums`` are the bare transforms, for callers that
    fold those scales into multipliers of their own: ``to_grid(half)`` is
    ``mode_sums(half * sign / sqrt(2 pi))`` up to rounding, and
    ``to_coeffs(values)`` is ``grid_sums(values) * coeff_scale``.  All four
    call the pocketfft ufuncs of np.fft's irfft and rfft with the factor
    np.fft passes for their norm, so they give np.fft's bits; the bare ones
    write into an ``out`` buffer if given.
    """

    def __init__(self, N: int, M: int):
        if M < 2 * N + 1:
            raise ValueError(f"grid size {M} too small for max mode {N}")
        self.N, self.M = N, M
        self.sign = np.ones(N + 1)
        self.sign[1::2] = -1.0
        self.grid_scale = M / SQRT_2PI
        self.coeff_scale = self.sign * (SQRT_2PI / M)
        self._rfft = _pocketfft.rfft_n_even if M % 2 == 0 else _pocketfft.rfft_n_odd

    def to_grid(self, half: np.ndarray) -> np.ndarray:
        """Real grid values (..., M) of modes 0..N (..., N+1): the bits of
        ``np.fft.irfft(half * sign, M) * grid_scale``."""
        grid = np.empty(half.shape[:-1] + (self.M,))
        return _pocketfft.irfft(half * self.sign, 1 / self.M, out=grid) * self.grid_scale

    def to_coeffs(self, values: np.ndarray) -> np.ndarray:
        """Modes 0..N (..., N+1) of real grid values (..., M)."""
        return self.grid_sums(values) * self.coeff_scale

    def mode_buffer(self, lead: tuple) -> np.ndarray:
        """Zero modes 0..M//2, shape lead + (M // 2 + 1,), for modes 0..N
        written to ``[..., :N + 1]``.  ``mode_sums`` of a buffer equals that
        of modes 0..N bit for bit in about 30% less time, the irfft being
        slow to zero-pad short rows (M = 768, 3 to 24 rows, numpy 2.4 on a
        2-vCPU x86 VM).  Also the ``out`` of ``grid_sums``."""
        return np.zeros(lead + (self.M // 2 + 1,), dtype=complex)

    def mode_sums(self, modes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The sums sum_k c_k e^{2 pi i k m / M}, c_{-k} = conj c_k, at
        m = 0..M-1 (..., M), of modes 0..N (..., N+1) or of a
        ``mode_buffer`` holding them: unscaled, ``np.fft.irfft(modes, M,
        norm="forward")``, written to ``out`` (..., M) if given."""
        if out is None:
            out = np.empty(modes.shape[:-1] + (self.M,))
        return _pocketfft.irfft(modes, 1, out=out)

    def grid_sums(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The sums sum_m v_m e^{-2 pi i k m / M} for k = 0..N (..., N+1) of
        grid values (..., M): unscaled, ``np.fft.rfft(values)[..., :N + 1]``.
        The rfft writes modes 0..M//2 to ``out``, a ``mode_buffer``, if
        given; the result is its view ``out[..., :N + 1]``."""
        if out is None:
            out = np.empty(values.shape[:-1] + (self.M // 2 + 1,), dtype=complex)
        return self._rfft(values, 1, out=out)[..., :self.N + 1]


def full_spectrum(half: np.ndarray) -> np.ndarray:
    """Coefficients -N..N of the real field with modes 0..N ``half``."""
    return np.concatenate([np.conj(half[..., :0:-1]), half], axis=-1)


def eval_modes_on_grid(coeffs: np.ndarray, ks: np.ndarray, M: int) -> np.ndarray:
    """Evaluate sum_k coeffs[..., k] e^{i k x_m} at the M grid points, exactly.

    ``ks`` is a run of consecutive modes k0, k0+1, ...; any range works (also
    |k| >= M): the modes are folded modulo M with the phase (-1)^k coming from
    the -pi grid offset.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    ks = np.asarray(ks)
    K = len(ks)
    if np.any(ks != ks[0] + np.arange(K)):
        raise ValueError("ks must be consecutive ascending modes")
    signed = coeffs * np.where(ks % 2 == 0, 1.0, -1.0)
    # entry r of the padded, reshaped mode axis holds the modes k0 + r + jM
    pad = -K % M
    folded = np.pad(signed, [(0, 0)] * (signed.ndim - 1) + [(0, pad)])
    folded = folded.reshape(coeffs.shape[:-1] + (-1, M)).sum(axis=-2)
    D = np.roll(folded, int(ks[0]), axis=-1)
    return np.fft.ifft(D, axis=-1) * M


def to_physical(half: np.ndarray, M: int) -> np.ndarray:
    """Grid values (..., M) of the real field with modes 0..N (..., N+1),
    ``Transform(N, M).to_grid(half)`` (requires M >= 2N+1)."""
    return Transform(half.shape[-1] - 1, M).to_grid(half)


def semigroup_apply(half: np.ndarray, scheme: CutoffScheme, eps: float,
                    t: float) -> np.ndarray:
    """Apply the approximated heat semigroup to modes 0..N (..., N+1): mode k
    scales by e^{-k^2 f(eps k) t}."""
    if t < 0:
        raise ValueError("t must be >= 0")
    lap = laplacian_multiplier(scheme, np.arange(half.shape[-1]), eps)
    return half * np.exp(lap * t)


def sobolev_minus_alpha_norm(coeffs: np.ndarray, alpha: float) -> np.ndarray:
    """Negative Sobolev norm ( sum_{|k| <= K} (1+k^2)^{-alpha} |uhat(k)|^2 )^(1/2)
    of each real field with modes 0..K (..., K+1): mode 0 counts once, every
    mode above it twice, for itself and its conjugate.  Summed along the mode
    axis (contiguous rows keep the bits of one-row arrays)."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    k = np.arange(coeffs.shape[-1], dtype=float)
    weight = 2.0 * (1.0 + k * k) ** (-alpha)
    weight[0] = 1.0
    return np.sqrt((weight * np.abs(coeffs) ** 2).sum(axis=-1))


def _pair_distances(M: int) -> np.ndarray:
    # periodic distance associated with each index separation 0..M-1
    s = np.arange(M)
    d = 2.0 * np.pi * s / M
    return np.minimum(d, 2.0 * np.pi - d)


# grid pairs per block of ``pair_reduce``
PAIR_BLOCK = 1 << 16


def pair_reduce(M: int, stride: int, magnitude, exponent: float) -> float:
    """max of magnitude(i, j) / dist(x_i, x_j)^exponent over the pairs
    x_j = x_i + d, start i = 0, stride, ..., every separation d = 1..M-1;
    ``magnitude`` maps starts i (B, 1) and ends j (B, M-1) to pair values
    (B, M-1).  Blocks of about PAIR_BLOCK pairs bound the memory."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    weight = _pair_distances(M)[1:] ** exponent
    d = np.arange(1, M)
    starts = np.arange(0, M, stride)[:, None]
    size = max(1, PAIR_BLOCK // M)
    return float(np.max([np.max(magnitude(i, (i + d) % M) / weight, initial=0.0)
                         for i in np.split(starts, range(size, len(starts), size))]))


def holder_seminorm_estimate(u: np.ndarray, gamma: float, stride: int = 1) -> float:
    """sup |u(x)-u(y)| / dist(x,y)^gamma over pairs of the grid values u
    (n, M), periodic distance.

    Pairs are (x_i, x_j) with the start index i subsampled by ``stride`` and
    all separations kept, so refining the stride can only add pairs and the
    estimate is nondecreasing under refinement.
    """
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0, 1)")
    return pair_reduce(u.shape[-1], stride,
                       lambda i, j: np.linalg.norm(u[:, j] - u[:, i], axis=0), gamma)


@dataclass(frozen=True)
class NormConfig:
    """The Hoelder exponent and pair stride of the gap metric.

    Requires 1/3 < alpha_tilde < 1/2, the window of the paper's solution
    theory.
    """

    alpha_tilde: float = 0.34
    stride: int = 4

    def __post_init__(self):
        if not 1.0 / 3.0 < self.alpha_tilde < 0.5:
            raise ValueError("need 1/3 < alpha_tilde < 1/2")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
