"""Periodic vector-valued fields on [-pi, pi]: transforms, multipliers, norms.

Basis convention, fixed once for the whole package:

    u(x) = (1/sqrt(2 pi)) * sum_{|k| <= N} uhat(k) e^{i k x},

with grid points x_m = -pi + 2 pi m / M.  Under this convention Parseval
reads  sum |uhat|^2 = (2 pi / M) sum_m |u(x_m)|^2  for band-limited data,
and the heat semigroup acts modewise as exp(-k^2 f(eps k) t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from schemelab.schemes import CutoffScheme, laplacian_multiplier

SQRT_2PI = np.sqrt(2.0 * np.pi)
REALITY_TOL = 1e-10


@dataclass(frozen=True)
class SpectralField:
    """Truncated Fourier coefficients of a real vector field.

    coeffs has shape (n, 2N+1), mode index ascending from -N to N.
    Reality requires coeffs[:, -k] = conj(coeffs[:, k]).
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 2 or c.shape[1] % 2 == 0:
            raise ValueError("coeffs must have shape (n, 2N+1)")
        object.__setattr__(self, "coeffs", c)

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]

    @property
    def N(self) -> int:
        return (self.coeffs.shape[1] - 1) // 2

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.N, self.N + 1)

    def reality_defect(self) -> float:
        return float(np.abs(self.coeffs - np.conj(self.coeffs[:, ::-1])).max())

    @staticmethod
    def zeros(n: int, N: int) -> "SpectralField":
        return SpectralField(np.zeros((n, 2 * N + 1), dtype=complex))


@dataclass(frozen=True)
class GridField:
    """Real values of a vector field on the uniform grid x_m = -pi + 2 pi m/M."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError("values must have shape (n, M)")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def M(self) -> int:
        return self.values.shape[1]

    @property
    def x(self) -> np.ndarray:
        return grid_points(self.M)


def grid_points(M: int) -> np.ndarray:
    return -np.pi + 2.0 * np.pi * np.arange(M) / M


class Transform:
    """Real fields given by modes 0..N, uhat(-k) = conj uhat(k), to and from
    the M-point grid by one irfft or rfft; the grid phase (-1)^k and the scale
    1/sqrt(2 pi) are precomputed as one scalar and one mode array.

    ``mode_sums`` and ``grid_sums`` are the bare transforms, for callers that
    fold those scales into multipliers of their own: ``to_grid(half)`` is
    ``mode_sums(half * sign / sqrt(2 pi))`` and ``to_coeffs(values)`` is
    ``grid_sums(values) * coeff_scale``, up to rounding.
    """

    def __init__(self, N: int, M: int):
        if M < 2 * N + 1:
            raise ValueError(f"grid size {M} too small for max mode {N}")
        self.N, self.M = N, M
        self.sign = np.ones(N + 1)
        self.sign[1::2] = -1.0
        self.grid_scale = M / SQRT_2PI
        self.coeff_scale = self.sign * (SQRT_2PI / M)

    def to_grid(self, half: np.ndarray) -> np.ndarray:
        """Real grid values (..., M) of modes 0..N (..., N+1)."""
        return np.fft.irfft(half * self.sign, n=self.M, axis=-1) * self.grid_scale

    def to_coeffs(self, values: np.ndarray) -> np.ndarray:
        """Modes 0..N (..., N+1) of real grid values (..., M)."""
        return np.fft.rfft(values, axis=-1)[..., :self.N + 1] * self.coeff_scale

    def mode_buffer(self, lead: tuple) -> np.ndarray:
        """Zero modes 0..M//2, shape lead + (M // 2 + 1,), for modes 0..N
        written to ``[..., :N + 1]``.  ``mode_sums`` of a buffer equals that
        of modes 0..N bit for bit in about 30% less time, np.fft's irfft
        being slow to zero-pad short rows (M = 768, 3 to 24 rows, numpy 2.4
        on a 2-vCPU x86 VM)."""
        return np.zeros(lead + (self.M // 2 + 1,), dtype=complex)

    def mode_sums(self, modes: np.ndarray) -> np.ndarray:
        """The sums sum_k c_k e^{2 pi i k m / M}, c_{-k} = conj c_k, at
        m = 0..M-1 (..., M), of modes 0..N (..., N+1) or of a
        ``mode_buffer`` holding them: unscaled."""
        return np.fft.irfft(modes, n=self.M, axis=-1, norm="forward")

    def grid_sums(self, values: np.ndarray) -> np.ndarray:
        """The sums sum_m v_m e^{-2 pi i k m / M} for k = 0..N (..., N+1) of
        grid values (..., M): unscaled."""
        return np.fft.rfft(values, axis=-1)[..., :self.N + 1]


def half_spectrum(coeffs: np.ndarray) -> np.ndarray:
    """Modes 0..N of the real field with (..., 2N+1) coefficients -N..N."""
    N = (coeffs.shape[-1] - 1) // 2
    return 0.5 * (coeffs[..., N:] + np.conj(coeffs[..., N::-1]))


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


def to_physical(field: SpectralField, M: int) -> GridField:
    """Evaluate a real spectral field on the M-point grid (requires M >= 2N+1)."""
    transform = Transform(field.N, M)
    defect = field.reality_defect()
    if defect > REALITY_TOL * max(1.0, float(np.abs(field.coeffs).max())):
        raise ValueError(f"field violates the reality constraint (defect {defect:.2e})")
    return GridField(transform.to_grid(half_spectrum(field.coeffs)))


def to_spectral(grid: GridField, N: int) -> SpectralField:
    """Recover modes -N..N from grid values (requires M >= 2N+1).

    The output satisfies the reality constraint exactly: the negative modes
    are the conjugates of the positive ones, and mode 0 of a real rfft is real.
    """
    return SpectralField(full_spectrum(Transform(N, grid.M).to_coeffs(grid.values)))


def apply_multiplier(field: SpectralField, m) -> SpectralField:
    """Scale the coefficients modewise; m is a callable k -> complex or an
    array aligned with field.modes."""
    ks = field.modes
    mult = np.asarray(m(ks) if callable(m) else m, dtype=complex)
    if mult.shape != ks.shape:
        raise ValueError("multiplier array does not match the mode range")
    return SpectralField(field.coeffs * mult)


def semigroup_apply(field: SpectralField, scheme: CutoffScheme, eps: float,
                    t: float) -> SpectralField:
    """Apply the approximated heat semigroup: mode k scales by e^{-k^2 f(eps k) t}."""
    if t < 0:
        raise ValueError("t must be >= 0")
    lap = laplacian_multiplier(scheme, field.modes, eps)
    return SpectralField(field.coeffs * np.exp(lap * t))


def heat_kernel(scheme: CutoffScheme, eps: float, t: float, N: int,
                M: int) -> GridField:
    """The kernel the approximated semigroup convolves with, truncated at N:

        p_t(x) = (1/sqrt(2 pi)) sum_k e^{-t k^2 f(eps k)} e^{i k x}.
    """
    if t <= 0:
        raise ValueError("t must be > 0")
    ks = np.arange(N + 1)
    coeffs = np.exp(laplacian_multiplier(scheme, ks, eps) * t)
    return GridField(Transform(N, M).to_grid(coeffs[None, :]))


def sobolev_minus_alpha_norm(field: SpectralField, alpha: float) -> float:
    """Negative Sobolev norm ( sum_{j,k} (1+k^2)^{-alpha} |uhat_j(k)|^2 )^(1/2)."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    k = field.modes.astype(float)
    w = (1.0 + k * k) ** (-alpha)
    return float(np.sqrt((w * np.abs(field.coeffs) ** 2).sum()))


def _pair_distances(M: int) -> np.ndarray:
    # periodic distance associated with each index separation 0..M-1
    s = np.arange(M)
    d = 2.0 * np.pi * s / M
    return np.minimum(d, 2.0 * np.pi - d)


# grid pairs per block of ``pair_reduce``
PAIR_BLOCK = 1 << 16


def pair_reduce(M: int, stride: int, magnitude, exponent: float, reduce) -> float:
    """reduce (np.max or np.sum) of magnitude(i, j) / dist(x_i, x_j)^exponent
    over the pairs x_j = x_i + d, start i = 0, stride, ..., every separation
    d = 1..M-1; ``magnitude`` maps starts i (B, 1) and ends j (B, M-1) to pair
    values (B, M-1).  Blocks of about PAIR_BLOCK pairs bound the memory."""
    if stride < 1:
        raise ValueError("stride must be >= 1")
    weight = _pair_distances(M)[1:] ** exponent
    d = np.arange(1, M)
    starts = np.arange(0, M, stride)[:, None]
    size = max(1, PAIR_BLOCK // M)
    return float(reduce([reduce(magnitude(i, (i + d) % M) / weight, initial=0.0)
                         for i in np.split(starts, range(size, len(starts), size))]))


def _increment_norm(u: np.ndarray):
    """Pair magnitude |u(x_j) - u(x_i)|, Euclidean over the components."""
    return lambda i, j: np.linalg.norm(u[:, j] - u[:, i], axis=0)


def holder_seminorm_estimate(grid: GridField, gamma: float, stride: int = 1) -> float:
    """sup |u(x)-u(y)| / dist(x,y)^gamma over grid pairs, periodic distance.

    Pairs are (x_i, x_j) with the start index i subsampled by ``stride`` and
    all separations kept, so refining the stride can only add pairs and the
    estimate is nondecreasing under refinement.
    """
    if not 0 < gamma < 1:
        raise ValueError("gamma must lie in (0, 1)")
    return pair_reduce(grid.M, stride, _increment_norm(grid.values), gamma, np.max)


def grr_norm_estimate(grid: GridField, alpha: float, p: float) -> float:
    """Double-integral Hoelder estimator

        ( sum_{x != y} |u(x)-u(y)|^p / dist(x,y)^(alpha p + 2) * dx^2 )^(1/p)

    over all ordered grid pairs with the periodic distance.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    norm = _increment_norm(grid.values)
    total = pair_reduce(grid.M, 1, lambda i, j: norm(i, j) ** p, alpha * p + 2.0, np.sum)
    dx = 2.0 * np.pi / grid.M
    return (total * dx * dx) ** (1.0 / p)


@dataclass(frozen=True)
class NormConfig:
    """Hoelder/weight exponents used by the experiment harness.

    Requires 1/3 < alpha_tilde <= alpha < alpha_star < 1/2.  The blow-up
    weights follow the convention beta = alpha + kappa/3 with
    kappa = 1/2 - alpha_star (and likewise for the tilde pair).
    """

    alpha: float = 0.46
    alpha_tilde: float = 0.34
    alpha_star: float = 0.48
    beta: float | None = None
    beta_tilde: float | None = None
    stride: int = 4

    def __post_init__(self):
        if not (1.0 / 3.0 < self.alpha_tilde <= self.alpha < self.alpha_star < 0.5):
            raise ValueError("need 1/3 < alpha_tilde <= alpha < alpha_star < 1/2")
        kappa = 0.5 - self.alpha_star
        if self.beta is None:
            object.__setattr__(self, "beta", self.alpha + kappa / 3.0)
        if self.beta_tilde is None:
            object.__setattr__(self, "beta_tilde", self.alpha_tilde + kappa / 3.0)
        if self.stride < 1:
            raise ValueError("stride must be >= 1")

    @property
    def kappa(self) -> float:
        return 0.5 - self.alpha_star


# ---------------------------------------------------------------------------
# serialisation: component-major, mode-ascending; binary is little-endian
# float64 (re, im) pairs for spectral data, float64 values for grids
# ---------------------------------------------------------------------------

def save_spectral(field: SpectralField, path, fmt: str = "csv") -> None:
    if fmt == "csv":
        rows = []
        for j in range(field.n):
            for i, k in enumerate(field.modes):
                c = field.coeffs[j, i]
                rows.append(f"{j},{k},{float(c.real)!r},{float(c.imag)!r}")
        with open(path, "w") as fh:
            fh.write("component,mode,re,im\n")
            fh.write("\n".join(rows) + "\n")
    elif fmt == "bin":
        flat = np.empty((field.n, 2 * field.N + 1, 2), dtype="<f8")
        flat[:, :, 0] = field.coeffs.real
        flat[:, :, 1] = field.coeffs.imag
        flat.tofile(path)
    else:
        raise ValueError("fmt must be 'csv' or 'bin'")


def load_spectral(path, n: int, N: int, fmt: str = "csv") -> SpectralField:
    if fmt == "csv":
        coeffs = np.zeros((n, 2 * N + 1), dtype=complex)
        with open(path) as fh:
            next(fh)
            for line in fh:
                j, k, re, im = line.strip().split(",")
                coeffs[int(j), int(k) + N] = float(re) + 1j * float(im)
        return SpectralField(coeffs)
    if fmt == "bin":
        flat = np.fromfile(path, dtype="<f8").reshape(n, 2 * N + 1, 2)
        return SpectralField(flat[:, :, 0] + 1j * flat[:, :, 1])
    raise ValueError("fmt must be 'csv' or 'bin'")


def save_grid(grid: GridField, path, fmt: str = "csv") -> None:
    if fmt == "csv":
        np.savetxt(path, grid.values, delimiter=",")
    elif fmt == "bin":
        grid.values.astype("<f8").tofile(path)
    else:
        raise ValueError("fmt must be 'csv' or 'bin'")


def load_grid(path, n: int, M: int, fmt: str = "csv") -> GridField:
    if fmt == "csv":
        return GridField(np.loadtxt(path, delimiter=",").reshape(n, M))
    if fmt == "bin":
        return GridField(np.fromfile(path, dtype="<f8").reshape(n, M))
    raise ValueError("fmt must be 'csv' or 'bin'")
