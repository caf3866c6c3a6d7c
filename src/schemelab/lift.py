"""Gaussian reference field in mode coordinates and its iterated-integral lift.

The reference field is

    X(t, x) = sum_k q_k xi_k(t) e^{i k x},
    q_k = h(eps k) / (|k| sqrt(4 pi f(eps k)))  for k != 0,  q_0 = 1/sqrt(2 pi),

where the xi_k are complex Ornstein-Uhlenbeck modes started at zero with
rate k^2 f(eps k) and unit stationary variance per component (mode 0 is a
Brownian motion), subject to xi_{-k} = conj(xi_k).  The second-order data
over a shift u is the double series

    XX(x, x+u) = sum_{k,l} xi_k (x) xi_l q_k q_l e^{i(k+l)x} I_{k,l}(u),

    I_{k,l}(u) = l/(k+l) (e^{i(k+l)u} - 1) - (e^{i l u} - 1),   k != -l
               = i l u - (e^{i l u} - 1),                        k  = -l,

evaluated by grouping the series by m = k + l (two mode convolutions per
shift) followed by one exact grid evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from schemelab.correction import lambda_eps
from schemelab.schemes import CutoffScheme
from schemelab.spectral import (
    GridField,
    SQRT_2PI,
    SpectralField,
    eval_modes_on_grid,
    sobolev_minus_alpha_norm,
)
from schemelab.roughpath import RoughPathSample

REALITY_TOL = 1e-10


@dataclass
class ModeState:
    """Complex Gaussian mode coordinates xi_k(t) for k = 0..N (row 0 real).

    Negative modes are implied by conjugation and never stored.
    """

    xi: np.ndarray          # complex, (N+1, n)
    scheme: CutoffScheme
    eps: float
    t: float

    def __post_init__(self):
        self.xi = np.asarray(self.xi, dtype=complex)
        if self.xi.ndim != 2:
            raise ValueError("xi must have shape (N+1, n)")

    @property
    def N(self) -> int:
        return self.xi.shape[0] - 1

    @property
    def n(self) -> int:
        return self.xi.shape[1]

    @staticmethod
    def zero(scheme: CutoffScheme, eps: float, N: int, n: int) -> "ModeState":
        return ModeState(np.zeros((N + 1, n), dtype=complex), scheme, eps, 0.0)


def draw_increments(rng: np.random.Generator, N: int, n: int) -> np.ndarray:
    """Standard Gaussian increments for one transition: rows 1..N are unit
    complex normals (Re, Im ~ N(0, 1/2)), row 0 is a unit real normal."""
    re = rng.standard_normal((N + 1, n))
    im = rng.standard_normal((N + 1, n))
    inc = (re + 1j * im) / np.sqrt(2.0)
    inc[0] = re[0]
    return inc


def mode_rates(scheme: CutoffScheme, eps: float, N: int) -> np.ndarray:
    """OU decay rates k^2 f(eps k) for k = 0..N."""
    k = np.arange(N + 1, dtype=float)
    rates = k * k * (scheme.f(eps * k) if eps > 0 else 1.0)
    rates[0] = 0.0
    return rates


def evolve_modes(state: ModeState, dt: float, increments: np.ndarray) -> ModeState:
    """Advance every mode by its exact transition over dt.

    Mode k != 0 follows the Ornstein-Uhlenbeck update
    xi' = e^{-r dt} xi + sqrt(1 - e^{-2 r dt}) Z with rate r = k^2 f(eps k);
    mode 0 advances as Brownian motion, xi' = xi + sqrt(dt) Re(Z).
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    increments = np.asarray(increments, dtype=complex)
    if increments.shape != state.xi.shape:
        raise ValueError("increments shape must match the state")
    rates = mode_rates(state.scheme, state.eps, state.N)
    decay = np.exp(-rates * dt)[:, None]
    xi = decay * state.xi + np.sqrt(np.maximum(0.0, 1.0 - decay ** 2)) * increments
    xi[0] = state.xi[0].real + np.sqrt(dt) * increments[0].real
    return ModeState(xi, state.scheme, state.eps, state.t + dt)


def mode_amplitudes(scheme: CutoffScheme, eps: float, N: int) -> np.ndarray:
    """q_k for k = 0..N."""
    q = np.empty(N + 1)
    q[0] = 1.0 / SQRT_2PI
    k = np.arange(1, N + 1, dtype=float)
    f = scheme.f(eps * k) if eps > 0 else np.ones_like(k)
    h = scheme.h(eps * k) if eps > 0 else np.ones_like(k)
    q[1:] = h / (k * np.sqrt(4.0 * np.pi * f))
    return q


def assemble_X(state: ModeState, M: int | None = None):
    """Field coefficients q_k xi_k as a SpectralField (uhat = sqrt(2 pi) q xi);
    with M given, also return the real grid values."""
    N, n = state.N, state.n
    q = mode_amplitudes(state.scheme, state.eps, N)
    coeffs = np.zeros((n, 2 * N + 1), dtype=complex)
    pos = SQRT_2PI * q[:, None] * state.xi
    coeffs[:, N:] = pos.T
    coeffs[:, :N] = np.conj(pos[1:].T)[:, ::-1]
    field = SpectralField(coeffs)
    if M is None:
        return field
    from schemelab.spectral import to_physical

    return field, to_physical(field, M)


def state_from_coeffs(coeffs: np.ndarray, scheme: CutoffScheme, eps: float,
                      t: float) -> ModeState:
    """Invert assemble_X: recover xi_k = uhat(k) / (sqrt(2 pi) q_k) for k >= 0.

    Used to lift a spectral field that was evolved elsewhere (e.g. by the
    SPDE integrator) with the same noise.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    n, width = coeffs.shape
    N = (width - 1) // 2
    q = mode_amplitudes(scheme, eps, N)
    # modes killed by the noise cut-off carry no field amplitude; their xi is
    # irrelevant for the lift and set to zero
    safe = np.where(q > 0.0, q, 1.0)
    xi = coeffs[:, N:].T / (SQRT_2PI * safe[:, None])
    xi[q == 0.0] = 0.0
    return ModeState(xi, scheme, eps, t)


def lift_offsets(scheme: CutoffScheme, eps: float, M: int) -> list:
    """The shifts a lift needs for ``scheme`` at ``eps`` on an M-point grid:
    the grid spacing 2 pi / M, then eps z for every nonzero atom z of mu."""
    return [2.0 * np.pi / M] + [eps * z for z, w in scheme.mu.atoms
                                if z != 0.0 and w != 0.0]


@dataclass
class OffsetLift:
    """Second-order increments over one fixed shift u, for every grid point.

    coeffs[m + 2N] is the coefficient of e^{i m x} in XX(x, x+u);
    values[p] is XX(x_p, x_p + u), an (n, n) matrix per grid point.
    """

    u: float
    coeffs: np.ndarray      # complex, (4N+1, n, n)
    values: np.ndarray      # real, (M, n, n)


@dataclass
class LiftSample:
    """A rough-path sample of the reference field plus an offset table."""

    rough: RoughPathSample
    offsets: dict
    state: ModeState
    M: int

    @property
    def N(self) -> int:
        return self.state.N

    def offset(self, u: float) -> OffsetLift:
        for key, entry in self.offsets.items():
            if abs(key - u) <= 1e-12 * max(1.0, abs(u)):
                return entry
        raise KeyError(f"offset {u!r} not present in the lift")


def _xx_coeffs(a: np.ndarray, ls: np.ndarray, u: float) -> np.ndarray:
    """Coefficients C_m of XX(x, x+u) = sum_m C_m e^{imx} by mode convolution.

    a[p] = q_l xi_l at l = ls[p]; the k != -l branch splits into two
    convolutions, the k = -l branch fills m = 0 directly.
    """
    n = a.shape[1]
    L = len(ls)
    out = np.zeros((2 * L - 1, n, n), dtype=complex)
    if u == 0.0:
        return out
    ms = np.arange(-(L - 1), L) + 0.0  # m = k + l
    phase_l = np.exp(1j * ls * u) - 1.0
    b = a * phase_l[:, None]
    c = a * ls[:, None]
    for i in range(n):
        for j in range(n):
            conv_c = np.convolve(a[:, i], c[:, j])
            conv_b = np.convolve(a[:, i], b[:, j])
            with np.errstate(divide="ignore", invalid="ignore"):
                factor = np.where(ms != 0, (np.exp(1j * ms * u) - 1.0) / np.where(ms != 0, ms, 1.0), 0.0)
            out[:, i, j] = conv_c * factor - conv_b
    # m = 0: the k = -l branch replaces the convolution value entirely
    w0 = 1j * ls * u - phase_l
    out[L - 1] = np.einsum("l,li,lj->ij", w0, np.conj(a), a)
    return out


def lift_XX(state: ModeState, M: int, offsets) -> LiftSample:
    """Iterated-integral lift over each requested shift, plus the rough-path
    sample built from the grid-spacing shift.

    ``offsets`` must contain the grid spacing 2 pi / M; shifts are otherwise
    arbitrary reals (they need not align with the grid).
    """
    N, n = state.N, state.n
    if M < 2 * N + 1:
        raise ValueError(f"grid size {M} too small for max mode {N}")
    q = mode_amplitudes(state.scheme, state.eps, N)
    ls = np.arange(-N, N + 1)
    a = np.zeros((2 * N + 1, n), dtype=complex)
    a[N:] = q[:, None] * state.xi
    a[:N] = np.conj(a[N + 1:])[::-1]

    dx = 2.0 * np.pi / M
    offsets = list(offsets)
    grid_key = None
    for u in offsets:
        if abs(u - dx) <= 1e-12:
            grid_key = float(u)
    if grid_key is None:
        raise ValueError("offsets must include the grid spacing 2*pi/M")

    table = {}
    ms = np.arange(-2 * N, 2 * N + 1)
    for u in offsets:
        C = _xx_coeffs(a, ls, float(u))
        vals = eval_modes_on_grid(np.moveaxis(C, 0, -1), ms, M)   # (n, n, M)
        scale = max(1.0, float(np.abs(vals.real).max()))
        if float(np.abs(vals.imag).max()) > REALITY_TOL * scale:
            raise FloatingPointError("lift lost the reality constraint")
        table[float(u)] = OffsetLift(
            u=float(u), coeffs=C, values=np.moveaxis(vals.real, -1, 0)
        )

    field_vals = eval_modes_on_grid(a.T, ls, M).real.T          # (M, n)
    rough = RoughPathSample(
        x=-np.pi + dx * np.arange(M),
        X=field_vals,
        XXinc=table[grid_key].values,
    )
    return LiftSample(rough=rough, offsets=table, state=state, M=M)


@dataclass
class MatrixField:
    """Matrix-valued field given by modes: field(x) = sum_m coeffs[m] e^{imx}."""

    coeffs: np.ndarray      # complex, (4N+1, n, n)
    values: np.ndarray      # real, (M, n, n)

    @property
    def n(self) -> int:
        return self.values.shape[1]


class MissingOffsetError(KeyError):
    pass


def d_eps_xx(lift: LiftSample, scheme: CutoffScheme, eps: float) -> MatrixField:
    """Scaled mu-average of the lift: (1/eps) sum_a w_a XX(., . + eps z_a)."""
    n = lift.state.n
    N = lift.N
    coeffs = np.zeros((4 * N + 1, n, n), dtype=complex)
    values = np.zeros((lift.M, n, n))
    for z, w in scheme.mu.atoms:
        if z == 0.0 or w == 0.0:
            continue
        try:
            entry = lift.offset(eps * z)
        except KeyError as exc:
            raise MissingOffsetError(
                f"lift lacks the offset eps*z = {eps * z!r}") from exc
        coeffs += w * entry.coeffs
        values += w * entry.values
    return MatrixField(coeffs=coeffs / eps, values=values / eps)


def fluctuation_statistic(lift: LiftSample, scheme: CutoffScheme, eps: float,
                          t: float, alpha: float) -> float:
    """|D_eps XX(t, .) - Lambda_eps(t) Id|_{H^{-alpha}}, root-sum-square over
    matrix entries.

    The centering constant is the finite-eps correction constant truncated at
    the same mode count as the lift, so the statistic is exactly mean-zero
    for the truncated field.  ``t`` must match the lift's time.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 1/2)")
    if abs(t - lift.state.t) > 1e-12 * max(1.0, abs(t)):
        raise ValueError("t does not match the time of the lifted state")
    field = d_eps_xx(lift, scheme, eps)
    N = lift.N
    center = lambda_eps(scheme, eps, t, N)
    coeffs = field.coeffs.copy()
    for i in range(field.n):
        coeffs[2 * N, i, i] -= center
    total = 0.0
    for i in range(field.n):
        for j in range(field.n):
            entry = SpectralField(SQRT_2PI * coeffs[None, :, i, j])
            total += sobolev_minus_alpha_norm(entry, alpha) ** 2
    return float(np.sqrt(total))
