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

evaluated by grouping the series by m = k + l.  With A = sum_k a_k e^{ikx},
C = sum_l l a_l e^{ilx} and B_u = sum_l a_l (e^{ilu} - 1) e^{ilx}
(a_k = q_k xi_k), the coefficient of e^{imx}, m != 0, is

    C_m(u) = (e^{imu} - 1)/m [A C]_m - [A B_u]_m,

where [F]_m is the coefficient of e^{imx} in F, and the k = -l terms give
the m = 0 block in closed form.  A, C/i and every B_u are real fields, so
one lift puts them all on a P = 2M point grid with one batched irfft, takes
the modes m = 1..2N of the products A_i (C/i)_j and A_i (B_u)_j with one
batched rfft (P > 4N, so no product mode aliases), and evaluates every
shift with one batched irfft on the same grid, whose even points are the
M-point grid.  Negative modes are the complex conjugates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from schemelab.correction import lambda_eps
from schemelab.schemes import CutoffScheme
from schemelab.spectral import REALITY_TOL, SQRT_2PI, SpectralField, sobolev_minus_alpha_norm
from schemelab.roughpath import RoughPathSample
from schemelab.solver import draw_noise


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
    complex normals (Re, Im ~ N(0, 1/2)), row 0 is a unit real normal.
    This is one step of the solver's noise draw."""
    return draw_noise(rng, 1, N, n)[0]


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


def lift_XX(state: ModeState, M: int, offsets) -> LiftSample:
    """Iterated-integral lift over each requested shift, plus the rough-path
    sample built from the grid-spacing shift.

    ``offsets`` must contain the grid spacing 2 pi / M; shifts are otherwise
    arbitrary reals (they need not align with the grid).
    """
    N, n = state.N, state.n
    if M < 2 * N + 1:
        raise ValueError(f"grid size {M} too small for max mode {N}")
    dx = 2.0 * np.pi / M
    us = [float(u) for u in offsets]
    grid_key = None
    for u in us:
        if abs(u - dx) <= 1e-12:
            grid_key = u
    if grid_key is None:
        raise ValueError("offsets must include the grid spacing 2*pi/M")

    # modes l = 0..N of A; the negative half is the complex conjugate.  XX
    # does not depend on the mode-0 amplitude a_0 (its terms cancel exactly),
    # so a_0 stays out of the products, where its rounding would swamp small
    # fields, and only rough.X gets it back
    a = (mode_amplitudes(state.scheme, state.eps, N)[:, None] * state.xi).T   # (n, N+1)
    a0 = a[:, 0].real.copy()
    a[:, 0] = 0.0
    u = np.array(us)[:, None]
    ms = np.arange(2 * N + 1)
    phase = np.exp(1j * u * ms) - 1.0          # e^{imu} - 1, (U, 2N+1)
    sign = np.where(ms % 2 == 0, 1.0, -1.0)    # e^{imx} at the grid origin x = -pi
    P = 2 * M                                  # >= 4N + 2
    # rows: A, C/i, then B_u for every shift
    half = np.concatenate([a[None], (-1j * ms[:N + 1] * a)[None],
                           phase[:, None, :N + 1] * a])
    fields = np.fft.irfft(half * sign[:N + 1], n=P, axis=-1) * P        # (2+U, n, P)
    A = fields[0]
    conv = (np.fft.rfft(A[None, :, None] * fields[1:, None], axis=-1)[..., 1:2 * N + 1]
            * (sign[1:] / P))                                         # (1+U, n, n, 2N)
    pos = (1j * conv[0] * (phase[:, 1:] / ms[1:])[:, None, None, :]
           - conv[1:])                                                # modes 1..2N
    # m = 0: the k = -l branch replaces the convolution value entirely
    full = np.concatenate([np.conj(a[:, :0:-1]), a], axis=-1)          # modes -N..N
    w0 = (1j * np.arange(-N, N + 1) * u
          - np.concatenate([np.conj(phase[:, N:0:-1]), phase[:, :N + 1]], axis=-1))
    c0 = ((w0[:, None, :] * np.conj(full)) @ full.T)[..., None]
    coeffs = np.concatenate([np.conj(pos[..., ::-1]), c0, pos], axis=-1)
    values = np.fft.irfft(np.concatenate([c0, pos], axis=-1) * sign, n=P,
                          axis=-1)[..., ::2] * P                      # (U, n, n, M)
    # the transforms force the values real; the m = 0 block and the negative
    # half are not, so evaluate the stored coefficients at x = 0
    defect = float(np.abs(coeffs.sum(axis=-1).imag).max())
    if defect > REALITY_TOL * max(1.0, float(np.abs(values).max())):
        raise FloatingPointError("lift lost the reality constraint")
    coeffs = np.moveaxis(coeffs, -1, 1)
    values = np.ascontiguousarray(np.moveaxis(values, -1, 1))
    table = {u: OffsetLift(u=u, coeffs=coeffs[k], values=values[k])
             for k, u in enumerate(us)}

    rough = RoughPathSample(
        x=-np.pi + dx * np.arange(M),
        X=A[:, ::2].T + a0,
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
                          t: float, alpha: float, center: float | None = None) -> float:
    """|D_eps XX(t, .) - Lambda_eps(t) Id|_{H^{-alpha}}, root-sum-square over
    matrix entries.

    The centering constant is the finite-eps correction constant truncated at
    the same mode count as the lift, so the statistic is exactly mean-zero
    for the truncated field.  ``t`` must match the lift's time.  ``center``
    is that constant, ``lambda_eps(scheme, eps, t, N)``, when the caller
    already has it; it is computed otherwise.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 1/2)")
    if abs(t - lift.state.t) > 1e-12 * max(1.0, abs(t)):
        raise ValueError("t does not match the time of the lifted state")
    field = d_eps_xx(lift, scheme, eps)
    N = lift.N
    if center is None:
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
