"""Gaussian reference field in mode coordinates and its iterated-integral lift.

The reference field is

    X(t, x) = sum_k q_k xi_k(t) e^{i k x},
    q_k = h(eps k) / (|k| sqrt(4 pi f(eps k)))  for k != 0,  q_0 = 1/sqrt(2 pi),

where the xi_k are complex Ornstein-Uhlenbeck modes started at zero with
rate k^2 f(eps k) (minus ``schemes.laplacian_multiplier``) and unit
stationary variance per component (mode 0 is a Brownian motion), subject to
xi_{-k} = conj(xi_k).  The amplitudes q_k are ``correction.mode_amplitudes``,
the ones Lambda_eps sums over, so the centring of the fluctuation statistic
is exact for the truncated field.  The second-order data
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
one lift puts them all, for one state or a chunk of states stacked on a
leading sample axis, on a P = 2M point grid with one batched irfft and takes
the modes m = 1..2N of the products A_i (C/i)_j and A_i (B_u)_j with one
batched rfft (P > 4N, so no product mode aliases).  Negative modes are the
complex conjugates; ``OffsetLift`` and ``MatrixField`` hold modes -2N..2N,
the layout ``sobolev_minus_alpha_norm`` reads, while the field itself
(``assemble_X``) is its modes 0..N, (n, N+1), as the solver's.  A
``LiftPlan`` holds every constant of that computation, which depends on
the scheme, eps, N, M and the shifts alone, with the amplitudes and the
transform's sign and scales folded into its row and mode multipliers; the
experiments build one per eps and pass it to every ``lift_XX`` call.  The grid values (an irfft on the same grid,
whose even points are the M-point grid), the grid-spacing shift and the
rough-path sample are made when first read; the fluctuation statistic
reads none, and sums every sample and matrix entry of a chunk in one
reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from schemelab.correction import lambda_eps, mode_amplitudes
from schemelab.schemes import CutoffScheme, laplacian_multiplier
from schemelab.spectral import (REALITY_TOL, SQRT_2PI, Transform, full_spectrum, grid_points,
                                sobolev_minus_alpha_norm)
from schemelab.roughpath import RoughPathSample
from schemelab.solver import draw_noise


@dataclass
class ModeState:
    """Complex Gaussian mode coordinates xi_k(t) for k = 0..N (row 0 real),
    of one sample or of a chunk of samples stacked on a leading axis.

    Negative modes are implied by conjugation and never stored.
    """

    xi: np.ndarray          # complex, (N+1, n) or (S, N+1, n)
    scheme: CutoffScheme
    eps: float
    t: float

    def __post_init__(self):
        self.xi = np.asarray(self.xi, dtype=complex)
        if self.xi.ndim not in (2, 3):
            raise ValueError("xi must have shape (N+1, n) or (S, N+1, n)")

    @property
    def N(self) -> int:
        return self.xi.shape[-2] - 1

    @property
    def n(self) -> int:
        return self.xi.shape[-1]

    @staticmethod
    def zero(scheme: CutoffScheme, eps: float, N: int, n: int) -> "ModeState":
        return ModeState(np.zeros((N + 1, n), dtype=complex), scheme, eps, 0.0)


def draw_increments(rng: np.random.Generator, N: int, n: int) -> np.ndarray:
    """Standard Gaussian increments for one transition: rows 1..N are unit
    complex normals (Re, Im ~ N(0, 1/2)), row 0 is a unit real normal.
    This is one step of the solver's noise draw."""
    return draw_noise(rng, 1, N, n)[0]


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
    lap = laplacian_multiplier(state.scheme, np.arange(state.N + 1), state.eps)
    decay = np.exp(lap * dt)[:, None]
    xi = decay * state.xi + np.sqrt(np.maximum(0.0, 1.0 - decay ** 2)) * increments
    xi[..., 0, :] = state.xi[..., 0, :].real + np.sqrt(dt) * increments[..., 0, :].real
    return ModeState(xi, state.scheme, state.eps, state.t + dt)


def assemble_X(state: ModeState, M: int | None = None):
    """The field's modes 0..N (n, N+1), uhat = sqrt(2 pi) q xi; with M
    given, also its grid values (n, M)."""
    q = mode_amplitudes(state.scheme, state.eps, state.N)
    half = (SQRT_2PI * q[:, None] * state.xi).T
    return half if M is None else (half, Transform(state.N, M).to_grid(half))


def state_from_coeffs(coeffs: np.ndarray, scheme: CutoffScheme, eps: float,
                      t: float) -> ModeState:
    """Invert assemble_X: recover xi_k = uhat(k) / (sqrt(2 pi) q_k) from the
    modes k = 0..N, shape (n, N+1).

    Used to lift a spectral field that was evolved elsewhere (e.g. by the
    SPDE integrator) with the same noise.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    q = mode_amplitudes(scheme, eps, coeffs.shape[1] - 1)
    # modes killed by the noise cut-off carry no field amplitude; their xi is
    # irrelevant for the lift and set to zero
    safe = np.where(q > 0.0, q, 1.0)
    xi = coeffs.T / (SQRT_2PI * safe[:, None])
    xi[q == 0.0] = 0.0
    return ModeState(xi, scheme, eps, t)


def lift_offsets(scheme: CutoffScheme, eps: float, M: int) -> list:
    """The shifts a lift needs for ``scheme`` at ``eps`` on an M-point grid:
    the grid spacing 2 pi / M, then eps z for every nonzero atom z of mu."""
    return [2.0 * np.pi / M] + [eps * z for z, w in scheme.mu.atoms
                                if z != 0.0 and w != 0.0]


class LiftPlan:
    """What a lift of states of (scheme, eps, N) on an M-point grid over the
    shifts ``offsets`` needs that depends on nothing else, built once for
    every lift of those states.

    ``us`` holds the shifts lifted at once, then the grid spacing, which is
    lifted on first read.  ``rows[r]`` gives modes 1..N of the real fields A,
    C/i and each B_u as multiples of xi, and ``conv_c`` and ``conv_b`` give
    modes 1..2N of C_m(u) as multiples of the products' grid sums: they fold
    in the amplitudes, sqrt(2 pi), the transform's sign and its scales.
    ``w0`` weighs conj(xi_l) xi_l^T, l = -N..N, in C_0(u) (the k = -l branch).
    """

    def __init__(self, scheme: CutoffScheme, eps: float, N: int, M: int, offsets):
        if M < 2 * N + 1:
            raise ValueError(f"grid size {M} too small for max mode {N}")
        dx = 2.0 * np.pi / M
        self.offsets = tuple(float(u) for u in offsets)
        if all(abs(u - dx) > 1e-12 for u in self.offsets):
            raise ValueError("offsets must include the grid spacing 2*pi/M")
        self.scheme, self.eps, self.N, self.M = scheme, eps, N, M
        self.us = [u for u in self.offsets if abs(u - dx) > 1e-12] + [dx]
        self.grid = grid = Transform(2 * N, 2 * M)       # P = 2M >= 4N + 2 points
        q = mode_amplitudes(scheme, eps, N)
        ms = np.arange(2 * N + 1)
        phase = np.exp(1j * np.array(self.us)[:, None] * ms) - 1.0    # e^{imu} - 1
        self.rows = (np.concatenate([[np.ones(N), -1j * ms[1:N + 1]], phase[:, 1:N + 1]])
                     * (q[1:] * grid.sign[1:N + 1]))
        self.conv_b = grid.coeff_scale[1:] / SQRT_2PI
        self.conv_c = 1j * phase[:, 1:] / ms[1:] * self.conv_b
        self.w0 = ((1j * np.arange(-N, N + 1) * np.array(self.us)[:, None]
                    - full_spectrum(phase[:, :N + 1])) * full_spectrum(q * q))

    def fields(self, xi: np.ndarray, which: list) -> np.ndarray:
        """The real fields ``rows[r]``, r in ``which``, of the state ``xi`` on
        the P-point grid, (..., len(which), n, P), by one irfft of a mode
        buffer."""
        buf = self.grid.mode_buffer(xi.shape[:-2] + (len(which), xi.shape[-1]))
        buf[..., 1:self.N + 1] = (self.rows[which, None, :]
                                  * np.swapaxes(xi[..., None, 1:, :], -1, -2))
        return self.grid.mode_sums(buf)

    def shifts(self, xi: np.ndarray, which: list) -> dict:
        """The offset table over the shifts ``us[i]``, i in ``which``, of the
        state ``xi``, all samples at once."""
        if not which:
            return {}
        N = self.N
        fields = self.fields(xi, [0, 1] + [2 + i for i in which])      # (..., 2+U, n, P)
        sums = self.grid.grid_sums(fields[..., :1, :, None, :]
                                   * fields[..., 1:, None, :, :])[..., 1:]  # (..., 1+U, n, n, 2N)
        pos = (sums[..., :1, :, :, :] * self.conv_c[which, None, None, :]
               - sums[..., 1:, :, :, :] * self.conv_b)                 # modes 1..2N
        # m = 0: the k = -l branch replaces the convolution value entirely
        full = full_spectrum(np.swapaxes(xi, -1, -2))[..., None, :, :]  # modes -N..N
        c0 = ((self.w0[which, None, :] * np.conj(full)) @ np.swapaxes(full, -1, -2))[..., None]
        coeffs = full_spectrum(np.concatenate([c0, pos], axis=-1))    # (..., U, n, n, 4N+1)
        # the m = 0 block and the negative half are not forced real, so
        # evaluate the coefficients at x = 0, against each sample's largest
        defect = np.abs(coeffs.sum(axis=-1).imag).max(axis=(-3, -2, -1))
        if np.any(defect > REALITY_TOL * np.maximum(1.0, np.abs(coeffs).max(axis=(-4, -3, -2, -1)))):
            raise FloatingPointError("lift lost the reality constraint")
        half = coeffs[..., 2 * N:]
        coeffs = np.moveaxis(coeffs, -1, -3)
        return {self.us[i]: OffsetLift(self.us[i], coeffs[..., j, :, :, :], half[..., j, :, :, :],
                                       self.grid)
                for j, i in enumerate(which)}


@dataclass
class OffsetLift:
    """Second-order increments over one fixed shift u, for every grid point,
    behind the lift's sample axis, if it has one.

    coeffs[..., m + 2N, :, :] is the coefficient of e^{i m x} in XX(x, x+u);
    values[..., p, :, :] is XX(x_p, x_p + u) on the M-point grid (the even
    points of ``grid``), made on first read from ``half``, modes 0..2N.
    """

    u: float
    coeffs: np.ndarray      # complex, (..., 4N+1, n, n)
    half: np.ndarray        # complex, (..., n, n, 2N+1)
    grid: Transform         # modes 0..2N on 2M points

    @cached_property
    def values(self) -> np.ndarray:         # real, (..., M, n, n)
        sums = self.grid.mode_sums(self.half * self.grid.sign)
        return np.ascontiguousarray(np.moveaxis(sums[..., ::2], -1, -3))


class MissingOffsetError(KeyError):
    pass


@dataclass
class LiftSample:
    """The lift of one state, or of a chunk of states stacked on a leading
    sample axis, by ``plan``: an offset table over the requested shifts.  The
    grid-spacing shift and the rough-path sample are built on first read."""

    state: ModeState
    M: int
    offsets: dict           # shift -> OffsetLift
    plan: LiftPlan

    def offset(self, u: float) -> OffsetLift:
        dx = 2.0 * np.pi / self.M
        if abs(u - dx) <= 1e-12 and dx not in self.offsets:
            self.offsets.update(self.plan.shifts(self.state.xi, [len(self.plan.us) - 1]))
        for key, entry in self.offsets.items():
            if abs(key - u) <= 1e-12 * max(1.0, abs(u)):
                return entry
        raise MissingOffsetError(f"offset {u!r} not present in the lift")

    @cached_property
    def rough(self):
        """The rough-path sample of the field, a list of them for a chunk;
        only X carries the mode-0 amplitude, which XX does not depend on."""
        X = (np.swapaxes(self.plan.fields(self.state.xi, [0])[..., 0, :, ::2], -1, -2)
             + (1.0 / SQRT_2PI) * self.state.xi[..., :1, :].real)  # q_0
        x, XX = grid_points(self.M), self.offset(2.0 * np.pi / self.M).values
        return (RoughPathSample(x, X, XX) if X.ndim == 2
                else [RoughPathSample(x, X_s, XX_s) for X_s, XX_s in zip(X, XX)])


def lift_XX(state: ModeState, M: int | None = None, offsets=None, *,
            plan: LiftPlan | None = None) -> LiftSample:
    """Iterated-integral lift of ``state``, one sample or a chunk, on the
    M-point grid over each of the shifts ``offsets`` but the grid spacing,
    which is lifted on first read.  A caller that lifts many states of one
    scheme, eps and N passes ``plan`` = LiftPlan(scheme, eps, N, M, offsets)
    instead of M and the shifts.

    ``offsets`` must contain the grid spacing 2 pi / M; shifts are otherwise
    arbitrary reals (they need not align with the grid).  XX does not depend
    on the mode-0 amplitude (its terms cancel exactly), whose rounding would
    swamp small fields: no lift uses it.
    """
    if plan is None:
        plan = LiftPlan(state.scheme, state.eps, state.N, M, offsets)
    elif M is not None or offsets is not None:
        raise TypeError("pass M and offsets, or a plan, not both")
    if (plan.scheme, plan.eps, plan.N) != (state.scheme, state.eps, state.N):
        raise ValueError("the lift plan was built for another scheme, eps or N")
    return LiftSample(state, plan.M, plan.shifts(state.xi, list(range(len(plan.us) - 1))), plan)


@dataclass
class MatrixField:
    """Matrix-valued field given by modes: field(x) = sum_m coeffs[m] e^{imx},
    behind the lift's sample axis, if it has one; its grid values are the
    same mu-average of the offsets' values, made on first read."""

    coeffs: np.ndarray      # complex, (..., 4N+1, n, n)
    atoms: list             # (weight, OffsetLift) per nonzero atom
    eps: float
    M: int

    @cached_property
    def values(self) -> np.ndarray:         # real, (..., M, n, n)
        zero = np.zeros(self.coeffs.shape[:-3] + (self.M,) + self.coeffs.shape[-2:])
        return sum((w * entry.values for w, entry in self.atoms), zero) / self.eps


def d_eps_xx(lift: LiftSample, scheme: CutoffScheme, eps: float) -> MatrixField:
    """Scaled mu-average of the lift: (1/eps) sum_a w_a XX(., . + eps z_a)."""
    atoms = [(w, lift.offset(eps * z)) for z, w in scheme.mu.atoms if z != 0.0 and w != 0.0]
    shape = lift.state.xi.shape[:-2] + (4 * lift.state.N + 1,) + 2 * (lift.state.n,)
    coeffs = sum((w * entry.coeffs for w, entry in atoms), np.zeros(shape, dtype=complex))
    return MatrixField(coeffs / eps, atoms, eps, lift.M)


def fluctuation_statistic(lift: LiftSample, scheme: CutoffScheme, eps: float,
                          t: float, alpha: float, center: float | None = None,
                          field: MatrixField | None = None):
    """|D_eps XX(t, .) - Lambda_eps(t) Id|_{H^{-alpha}}, root-sum-square over
    matrix entries: a float, or a list of one per sample of a chunk's lift.

    The centering constant is the finite-eps correction constant truncated at
    the same mode count as the lift, so the statistic is exactly mean-zero
    for the truncated field.  ``t`` must match the lift's time.  A caller
    that has ``center`` = lambda_eps(scheme, eps, t, N) or ``field`` =
    d_eps_xx(lift, scheme, eps) passes them; they are computed otherwise.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 1/2)")
    if abs(t - lift.state.t) > 1e-12 * max(1.0, abs(t)):
        raise ValueError("t does not match the time of the lifted state")
    field = d_eps_xx(lift, scheme, eps) if field is None else field
    N, n = lift.state.N, lift.state.n
    if center is None:
        center = lambda_eps(scheme, eps, t, N)
    coeffs = field.coeffs.copy()
    coeffs[..., 2 * N, range(n), range(n)] -= center       # m = 0, the diagonal
    # the norm of every entry at once, each mode axis contiguous, as one
    # entry's field would hold it; then root-sum-square
    norms = sobolev_minus_alpha_norm(
        np.ascontiguousarray(np.moveaxis(SQRT_2PI * coeffs, -3, -1)), alpha)
    stats = np.sqrt(sum(norms[..., i, j] ** 2 for i in range(n) for j in range(n)))
    return float(stats) if coeffs.ndim == 3 else stats.tolist()
