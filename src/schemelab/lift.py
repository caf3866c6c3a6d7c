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
batched rfft (P > 4N, so no product mode aliases).

Every array here is a half spectrum, the negative modes being the complex
conjugates: a state is its mode coordinates xi, (N+1, n), or (S, N+1, n)
for a chunk; the field (``assemble_X``) is its modes 0..N, (n, N+1), as the
solver's; and ``OffsetLift`` and ``MatrixField`` hold the product modes
0..2N on the last axis, (..., n, n, 2N+1), the layout
``sobolev_minus_alpha_norm`` reads.  A ``LiftPlan`` of (scheme, eps, N, M)
is the one owner of the constants: the amplitudes, the OU rates, the shifts
eps z of mu's atoms, and the transform's sign and scales folded into its
row and mode multipliers; every function here takes the plan and a state,
and the experiments build one plan per eps.  The grid values (an irfft on
the same grid, whose even points are the M-point grid), the grid-spacing
shift and the rough-path sample are made when first read; the fluctuation
statistic reads none, and sums every sample and matrix entry of a chunk in
one reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from schemelab.correction import mode_amplitudes
from schemelab.schemes import CutoffScheme, laplacian_multiplier
from schemelab.spectral import (REALITY_TOL, SQRT_2PI, Transform, full_spectrum, grid_points,
                                sobolev_minus_alpha_norm)
from schemelab.roughpath import RoughPathSample
from schemelab.solver import draw_noise


class LiftPlan:
    """Every constant of the reference field of (scheme, eps, N) and of its
    lift on an M-point grid, built once for every state it evolves or lifts.

    ``q`` holds the amplitudes and ``lap`` the OU rates' negatives, modes
    0..N.  ``us`` holds the shifts lifted at once, eps z for every atom z of
    mu that shifts, then ``shifts``, then the grid spacing 2 pi / M, which
    is lifted on first read.  ``rows[r]`` gives modes 1..N of the real fields
    A, C/i and each B_u as multiples of xi, and ``conv_c`` and ``conv_b``
    give modes 1..2N of C_m(u) as multiples of the products' grid sums: they
    fold in the amplitudes, sqrt(2 pi), the transform's sign and its scales.
    ``w0`` weighs conj(xi_l) xi_l^T, l = -N..N, in C_0(u) (the k = -l branch).
    """

    def __init__(self, scheme: CutoffScheme, eps: float, N: int, M: int, shifts=()):
        if M < 2 * N + 1:
            raise ValueError(f"grid size {M} too small for max mode {N}")
        self.scheme, self.eps, self.N, self.M = scheme, eps, N, M
        self.atoms = scheme.mu.shifting_atoms
        self.us = ([eps * z for z, _ in self.atoms] + [float(u) for u in shifts]
                   + [2.0 * np.pi / M])
        self.q = q = mode_amplitudes(scheme, eps, N)
        self.lap = laplacian_multiplier(scheme, np.arange(N + 1), eps)
        self.grid = grid = Transform(2 * N, 2 * M)       # P = 2M >= 4N + 2 points
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
        fields = self.fields(xi, [0, 1] + [2 + i for i in which])      # (..., 2+U, n, P)
        sums = self.grid.grid_sums(fields[..., :1, :, None, :]
                                   * fields[..., 1:, None, :, :])[..., 1:]  # (..., 1+U, n, n, 2N)
        pos = (sums[..., :1, :, :, :] * self.conv_c[which, None, None, :]
               - sums[..., 1:, :, :, :] * self.conv_b)                 # modes 1..2N
        # m = 0: the k = -l branch replaces the convolution value entirely
        full = full_spectrum(np.swapaxes(xi, -1, -2))[..., None, :, :]  # modes -N..N
        c0 = ((self.w0[which, None, :] * np.conj(full)) @ np.swapaxes(full, -1, -2))[..., None]
        coeffs = np.concatenate([c0, pos], axis=-1)                    # (..., U, n, n, 2N+1)
        # the modes above 0 are real by construction, C_0 only up to the
        # rounding of its -N..N sum: test it against each sample's largest
        defect = np.abs(coeffs[..., 0].imag).max(axis=(-3, -2, -1))
        if np.any(defect > REALITY_TOL * np.maximum(1.0, np.abs(coeffs).max(axis=(-4, -3, -2, -1)))):
            raise FloatingPointError("lift lost the reality constraint")
        return {self.us[i]: OffsetLift(coeffs[..., j, :, :, :], self.grid)
                for j, i in enumerate(which)}


def draw_increments(rng: np.random.Generator, N: int, n: int) -> np.ndarray:
    """Standard Gaussian increments for one transition: rows 1..N are unit
    complex normals (Re, Im ~ N(0, 1/2)), row 0 is a unit real normal.
    This is one step of the solver's noise draw."""
    return draw_noise(rng, 1, N, n)[0]


def evolve_modes(plan: LiftPlan, xi: np.ndarray, dt: float, increments: np.ndarray) -> np.ndarray:
    """The state ``xi`` advanced by every mode's exact transition over dt.

    Mode k != 0 follows the Ornstein-Uhlenbeck update
    xi' = e^{-r dt} xi + sqrt(1 - e^{-2 r dt}) Z with rate r = k^2 f(eps k);
    mode 0 advances as Brownian motion, xi' = xi + sqrt(dt) Re(Z).
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    increments = np.asarray(increments, dtype=complex)
    if increments.shape != xi.shape:
        raise ValueError("increments shape must match the state")
    decay = np.exp(plan.lap * dt)[:, None]
    out = decay * xi + np.sqrt(np.maximum(0.0, 1.0 - decay ** 2)) * increments
    out[..., 0, :] = xi[..., 0, :].real + np.sqrt(dt) * increments[..., 0, :].real
    return out


def assemble_X(plan: LiftPlan, xi: np.ndarray) -> np.ndarray:
    """The field's modes 0..N, (..., n, N+1), uhat = sqrt(2 pi) q xi."""
    return np.swapaxes(SQRT_2PI * plan.q[:, None] * xi, -1, -2)


def state_from_coeffs(plan: LiftPlan, coeffs: np.ndarray) -> np.ndarray:
    """Invert assemble_X: the state xi_k = uhat(k) / (sqrt(2 pi) q_k) of the
    modes k = 0..N, (..., n, N+1).

    Used to lift a spectral field that was evolved elsewhere (e.g. by the
    SPDE integrator) with the same noise.
    """
    q = plan.q
    # modes killed by the noise cut-off carry no field amplitude; their xi is
    # irrelevant for the lift and set to zero
    safe = np.where(q > 0.0, q, 1.0)
    xi = np.swapaxes(np.asarray(coeffs, dtype=complex), -1, -2) / (SQRT_2PI * safe[:, None])
    xi[..., q == 0.0, :] = 0.0
    return xi


@dataclass
class OffsetLift:
    """Second-order increments over one fixed shift u, for every grid point,
    behind the lift's sample axis, if it has one.

    coeffs[..., i, j, m] is the coefficient of e^{i m x}, m = 0..2N, in
    XX(x, x+u)_ij; values[..., p, :, :] is XX(x_p, x_p + u) on the M-point
    grid (the even points of ``grid``), made on first read.
    """

    coeffs: np.ndarray      # complex, (..., n, n, 2N+1)
    grid: Transform         # modes 0..2N on 2M points

    @cached_property
    def values(self) -> np.ndarray:         # real, (..., M, n, n)
        sums = self.grid.mode_sums(self.coeffs * self.grid.sign)
        return np.ascontiguousarray(np.moveaxis(sums[..., ::2], -1, -3))


@dataclass
class LiftSample:
    """The lift of the state ``xi``, one sample or a chunk stacked on a
    leading sample axis, by ``plan``: an offset table over the plan's shifts.
    The grid-spacing shift and the rough-path sample are built on first read;
    a shift the plan does not lift raises KeyError."""

    plan: LiftPlan
    xi: np.ndarray
    offsets: dict           # shift -> OffsetLift

    def offset(self, u: float) -> OffsetLift:
        dx = self.plan.us[-1]
        if abs(u - dx) <= 1e-12 and dx not in self.offsets:
            self.offsets.update(self.plan.shifts(self.xi, [len(self.plan.us) - 1]))
        for key, entry in self.offsets.items():
            if abs(key - u) <= 1e-12 * max(1.0, abs(u)):
                return entry
        raise KeyError(f"shift {u!r} not lifted by the plan")

    @cached_property
    def rough(self):
        """The rough-path sample of the field, a list of them for a chunk;
        only X carries the mode-0 amplitude, which XX does not depend on."""
        X = (np.swapaxes(self.plan.fields(self.xi, [0])[..., 0, :, ::2], -1, -2)
             + (1.0 / SQRT_2PI) * self.xi[..., :1, :].real)  # q_0
        x, XX = grid_points(self.plan.M), self.offset(self.plan.us[-1]).values
        return (RoughPathSample(x, X, XX) if X.ndim == 2
                else [RoughPathSample(x, X_s, XX_s) for X_s, XX_s in zip(X, XX)])


def lift_XX(plan: LiftPlan, xi: np.ndarray) -> LiftSample:
    """Iterated-integral lift of the state ``xi``, one sample or a chunk, on
    the plan's M-point grid over each of its shifts but the grid spacing,
    which is lifted on first read.

    Shifts are arbitrary reals (they need not align with the grid).  XX does
    not depend on the mode-0 amplitude (its terms cancel exactly), whose
    rounding would swamp small fields: no lift uses it.
    """
    xi = np.asarray(xi, dtype=complex)
    return LiftSample(plan, xi, plan.shifts(xi, list(range(len(plan.us) - 1))))


@dataclass
class MatrixField:
    """Matrix-valued field given by modes 0..2N: field(x) = sum_m coeffs[..., m]
    e^{imx} + c.c. above m = 0, behind the lift's sample axis, if it has one;
    its grid values are the same mu-average of the offsets' values, made on
    first read."""

    coeffs: np.ndarray      # complex, (..., n, n, 2N+1)
    atoms: list             # (weight, OffsetLift) per atom that shifts
    eps: float
    M: int

    @cached_property
    def values(self) -> np.ndarray:         # real, (..., M, n, n)
        zero = np.zeros(self.coeffs.shape[:-3] + (self.M,) + self.coeffs.shape[-3:-1])
        return sum((w * entry.values for w, entry in self.atoms), zero) / self.eps


def d_eps_xx(lift: LiftSample) -> MatrixField:
    """Scaled mu-average of the lift: (1/eps) sum_a w_a XX(., . + eps z_a)."""
    plan = lift.plan
    atoms = [(w, lift.offset(plan.eps * z)) for z, w in plan.atoms]
    shape = lift.xi.shape[:-2] + 2 * lift.xi.shape[-1:] + (2 * plan.N + 1,)
    coeffs = sum((w * entry.coeffs for w, entry in atoms), np.zeros(shape, dtype=complex))
    return MatrixField(coeffs / plan.eps, atoms, plan.eps, plan.M)


def fluctuation_statistic(lift: LiftSample, alpha: float, center: float,
                          field: MatrixField | None = None):
    """|D_eps XX(t, .) - center Id|_{H^{-alpha}}, root-sum-square over matrix
    entries: a float, or a list of one per sample of a chunk's lift.

    ``center`` is Lambda_eps(t) = lambda_eps(scheme, eps, t, N), the
    finite-eps correction constant truncated at the lift's mode count, so
    the statistic is exactly mean-zero for the truncated field.  A caller
    that has ``field`` = d_eps_xx(lift) passes it.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 1/2)")
    field = d_eps_xx(lift) if field is None else field
    n = lift.xi.shape[-1]
    coeffs = field.coeffs.copy()
    coeffs[..., range(n), range(n), 0] -= center       # m = 0, the diagonal
    # the norm of every entry at once, then root-sum-square
    norms = sobolev_minus_alpha_norm(SQRT_2PI * coeffs, alpha)
    stats = np.sqrt(sum(norms[..., i, j] ** 2 for i in range(n) for j in range(n)))
    return float(stats) if coeffs.ndim == 3 else stats.tolist()
