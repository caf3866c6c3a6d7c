"""Full-spectrum reference integrator, kept only to check the solver against.

This is the stepping code the package used before it moved to a batched
real-FFT half spectrum: one run at a time, the state holding every mode
-N..N, complex FFTs of length M, and a separate inverse transform per step
for the blow-up check.  It is deliberately slow and simple.  Tests compare
``schemelab.solver.simulate_coupled`` with it run by run.  With
``record_reference`` it co-evolves the theta = 1, F = G = 0 reference field
X beside the run, as the package once did; the package's X, a run of the
linear model, is checked against that.  Its diagnostics read X from the
trajectory and lift with the reference lift of ``lift_oracle``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lift_oracle import lift_XX
from schemelab.lift import d_eps_xx, lift_offsets, state_from_coeffs
from schemelab.models import ModelFunctions
from schemelab.schemes import (
    derivative_multiplier,
    laplacian_multiplier,
    noise_multiplier,
)
from schemelab import solver
from schemelab.solver import NumericalAbort, SolverConfig, draw_noise
from schemelab.spectral import SQRT_2PI, GridField, full_spectrum, half_spectrum


@dataclass
class Trajectory(solver.Trajectory):
    """The package's trajectory plus the co-evolved reference field's modes."""

    X_coeffs: list | None = None      # modes 0..N, one per recorded time


class Operators:
    """Mode multipliers and transform helpers shared by all steps of a run."""

    def __init__(self, config: SolverConfig):
        N, M = config.N, config.M
        ks = np.arange(-N, N + 1)
        lap = laplacian_multiplier(config.scheme, ks, config.eps)
        self.decay = np.exp(lap * config.dt)
        self.dmult = derivative_multiplier(config.scheme, ks, config.eps)
        self.hmult = noise_multiplier(config.scheme, ks, config.eps)
        self.ks = ks
        self.M = M
        self.N = N
        self.sqrt_dt = np.sqrt(config.dt)
        self.dealias_mask = (np.abs(ks) <= (2 * N) // 3).astype(float)
        # phase bookkeeping for the -pi grid offset
        self.sign = np.where(ks % 2 == 0, 1.0, -1.0)
        self.fold = np.mod(ks, M)

    def to_grid(self, coeffs: np.ndarray) -> np.ndarray:
        D = np.zeros(coeffs.shape[:-1] + (self.M,), dtype=complex)
        D[..., self.fold] = coeffs * self.sign
        return np.fft.ifft(D, axis=-1).real * (self.M / SQRT_2PI)

    def to_coeffs(self, values: np.ndarray) -> np.ndarray:
        F = np.fft.fft(values, axis=-1)
        coeffs = F[..., self.fold] * self.sign * (SQRT_2PI / self.M)
        return 0.5 * (coeffs + np.conj(coeffs[..., ::-1]))


def full_noise_modes(increments: np.ndarray, ops: Operators) -> np.ndarray:
    """Expand (N+1, n) mode draws into (n, 2N+1) increments of H_eps W."""
    N = ops.N
    n = increments.shape[1]
    w = np.zeros((n, 2 * N + 1), dtype=complex)
    pos = increments.T * ops.sqrt_dt          # (n, N+1)
    w[:, N:] = pos
    w[:, N] = pos[:, 0].real                  # mode 0 is real
    w[:, :N] = np.conj(w[:, N + 1:])[:, ::-1]
    return w * ops.hmult


def step(u_hat: np.ndarray, config: SolverConfig, increments: np.ndarray,
         ops: Operators | None = None) -> np.ndarray:
    """One exponential-Euler step; u_hat has shape (n, 2N+1)."""
    ops = ops or Operators(config)
    model = config.model
    u_grid = ops.to_grid(u_hat)

    if config.conservation_form:
        prod_hat = ops.to_coeffs(model.potential(u_grid)) * ops.dmult
    else:
        de_u = ops.to_grid(u_hat * ops.dmult)
        prod = np.einsum("ij...,j...->i...", model.G(u_grid), de_u)
        prod_hat = ops.to_coeffs(prod)
    nonlin_hat = prod_hat * ops.dealias_mask

    other = np.zeros_like(u_grid) if model.F is None else model.F(u_grid)   # None: F = 0
    if config.Lambda != 0.0:
        # the corrected drift -Lambda theta^j_k dG^i_l/du_j theta^l_k, DG[j, i, l]
        theta = model.theta(u_grid)
        other = other - config.Lambda * np.einsum("jil...,jk...,lk...->i...",
                                                  model.DG(u_grid), theta, theta)
    if np.any(other):
        nonlin_hat = nonlin_hat + ops.to_coeffs(other)

    noise_grid = np.einsum("ij...,j...->i...", model.theta(u_grid),
                           ops.to_grid(full_noise_modes(increments, ops)))
    s_hat = ops.to_coeffs(noise_grid)

    return ops.decay * (u_hat + config.dt * nonlin_hat + s_hat)


def simulate(config: SolverConfig, rng: np.random.Generator | None = None,
             increments: np.ndarray | None = None, seed: int | None = None,
             record_reference: bool = False) -> Trajectory:
    """Iterate the full-spectrum step from 0 to T, recording snapshots."""
    steps = config.steps
    n, N = config.model.n, config.N
    if increments is None:
        if rng is None:
            rng = np.random.default_rng(seed)
        increments = draw_noise(rng, steps, N, n)
    increments = np.asarray(increments, dtype=complex)
    if increments.shape != (steps, N + 1, n):
        raise ValueError(f"increments must have shape {(steps, N + 1, n)}")

    ops = Operators(config)
    u_hat = (config.initial.coeffs.copy() if config.initial is not None
             else np.zeros((n, 2 * N + 1), dtype=complex))
    x_hat = np.zeros((n, 2 * N + 1), dtype=complex)

    record_steps = {}
    for t in config.record_times:
        j = int(round(t / config.dt))
        if abs(j * config.dt - t) > 1e-9 * max(1.0, config.T):
            raise ValueError(f"record time {t} is not on the step grid")
        record_steps[j] = t

    times, snaps, xsnaps = [], [], []
    truncation = None

    def maybe_record(j):
        if j in record_steps:
            times.append(record_steps[j])
            snaps.append(u_hat.copy())
            if record_reference:
                xsnaps.append(x_hat.copy())

    maybe_record(0)
    for j in range(steps):
        u_hat = step(u_hat, config, increments[j], ops)
        if not np.all(np.isfinite(u_hat)):
            raise NumericalAbort(
                f"non-finite state at t = {(j + 1) * config.dt:.6g}",
                time=(j + 1) * config.dt,
            )
        if record_reference:
            x_hat = ops.decay * (x_hat + full_noise_modes(increments[j], ops))
        sup = float(np.abs(ops.to_grid(u_hat)).max())
        if sup > config.blowup_cap:
            truncation = (j + 1) * config.dt
            break
        maybe_record(j + 1)

    # the package's trajectories hold the half spectrum
    return Trajectory(
        times=tuple(times),
        coeffs=[half_spectrum(c) for c in snaps],
        truncation_time=truncation,
        X_coeffs=[half_spectrum(c) for c in xsnaps] if record_reference else None,
    )


def stochastic_convolution(theta_path, scheme, eps, dt, N, M, increments):
    """Left-point Ito discretisation of int_0^T S_eps(T-s) theta(s) H_eps dW(s)."""
    increments = np.asarray(increments, dtype=complex)
    steps, n = increments.shape[0], increments.shape[2]
    model = ModelFunctions(n=n, F=None, G=None, DG=None, theta=None)
    ops = Operators(SolverConfig(scheme=scheme, eps=eps, N=N, M=M, dt=dt,
                                 T=steps * dt, model=model))
    psi_hat = np.zeros((n, 2 * N + 1), dtype=complex)
    for j in range(steps):
        noise_grid = np.einsum("ij...,j...->i...", theta_path[j],
                               ops.to_grid(full_noise_modes(increments[j], ops)))
        psi_hat = ops.decay * (psi_hat + ops.to_coeffs(noise_grid))
    return GridField(ops.to_grid(psi_hat))


def upsilon_diagnostic(traj: Trajectory, config: SolverConfig) -> GridField:
    """Left-rule integral of S_eps(t_final - s)[DG(u) u' (D_eps XX) u'](s)."""
    ops = Operators(config)
    model, eps = config.model, config.eps
    t_final = traj.times[-1]
    offsets = lift_offsets(config.scheme, eps, config.M)
    acc = np.zeros((model.n, 2 * config.N + 1), dtype=complex)
    lap = laplacian_multiplier(config.scheme, ops.ks, eps)
    for i in range(len(traj.times) - 1):
        s = traj.times[i]
        u_grid = ops.to_grid(full_spectrum(traj.coeffs[i]))
        theta = model.theta(u_grid)
        state = state_from_coeffs(traj.X_coeffs[i], config.scheme, eps, s)
        D = d_eps_xx(lift_XX(state, config.M, offsets), config.scheme, eps).values
        integrand = np.einsum("dijm,dlm,mlk,jkm->im", model.DG(u_grid), theta, D, theta)
        acc += ((traj.times[i + 1] - s) * np.exp(lap * (t_final - s))
                * ops.to_coeffs(integrand))
    return GridField(ops.to_grid(acc))


def xi_diagnostic(traj: Trajectory, config: SolverConfig) -> GridField:
    """Left-rule integral of S_eps(t_final - s)[G(u) D_eps u](s) plus upsilon."""
    ops = Operators(config)
    model = config.model
    t_final = traj.times[-1]
    lap = laplacian_multiplier(config.scheme, ops.ks, config.eps)
    acc = np.zeros((model.n, 2 * config.N + 1), dtype=complex)
    for i in range(len(traj.times) - 1):
        s = traj.times[i]
        u_hat = full_spectrum(traj.coeffs[i])
        u_grid = ops.to_grid(u_hat)
        prod = np.einsum("ij...,j...->i...", model.G(u_grid),
                         ops.to_grid(u_hat * ops.dmult))
        acc += (traj.times[i + 1] - s) * np.exp(lap * (t_final - s)) * ops.to_coeffs(prod)
    return GridField(ops.to_grid(acc) + upsilon_diagnostic(traj, config).values)
