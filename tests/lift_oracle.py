"""Direct-convolution reference lift, kept only to check the lift against.

This is the lift the package used before it moved to real transforms on a
doubled grid: per shift, two direct O(N^2) mode convolutions for every
matrix entry, then one complex grid evaluation that folds the modes onto
the M-point grid with a per-row ``np.add.at``.  It is deliberately slow and
simple.  Tests compare ``schemelab.lift.lift_XX`` and
``schemelab.spectral.eval_modes_on_grid`` with it.
"""

from __future__ import annotations

import numpy as np

from schemelab.lift import LiftSample, OffsetLift, mode_amplitudes
from schemelab.roughpath import RoughPathSample
from schemelab.spectral import REALITY_TOL, grid_points


def eval_modes_on_grid(coeffs: np.ndarray, ks: np.ndarray, M: int) -> np.ndarray:
    """Evaluate sum_k coeffs[..., k] e^{i k x_m} at the M grid points, exactly,
    folding modes modulo M with the phase (-1)^k of the -pi grid offset."""
    coeffs = np.asarray(coeffs, dtype=complex)
    ks = np.asarray(ks)
    signed = coeffs * np.where(ks % 2 == 0, 1.0, -1.0)
    flat = signed.reshape(-1, len(ks))
    D = np.zeros((flat.shape[0], M), dtype=complex)
    idx = np.mod(ks, M)
    for row in range(flat.shape[0]):
        np.add.at(D[row], idx, flat[row])
    vals = np.fft.ifft(D, axis=-1) * M
    return vals.reshape(coeffs.shape[:-1] + (M,))


def xx_coeffs(a: np.ndarray, ls: np.ndarray, u: float) -> np.ndarray:
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


def lift_XX(plan, xi: np.ndarray) -> LiftSample:
    """The lift of the state ``xi`` over each shift of ``plan``, one shift at
    a time; same contract as ``schemelab.lift.lift_XX``, with every shift,
    the grid spacing too, and every grid value evaluated at once, and the
    plan read for its scheme, eps, N, M and shifts only.  A chunk is lifted
    one sample at a time."""
    xi = np.asarray(xi, dtype=complex)
    if xi.ndim == 3:
        lifts = [lift_XX(plan, one) for one in xi]
        table = {}
        for u in lifts[0].offsets:
            table[u] = OffsetLift(np.stack([s.offsets[u].coeffs for s in lifts]), None)
            table[u].values = np.stack([s.offsets[u].values for s in lifts])
        chunk = LiftSample(plan, xi, table)
        chunk.rough = [s.rough for s in lifts]
        return chunk
    N, M = plan.N, plan.M
    if M < 2 * N + 1:
        raise ValueError(f"grid size {M} too small for max mode {N}")
    q = mode_amplitudes(plan.scheme, plan.eps, N)
    ls = np.arange(-N, N + 1)
    a = np.zeros((2 * N + 1, xi.shape[1]), dtype=complex)
    a[N:] = q[:, None] * xi
    a[:N] = np.conj(a[N + 1:])[::-1]

    table = {}
    ms = np.arange(-2 * N, 2 * N + 1)
    for u in plan.us:
        C = xx_coeffs(a, ls, float(u))
        vals = eval_modes_on_grid(np.moveaxis(C, 0, -1), ms, M)   # (n, n, M)
        scale = max(1.0, float(np.abs(vals.real).max()))
        if float(np.abs(vals.imag).max()) > REALITY_TOL * scale:
            raise FloatingPointError("lift lost the reality constraint")
        # the package's layout: modes 0..2N on the last axis
        table[float(u)] = OffsetLift(coeffs=np.moveaxis(C[2 * N:], 0, -1), grid=None)
        table[float(u)].values = np.moveaxis(vals.real, -1, 0)

    field_vals = eval_modes_on_grid(a.T, ls, M).real.T          # (M, n)
    lift = LiftSample(plan, xi, table)
    lift.rough = RoughPathSample(
        x=grid_points(M),
        X=field_vals,
        XXinc=table[plan.us[-1]].values,
    )
    return lift
