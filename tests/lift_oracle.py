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

from schemelab.lift import LiftSample, ModeState, OffsetLift, mode_amplitudes
from schemelab.roughpath import RoughPathSample
from schemelab.spectral import REALITY_TOL


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


def lift_XX(state: ModeState, M: int, offsets) -> LiftSample:
    """The lift of ``state`` over each shift in ``offsets``, one shift at a
    time; same contract as ``schemelab.lift.lift_XX``."""
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
        C = xx_coeffs(a, ls, float(u))
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
