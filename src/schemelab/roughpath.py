"""Rough-path and controlled-path algebra on a spatial grid.

Second-order data is stored only on adjacent grid increments; anything
longer is composed on demand through the consistency relation

    XX(x, z) = XX(x, y) + XX(y, z) + dX(x, y) (x) dX(y, z),

which then holds by construction.  Integrals are second-order Riemann sums
with left-point evaluation,

    sum_m  Y(x_m) (x) dZ(x_m, x_{m+1})  +  Y'(x_m) XX(x_m, x_{m+1}) Z'(x_m)^T,

the first-order part alone being the Young sum.  Grid indices run from 0 to
M inclusive; index M addresses the periodic closure point +pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class RoughPathSample:
    """Grid values X plus adjacent second-order increments XXinc.

    x: (M,) uniform grid on [-pi, pi); X: (M, n); XXinc: (M, n, n) with
    XXinc[i] = XX(x_i, x_{i+1}) and the last entry wrapping to +pi.
    """

    x: np.ndarray
    X: np.ndarray
    XXinc: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.X = np.asarray(self.X, dtype=float)
        self.XXinc = np.asarray(self.XXinc, dtype=float)
        M = len(self.x)
        n = self.X.shape[1]
        if self.X.shape != (M, n) or self.XXinc.shape != (M, n, n):
            raise ValueError("inconsistent array shapes")

    @property
    def M(self) -> int:
        return len(self.x)

    @property
    def n(self) -> int:
        return self.X.shape[1]

    def point(self, i: int) -> np.ndarray:
        """X at grid index i in [0, M]; index M wraps to the closure point."""
        return self.X[i % self.M]

    def delta(self, i: int, j: int) -> np.ndarray:
        return self.point(j) - self.point(i)


def xx_eval(rp: RoughPathSample, i: int, j: int) -> np.ndarray:
    """Compose XX(x_i, x_j) from stored adjacent increments, 0 <= i <= j <= M."""
    if not 0 <= i <= j <= rp.M:
        raise IndexError(f"indices ({i}, {j}) out of range for M = {rp.M}")
    n = rp.n
    if i == j:
        return np.zeros((n, n))
    Xi = rp.X[i]
    lefts = rp.X[i:j] - Xi                       # dX(x_i, x_m), m = i..j-1
    steps = rp.X[(np.arange(i, j) + 1) % rp.M] - rp.X[i:j]
    return rp.XXinc[i:j].sum(axis=0) + np.einsum("ma,mb->ab", lefts, steps)


def chen_defect(rp: RoughPathSample, i: int, j: int, k: int) -> float:
    """Frobenius norm of XX(i,k) - XX(i,j) - XX(j,k) - dX(i,j) (x) dX(j,k)."""
    if not i <= j <= k:
        raise IndexError("need i <= j <= k")
    gap = (xx_eval(rp, i, k) - xx_eval(rp, i, j) - xx_eval(rp, j, k)
           - np.outer(rp.delta(i, j), rp.delta(j, k)))
    return float(np.linalg.norm(gap))


def geometricity_defect(rp: RoughPathSample, i: int, j: int) -> float:
    """Frobenius norm of sym(XX(i,j)) - (1/2) dX(i,j) (x) dX(i,j)."""
    A = xx_eval(rp, i, j)
    d = rp.delta(i, j)
    gap = 0.5 * (A + A.T) - 0.5 * np.outer(d, d)
    return float(np.linalg.norm(gap))


@dataclass
class ControlledPath:
    """A path Y with derivative process Y' relative to a reference rough path.

    The remainder R_Y(x,y) = dY(x,y) - Y'(x) dX(x,y) is derived, never stored.
    """

    Y: np.ndarray          # (M, n)
    Yprime: np.ndarray     # (M, n, n)
    reference: RoughPathSample

    def __post_init__(self):
        self.Y = np.asarray(self.Y, dtype=float)
        self.Yprime = np.asarray(self.Yprime, dtype=float)
        M, n = self.reference.M, self.reference.n
        if self.Y.shape != (M, n) or self.Yprime.shape != (M, n, n):
            raise ValueError("controlled path shapes do not match the reference")

    def value(self, i: int) -> np.ndarray:
        return self.Y[i % self.reference.M]

    def remainder(self, i: int, j: int) -> np.ndarray:
        dY = self.value(j) - self.value(i)
        return dY - self.Yprime[i % self.reference.M] @ self.reference.delta(i, j)


def constant_controlled(rp: RoughPathSample, c) -> ControlledPath:
    c = np.broadcast_to(np.asarray(c, dtype=float), (rp.n,))
    return ControlledPath(
        Y=np.tile(c, (rp.M, 1)),
        Yprime=np.zeros((rp.M, rp.n, rp.n)),
        reference=rp,
    )


def self_controlled(rp: RoughPathSample) -> ControlledPath:
    """The reference path controlled by itself (derivative process = Id)."""
    return ControlledPath(
        Y=rp.X.copy(),
        Yprime=np.tile(np.eye(rp.n), (rp.M, 1, 1)),
        reference=rp,
    )


def _fsum_terms(terms: np.ndarray) -> np.ndarray:
    # compensated summation over the leading axis, entry by entry
    flat = terms.reshape(terms.shape[0], -1)
    out = np.array([math.fsum(flat[:, c]) for c in range(flat.shape[1])])
    return out.reshape(terms.shape[1:])


def rough_integral(Y: ControlledPath, Z: ControlledPath, i: int, j: int) -> np.ndarray:
    """Second-order Riemann sum of int Y (x) dZ over [x_i, x_j], 0 <= i <= j <= M."""
    if Y.reference is not Z.reference:
        raise ValueError("Y and Z must share the same reference rough path")
    rp = Y.reference
    if not 0 <= i <= j <= rp.M:
        raise IndexError(f"indices ({i}, {j}) out of range for M = {rp.M}")
    if i == j:
        return np.zeros((rp.n, rp.n))
    m = np.arange(i, j)
    dZ = Z.Y[(m + 1) % rp.M] - Z.Y[m]
    first = np.einsum("ma,mb->mab", Y.Y[m], dZ)
    second = np.einsum("mab,mbc,mdc->mad", Y.Yprime[m], rp.XXinc[m], Z.Yprime[m])
    return _fsum_terms(first + second)


def young_integral(Y, Z, i: int, j: int) -> np.ndarray:
    """First-order left-point sum of int Y (x) dZ; the naive discretisation.

    Y and Z may be (M, n) arrays or ControlledPath.
    """
    Ya, Za = (P.Y if isinstance(P, ControlledPath) else np.asarray(P, dtype=float)
              for P in (Y, Z))
    M = Ya.shape[0]
    if not 0 <= i <= j <= M:
        raise IndexError(f"indices ({i}, {j}) out of range for M = {M}")
    if i == j:
        return np.zeros((Ya.shape[1], Za.shape[1]))
    m = np.arange(i, j)
    dZ = Za[(m + 1) % M] - Za[m]
    return _fsum_terms(np.einsum("ma,mb->mab", Ya[m], dZ))


def second_order_correction(Y: ControlledPath, Z: ControlledPath, i: int,
                            j: int) -> np.ndarray:
    """sum_m Y'(x_m) XX(x_m, x_{m+1}) Z'(x_m)^T — the rough-minus-Young gap."""
    rp = Y.reference
    m = np.arange(i, j)
    terms = np.einsum("mab,mbc,mdc->mad", Y.Yprime[m], rp.XXinc[m], Z.Yprime[m])
    return _fsum_terms(terms)


def contract_second_order(DG: np.ndarray, Yp: np.ndarray, XX: np.ndarray,
                          Zp: np.ndarray) -> np.ndarray:
    """Contracted form of the second-order term, index order (k i j / k l / l m / j m):

        out^i = DG[k, i, j] * Yp[k, l] * XX[l, m] * Zp[j, m].

    For n = 1 this coincides with the outer-product form used by
    ``rough_integral``.
    """
    return np.einsum("kij,kl,lm,jm->i", DG, Yp, XX, Zp)


def estimate_f11(fker, window: float = 40.0, samples_per_unit: int = 33) -> float:
    """Numerical estimate of |f|_{1,1} = sum_m sup_{[m,m+1]} (|f| + |f'|)
    over unit intervals inside [-window, window]."""
    total = 0.0
    for m in range(-int(window), int(window)):
        xs = np.linspace(m, m + 1, samples_per_unit)
        vals = np.asarray(fker(xs), dtype=float)
        step = 1e-6
        deriv = (np.asarray(fker(xs + step), dtype=float)
                 - np.asarray(fker(xs - step), dtype=float)) / (2 * step)
        total += float((np.abs(vals) + np.abs(deriv)).max())
    return total


def scaled_integral_approx(fker, lam: float, eps: float, direction: str,
                           Y: ControlledPath, Z: ControlledPath) -> np.ndarray:
    """Discrete scaled rough integral I_+/- over the step grid x_k = eps k.

    direction '+': left endpoints with XX(x_k, x_{k+1});
    direction '-': right endpoints with XX(x_{k+1}, x_k), the reversed
    increment obtained from the consistency relation,
    XX(y, x) = dX(x, y) (x) dX(x, y) - XX(x, y).

    Requires eps * lam < 1 and eps an integer multiple of the sample grid
    spacing so the step points coincide with sample points.
    """
    if eps * lam >= 1.0:
        raise ValueError("need eps * lam < 1")
    if direction not in ("+", "-"):
        raise ValueError("direction must be '+' or '-'")
    if Y.reference is not Z.reference:
        raise ValueError("Y and Z must share the same reference rough path")
    rp = Y.reference
    M = rp.M
    if M % 2:
        raise ValueError("sample grid size must be even (0 must be a grid point)")
    dx = 2.0 * np.pi / M
    s = eps / dx
    if abs(s - round(s)) > 1e-9:
        raise ValueError("eps must be an integer multiple of the grid spacing")
    s = int(round(s))
    n_eps = int(np.floor(np.pi / eps + 1e-12))
    out = np.zeros((rp.n, rp.n))
    for k in range(-n_eps, n_eps):
        ja = M // 2 + s * k
        jb = ja + s
        XXf = xx_eval(rp, ja, jb)
        if direction == "+":
            w = float(fker(lam * eps * k))
            dZ = Z.value(jb) - Z.value(ja)
            out += w * (np.outer(Y.value(ja), dZ)
                        + Y.Yprime[ja % M] @ XXf @ Z.Yprime[ja % M].T)
        else:
            w = float(fker(lam * eps * (k + 1)))
            dX = rp.delta(ja, jb)
            XXb = np.outer(dX, dX) - XXf
            dZ = Z.value(ja) - Z.value(jb)
            out += w * (np.outer(Y.value(jb), dZ)
                        + Y.Yprime[jb % M] @ XXb @ Z.Yprime[jb % M].T)
    return out
