"""Correction constant of a scheme, its finite-eps approximations, and the
corrected drift: the one home of these formulas.

The constant is

    Lambda = (1/(2 pi nu)) int_0^inf int_R (1 - cos(y t)) h(t)^2 / (t^2 f(t)) mu(dy) dt.

For f = 1 it has a closed form, which ``lambda_exact`` returns: with h = 1 it
collapses to (1/(4 nu)) int |y| mu(dy), and with the window h = 1_{|t| <= c}
it is (1/(2 pi nu)) sum_a w_a (|z_a| Si(|z_a| c) - (1 - cos(z_a c)) / c),
with the sine integral Si computed here in pure Python (``_si``), so the
closed form loads no scipy module.  Every other (f, h) goes through adaptive
quadrature (``lambda_integral``), which alone loads scipy.integrate.  The
finite-eps quantity

    Lambda_{z,eps}(t) = (1/eps) sum_k (q_eps^k)^2 K_k(t) (1 - cos(k eps z)),

with q_eps^k = h(eps k) / (|k| sqrt(4 pi f(eps k))) (``mode_amplitudes``, the
amplitudes of the lift's reference field, so the fluctuation statistic is
centred exactly) and K_k(t) = 1 - exp(-2 k^2 f(eps k) t), is the mean of the
scaled symmetric second-order increment of the Gaussian reference field over
a shift eps z; integrating it against mu gives Lambda_eps(t), which converges
to Lambda.  One contraction, ``_contract``, gives the corrected drift
-Lambda theta DG theta both to the solver, whose runs carry their Lambda,
and to ``corrected_drift``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from schemelab.schemes import CutoffScheme, laplacian_multiplier
from schemelab.spectral import SQRT_2PI


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested tolerance within budget.

    Carries the partial value and the error estimate accumulated so far.
    """

    def __init__(self, message, partial_value, error_estimate, evaluations):
        super().__init__(message)
        self.partial_value = partial_value
        self.error_estimate = error_estimate
        self.evaluations = evaluations


@dataclass(frozen=True)
class LambdaResult:
    value: float
    error_estimate: float
    evaluations: int


def _lambda_single_atom(z: float, f, h, limit: int, tol: float):
    """int_0^inf (1 - cos(z t)) h^2(t) / (t^2 f(t)) dt for one shift z > 0 or < 0.

    Strategy: a plain adaptive pass on [0, T] where the oscillation is slow,
    then the tail split into the non-oscillatory part int w(t)/t^2 dt
    (computed via the substitution u = 1/t) and the Fourier-type part
    int cos(z t) w(t)/t^2 dt (computed with a cosine-weighted rule), where
    w = h^2/f.  The integrand is extended continuously at 0 by z^2 w(0)/2.
    """
    from scipy import integrate          # about 27 MB, loaded for quadrature only
    evals = 0
    epsabs = max(tol / 8.0, 1e-13)

    def w(t):
        nonlocal evals
        evals += 1
        return float(h(t)) ** 2 / float(f(t))

    def head(t):
        if t == 0.0:
            return 0.5 * z * z * w(0.0)
        return (1.0 - np.cos(z * t)) * w(t) / (t * t)

    T = max(20.0, 40.0 / abs(z))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        head_val, head_err = integrate.quad(head, 0.0, T, limit=limit,
                                            epsabs=epsabs)
        flat_val, flat_err = integrate.quad(lambda u: w(1.0 / u), 0.0, 1.0 / T,
                                            limit=limit, epsabs=epsabs)
        osc_val, osc_err = integrate.quad(lambda t: w(t) / (t * t), T, np.inf,
                                          weight="cos", wvar=z, limit=limit,
                                          epsabs=epsabs)
    return head_val + flat_val - osc_val, head_err + flat_err + osc_err, evals


def lambda_integral(atoms, f, h, nu: float = 1.0, tol: float = 1e-9,
                    limit: int = 400) -> LambdaResult:
    """Raw correction integral for an explicit atom list (no scheme validation)."""
    total, err, evals = 0.0, 0.0, 0
    for z, weight in atoms:
        if z == 0.0 or weight == 0.0:
            continue
        v, e, n = _lambda_single_atom(float(z), f, h, limit, tol)
        total += weight * v
        err += abs(weight) * e
        evals += n
    value = total / (2.0 * np.pi * nu)
    error = err / (2.0 * np.pi * nu)
    if error > tol:
        raise QuadratureError(
            f"quadrature error estimate {error:.3e} exceeds tolerance {tol:.3e}",
            partial_value=value, error_estimate=error, evaluations=evals,
        )
    return LambdaResult(value=value, error_estimate=error, evaluations=evals)


def _si(x: float) -> float:
    """Sine integral Si(x) = int_0^x sin(t)/t dt for x >= 0, within about
    6e-16 relative: the power series up to x = 4, above it the modified Lentz
    continued fraction for e^{ix} E1(ix), as Si(x) = pi/2 + Im E1(ix)."""
    if x <= 4.0:
        # sum_n (-1)^n x^(2n+1) / ((2n+1) (2n+1)!)
        term = total = x
        n = 0
        while abs(term) > 1e-17 * total:
            n += 2
            term *= -x * x / (n * (n + 1))
            total += term / (n + 1)
        return total
    b = complex(1.0, x)
    c, d = math.inf, 1.0 / b
    h = d
    for i in range(1, 100):                    # at most 48 terms for x > 4
        a = -i * i
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.pi / 2 + (h * complex(math.cos(x), -math.sin(x))).imag


def _lambda_closed_form(scheme: CutoffScheme, nu: float) -> float | None:
    """Lambda for f = 1 with h = 1 or h = 1_{|t| <= c}, 0 < c < inf (the
    cutoff defaults as in ``schemes._eval_indicator``); None otherwise."""
    f, h = scheme.f, scheme.h
    if f.name != "one" or f.params:
        return None
    atoms = [(abs(z), w) for z, w in scheme.mu.atoms if z != 0.0 and w != 0.0]
    if h.name == "one" and not h.params:
        return math.fsum(w * s for s, w in atoms) / (4.0 * nu)
    c = h.params.get("cutoff", 1.0)
    if h.name != "indicator" or h.params.keys() - {"cutoff"} or not 0.0 < c < math.inf:
        return None
    # int_0^c (1 - cos(s t)) / t^2 dt = s Si(s c) - (1 - cos(s c)) / c
    return math.fsum(w * (s * _si(s * c) - (1.0 - math.cos(s * c)) / c)
                     for s, w in atoms) / (2.0 * math.pi * nu)


def lambda_exact(scheme: CutoffScheme, nu: float = 1.0, tol: float = 1e-9,
                 limit: int = 400) -> LambdaResult:
    """Correction constant of the scheme: the closed form where f = 1 and h
    is ``one`` or an ``indicator`` (no error, no evaluations), adaptive
    quadrature otherwise.

    The caller is expected to have validated the scheme; the integral is
    evaluated as given.  Raises QuadratureError (carrying the partial value)
    if the error estimate cannot be brought below ``tol`` within the
    subdivision budget.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    value = _lambda_closed_form(scheme, nu)
    if value is not None:
        return LambdaResult(value=value, error_estimate=0.0, evaluations=0)
    return lambda_integral(scheme.mu.atoms, scheme.f, scheme.h, nu=nu,
                           tol=tol, limit=limit)


def mode_amplitudes(scheme: CutoffScheme, eps: float, N: int) -> np.ndarray:
    """q_k for k = 0..N."""
    q = np.empty(N + 1)
    q[0] = 1.0 / SQRT_2PI
    k = np.arange(1, N + 1, dtype=float)
    f = scheme.f(eps * k) if eps > 0 else np.ones_like(k)
    h = scheme.h(eps * k) if eps > 0 else np.ones_like(k)
    q[1:] = h / (k * np.sqrt(4.0 * np.pi * f))
    return q


def lambda_z_eps(scheme: CutoffScheme, z: float, eps: float, t: float,
                 N: int) -> float:
    """Finite-eps correction density at shift z (mode sum truncated at N).

    Equals the expected scaled symmetric second-order increment of the
    Gaussian reference field over the shift eps*z at time t; nonnegative,
    even in z, and vanishing at z = 0 and t = 0.
    """
    if eps <= 0 or t <= 0:
        raise ValueError("eps and t must be > 0")
    if N < 1:
        raise ValueError("N must be >= 1")
    k = np.arange(1, N + 1, dtype=float)
    q2 = mode_amplitudes(scheme, eps, N)[1:] ** 2
    K = 1.0 - np.exp(2.0 * laplacian_multiplier(scheme, k, eps) * t)
    terms = q2 * K * (1.0 - np.cos(k * eps * z))
    # the k = 0 term vanishes identically; negative modes double the sum
    return float(2.0 * terms.sum() / eps)


def lambda_z_tail_bound(scheme: CutoffScheme, eps: float, N: int) -> float:
    """Crude bound on the neglected |k| > N part: sum_{|k|>N} (q^k)^2 / eps."""
    sup_h = float(np.abs(scheme.h(eps * np.arange(N, 4 * N + 1))).max())
    inf_f = float(np.abs(scheme.f(eps * np.arange(N, 4 * N + 1))).min())
    inf_f = max(inf_f, 2.0 * scheme.c_f)
    return 2.0 * sup_h ** 2 / (4.0 * np.pi * inf_f * N * eps)


def lambda_eps(scheme: CutoffScheme, eps: float, t: float, N: int) -> float:
    """Finite-eps correction constant: the mu-integral of lambda_z_eps."""
    return float(sum(w * lambda_z_eps(scheme, z, eps, t, N)
                     for z, w in scheme.mu.atoms if z != 0.0 and w != 0.0))


def _theta_theta(theta: np.ndarray) -> np.ndarray:
    """theta theta^T pointwise, (n, n, ...) -> (n, n, ...)."""
    return theta * theta if len(theta) == 1 else np.einsum("jk...,lk...->jl...", theta, theta)


def _contract(coeff, DG: np.ndarray, tt: np.ndarray) -> np.ndarray:
    """coeff theta^j_k dG^i_l/du_j theta^l_k from DG (n, n, n, ...) and
    tt = theta theta^T (n, n, ...), pointwise on the trailing axes: the
    corrected drift for coeff = -Lambda, a float or, for a batch of runs on
    the second to last axis, a column of one -Lambda per run."""
    if len(DG) == 1:                           # n = 1: one product
        return coeff * (DG[0, :, 0] * tt[0, 0])
    return coeff * np.einsum("jil...,jl...->i...", DG, tt)


def corrected_drift(F_eval, G_jacobian_eval, theta_eval, Lambda: float,
                    u: np.ndarray) -> np.ndarray:
    """Corrected drift F_bar(u) = F(u) - Lambda * theta^j_k dG^i_l/du_j theta^l_k
    at one state u (n,), by the contraction of the solver's drift.

    ``G_jacobian_eval(u)`` must return the array DG with DG[j, i, l] equal to
    the derivative of G^i_l in the j-th state direction; ``theta_eval(u)``
    returns theta with rows indexing the state component and columns the
    noise channel.  Repeated indices j, k, l are summed.
    """
    u = np.asarray(u, dtype=float)
    F = np.asarray(F_eval(u), dtype=float)
    DG = np.asarray(G_jacobian_eval(u), dtype=float)
    theta = np.asarray(theta_eval(u), dtype=float)
    n = u.shape[0]
    if F.shape != (n,) or DG.shape != (n, n, n) or theta.shape != (n, n):
        raise ValueError("model callables returned arrays of the wrong shape")
    return F + _contract(-Lambda, DG, _theta_theta(theta))
