"""Nonlinearity registry: F, G, DG, theta as vectorised grid callables.

All callables act pointwise on state arrays of shape (n, ...) and return
arrays with the same trailing axes: F -> (n, ...), G and theta -> (n, n, ...),
DG -> (n, n, n, ...) with DG[d, i, j] the derivative of G^i_j in state
direction d.  F may be None, a declared zero (``make_model(F="zero")``
gives one).  When a potential is supplied its Jacobian must reproduce G;
``validate_gradient`` checks that with central differences.  A model whose
theta does not depend on u may declare it as the constant (n, n) matrix
``theta_constant``; the solver then adds the noise in spectral space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# tolerance, relative to the largest entry, of a declared constant theta
# against theta at the probe points
THETA_CONSTANT_RTOL = 1e-12


@dataclass(eq=False)
class ModelFunctions:
    """The model's grid callables (see the module docstring).  F = None
    declares F = 0: the solver neither calls nor transforms it."""

    n: int
    F: callable | None
    G: callable
    DG: callable
    theta: callable
    potential: callable | None = None
    label: str = "custom"
    theta_constant: np.ndarray | None = None

    def __post_init__(self):
        if self.theta_constant is None:
            return
        const = np.array(self.theta_constant, dtype=float)
        if const.shape != (self.n, self.n):
            raise ValueError(f"theta_constant must have shape {(self.n, self.n)}, "
                             f"not {const.shape}")
        probe = np.linspace(-2.0, 3.0, 3 * self.n).reshape(self.n, 3)
        gap = np.abs(np.asarray(self.theta(probe)) - const[..., None]).max()
        if not gap <= THETA_CONSTANT_RTOL * max(np.abs(const).max(), 1e-300):
            raise ValueError(f"theta_constant differs from theta by {gap:.2e} "
                             "at a probe point")
        const.flags.writeable = False
        self.theta_constant = const

    def __eq__(self, other):
        # field by field, the constant by value: == on two arrays is not a bool
        if not isinstance(other, ModelFunctions):
            return NotImplemented
        return self._key() == other._key()

    def _key(self) -> tuple:
        const = self.theta_constant
        return (self.n, self.F, self.G, self.DG, self.theta, self.potential,
                self.label, None if const is None else const.tobytes())

    def describe(self) -> dict:
        """n, the label, the constant theta and each callable by its
        ``module.qualname`` (None for None): the model as ``config_hash``
        digests it.  Raises ValueError for a lambda or a nested function,
        whose name does not identify it."""
        const = self.theta_constant
        return {"n": self.n, "label": self.label,
                "theta_constant": None if const is None else const.tolist(),
                **{name: _qualified_name(getattr(self, name))
                   for name in ("F", "G", "DG", "theta", "potential")}}


def _qualified_name(fn) -> str | None:
    if fn is None:
        return None
    name = getattr(fn, "__qualname__", "<unnamed>")
    if "<" in name:                          # <lambda>, <locals> or unnamed
        raise ValueError(f"the model callable {name} has no module-level name to hash")
    return f"{fn.__module__}.{name}"


def validate_gradient(model: ModelFunctions, probe_points: np.ndarray,
                      tol: float = 1e-6, step: float = 1e-6) -> float:
    """Max gap between the finite-difference Jacobian of the potential and G
    over the probe points; raises if the model carries no potential."""
    if model.potential is None:
        raise ValueError("model has no potential to validate")
    worst = 0.0
    for u in np.atleast_2d(probe_points):
        u = u.reshape(model.n)
        G = np.asarray(model.G(u[:, None]))[..., 0]
        J = np.zeros((model.n, model.n))
        for j in range(model.n):
            e = np.zeros(model.n)
            e[j] = step
            up = model.potential((u + e)[:, None])[..., 0]
            dn = model.potential((u - e)[:, None])[..., 0]
            J[:, j] = (up - dn) / (2 * step)
        worst = max(worst, float(np.abs(J - G).max()))
    if worst > tol:
        raise ValueError(f"potential Jacobian deviates from G by {worst:.2e}")
    return worst


# -- scalar (n = 1) building blocks -----------------------------------------

def _zero_mat(u):
    return np.zeros((1, 1) + u.shape[1:])


def _zero_dmat(u):
    return np.zeros((1, 1, 1) + u.shape[1:])


def _g_state(u):
    return u[None, :]


def _dg_state(u):
    return np.ones((1, 1, 1) + u.shape[1:])


def _potential_half_square(u):
    return 0.5 * u * u


def _theta_one(u):
    out = np.zeros((1, 1) + u.shape[1:])
    out[0, 0] = 1.0
    return out


def _theta_state(u):
    return u[None, :]


_FLOAT_MAX = float(np.finfo(float).max)


def _theta_bounded_sqrt(u):
    # smooth, bounded in [1, sqrt(2)], behaves like sqrt(1 + u^2) near 0;
    # sqrt(1 + v^2 / (1 + v^2)) written into the result: six passes, one
    # temporary.  v^2 is capped at the largest float, where the quotient is
    # already 1, so an overflow (|u| > 1.3e154) gives sqrt(2), not inf / inf
    out = np.empty((1, 1) + u.shape[1:])
    w = out[0, 0]
    v2 = np.multiply(u[0], u[0])
    np.minimum(v2, _FLOAT_MAX, out=v2)
    np.add(1.0, v2, out=w)
    np.divide(v2, w, out=w)
    np.add(1.0, w, out=w)
    return np.sqrt(out, out=out)


_F_REGISTRY = {"zero": None}                 # a declared zero
_G_REGISTRY = {
    "zero": (_zero_mat, _zero_dmat, None),
    "state": (_g_state, _dg_state, _potential_half_square),
}
_THETA_REGISTRY = {
    "one": _theta_one,
    "state": _theta_state,
    "bounded_sqrt": _theta_bounded_sqrt,
}


def make_model(n: int = 1, F: str = "zero", G: str = "zero",
               theta: str = "one") -> ModelFunctions:
    """Assemble a scalar model from named pieces.

    F in {zero}; G in {zero, state}; theta in {one, state, bounded_sqrt}.
    """
    if n != 1:
        raise ValueError("the registry ships scalar models; build vector "
                         "models directly via ModelFunctions")
    if F not in _F_REGISTRY:
        raise KeyError(f"unknown F {F!r}")
    if G not in _G_REGISTRY:
        raise KeyError(f"unknown G {G!r}")
    if theta not in _THETA_REGISTRY:
        raise KeyError(f"unknown theta {theta!r}")
    g, dg, pot = _G_REGISTRY[G]
    return ModelFunctions(
        n=1, F=_F_REGISTRY[F], G=g, DG=dg, theta=_THETA_REGISTRY[theta],
        potential=pot, label=f"n1:F={F}:G={G}:theta={theta}",
        theta_constant=np.ones((1, 1)) if theta == "one" else None,
    )
