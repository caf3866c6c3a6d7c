"""Cut-off schemes (f, mu, h), their Fourier multipliers, and assumption audits.

A scheme replaces the Laplacian, the spatial derivative and the identity on
the noise by the multipliers

    -k^2 f(eps k),    i k g(eps k),    h(eps k),

where g is induced by an atomic signed measure mu through
(1/eps) sum_a w_a exp(i k eps z_a).  The standing assumptions are:

  * f even, f(0) = 1, f >= 2 c_f for some c_f in (0,1), C^1 near 0,
  * b_t(k) = exp(-k^2 (f(k) - c_f) t) uniformly bounded in BV over t,
  * mu has zero mass, unit first moment, finite total variation and
    finite absolute second moment,
  * h even, bounded, h(0) = 1, h'(0) = 0, and h^2/f of bounded variation.

``validate_scheme`` probes all of these numerically and returns a report;
it flags violations but never raises.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
from dataclasses import dataclass, field

import numpy as np

MASS_TOL = 1e-12
FIRST_MOMENT_TOL = 1e-12
HPRIME_STEP = 1e-4
HPRIME_TOL = 1e-6


# ---------------------------------------------------------------------------
# registry of named even functions for f and h
# ---------------------------------------------------------------------------

def _eval_one(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _eval_one_plus_sq(x):
    x = np.asarray(x, dtype=float)
    return 1.0 + x * x


def _eval_indicator(x, cutoff=1.0):
    x = np.asarray(x, dtype=float)
    return (np.abs(x) <= cutoff).astype(float)


def _eval_gaussian(x, width=1.0):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * (x / width) ** 2)


def _eval_inverse_sq(x, scale=1.0):
    # even, value 1 at 0, decays like x^-2; usable as a noise cut-off
    x = np.asarray(x, dtype=float)
    return 1.0 / (1.0 + (x / scale) ** 2)


def _eval_tabulated(x, xs=(), ys=()):
    # samples given on x >= 0, extended evenly and by the edge value
    x = np.abs(np.asarray(x, dtype=float))
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    return np.interp(x, xs, ys)


_EVALUATORS = {
    "one": _eval_one,
    "one_plus_sq": _eval_one_plus_sq,
    "indicator": _eval_indicator,
    "gaussian": _eval_gaussian,
    "inverse_sq": _eval_inverse_sq,
    "tabulated": _eval_tabulated,
}


@dataclass(frozen=True)
class RegistryFunction:
    """A named even function on the reals, serialisable by (name, params)."""

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in _EVALUATORS:
            raise KeyError(
                f"unknown function {self.name!r}; known: {sorted(_EVALUATORS)}"
            )
        try:                                       # x is the argument, not a param
            inspect.signature(_EVALUATORS[self.name]).bind(None, **self.params)
        except TypeError as exc:
            raise ValueError(f"function {self.name!r} params: {exc}") from None

    def __call__(self, x):
        return _EVALUATORS[self.name](x, **self.params)

    def describe(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}


def make_function(name: str, **params) -> RegistryFunction:
    """Look up a named function (``one``, ``one_plus_sq``, ``indicator``,
    ``gaussian``, ``inverse_sq``, ``tabulated``)."""
    if params:
        # make tabulated samples hashable so the dataclass stays frozen-friendly
        params = {k: tuple(v) if isinstance(v, (list, np.ndarray)) else v
                  for k, v in params.items()}
    return RegistryFunction(name, params)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AtomicSignedMeasure:
    """Finite atomic signed measure, stored as (location, weight) pairs."""

    atoms: tuple

    def __init__(self, atoms):
        object.__setattr__(
            self, "atoms", tuple((float(z), float(w)) for z, w in atoms)
        )

    @property
    def locations(self) -> np.ndarray:
        return np.array([z for z, _ in self.atoms])

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms])

    @property
    def shifting_atoms(self) -> tuple:
        """The atoms (z, w) with z != 0 and w != 0, in order: the ones that
        move a field, the only ones Lambda, Lambda_eps and D_eps XX read."""
        return tuple((z, w) for z, w in self.atoms if z != 0.0 and w != 0.0)

    def total_mass(self) -> float:
        return float(math.fsum(w for _, w in self.atoms))

    def first_moment(self) -> float:
        return float(math.fsum(w * z for z, w in self.atoms))

    def total_variation(self) -> float:
        return float(math.fsum(abs(w) for _, w in self.atoms))

    def second_moment(self) -> float:
        return float(math.fsum(abs(w) * z * z for z, w in self.atoms))

    def reflected(self) -> "AtomicSignedMeasure":
        """The measure with every atom (z, w) replaced by (-z, -w)."""
        return AtomicSignedMeasure([(-z, -w) for z, w in self.atoms])

    def check_moments(self) -> dict:
        mass = self.total_mass()
        first = self.first_moment()
        return {
            "mass": mass,
            "first_moment": first,
            "total_variation": self.total_variation(),
            "second_moment": self.second_moment(),
            "mass_ok": abs(mass) <= MASS_TOL,
            "first_moment_ok": abs(first - 1.0) <= FIRST_MOMENT_TOL,
        }


FORWARD_DIFFERENCE = AtomicSignedMeasure([(1.0, 1.0), (0.0, -1.0)])
BACKWARD_DIFFERENCE = AtomicSignedMeasure([(0.0, 1.0), (-1.0, -1.0)])
CENTRAL_DIFFERENCE = AtomicSignedMeasure([(1.0, 0.5), (-1.0, -0.5)])


@dataclass(frozen=True)
class CutoffScheme:
    """The triple (f, mu, h) defining one approximation scheme.

    c_f is the lower-bound constant of the Laplacian cut-off (f >= 2 c_f),
    read by the validation probe and by ``lambda_z_tail_bound``.
    """

    f: RegistryFunction
    mu: AtomicSignedMeasure
    h: RegistryFunction
    c_f: float = 0.25

    def describe(self) -> dict:
        return {
            "f": self.f.describe(),
            "h": self.h.describe(),
            "mu": [list(a) for a in self.mu.atoms],
            "c_f": self.c_f,
        }


_NAMED_SCHEMES = {
    "forward_difference": FORWARD_DIFFERENCE,
    "backward_difference": BACKWARD_DIFFERENCE,
    "central_difference": CENTRAL_DIFFERENCE,
}


def make_scheme(name: str, f: RegistryFunction | None = None,
                h: RegistryFunction | None = None, c_f: float = 0.25) -> CutoffScheme:
    """Build a named scheme; f and h default to the identity cut-offs."""
    if name not in _NAMED_SCHEMES:
        raise KeyError(f"unknown scheme {name!r}; known: {sorted(_NAMED_SCHEMES)}")
    return CutoffScheme(
        f=f or make_function("one"),
        mu=_NAMED_SCHEMES[name],
        h=h or make_function("one"),
        c_f=c_f,
    )


# ---------------------------------------------------------------------------
# multipliers
# ---------------------------------------------------------------------------

def laplacian_multiplier(scheme: CutoffScheme, k, eps: float):
    """Multiplier of the approximated Laplacian: -k^2 f(eps k).

    For eps = 0 this is exactly -k^2.  Accepts scalar or array k.
    """
    if eps < 0:
        raise ValueError("eps must be >= 0")
    k = np.asarray(k, dtype=float)
    if eps == 0.0:
        out = -(k * k)
    else:
        out = -(k * k) * scheme.f(eps * k)
    return float(out) if out.ndim == 0 else out


def derivative_multiplier(scheme: CutoffScheme, k, eps: float):
    """Multiplier of the approximated derivative: (1/eps) sum_a w_a e^{i k eps z_a}.

    Equals i k g(eps k); identically zero at k = 0 because mu has zero mass.
    """
    if eps <= 0:
        raise ValueError("eps must be > 0")
    k = np.asarray(k, dtype=float)
    z = scheme.mu.locations
    w = scheme.mu.weights
    out = (w * np.exp(1j * np.multiply.outer(k, z) * eps)).sum(axis=-1) / eps
    out = np.where(k == 0, 0.0 + 0.0j, out)
    return complex(out) if out.ndim == 0 else out


def noise_multiplier(scheme: CutoffScheme, k, eps: float):
    """Multiplier of the noise cut-off: h(eps k); equals 1 at eps = 0."""
    k = np.asarray(k, dtype=float)
    out = scheme.h(eps * k)
    return float(out) if np.ndim(out) == 0 else out


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeGrid:
    """Extents and resolutions of the k- and t-grids used by validate_scheme."""

    k_max: float = 64.0
    k_points: int = 4097
    t_min: float = 1e-3
    t_max: float = 10.0
    t_points: int = 25
    bv_threshold: float = 50.0

    def k_grid(self) -> np.ndarray:
        return np.linspace(-self.k_max, self.k_max, self.k_points)

    def t_grid(self) -> np.ndarray:
        return np.geomspace(self.t_min, self.t_max, self.t_points)


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    detail: dict = field(default_factory=dict)


@dataclass
class SchemeReport:
    """Per-assumption pass/fail flags with the numbers that justified them."""

    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self, indent: int | None = 2) -> str:
        payload = {
            "passed": self.passed,
            "checks": [dataclasses.asdict(c) for c in self.checks],
        }
        return json.dumps(payload, indent=indent, default=float)


def _discrete_bv(values: np.ndarray) -> float:
    return float(np.abs(np.diff(values)).sum())


def validate_scheme(scheme: CutoffScheme, probe: ProbeGrid | None = None) -> SchemeReport:
    """Audit the standing assumptions on (f, mu, h) over the probe grids.

    Checks, in order: mu moments (exact atom arithmetic); f normalisation,
    evenness and lower bound 2 c_f; the sup over the t-grid of the discrete
    BV norm of b_t(k) = exp(-k^2 (f(k) - c_f) t); h evenness, boundedness,
    h(0) = 1 and h'(0) ~ 0 by symmetric difference; discrete BV of h^2/f.
    Violations are reported with their locations; the function never raises.
    """
    probe = probe or ProbeGrid()
    ks = probe.k_grid()
    ts = probe.t_grid()
    checks = []

    # (a) moments of mu
    mom = scheme.mu.check_moments()
    checks.append(CheckResult(
        name="mu_moments",
        passed=bool(mom["mass_ok"] and mom["first_moment_ok"]),
        value=mom["mass"],
        detail=mom,
    ))

    # (b) f: normalisation, evenness, lower bound
    f_vals = np.asarray(scheme.f(ks), dtype=float)
    f0 = float(scheme.f(0.0))
    even_gap = float(np.abs(f_vals - f_vals[::-1]).max())
    lower_gap = float((f_vals - 2.0 * scheme.c_f).min())
    viol = ks[f_vals < 2.0 * scheme.c_f]
    checks.append(CheckResult(
        name="f_bounds",
        passed=bool(abs(f0 - 1.0) <= 1e-12 and even_gap <= 1e-12 and lower_gap >= -1e-12),
        value=lower_gap,
        detail={
            "f_at_zero": f0,
            "evenness_gap": even_gap,
            "min_f_minus_2cf": lower_gap,
            "violation_locations": viol[:16].tolist(),
            "finite": bool(np.isfinite(f_vals).all()),
        },
    ))

    # (c) sup_t BV of b_t(k) = exp(-k^2 (f(k) - c_f) t) along the k-grid
    expo = -(ks * ks) * (f_vals - scheme.c_f)
    bvs = np.array([_discrete_bv(np.exp(expo * t)) for t in ts])
    i_max = int(np.argmax(bvs))
    plateaued = i_max < len(ts) - 1 or (len(ts) >= 2 and bvs[-1] <= bvs[-2] * 1.01)
    checks.append(CheckResult(
        name="bt_bv",
        passed=bool(bvs.max() <= probe.bv_threshold and plateaued),
        value=float(bvs.max()),
        detail={
            "threshold": probe.bv_threshold,
            "argmax_t": float(ts[i_max]),
            "plateaued": bool(plateaued),
            "bv_by_t": bvs.tolist(),
        },
    ))

    # (d) h: evenness, boundedness, h(0) = 1, h'(0) ~ 0
    h_vals = np.asarray(scheme.h(ks), dtype=float)
    h0 = float(scheme.h(0.0))
    h_even_gap = float(np.abs(h_vals - h_vals[::-1]).max())
    h_sup = float(np.abs(h_vals).max())
    hprime0 = float((scheme.h(HPRIME_STEP) - scheme.h(-HPRIME_STEP)) / (2 * HPRIME_STEP))
    checks.append(CheckResult(
        name="h_bounds",
        passed=bool(
            abs(h0 - 1.0) <= 1e-12
            and h_even_gap <= 1e-12
            and np.isfinite(h_sup)
            and abs(hprime0) <= HPRIME_TOL
        ),
        value=hprime0,
        detail={
            "h_at_zero": h0,
            "evenness_gap": h_even_gap,
            "sup_abs_h": h_sup,
            "hprime_at_zero": hprime0,
        },
    ))

    # (e) discrete BV of h^2/f
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(f_vals > 0, h_vals * h_vals / f_vals, np.inf)
    ratio_bv = _discrete_bv(ratio) if np.isfinite(ratio).all() else math.inf
    checks.append(CheckResult(
        name="h2_over_f_bv",
        passed=bool(np.isfinite(ratio_bv) and ratio_bv <= probe.bv_threshold),
        value=float(ratio_bv),
        detail={"threshold": probe.bv_threshold},
    ))

    return SchemeReport(checks=checks)
