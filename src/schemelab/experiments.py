"""Monte-Carlo experiments, rate fitting, persistence, and diagnostics.

Every experiment follows the same pattern: derive one RNG per sample from
(master seed, sample index), stream that sample's noise, run the coupled
simulations, and reduce per-sample rows into aggregates plus a
least-squares rate fit.  Converge, correction, fluctuation and lift map
chunks of CHUNK_SAMPLES samples over the workers: the first two step the
runs of every sample of a chunk as one batch; fluctuation draws a chunk's
increments once per time and, for every eps of the ladder, evolves and
lifts the reference fields of its samples as one stacked state, by a lift
plan built once per eps, and lift does so at one (eps, t).  Per-sample
numbers are persisted next to the aggregates so every reported mean can be
recomputed from the table.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np
import numpy.random  # numpy 2 loads it lazily: load it with the module, not in a run

from schemelab.correction import lambda_eps, lambda_exact, lambda_z_tail_bound
from schemelab.lift import (
    LiftPlan,
    draw_increments,
    evolve_modes,
    fluctuation_statistic,
    lift_XX,
    d_eps_xx,
    state_from_coeffs,
)
from schemelab.models import ModelFunctions
from schemelab.schemes import CutoffScheme, derivative_multiplier, laplacian_multiplier
from schemelab.solver import (
    NOISE_VERSION,
    NoiseStream,
    SolverConfig,
    Trajectory,
    reference_config,
    simulate,  # unused here; perfbench's self-test checks this binding is traced
    simulate_coupled,
)
from schemelab.spectral import SQRT_2PI, NormConfig, Transform, holder_seminorm_estimate


class ExperimentFailure(RuntimeError):
    pass


class ConfigError(ValueError):
    """A config, or the SCHEMELAB_WORKERS setting, that cannot be run."""


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    half_width: float

    def as_dict(self) -> dict:
        return {"slope": self.slope, "intercept": self.intercept,
                "half_width": self.half_width, "degenerate": False}


# stdtrit(df, 0.975) of scipy.special 1.17.1 for df = 1..30, bit for bit:
# scipy's quantile is not correctly rounded (3.5e-15 off for df = 6),
# so only its own bits keep the half width equal to scipy.stats'
_T975 = tuple(map(float.fromhex, (
    "0x1.96993aacc4d1ep+3", "0x1.135ea98e146b9p+2", "0x1.975a66893c1a7p+1",
    "0x1.63628d9efb5dep+1", "0x1.4908d359dff38p+1", "0x1.393468546e668p+1",
    "0x1.2eac01e9f5b1ap+1", "0x1.272b24bc92428p+1", "0x1.218e5dac50b23p+1",
    "0x1.1d33a7661d302p+1", "0x1.19b9e1b8c996cp+1", "0x1.16e356bbc352dp+1",
    "0x1.1486f5cb67d3bp+1", "0x1.12885ec4c0667p+1", "0x1.10d356b5a06c2p+1",
    "0x1.0f590e8d62dd7p+1", "0x1.0e0e6fd5b155ep+1", "0x1.0ceb036f23f31p+1",
    "0x1.0be83653b666cp+1", "0x1.0b00d9a954436p+1", "0x1.0a30c955b504bp+1",
    "0x1.0974ac3559fb2p+1", "0x1.08c9c5c7af878p+1", "0x1.082dd3fc3a165p+1",
    "0x1.079ef594769a4p+1", "0x1.071b96b177db5p+1", "0x1.06a261e29bdabp+1",
    "0x1.0632348973a31p+1", "0x1.05ca15bce286fp+1", "0x1.05692f10aaee9p+1",
)))


def _t975(df: int) -> float:
    """The Student-t quantile t_0.975(df) that scipy.stats.t.ppf gives."""
    if df <= len(_T975):
        return _T975[df - 1]
    from scipy.special import stdtrit          # about 24 MB, for df > 30 only
    return float(stdtrit(df, 0.975))


def rate_fit(points) -> RateFit:
    """Ordinary least squares of log(value) against log(eps).

    Needs at least three points with distinct eps and positive values; the
    half width is the 95% confidence radius from the residual variance.
    """
    points = [(float(e), float(v)) for e, v in points]
    if len(points) < 3:
        raise ValueError("need at least 3 points")
    if any(v <= 0.0 for _, v in points):
        raise ValueError("values must be positive for a log-log fit")
    x = np.log([e for e, _ in points])
    y = np.log([v for _, v in points])
    if np.ptp(x) == 0.0:
        raise ValueError("degenerate fit: all eps equal")
    # the arithmetic of scipy.stats.linregress and the t quantile of
    # scipy.stats.t.ppf, without the import of scipy
    df = len(points) - 2
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssym == 0.0:                                 # ssxm > 0: the eps differ
        r = math.nan if ssxym == 0 else 0.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    slope = ssxym / ssxm
    intercept = np.mean(y) - slope * np.mean(x)
    stderr = np.sqrt((1 - r ** 2) * ssym / ssxm / df)
    return RateFit(slope=float(slope), intercept=float(intercept),
                   half_width=float(_t975(df) * stderr))


def _fit_or_degenerate(points) -> dict:
    try:
        return rate_fit(points).as_dict()
    except ValueError as exc:
        return {"slope": None, "intercept": None, "half_width": None,
                "degenerate": True, "reason": str(exc)}


# ---------------------------------------------------------------------------
# configuration and records
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    kind: str
    scheme: CutoffScheme
    model: ModelFunctions
    eps_ladder: tuple
    samples: int
    master_seed: int
    N: int
    M: int
    dt: float = 1e-3
    T: float = 0.1
    record_times: tuple | None = None      # None: (T,)
    blowup_cap: float = 1e6
    eps_ref: float = 1e-2
    norms: NormConfig = field(default_factory=NormConfig)
    alpha: float = 0.45
    times: tuple = (0.5,)
    scheme2: CutoffScheme | None = None
    initial_kind: str = "zero"
    initial_amplitude: float = 0.0
    initial_mode: int = 1
    conservation_form: bool = False

    def __post_init__(self):
        self.eps_ladder = tuple(float(e) for e in self.eps_ladder)
        if self.record_times is None:
            self.record_times = (self.T,)
        self.record_times = tuple(sorted(float(t) for t in self.record_times))
        self.times = tuple(sorted(float(t) for t in self.times))

    def initial_field(self) -> np.ndarray | None:
        """The initial data, modes 0..N (n, N+1): none for ``zero``, else
        amplitude * sin(k0 x) in component 0."""
        if self.initial_kind == "zero":
            return None
        if self.initial_kind == "sine":
            if not 1 <= self.initial_mode <= self.N:
                raise ValueError(f"initial mode must lie in 1..N = {self.N}, "
                                 f"not {self.initial_mode}")
            half = np.zeros((self.model.n, self.N + 1), dtype=complex)
            half[0, self.initial_mode] = -0.5j * self.initial_amplitude * SQRT_2PI
            return half
        raise ValueError(f"unknown initial kind {self.initial_kind!r}")

    def solver_config(self, eps: float, scheme: CutoffScheme | None = None,
                      Lambda: float = 0.0) -> SolverConfig:
        return SolverConfig(
            scheme=scheme or self.scheme, eps=eps, N=self.N, M=self.M,
            dt=self.dt, T=self.T, model=self.model, Lambda=Lambda,
            record_times=self.record_times, blowup_cap=self.blowup_cap,
            initial=self.initial_field(),
            conservation_form=self.conservation_form,
        )

    def config_hash(self) -> str:
        """Digest of every field (a scheme or the model by its describe())
        and of NOISE_VERSION: the file, the defaults its loader fills in, the
        seed and the kind all reach it."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload.update(norms=asdict(self.norms), noise_version=NOISE_VERSION)
        payload = json.dumps(payload, sort_keys=True, default=lambda obj: obj.describe())
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass
class RunRecord:
    kind: str
    config_hash: str
    master_seed: int
    per_sample: list
    aggregates: list
    fit: dict | None
    extras: dict
    wallclock: float

    def to_json(self, indent=2) -> str:
        return json.dumps({
            "kind": self.kind,
            "config_hash": self.config_hash,
            "master_seed": self.master_seed,
            "aggregates": self.aggregates,
            "fit": self.fit,
            "extras": self.extras,
            "wallclock_seconds": self.wallclock,
            "samples": len(self.per_sample),
        }, indent=indent, default=_json_default)

    def save(self, out_dir) -> None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "record.json"), "w") as fh:
            fh.write(self.to_json() + "\n")
        _write_csv(os.path.join(out_dir, "samples.csv"), self.per_sample)
        _write_csv(os.path.join(out_dir, "aggregates.csv"), self.aggregates)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serialisable: {type(obj)}")


def _write_csv(path, rows) -> None:
    keys = list(dict.fromkeys(k for row in rows for k in row))   # first-seen order
    with open(path, "w", newline="") as fh:
        if rows:
            writer = csv.DictWriter(fh, fieldnames=keys)
            writer.writeheader()
            writer.writerows({k: _csv_cell(row.get(k)) for k in keys} for row in rows)


def _csv_cell(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))        # full precision round trip
    return v


def sample_rng(master_seed: int, sample_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(master_seed),
                                spawn_key=(int(sample_index),))
    return np.random.Generator(np.random.PCG64(ss))


def mean_and_se(values) -> tuple:
    values = np.asarray([v for v in values if np.isfinite(v)], dtype=float)
    if len(values) == 0:
        return math.nan, math.nan, 0
    mean = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0
    return mean, se, len(values)


def _workers() -> int:
    value = os.environ.get("SCHEMELAB_WORKERS", "1")
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"SCHEMELAB_WORKERS must be a positive integer, not {value!r}")
    return workers


def _pool_map(fn, args):
    workers = _workers()
    if workers <= 1:
        return [fn(a) for a in args]
    # the serial path does not load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args))


# samples a chunk steps, or lifts, as one batch
CHUNK_SAMPLES = 8


def _chunks(samples: int) -> list:
    """Consecutive ranges of sample indices, CHUNK_SAMPLES long or shorter
    so that every worker gets at least one."""
    size = min(CHUNK_SAMPLES, -(-samples // _workers()))
    return [range(s, min(s + size, samples)) for s in range(0, samples, size)]


def _coupled_samples(cfg: ExperimentConfig, configs: list, samples) -> list:
    """The runs of ``configs`` for each sample of ``samples``, each sample's
    runs driven by its own noise stream, all stepped in one batch in
    sample-major order; one list of trajectories per sample."""
    streams = [NoiseStream(sample_rng(cfg.master_seed, s), configs[0].steps,
                           cfg.N, cfg.model.n) for s in samples]
    runs = simulate_coupled([c for _ in streams for c in configs],
                            [stream for stream in streams for _ in configs])
    k = len(configs)
    return [runs[i:i + k] for i in range(0, len(runs), k)]


# ---------------------------------------------------------------------------
# error metrics
# ---------------------------------------------------------------------------

def _positive_grids(traj: Trajectory, cfg: ExperimentConfig):
    """The recorded times t > 0 of ``traj`` and the grid values of its
    snapshots there, (len(times), n, M), moved in one batched transform."""
    keep = [i for i, t in enumerate(traj.times) if t > 0.0]
    half = np.array([traj.coeffs[i] for i in keep], dtype=complex)
    half = half.reshape(len(keep), cfg.model.n, cfg.N + 1)
    return [traj.times[i] for i in keep], Transform(cfg.N, cfg.M).to_grid(half)


def _differences(a, b):
    """The times two runs of one batch share, the common prefix of their
    recorded times (they share record_times), and the grid values of a - b
    there, (len(times), n, M), from their ``_positive_grids``."""
    (times, a_grid), (_, b_grid) = a, b
    k = min(len(a_grid), len(b_grid))
    return times[:k], a_grid[:k] - b_grid[:k]


def _gap(times, diffs, holder_gamma: float | None = None, stride: int = 4):
    """sup over ``_differences`` of the spatial sup norm, with an optional
    secondary Hoelder seminorm column, and the last shared time."""
    if not times:
        return math.nan, math.nan, math.nan
    sup_err = 0.0
    holder_err = 0.0
    for diff in diffs:
        sup_err = max(sup_err, float(np.abs(diff).max()))
        if holder_gamma is not None:
            holder_err = max(holder_err, holder_seminorm_estimate(diff, holder_gamma, stride))
    return sup_err, (holder_err if holder_gamma is not None else math.nan), times[-1]


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _converge_chunk(args):
    cfg, configs, samples = args
    rows = []
    for s, (ref, *runs) in zip(samples, _coupled_samples(cfg, configs, samples)):
        ref_grids = _positive_grids(ref, cfg)
        for eps, traj in zip(cfg.eps_ladder, runs):
            sup_err, holder_err, last = _gap(
                *_differences(_positive_grids(traj, cfg), ref_grids),
                holder_gamma=cfg.norms.alpha_tilde, stride=cfg.norms.stride)
            rows.append({
                "eps": eps, "sample": s, "sup_error": sup_err,
                "holder_error": holder_err, "last_common_time": last,
                "truncated": traj.truncation_time is not None,
                "ref_truncated": ref.truncation_time is not None,
            })
    return rows


def converge_experiment(cfg: ExperimentConfig) -> RunRecord:
    """Coupled-noise strong-error ladder against the corrected reference."""
    t0 = time.perf_counter()
    Lambda = lambda_exact(cfg.scheme).value
    ladder = [cfg.solver_config(eps) for eps in cfg.eps_ladder]
    configs = [reference_config(ladder[0], cfg.eps_ref, Lambda)] + ladder
    rows = [r for chunk in _pool_map(_converge_chunk, [
        (cfg, configs, samples) for samples in _chunks(cfg.samples)]) for r in chunk]
    aggregates = []
    for eps in cfg.eps_ladder:
        errs = [r["sup_error"] for r in rows if r["eps"] == eps]
        mean, se, nkept = mean_and_se(errs)
        truncated = sum(1 for r in rows if r["eps"] == eps and r["truncated"])
        if nkept == 0:
            raise ExperimentFailure(
                f"every sample at eps = {eps} truncated before the first "
                "recorded time")
        aggregates.append({"eps": eps, "mean": mean, "se": se, "n": nkept,
                           "truncated_fraction": truncated / cfg.samples})
    fit = _fit_or_degenerate([(a["eps"], a["mean"]) for a in aggregates])
    return RunRecord(
        kind="converge", config_hash=cfg.config_hash(),
        master_seed=cfg.master_seed, per_sample=rows, aggregates=aggregates,
        fit=fit, extras={"lambda": Lambda, "eps_ref": cfg.eps_ref},
        wallclock=time.perf_counter() - t0,
    )


def _correction_configs(cfg: ExperimentConfig, Lambda1: float) -> list:
    """Scheme 1, scheme 2 and scheme 2 with scheme 1's correction drift, at
    the finest ladder eps."""
    eps = min(cfg.eps_ladder)
    return [
        cfg.solver_config(eps),
        cfg.solver_config(eps, scheme=cfg.scheme2),
        cfg.solver_config(eps, scheme=cfg.scheme2, Lambda=Lambda1),
    ]


def _correction_chunk(args):
    cfg, configs, samples = args
    rows = []
    for s, runs in zip(samples, _coupled_samples(cfg, configs, samples)):
        run1, run2, run2c = (_positive_grids(r, cfg) for r in runs)
        times, diffs = _differences(run1, run2)
        gap_a, _, _ = _gap(times, diffs)
        gap_b, _, _ = _gap(*_differences(run1, run2c))
        signed = float(diffs[-1].mean()) if times else math.nan
        rows.append({"eps": configs[0].eps, "sample": s, "gap_uncorrected": gap_a,
                     "gap_corrected": gap_b, "signed_mean_gap": signed})
    return rows


def correction_experiment(cfg: ExperimentConfig) -> RunRecord:
    """Paired-seed detection of the correction term.

    Measures, at the finest ladder eps, the gap between the scheme-1 run and
    (a) the plain scheme-2 run, (b) the scheme-2 run carrying the explicit
    correction drift of scheme 1, and reports the ratio (a)/(b).
    """
    if cfg.scheme2 is None:
        raise ValueError("correction experiment needs two schemes")
    t0 = time.perf_counter()
    Lambda1 = lambda_exact(cfg.scheme).value
    configs = _correction_configs(cfg, Lambda1)
    rows = [r for chunk in _pool_map(_correction_chunk, [
        (cfg, configs, samples) for samples in _chunks(cfg.samples)]) for r in chunk]
    mean_a, se_a, n_a = mean_and_se([r["gap_uncorrected"] for r in rows])
    mean_b, se_b, n_b = mean_and_se([r["gap_corrected"] for r in rows])
    if n_a == 0 or n_b == 0:
        raise ExperimentFailure("every sample truncated before the first "
                                "recorded time")
    if mean_a < 1e-15 and mean_b < 1e-15:
        ratio = 1.0                       # identical runs on both sides
    else:
        ratio = mean_a / mean_b
    signed_mean, signed_se, _ = mean_and_se([r["signed_mean_gap"] for r in rows])
    aggregates = [
        {"quantity": "gap_uncorrected", "mean": mean_a, "se": se_a, "n": n_a},
        {"quantity": "gap_corrected", "mean": mean_b, "se": se_b, "n": n_b},
    ]
    return RunRecord(
        kind="correction", config_hash=cfg.config_hash(),
        master_seed=cfg.master_seed, per_sample=rows, aggregates=aggregates,
        fit=None,
        extras={"lambda1": Lambda1, "ratio": ratio,
                "signed_mean_gap": signed_mean, "signed_mean_gap_se": signed_se},
        wallclock=time.perf_counter() - t0,
    )


def _chunk_lifts(cfg: ExperimentConfig, plans: list, samples, times):
    """(t, i, lift) for each of ``times`` in turn and each of ``plans``: one
    lift of the reference fields of all ``samples`` at plan i's eps.  Every
    eps evolves from the same increments, drawn once per time from each
    sample's own generator."""
    rngs = [sample_rng(cfg.master_seed, s) for s in samples]
    states = [np.zeros((len(rngs), cfg.N + 1, cfg.model.n), dtype=complex) for _ in plans]
    prev = 0.0
    for t in times:
        increments = np.stack([draw_increments(rng, cfg.N, cfg.model.n) for rng in rngs])
        for i, plan in enumerate(plans):
            states[i] = evolve_modes(plan, states[i], t - prev, increments)
            yield t, i, lift_XX(plan, states[i])
        prev = t


def _fluctuation_chunk(args):
    """The rows of ``samples``, one list per plan's eps."""
    cfg, plans, centers, samples = args
    best = [[0.0] * len(samples) for _ in plans]
    for t, i, lift in _chunk_lifts(cfg, plans, samples, cfg.times):
        stats = fluctuation_statistic(lift, cfg.alpha, centers[plans[i].eps, t])
        # max(b, nan) is b: a NaN at any time makes the sample's statistic NaN
        best[i] = [stat if math.isnan(stat) else max(b, stat) for b, stat in zip(best[i], stats)]
        del lift                                  # before the next lift is made
    return [[{"eps": plan.eps, "sample": s, "statistic": b} for s, b in zip(samples, row)]
            for plan, row in zip(plans, best)]


def fluctuation_experiment(cfg: ExperimentConfig) -> RunRecord:
    """Decay of the centred scaled second-order average in H^{-alpha}.

    Monte-Carlo estimate of E[sup over recorded t of the fluctuation
    statistic] per ladder eps, with a log-log slope fit, plus a
    deterministic table of |Lambda_eps(t) - Lambda| over the (eps, t) grid.
    """
    t0 = time.perf_counter()
    table = lambda_decay_table(cfg)
    # the statistic's centring constant Lambda_eps(t), the table's, per (eps, t)
    centers = {(row["eps"], row["t"]): row["lambda_eps"] for row in table["rows"]}
    plans = [LiftPlan(cfg.scheme, eps, cfg.N, cfg.M) for eps in cfg.eps_ladder]
    chunks = _pool_map(_fluctuation_chunk, [
        (cfg, plans, centers, samples) for samples in _chunks(cfg.samples)])
    rows = [r for per_eps in zip(*chunks) for chunk in per_eps for r in chunk]
    aggregates = []
    for eps in cfg.eps_ladder:
        mean, se, nkept = mean_and_se([r["statistic"] for r in rows
                                       if r["eps"] == eps])
        aggregates.append({"eps": eps, "mean": mean, "se": se, "n": nkept})
    fit = _fit_or_degenerate([(a["eps"], a["mean"]) for a in aggregates])
    return RunRecord(
        kind="fluctuation", config_hash=cfg.config_hash(),
        master_seed=cfg.master_seed, per_sample=rows, aggregates=aggregates,
        fit=fit, extras={"lambda_decay": table}, wallclock=time.perf_counter() - t0,
    )


def lambda_decay_table(cfg: ExperimentConfig) -> dict:
    """Deterministic table of Lambda_eps(t) against Lambda with per-t slopes."""
    result = lambda_exact(cfg.scheme)
    rows = []
    for eps in cfg.eps_ladder:
        tail = lambda_z_tail_bound(cfg.scheme, eps, cfg.N)
        for t in cfg.times:
            le = lambda_eps(cfg.scheme, eps, t, cfg.N)
            rows.append({"eps": eps, "t": t, "lambda_eps": le,
                         "gap": abs(le - result.value),
                         "truncation_tail_bound": tail})
    slopes = {}
    for t in cfg.times:
        pts = [(r["eps"], r["gap"]) for r in rows
               if r["t"] == t and r["gap"] > 0]
        slopes[str(t)] = _fit_or_degenerate(pts)
    return {"lambda": result.value, "lambda_error": result.error_estimate,
            "rows": rows, "slopes_by_t": slopes}


def _lift_chunk(args):
    """The rows of ``samples``: one lift of their reference fields at t."""
    cfg, plan, t, center, samples = args
    (_, _, lift), = _chunk_lifts(cfg, [plan], samples, (t,))
    dxx = d_eps_xx(lift)
    stats = fluctuation_statistic(lift, cfg.alpha, center, dxx)
    return [{"eps": plan.eps, "t": t, "sample": s, "statistic": stat,
             "dxx_trace_mean": float(np.trace(values.mean(axis=0)) / cfg.model.n)}
            for s, stat, values in zip(samples, stats, dxx.values)]


def lift_experiment(cfg: ExperimentConfig) -> RunRecord:
    """Per-sample lift statistics at a single (eps, t), one lift per chunk."""
    t0 = time.perf_counter()
    eps = cfg.eps_ladder[0]
    t = cfg.times[-1]
    center = lambda_eps(cfg.scheme, eps, t, cfg.N)
    plan = LiftPlan(cfg.scheme, eps, cfg.N, cfg.M)
    rows = [r for chunk in _pool_map(_lift_chunk, [
        (cfg, plan, t, center, samples) for samples in _chunks(cfg.samples)]) for r in chunk]
    mean, se, nkept = mean_and_se([r["statistic"] for r in rows])
    tr_mean, tr_se, _ = mean_and_se([r["dxx_trace_mean"] for r in rows])
    aggregates = [{"eps": eps, "mean": mean, "se": se, "n": nkept,
                   "dxx_trace_mean": tr_mean, "dxx_trace_se": tr_se,
                   "lambda_eps": center}]
    return RunRecord(
        kind="lift", config_hash=cfg.config_hash(),
        master_seed=cfg.master_seed, per_sample=rows, aggregates=aggregates,
        fit=None, extras={}, wallclock=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# post-hoc diagnostics on frozen trajectories
# ---------------------------------------------------------------------------

def _left_rule(traj: Trajectory, config: SolverConfig, integrand) -> np.ndarray:
    """Grid values (n, M) of the left-rule time integral over the recorded
    times of S_eps(t_final - s) g(s), where integrand(transform, i) gives the
    grid values of g at time i."""
    transform = Transform(config.N, config.M)
    t_final = traj.times[-1]
    lap = laplacian_multiplier(config.scheme, np.arange(config.N + 1), config.eps)
    acc = np.zeros((config.model.n, config.N + 1), dtype=complex)
    for i in range(len(traj.times) - 1):
        s = traj.times[i]
        dt_rec = traj.times[i + 1] - s
        acc += (dt_rec * np.exp(lap * (t_final - s))
                * transform.to_coeffs(integrand(transform, i)))
    return transform.to_grid(acc)


def upsilon_diagnostic(traj: Trajectory, config: SolverConfig,
                       reference: Trajectory) -> np.ndarray:
    """Extra second-order term accumulated along a frozen trajectory.

    Left-rule time integral over the recorded times of
    S_eps(t_final - s) [ DG(u) u' (D_eps XX) u' ](s) with u' = theta(u),
    with X read from ``reference.coeffs``.  ``reference`` is the run, on the
    noise that drove ``traj``, of ``config`` with ``model`` replaced by the
    linear model (F = G = 0, theta = Id declared as ``theta_constant``; for
    n = 1 ``make_model(1, G="zero", theta="one")``), Lambda = 0, zero
    initial data and no conservation form; its times begin with traj's.
    """
    if reference.times[:len(traj.times)] != traj.times:
        raise ValueError("reference times do not begin with the trajectory's")
    model = config.model
    plan = LiftPlan(config.scheme, config.eps, config.N, config.M)

    def integrand(transform, i):
        u_grid = transform.to_grid(traj.coeffs[i])
        theta = model.theta(u_grid)
        DG = model.DG(u_grid)
        lift = lift_XX(plan, state_from_coeffs(plan, reference.coeffs[i]))
        D = d_eps_xx(lift).values                           # (M, n, n)
        return np.einsum("dijm,dlm,mlk,jkm->im", DG, theta, D, theta)

    return _left_rule(traj, config, integrand)


def xi_diagnostic(traj: Trajectory, config: SolverConfig,
                  reference: Trajectory) -> np.ndarray:
    """Corrected nonlinear term along a frozen trajectory: the left-rule
    accumulation of S_eps(t_final - s)[G(u) D_eps u](s) plus the
    second-order extra term ``upsilon_diagnostic`` (X from ``reference``)."""
    model = config.model
    extra = upsilon_diagnostic(traj, config, reference)
    dmult = derivative_multiplier(config.scheme, np.arange(config.N + 1), config.eps)

    def integrand(transform, i):
        u_hat = traj.coeffs[i]
        u_grid, de_u = transform.to_grid(np.stack([u_hat, u_hat * dmult]))
        return np.einsum("ij...,j...->i...", model.G(u_grid), de_u)

    return _left_rule(traj, config, integrand) + extra
