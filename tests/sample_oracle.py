"""The per-sample experiment path, kept only to check the chunked one against.

Before chunking, ``converge_experiment`` and ``correction_experiment``
mapped one sample at a time over the worker pool: each sample streamed its
own noise and stepped its 5 or 3 coupled runs in a batch of their own,
building its reference and correction drifts afresh.  It keeps its own
copy of the gap metrics as they were before each run's snapshots went to
the grid in one batched transform: snapshots matched by rounded time inside
the common survival window, and moved to the grid once per pair of runs.
Tests compare the chunked experiments' rows with these, bit for bit.

Before one chunk made one pass over the whole eps ladder,
``fluctuation_experiment`` mapped (eps, chunk) pairs over the pool: each
pair drew its chunk's increments from fresh generators, lifted by a plan of
its own and summed the statistic one sample and one matrix entry at a time
through ``sobolev_minus_alpha_norm``.  ``fluctuation_rows`` is that path.
"""

from __future__ import annotations

import math

import numpy as np

from schemelab.correction import lambda_eps
from schemelab.experiments import _chunks, sample_rng
from schemelab.lift import LiftPlan, d_eps_xx, draw_increments, evolve_modes, lift_XX
from schemelab.solver import (
    NoiseStream,
    Trajectory,
    reference_config,
    simulate_coupled,
)
from schemelab.spectral import SQRT_2PI, holder_seminorm_estimate, sobolev_minus_alpha_norm


# -- the gap metrics ------------------------------------------------------------

def _common_positive_times(a: Trajectory, b: Trajectory, T: float):
    """Recorded times shared by both runs inside the common survival window."""
    horizon = min(a.truncation_time or T, b.truncation_time or T)
    ta = {round(t, 12): i for i, t in enumerate(a.times)}
    out = []
    for jb, t in enumerate(b.times):
        key = round(t, 12)
        if key in ta and 0.0 < t <= horizon + 1e-12:
            out.append((ta[key], jb, t))
    return out


def _differences(a: Trajectory, b: Trajectory, M: int, T: float) -> list:
    """(t, grid values of a - b) at each recorded time the runs share inside
    their common survival window."""
    return [(t, a.grid(ia, M) - b.grid(jb, M))
            for ia, jb, t in _common_positive_times(a, b, T)]


def _gap(diffs: list, holder_gamma: float | None = None, stride: int = 4):
    """sup over ``_differences`` of the spatial sup norm, with an optional
    secondary Hoelder seminorm column, and the last shared time."""
    if not diffs:
        return math.nan, math.nan, math.nan
    sup_err = 0.0
    holder_err = 0.0
    for _t, diff in diffs:
        sup_err = max(sup_err, float(np.abs(diff).max()))
        if holder_gamma is not None:
            holder_err = max(holder_err, holder_seminorm_estimate(diff, holder_gamma, stride))
    return sup_err, (holder_err if holder_gamma is not None else math.nan), diffs[-1][0]


def _trajectory_gap(a: Trajectory, b: Trajectory, M: int, T: float,
                    holder_gamma: float | None = None,
                    stride: int = 4):
    """sup over common recorded times of the spatial sup norm of a - b,
    with an optional secondary Hoelder seminorm column."""
    return _gap(_differences(a, b, M, T), holder_gamma, stride)


# -- one batch per sample ------------------------------------------------------


def converge_rows(cfg, Lambda, s):
    """The rows of sample ``s`` of ``converge_experiment``."""
    rng = sample_rng(cfg.master_seed, s)
    ladder = [cfg.solver_config(eps) for eps in cfg.eps_ladder]
    inc = NoiseStream(rng, ladder[0].steps, cfg.N, cfg.model.n)
    ref, *runs = simulate_coupled(
        [reference_config(ladder[0], cfg.eps_ref, Lambda)] + ladder, inc)
    rows = []
    for eps, traj in zip(cfg.eps_ladder, runs):
        sup_err, holder_err, last = _trajectory_gap(
            traj, ref, cfg.M, cfg.T,
            holder_gamma=cfg.norms.alpha_tilde, stride=cfg.norms.stride)
        rows.append({
            "eps": eps, "sample": s, "sup_error": sup_err,
            "holder_error": holder_err, "last_common_time": last,
            "truncated": traj.truncation_time is not None,
            "ref_truncated": ref.truncation_time is not None,
        })
    return rows


def correction_row(cfg, Lambda1, s):
    """The row of sample ``s`` of ``correction_experiment``."""
    eps = min(cfg.eps_ladder)
    rng = sample_rng(cfg.master_seed, s)
    inc = NoiseStream(rng, cfg.solver_config(eps).steps, cfg.N, cfg.model.n)
    run1, run2, run2c = simulate_coupled([
        cfg.solver_config(eps),
        cfg.solver_config(eps, scheme=cfg.scheme2),
        cfg.solver_config(eps, scheme=cfg.scheme2, Lambda=Lambda1),
    ], inc)
    gap_a, _, _ = _trajectory_gap(run1, run2, cfg.M, cfg.T)
    gap_b, _, _ = _trajectory_gap(run1, run2c, cfg.M, cfg.T)
    shared = _common_positive_times(run1, run2, cfg.T)
    signed = math.nan
    if shared:
        ia, jb, _t = shared[-1]
        signed = float((run1.grid(ia, cfg.M) - run2.grid(jb, cfg.M)).mean())
    return {"eps": eps, "sample": s, "gap_uncorrected": gap_a,
            "gap_corrected": gap_b, "signed_mean_gap": signed}


# -- one (eps, chunk) pair at a time ---------------------------------------------

def _statistics(lift, cfg, center):
    """The fluctuation statistic of each sample of a chunk's lift, one
    matrix entry at a time."""
    coeffs = d_eps_xx(lift).coeffs.copy()
    n = cfg.model.n
    coeffs[..., range(n), range(n), 0] -= center
    stats = []
    for c in coeffs:
        entries = (SQRT_2PI * c[i, j] for i in range(n) for j in range(n))
        stats.append(float(np.sqrt(sum(sobolev_minus_alpha_norm(e, cfg.alpha) ** 2
                                       for e in entries))))
    return stats


def fluctuation_rows(cfg):
    """The rows of ``fluctuation_experiment``, eps by eps, chunk by chunk."""
    rows = []
    for eps in cfg.eps_ladder:
        for samples in _chunks(cfg.samples):
            rngs = [sample_rng(cfg.master_seed, s) for s in samples]
            plan = LiftPlan(cfg.scheme, eps, cfg.N, cfg.M)
            xi = np.zeros((len(rngs), cfg.N + 1, cfg.model.n), dtype=complex)
            best, prev = [0.0] * len(samples), 0.0
            for t in cfg.times:
                increments = np.stack([draw_increments(rng, cfg.N, cfg.model.n) for rng in rngs])
                xi, prev = evolve_modes(plan, xi, t - prev, increments), t
                stats = _statistics(lift_XX(plan, xi), cfg, lambda_eps(cfg.scheme, eps, t, cfg.N))
                best = [stat if math.isnan(stat) else max(b, stat) for b, stat in zip(best, stats)]
            rows += [{"eps": eps, "sample": s, "statistic": b} for s, b in zip(samples, best)]
    return rows
