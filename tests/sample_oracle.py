"""The per-sample experiment path, kept only to check the chunked one against.

Before chunking, ``converge_experiment`` and ``correction_experiment``
mapped one sample at a time over the worker pool: each sample streamed its
own noise and stepped its 5 or 3 coupled runs in a batch of their own,
building its reference and correction drifts afresh.  Tests compare the
chunked experiments' rows with these, bit for bit.
"""

from __future__ import annotations

import math

from schemelab.experiments import (
    _common_positive_times,
    _trajectory_gap,
    sample_rng,
)
from schemelab.solver import (
    NoiseStream,
    make_correction_drift,
    reference_config,
    simulate_coupled,
)


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
    drift = make_correction_drift(cfg.model, Lambda1)
    run1, run2, run2c = simulate_coupled([
        cfg.solver_config(eps),
        cfg.solver_config(eps, scheme=cfg.scheme2),
        cfg.solver_config(eps, scheme=cfg.scheme2, extra_drift=drift,
                          extra_drift_label=f"correction:{Lambda1!r}"),
    ], inc)
    gap_a, _, _ = _trajectory_gap(run1, run2, cfg.M, cfg.T)
    gap_b, _, _ = _trajectory_gap(run1, run2c, cfg.M, cfg.T)
    shared = _common_positive_times(run1, run2, cfg.T)
    signed = math.nan
    if shared:
        ia, jb, _t = shared[-1]
        signed = float((run1.grid(ia, cfg.M).values
                        - run2.grid(jb, cfg.M).values).mean())
    return {"eps": eps, "sample": s, "gap_uncorrected": gap_a,
            "gap_corrected": gap_b, "signed_mean_gap": signed}
