"""Correctness checks on one round's outputs.

Every check compares against a closed form, a mode sum computed here from
the defining formula, or a property the method must have; none compares
against stored output.  Each ``check_<workload>(record, rows)`` takes the
parsed ``record.json`` and the rows of ``samples.csv`` and returns a list
of failure messages, empty when the round is correct.
"""

from __future__ import annotations

import csv
import json
import math
import os

# atoms (z, w) of the forward-difference measure mu = delta_1 - delta_0
FORWARD_DIFFERENCE = ((1.0, 1.0), (0.0, -1.0))
REL_TOL = 1e-12


def _close(a, b, rel=REL_TOL, abs_tol=1e-300):
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=abs_tol)


def _mean_se(values):
    n = len(values)
    mean = math.fsum(values) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var) / math.sqrt(n)


def _recompute(aggregates, values_of, label):
    """Compare each aggregate's n, mean and se with the rows it summarises;
    ``values_of(aggregate)`` picks those rows' values."""
    errors = []
    for agg in aggregates:
        values = values_of(agg)
        mean, se = _mean_se(values)
        if len(values) != agg["n"] or not (
                _close(mean, agg["mean"]) and _close(se, agg["se"], abs_tol=1e-15)):
            errors.append(f"{label(agg)}: record n/mean/se {agg['n']}/{agg['mean']!r}/"
                          f"{agg['se']!r}, samples.csv gives "
                          f"{len(values)}/{mean!r}/{se!r}")
    return errors


def _by_eps(rows, column):
    return lambda agg: [float(r[column]) for r in rows if float(r["eps"]) == agg["eps"]]


def lambda_flat(atoms, nu=1.0):
    """Lambda for f = h = 1: (1/(4 nu)) int |y| mu(dy)."""
    return math.fsum(w * abs(z) for z, w in atoms) / (4.0 * nu)


def lambda_indicator_forward():
    """Lambda of forward difference with h = 1_{|x| <= 1}, f = 1:
    (1/2pi) int_0^1 (1 - cos t)/t^2 dt = (Si(1) - 1 + cos 1)/(2 pi)."""
    from scipy.special import sici

    si1, _ci1 = sici(1.0)
    return (float(si1) - 1.0 + math.cos(1.0)) / (2.0 * math.pi)


def lambda_eps_flat(atoms, eps, t, N):
    """Lambda_eps(t) for f = h = 1 from its defining mode sum:
    sum_a w_a (2/eps) sum_{k=1}^N (1/(4 pi k^2)) (1 - e^{-2 k^2 t}) (1 - cos(k eps z_a))."""
    total = []
    for z, w in atoms:
        if z == 0.0 or w == 0.0:
            continue
        terms = [(1.0 - math.exp(-2.0 * k * k * t)) * (1.0 - math.cos(k * eps * z))
                 / (4.0 * math.pi * k * k) for k in range(1, N + 1)]
        total.append(w * 2.0 * math.fsum(terms) / eps)
    return math.fsum(total)


def check_correction(record, rows):
    errors = []
    extras = record["extras"]
    want = lambda_flat(FORWARD_DIFFERENCE)
    if abs(extras["lambda1"] - want) > 1e-6:
        errors.append(f"lambda1 = {extras['lambda1']!r}, closed form {want!r}")
    if not extras["ratio"] >= 2.0:
        errors.append(f"gap ratio {extras['ratio']!r} < 2")
    if not extras["signed_mean_gap"] < 0.0:
        errors.append(f"signed mean gap {extras['signed_mean_gap']!r} is not "
                      "negative (the sign of -Lambda)")
    aggs = record["aggregates"]
    errors += _recompute(aggs, lambda agg: [float(r[agg["quantity"]]) for r in rows],
                         lambda agg: agg["quantity"])
    means = {agg["quantity"]: agg["mean"] for agg in aggs}
    ratio = means["gap_uncorrected"] / means["gap_corrected"]
    if not _close(ratio, extras["ratio"]):
        errors.append(f"ratio {extras['ratio']!r} is not the ratio of the "
                      f"gap means {ratio!r}")
    signed, _ = _mean_se([float(r["signed_mean_gap"]) for r in rows])
    if not _close(signed, extras["signed_mean_gap"]):
        errors.append(f"signed mean gap {extras['signed_mean_gap']!r}, "
                      f"samples.csv gives {signed!r}")
    return errors


def check_converge(record, rows):
    errors = []
    want = lambda_indicator_forward()
    if abs(record["extras"]["lambda"] - want) > 1e-9:
        errors.append(f"lambda = {record['extras']['lambda']!r}, closed form {want!r}")
    means = [a["mean"] for a in record["aggregates"]]
    if not all(b < a for a, b in zip(means, means[1:])):
        errors.append(f"rung means {means} do not strictly decrease")
    slope = record["fit"]["slope"]
    if slope is None or not slope > 0.0:
        errors.append(f"fitted slope {slope!r} is not > 0")
    for agg in record["aggregates"]:
        if agg["truncated_fraction"] != 0:
            errors.append(f"eps {agg['eps']}: truncated fraction "
                          f"{agg['truncated_fraction']!r}")
    errors += _recompute(record["aggregates"], _by_eps(rows, "sup_error"),
                         lambda agg: f"eps {agg['eps']}")
    return errors


def check_fluctuation(record, rows, N):
    errors = []
    slope = record["fit"]["slope"]
    if slope is None or not 0.25 <= slope <= 0.65:
        errors.append(f"fitted slope {slope!r} outside [0.25, 0.65]")
    decay = record["extras"]["lambda_decay"]
    want = lambda_flat(FORWARD_DIFFERENCE)
    if abs(decay["lambda"] - want) > 1e-6:
        errors.append(f"lambda = {decay['lambda']!r}, closed form {want!r}")
    for row in decay["rows"]:
        own = lambda_eps_flat(FORWARD_DIFFERENCE, row["eps"], row["t"], N)
        if not _close(row["lambda_eps"], own):
            errors.append(f"lambda_eps(eps={row['eps']}, t={row['t']}) = "
                          f"{row['lambda_eps']!r}, mode sum gives {own!r}")
    errors += _recompute(record["aggregates"], _by_eps(rows, "statistic"),
                         lambda agg: f"eps {agg['eps']}")
    return errors


def check_round(command, out_dir, config) -> list:
    """Run the workload's checks on the files one CLI call wrote."""
    with open(os.path.join(out_dir, "record.json")) as fh:
        record = json.load(fh)
    with open(os.path.join(out_dir, "samples.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    if command == "correction":
        return check_correction(record, rows)
    if command == "converge":
        return check_converge(record, rows)
    return check_fluctuation(record, rows, config["solver"]["N"])
