import csv
import dataclasses
import json
import math
import os

import numpy as np
import pytest

from schemelab.correction import lambda_eps
from schemelab.experiments import (
    ExperimentConfig,
    ExperimentFailure,
    RunRecord,
    _T975,
    _chunks,
    converge_experiment,
    correction_experiment,
    fluctuation_experiment,
    lambda_decay_table,
    lift_experiment,
    mean_and_se,
    rate_fit,
    sample_rng,
    upsilon_diagnostic,
    xi_diagnostic,
)
from schemelab.models import make_model
from schemelab.schemes import make_scheme
from schemelab.solver import SolverConfig, simulate
from schemelab.spectral import NormConfig


def small_cfg(kind, **overrides):
    base = dict(
        kind=kind,
        scheme=make_scheme("forward_difference"),
        scheme2=make_scheme("central_difference"),
        model=make_model(1, G="state", theta="one"),
        eps_ladder=(0.25, 0.125, 0.0625),
        samples=4,
        master_seed=99,
        N=16,
        M=64,
        dt=1e-3,
        T=0.05,
        record_times=(0.025, 0.05),
        eps_ref=0.01,
        norms=NormConfig(stride=8),
        alpha=0.45,
        times=(0.3,),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRateFit:
    def test_exact_power_law(self):
        eps = [0.5, 0.25, 0.125, 0.0625]
        fit = rate_fit([(e, e ** 0.5) for e in eps])
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.half_width == pytest.approx(0.0, abs=1e-10)

    def test_constant_values(self):
        fit = rate_fit([(e, 3.0) for e in (0.5, 0.25, 0.125)])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert math.isnan(fit.half_width)               # r is 0 / 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rate_fit([(0.5, 1.0), (0.25, -1.0), (0.125, 0.5)])

    def test_rejects_few_points(self):
        with pytest.raises(ValueError):
            rate_fit([(0.5, 1.0), (0.25, 0.5)])

    def test_rejects_degenerate_eps(self):
        with pytest.raises(ValueError):
            rate_fit([(0.5, 1.0), (0.5, 0.9), (0.5, 1.1)])

    @staticmethod
    def _oracle(points):
        """The fit as scipy.stats computes it: linregress and t.ppf."""
        from scipy import stats

        x = np.log([float(e) for e, _ in points])
        y = np.log([float(v) for _, v in points])
        res = stats.linregress(x, y)
        return res.slope, res.intercept, stats.t.ppf(0.975, len(points) - 2) * res.stderr

    @staticmethod
    def _bits(value):
        return "nan" if math.isnan(value) else float(value).hex()

    def test_matches_scipy_stats_bit_for_bit(self):
        rng = np.random.default_rng(20261019)
        eps = [0.5, 0.25, 0.125, 0.0625]
        series = [[(e, e ** 0.5) for e in eps], [(e, 3.0) for e in eps[:3]]]
        for _ in range(240):
            n = int(rng.integers(3, 8))
            e = np.exp(-rng.uniform(0.0, 7.0, n))
            if rng.random() < 0.2:
                e[1] = e[0]                     # a repeated eps, not all equal
            rate = rng.uniform(-1.0, 1.5)
            scale = rng.choice([0.0, 1e-12, 0.05, 1.0])
            series.append(list(zip(e, e ** rate * np.exp(scale * rng.standard_normal(n)))))
        mismatches = []
        for points in series:
            fit = rate_fit(points)
            got = [self._bits(v) for v in (fit.slope, fit.intercept, fit.half_width)]
            want = [self._bits(v) for v in self._oracle(points)]
            if got != want:
                mismatches.append((points, got, want))
        assert not mismatches, mismatches[:3]

    def test_t_table_is_scipy_stdtrit_bit_for_bit(self):
        import scipy
        from scipy.special import stdtrit

        assert len(_T975) == 30
        changed = [df for df in range(1, 31)
                   if float(stdtrit(df, 0.975)).hex() != _T975[df - 1].hex()]
        assert not changed, (
            f"scipy {scipy.__version__} gives other t quantiles for df = {changed}; "
            "regenerate experiments._T975 from stdtrit(df, 0.975).hex()")

    def test_past_the_table_matches_scipy_stats_bit_for_bit(self):
        # 33 points: df = 31, which takes scipy.special.stdtrit, not the table
        rng = np.random.default_rng(31)
        e = np.exp(-rng.uniform(0.0, 7.0, 33))
        points = list(zip(e, e ** 0.4 * np.exp(0.05 * rng.standard_normal(33))))
        fit = rate_fit(points)
        assert [self._bits(v) for v in (fit.slope, fit.intercept, fit.half_width)] == [
            self._bits(v) for v in self._oracle(points)]

    def test_noisy_sixth_root_calibration(self):
        rng = np.random.default_rng(123)
        eps = np.array([0.5, 0.25, 0.125, 0.0625, 0.03125])
        slopes = []
        for _ in range(40):
            vals = eps ** (1.0 / 6.0) * np.exp(0.1 * rng.standard_normal(5))
            slopes.append(rate_fit(list(zip(eps, vals))).slope)
        # individual fits stay in the calibration band most of the time
        inside = sum(0.05 <= s <= 0.30 for s in slopes)
        assert inside >= 35


class TestConvergeExperiment:
    def test_linear_additive_slope_positive(self):
        # with G = 0 the eps-dependence comes from the multipliers alone, so
        # the Laplacian cut-off must actually vary: f = 1 + x^2
        from schemelab.schemes import make_function

        scheme = make_scheme("forward_difference",
                             f=make_function("one_plus_sq"), c_f=0.5)
        cfg = small_cfg("converge", scheme=scheme,
                        model=make_model(1, G="zero", theta="one"),
                        samples=6)
        record = converge_experiment(cfg)
        assert record.fit["slope"] > 0
        means = [a["mean"] for a in record.aggregates]
        assert means[0] > means[-1]

    def test_single_eps_degenerate_fit(self):
        cfg = small_cfg("converge", eps_ladder=(0.25,), samples=2)
        record = converge_experiment(cfg)
        assert record.fit["degenerate"]

    def test_reproducibility_bitwise(self):
        cfg = small_cfg("converge", samples=3)
        r1 = converge_experiment(cfg)
        r2 = converge_experiment(cfg)
        for a, b in zip(r1.per_sample, r2.per_sample):
            assert a == b

    def test_aggregates_recomputable_from_csv(self, tmp_path):
        cfg = small_cfg("converge", samples=3)
        record = converge_experiment(cfg)
        record.save(tmp_path)
        with open(tmp_path / "samples.csv") as fh:
            rows = list(csv.DictReader(fh))
        for agg in record.aggregates:
            vals = [float(r["sup_error"]) for r in rows
                    if float(r["eps"]) == agg["eps"]]
            mean, se, n = mean_and_se(vals)
            assert mean == pytest.approx(agg["mean"], abs=1e-12)
            assert se == pytest.approx(agg["se"], abs=1e-12)

    def test_record_json_round_trip(self, tmp_path):
        cfg = small_cfg("converge", samples=2)
        record = converge_experiment(cfg)
        record.save(tmp_path)
        payload = json.loads((tmp_path / "record.json").read_text())
        assert payload["kind"] == "converge"
        assert payload["samples"] == len(record.per_sample)

    def test_record_times_default_to_the_final_time(self):
        # a config built in code without record_times records at T, as a
        # config file without the key does; an empty default read as
        # "every sample truncated" once
        from schemelab.config import parse_config

        cfg = ExperimentConfig(kind="converge", scheme=make_scheme("forward_difference"),
                               model=make_model(1, G="state", theta="one"), eps_ladder=(0.5,),
                               samples=1, master_seed=3, N=8, M=32, T=0.01)
        loaded = parse_config({"version": 1, "kind": "converge", "seed": 3,
                               "scheme": {"name": "forward_difference"},
                               "model": {"G": "state"}, "experiment": {"eps_ladder": [0.5]},
                               "solver": {"N": 8, "M": 32, "T": 0.01}})
        assert cfg.record_times == loaded.record_times == (0.01,)
        assert cfg.config_hash() == loaded.config_hash()
        record = converge_experiment(cfg)
        assert [a["truncated_fraction"] for a in record.aggregates] == [0.0]
        assert [r["last_common_time"] for r in record.per_sample] == [0.01]

    def test_split_half_independence(self):
        cfg = small_cfg("converge", samples=8, eps_ladder=(0.25,))
        record = converge_experiment(cfg)
        errs = [r["sup_error"] for r in record.per_sample]
        first, second = errs[:4], errs[4:]
        assert len(set(errs)) == len(errs)          # samples genuinely differ
        m1, se1, _ = mean_and_se(first)
        m2, se2, _ = mean_and_se(second)
        assert abs(m1 - m2) <= 6 * math.hypot(se1, se2)


class TestCorrectionExperiment:
    def test_identical_schemes_ratio_one(self):
        cfg = small_cfg("correction",
                        scheme=make_scheme("central_difference"),
                        scheme2=make_scheme("central_difference"),
                        samples=2, eps_ladder=(0.0625,))
        record = correction_experiment(cfg)
        assert record.extras["ratio"] == pytest.approx(1.0)

    def test_sign_flip_between_forward_and_backward(self):
        common = dict(samples=3, eps_ladder=(0.0625,), N=32, M=128,
                      dt=5e-4, T=0.1, record_times=(0.05, 0.1))
        fw = small_cfg("correction", **common)
        bw = small_cfg("correction",
                       scheme=make_scheme("backward_difference"), **common)
        r_fw = correction_experiment(fw)
        r_bw = correction_experiment(bw)
        assert r_fw.extras["signed_mean_gap"] < 0 < r_bw.extras["signed_mean_gap"]

    def test_requires_second_scheme(self):
        cfg = small_cfg("correction", scheme2=None)
        with pytest.raises(ValueError):
            correction_experiment(cfg)


class TestFluctuationExperiment:
    def test_central_branch_runs_and_fits(self):
        cfg = small_cfg("fluctuation",
                        scheme=make_scheme("central_difference"),
                        samples=5, eps_ladder=(0.25, 0.125, 0.0625),
                        N=24, M=96, times=(0.3,))
        record = fluctuation_experiment(cfg)
        assert record.fit["slope"] is not None
        assert all(a["mean"] > 0 for a in record.aggregates)

    def test_lambda_decay_table_contents(self):
        cfg = small_cfg("lambda-table", N=2048,
                        eps_ladder=(0.25, 0.125, 0.0625, 0.03125),
                        times=(0.5,))
        table = lambda_decay_table(cfg)
        assert table["lambda"] == pytest.approx(0.25, abs=1e-6)
        gaps = [r["gap"] for r in table["rows"]]
        assert gaps[0] > gaps[-1]
        assert table["slopes_by_t"]["0.5"]["slope"] > 0.3

    def test_centring_constant_once_per_eps_and_t(self, monkeypatch):
        from schemelab import experiments, lift

        cfg = small_cfg("fluctuation", samples=3, eps_ladder=(0.25, 0.125),
                        N=12, M=48, times=(0.1, 0.3))
        pairs, centres = [], []

        def counted(scheme, eps, t, N):
            pairs.append((eps, t))
            return lambda_eps(scheme, eps, t, N)

        def recorded(lifted, alpha, center, *args):
            centres.append((lifted.plan.eps, center))
            return lift.fluctuation_statistic(lifted, alpha, center, *args)

        monkeypatch.setattr(experiments, "lambda_eps", counted)
        monkeypatch.setattr(experiments, "fluctuation_statistic", recorded)
        fluctuation_experiment(cfg)
        # the decay table's values are the centring constants: each pair once
        assert sorted(pairs) == sorted(set(pairs)) and len(pairs) == 4
        # each lift, time by time and eps by eps, is centred by its own
        # Lambda_eps(t)
        assert centres == [(eps, lambda_eps(cfg.scheme, eps, t, cfg.N))
                           for t in cfg.times for eps in cfg.eps_ladder]

    @pytest.mark.parametrize("nan_time", [0.1, 0.3])
    def test_nan_at_any_time_makes_the_sample_nan(self, monkeypatch, nan_time):
        from schemelab import experiments, lift

        cfg = small_cfg("fluctuation", samples=3, eps_ladder=(0.25, 0.125, 0.0625),
                        N=12, M=48, times=(0.1, 0.3))
        clean = fluctuation_experiment(cfg)
        nan_center = lambda_eps(cfg.scheme, 0.125, nan_time, cfg.N)

        def one_nan(lifted, alpha, center, *args):
            stats = lift.fluctuation_statistic(lifted, alpha, center, *args)
            return [math.nan if (lifted.plan.eps, center, s) == (0.125, nan_center, 1) else v
                    for s, v in enumerate(stats)]

        monkeypatch.setattr(experiments, "fluctuation_statistic", one_nan)
        record = fluctuation_experiment(cfg)
        nan_rows = [r for r in record.per_sample if math.isnan(r["statistic"])]
        assert [(r["eps"], r["sample"]) for r in nan_rows] == [(0.125, 1)]
        assert [r for r in record.per_sample if r not in nan_rows] == [
            r for r in clean.per_sample if (r["eps"], r["sample"]) != (0.125, 1)]
        assert [a["n"] for a in record.aggregates] == [3, 2, 3]


class TestLiftExperiment:
    def test_rows_and_aggregates(self):
        cfg = small_cfg("lift", samples=6, eps_ladder=(0.125,), N=32, M=128,
                        times=(0.4,))
        record = lift_experiment(cfg)
        assert len(record.per_sample) == 6
        agg = record.aggregates[0]
        assert agg["n"] == 6
        assert agg["lambda_eps"] > 0


class TestDiagnostics:
    LINEAR = make_model(1, G="zero", theta="one")

    def _run(self, model, record_times=(0.01, 0.02, 0.03, 0.04, 0.05)):
        """A run of ``model`` and its reference field X: the run of the
        linear model on the same noise."""
        scheme = make_scheme("forward_difference")
        cfg = SolverConfig(scheme=scheme, eps=0.125, N=16, M=64, dt=1e-3,
                           T=0.05, model=model, record_times=record_times)
        reference = simulate(dataclasses.replace(cfg, model=self.LINEAR), seed=5)
        return simulate(cfg, seed=5), cfg, reference

    def test_upsilon_zero_when_dg_zero(self):
        out = upsilon_diagnostic(*self._run(make_model(1, G="zero", theta="one")))
        assert np.abs(out).max() == 0.0

    def test_upsilon_requires_reference(self):
        """A reference whose recorded times do not begin with the run's."""
        traj, cfg, _ = self._run(make_model(1, G="state", theta="one"))
        for times in ((0.01, 0.03, 0.05), (0.01, 0.02)):
            _, _, reference = self._run(self.LINEAR, record_times=times)
            for diagnostic in (upsilon_diagnostic, xi_diagnostic):
                with pytest.raises(ValueError, match="reference times"):
                    diagnostic(traj, cfg, reference)
        # a reference recorded at more times than the run is fine
        traj, cfg, _ = self._run(make_model(1, G="state", theta="one"), (0.01, 0.02))
        _, _, reference = self._run(self.LINEAR)
        assert np.abs(upsilon_diagnostic(traj, cfg, reference)).max() > 0

    def test_xi_reduces_to_first_term_plus_upsilon(self):
        model = make_model(1, G="state", theta="one")
        run = self._run(model)
        xi = xi_diagnostic(*run)
        ups = upsilon_diagnostic(*run)
        assert np.abs(xi).max() > 0
        assert np.abs(ups).max() > 0

    def test_experiment_failure_when_everything_truncates(self):
        cfg = small_cfg("converge", samples=2, blowup_cap=1e-12,
                        initial_kind="sine", initial_amplitude=1.0)
        with pytest.raises(ExperimentFailure):
            converge_experiment(cfg)


def test_config_hash_follows_the_resolved_seed():
    from schemelab.config import load_config

    path = os.path.join(os.path.dirname(__file__), "..", "configs", "correction.json")
    plain = load_config(path).config_hash()
    # the file's own seed (1111); pinned so a change of the digest shows
    assert plain == "02daf1a1bdb19619"
    assert load_config(path, seed=1111).config_hash() == plain
    hashes = {load_config(path, seed=s).config_hash() for s in (1, 2)}
    assert len(hashes) == 2 and plain not in hashes


def test_config_hash_covers_every_resolved_field():
    from schemelab.schemes import make_function

    base = dict(kind="converge", scheme=make_scheme("forward_difference"),
                scheme2=None, model=make_model(1, G="state", theta="one"),
                eps_ladder=(0.25, 0.125), samples=4, master_seed=99, N=16, M=64)
    variants = {
        "scheme": make_scheme("forward_difference",
                              h=make_function("indicator", cutoff=1.0)),
        "scheme2": make_scheme("central_difference"),
        "model": make_model(1, G="state", theta="bounded_sqrt"),
        "N": 32, "M": 128, "dt": 5e-4, "T": 0.5, "eps_ladder": (0.25, 0.0625),
        "samples": 5, "master_seed": 98, "kind": "correction",
        "record_times": (0.05,), "blowup_cap": 1e3, "eps_ref": 0.02,
        "norms": NormConfig(stride=8), "alpha": 0.4, "times": (0.2,),
        "initial_kind": "sine", "conservation_form": True,
    }
    plain = ExperimentConfig(**base).config_hash()
    assert ExperimentConfig(**base).config_hash() == plain
    for name, value in variants.items():
        assert ExperimentConfig(**dict(base, **{name: value})).config_hash() != plain, name
    # the other field of the norms block
    tilde = ExperimentConfig(**dict(base, norms=NormConfig(alpha_tilde=0.4)))
    assert tilde.config_hash() != plain
    # the same model with its constant theta left undeclared
    undeclared = dataclasses.replace(base["model"], theta_constant=None)
    assert ExperimentConfig(**dict(base, model=undeclared)).config_hash() != plain
    # ... and with its constant DG left undeclared
    undeclared = dataclasses.replace(base["model"], dg_constant=None)
    assert ExperimentConfig(**dict(base, model=undeclared)).config_hash() != plain
    # the same label with other module-level callables, and nothing else
    # changed: both leave DG undeclared, so only the callables' names differ
    zero_g = make_model(1, G="zero", theta="one")
    other = dataclasses.replace(undeclared, G=zero_g.G, DG=zero_g.DG)
    assert other.label == undeclared.label
    assert (ExperimentConfig(**dict(base, model=other)).config_hash()
            != ExperimentConfig(**dict(base, model=undeclared)).config_hash())
    # ... and a lambda, whose name does not identify it, is no model to hash
    anonymous = dataclasses.replace(base["model"], F=lambda u: 0.0 * u)
    with pytest.raises(ValueError, match="<lambda>"):
        ExperimentConfig(**dict(base, model=anonymous)).config_hash()
    sine = dict(base, initial_kind="sine", initial_amplitude=0.5)
    hashes = {ExperimentConfig(**dict(sine, **change)).config_hash()
              for change in ({}, {"initial_amplitude": 0.6}, {"initial_mode": 2})}
    assert len(hashes) == 3
    # the configs that used to share a hash
    assert (ExperimentConfig(**dict(base, N=16, M=64)).config_hash()
            != ExperimentConfig(**dict(base, N=32, M=128, T=0.5)).config_hash())


def test_file_config_hash_covers_kind_and_filled_in_defaults():
    from schemelab.config import load_config, parse_config

    path = os.path.join(os.path.dirname(__file__), "..", "configs", "fluctuation.json")
    kinds = ("lift", "fluctuation", "lambda-table")
    assert len({load_config(path, kind=k).config_hash() for k in kinds}) == 3
    with open(path) as fh:
        raw = json.load(fh)
    plain = parse_config(raw).config_hash()
    # a file stating a default hashes as one that leaves it to the loader ...
    stated = dict(raw, solver=dict(raw["solver"], dt=1e-3, eps_ref=1e-2))
    assert parse_config(stated).config_hash() == plain
    # ... and a different value of a filled-in field changes the hash
    for key, value in (("dt", 2e-3), ("eps_ref", 2e-2), ("blowup_cap", 1e3),
                       ("T", 0.2), ("record_times", [0.05])):
        changed = dict(raw, solver=dict(raw["solver"], **{key: value}))
        assert parse_config(changed).config_hash() != plain, key
    # the same resolved fields built in code give the file's hash
    cfg = parse_config(raw)
    assert ExperimentConfig(**{f.name: getattr(cfg, f.name) for f in
                               dataclasses.fields(cfg)}).config_hash() == plain


@pytest.mark.parametrize("kind", ["converge", "correction"])
def test_solver_experiments_reject_nu_other_than_one(kind):
    """The workbench fixes nu = 1, so no kind takes a nu: any nu in a file is
    an unknown key, and ExperimentConfig has no such field."""
    from schemelab.config import ConfigError, parse_config

    raw = {"version": 1, "kind": kind, "scheme": {"name": "forward_difference"},
           "scheme2": {"name": "central_difference"}}
    for nu in (2.0, 1.0):
        for as_kind in (kind, "lambda-table"):
            with pytest.raises(ConfigError, match="unknown key experiment.nu;"):
                parse_config(dict(raw, experiment={"nu": nu}), kind=as_kind)
    assert parse_config(raw).kind == kind
    with pytest.raises(TypeError, match="nu"):
        small_cfg(kind, nu=2.0)


def test_sample_rng_streams_are_stable():
    a = sample_rng(7, 3).standard_normal(4)
    b = sample_rng(7, 3).standard_normal(4)
    c = sample_rng(7, 4).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("kind", ["converge", "correction", "fluctuation", "lift"])
def test_worker_pool_matches_serial(monkeypatch, kind):
    from schemelab import experiments

    cfg = small_cfg(kind, samples=4)
    run = {"converge": converge_experiment, "correction": correction_experiment,
           "fluctuation": fluctuation_experiment, "lift": lift_experiment}[kind]
    serial = run(cfg)
    monkeypatch.setenv("SCHEMELAB_WORKERS", "2")
    # the chunks shrink to two samples so that each worker gets one
    assert [list(c) for c in _chunks(cfg.samples)] == [[0, 1], [2, 3]]
    mapped, pool_map = [], experiments._pool_map
    monkeypatch.setattr(experiments, "_pool_map",
                        lambda fn, args: mapped.append(fn.__name__) or pool_map(fn, args))
    parallel = run(cfg)
    # the experiment maps its chunks over the pool
    assert mapped == [f"_{kind}_chunk"]
    assert serial.per_sample == parallel.per_sample
