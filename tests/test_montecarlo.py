import math

import numpy as np
import pytest
from scipy import stats

from optstop.core import SignificanceLevel
from optstop.exact import (
    FiniteModel,
    build_table,
    log_beta_paths,
    sample_sequence,
    trajectory_finite,
    verify_markov_bound,
)
from optstop import montecarlo
from optstop.models import CauchyEffect, InvariantModelPair, PointMass
from optstop.montecarlo import (
    estimate_marginal_calibration,
    estimate_stopped_bf_mean,
    estimate_strong_calibration,
    estimate_type1,
    records_to_csv,
    run_marginal_trials,
    run_trials,
    run_trials_finite,
    wilson_interval,
)
from optstop.stopping import BfThreshold, FixedN

CAUCHY = InvariantModelPair.scale(CauchyEffect(1.0))
POINT0 = InvariantModelPair.scale(PointMass(0.0))


class TestRunTrials:
    def test_zero_trials(self):
        assert run_trials(CAUCHY, 0, 1.0, FixedN(n=5, cap=10), 0, seed=1) == []

    def test_fixed_n_stop_indices(self):
        records = run_trials(CAUCHY, 0, 1.0, FixedN(n=5, cap=10), 500, seed=1)
        assert len(records) == 500
        assert all(r.stop_index == 5 for r in records)
        assert [r.trial for r in records] == list(range(500))

    def test_point_zero_prior_all_unit_bf(self):
        records = run_trials(POINT0, 1, 2.0, FixedN(n=5, cap=10), 300, seed=2)
        assert all(r.stopped_log_beta == 0.0 for r in records)

    def test_reproducible_rerun(self):
        rule = BfThreshold(upper=4.0, lower=0.25, cap=40)
        a = run_trials(CAUCHY, 1, 0.7, rule, 3000, seed=9)
        b = run_trials(CAUCHY, 1, 0.7, rule, 3000, seed=9)
        assert a == b

    def test_block_layout_invariance(self, monkeypatch):
        # 20,000 trials: three blocks of 8192 against twenty of 1000
        rule = BfThreshold(upper=4.0, lower=0.25, cap=40)
        a = run_trials(CAUCHY, 0, 1.3, rule, 20_000, seed=5)
        monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 1000)
        b = run_trials(CAUCHY, 0, 1.3, rule, 20_000, seed=5)
        assert a == b

    def test_trials_differ_across_seeds_and_g(self):
        rule = FixedN(n=6, cap=10)
        a = run_trials(CAUCHY, 0, 1.0, rule, 50, seed=1)
        b = run_trials(CAUCHY, 0, 1.0, rule, 50, seed=2)
        c = run_trials(CAUCHY, 0, 2.0, rule, 50, seed=1)
        lbs = lambda rs: [r.stopped_log_beta for r in rs]
        assert lbs(a) != lbs(b)
        assert lbs(a) != lbs(c)  # distinct stream per nuisance value

    def test_cap_must_exceed_initial_sample(self):
        with pytest.raises(ValueError):
            run_trials(CAUCHY, 0, 1.0, FixedN(n=1, cap=1), 10, seed=0)

    def test_location_scale_pair_runs(self):
        pair = InvariantModelPair.location_scale(PointMass(0.0))
        records = run_trials(pair, 1, (1.5, -1.0), FixedN(n=6, cap=10), 100, seed=3)
        assert all(r.stop_index == 6 for r in records)
        assert all(r.stopped_log_beta == 0.0 for r in records)


class TestEstimators:
    def test_h0_vs_h0_ratios_near_one(self):
        rule = FixedN(n=10, cap=10)
        a = run_trials(CAUCHY, 0, 1.0, rule, 30_000, seed=11)
        b = run_trials(CAUCHY, 0, 1.0, rule, 30_000, seed=12)
        est = estimate_strong_calibration(a, b, n_bins=10)
        for bin_ in est.bins:
            if bin_.usable and bin_.count1 > 50:
                assert bin_.ci_lo <= 1.0 + 0.25 and bin_.ci_hi >= 0.75

    def test_point_zero_single_atom_bin(self):
        rule = FixedN(n=5, cap=10)
        a = run_trials(POINT0, 0, 1.0, rule, 2000, seed=1)
        b = run_trials(POINT0, 1, 1.0, rule, 2000, seed=2)
        est = estimate_strong_calibration(a, b)
        assert est.usable_bins == 1
        only = [x for x in est.bins if x.usable][0]
        assert only.ratio == pytest.approx(1.0)
        assert only.log_beta_gmean == 0.0
        assert est.passed

    def test_type1_point_zero_never_rejects(self):
        records = run_trials(POINT0, 0, 1.0, BfThreshold(upper=20.0, cap=50), 2000, seed=3)
        est = estimate_type1(records, 0.05)
        assert est.n_reject == 0
        assert est.rate == 0.0
        assert est.passed

    def test_type1_monotone_in_alpha(self):
        records = run_trials(CAUCHY, 0, 1.0, BfThreshold(upper=20.0, cap=200), 20_000, seed=4)
        alphas = [0.05, 0.08, 0.12, 0.2, 0.5]
        rates = [estimate_type1(records, a).rate for a in alphas]
        assert rates == sorted(rates)

    def test_type1_alpha_validation(self):
        records = run_trials(CAUCHY, 0, 1.0, BfThreshold(upper=20.0, cap=50), 100, seed=4)
        with pytest.raises(ValueError):
            estimate_type1(records, 1.5)

    def test_stopped_bf_mean_point_zero_exact(self):
        records = run_trials(POINT0, 0, 1.0, FixedN(n=4, cap=8), 500, seed=5)
        est = estimate_stopped_bf_mean(records)
        assert est.mean == 1.0
        assert est.passed

    def test_stopped_bf_mean_contains_one(self):
        records = run_trials(
            CAUCHY, 0, 1.0, BfThreshold(upper=10.0, lower=0.1, cap=100), 40_000, seed=6
        )
        est = estimate_stopped_bf_mean(records)
        assert abs(est.mean - 1.0) <= 3.5 * est.se

    def test_wilson_interval(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and hi < 0.05
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi


class TestMarginalCalibration:
    def test_point_zero_trivial(self):
        pair = POINT0
        est = estimate_marginal_calibration(pair, [1.0], FixedN(n=5, cap=10), 1000, seed=7)
        assert est.usable_bins == 1
        assert est.passed

    def test_records_hold_conditional_values(self):
        rule = BfThreshold(upper=5.0, lower=0.2, cap=60)
        records = run_marginal_trials(CAUCHY, 0, [1.0], rule, 500, seed=8)
        assert len(records) == 500
        assert all(r.stop_index >= 2 for r in records)
        # the posterior-drawn nuisance value is recorded per trial
        assert len({r.g for r in records}) > 400

    def test_requires_scale_group(self):
        pair = InvariantModelPair.location_scale(PointMass(0.0))
        with pytest.raises(NotImplementedError):
            run_marginal_trials(pair, 0, [1.0, 2.0], FixedN(n=5, cap=10), 10, seed=0)

    def test_moderate_run_calibrates(self):
        rule = BfThreshold(upper=5.0, lower=0.2, cap=100)
        est = estimate_marginal_calibration(CAUCHY, [1.5], rule, 30_000, seed=13)
        # loose sanity bound; the strict contract is pinned in acceptance
        assert est.pass_fraction >= 0.8


class TestDistributionInvariance:
    def test_stopped_bf_distribution_same_across_g(self):
        rule = BfThreshold(upper=10.0, lower=0.1, cap=100)
        a = run_trials(CAUCHY, 0, 1.0, rule, 20_000, seed=21)
        b = run_trials(CAUCHY, 0, 2.0, rule, 20_000, seed=22)
        stat = stats.ks_2samp(
            [r.stopped_log_beta for r in a], [r.stopped_log_beta for r in b]
        ).statistic
        crit = 1.628 * math.sqrt(2.0 / 20_000.0)
        assert stat < crit


class TestFiniteCrossCheck:
    def test_monte_carlo_matches_exact_table(self):
        model = FiniteModel.bernoulli_point_vs_uniform(horizon=8, grid=500)
        alpha = SignificanceLevel(0.2)
        rule = BfThreshold(upper=1.0 / alpha.alpha, cap=8)
        table = build_table(model, rule)
        (chk,) = verify_markov_bound(table, [alpha])
        records = run_trials_finite(model, 0, rule, 20_000, seed=17)
        est = estimate_type1(records, alpha)
        se = max(est.se, 1e-4)
        assert abs(est.rate - chk.probability) <= 3.5 * se
        # and the stopped-BF mean matches its exact value of 1
        bf = estimate_stopped_bf_mean(records)
        assert abs(bf.mean - 1.0) <= 3.5 * bf.se

    def test_records_independent_of_chunk_layout(self):
        model = FiniteModel.bernoulli_point_vs_uniform(horizon=8, grid=10_000)
        rule = BfThreshold(upper=3.0, lower=0.5, cap=8)
        chunk = montecarlo._finite_chunk(model)
        assert chunk == montecarlo.FINITE_CHUNK_CELLS // 10_000
        short = run_trials_finite(model, 1, rule, 50, seed=9)
        long = run_trials_finite(model, 1, rule, chunk + 50, seed=9)
        assert long[:50] == short
        # the second chunk's rows match one-row evaluations bit for bit
        key64 = montecarlo._stream_key(9, 1, (), variant=2)
        trials = range(chunk, chunk + 50)
        seqs = [sample_sequence(model, 1, montecarlo._trial_generator(key64, t)) for t in trials]
        batch = log_beta_paths(model, seqs)
        for seq, row, record in zip(seqs, batch, long[chunk:]):
            assert trajectory_finite(model, seq).log_beta == tuple(row.tolist())
            assert record.stopped_log_beta == row[record.stop_index - 1]

    def test_finite_records_reproducible(self):
        model = FiniteModel.bernoulli_point_vs_uniform(horizon=6, grid=200)
        rule = FixedN(n=6, cap=6)
        a = run_trials_finite(model, 1, rule, 200, seed=3)
        b = run_trials_finite(model, 1, rule, 200, seed=3)
        assert a == b


class TestSerialization:
    def test_csv_layout_and_determinism(self, tmp_path):
        records = run_trials(CAUCHY, 0, 0.5, FixedN(n=4, cap=8), 50, seed=30)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        records_to_csv(records, p1)
        records_to_csv(records, p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "k,g,stop_index,stopped_log_beta,seed,trial"
