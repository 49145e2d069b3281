"""Columnar trial records: the TrialRecords batch, its row views, and records.csv.

Runs return one TrialRecords batch of arrays; a TrialRecord row exists
only where a batch is indexed or iterated.  The columnar CSV writer must
give the bytes of the per-row csv.writer oracle in tests/csv_oracle.py.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from csv_oracle import records_to_csv_per_row
from optstop import montecarlo
from optstop.exact import FiniteModel
from optstop.models import CauchyEffect, InvariantModelPair, PointMass
from optstop.montecarlo import (
    TrialRecord,
    TrialRecords,
    estimate_type1,
    records_to_csv,
    run_marginal_trials,
    run_trials,
    run_trials_finite,
)
from optstop.stopping import BfThreshold, FixedN

CAUCHY = InvariantModelPair.scale(CauchyEffect(1.0))
POINT = InvariantModelPair.scale(PointMass(0.3))
CORRIDOR = BfThreshold(upper=5.0, lower=0.2, cap=40)
BERNOULLI = FiniteModel.bernoulli_point_vs_uniform(horizon=8, grid=200)


@pytest.fixture(scope="module")
def batches():
    """One batch of every kind of run: scale (a threshold and a fixed-n rule), marginal, finite."""
    return {
        "scale": run_trials(CAUCHY, 1, 0.7, CORRIDOR, 300, seed=5),
        "fixed-n": run_trials(POINT, 1, 1.5, FixedN(n=6, cap=10), 200, seed=6),
        "marginal": run_marginal_trials(CAUCHY, 0, [0.8], CORRIDOR, 250, seed=7),
        "finite": run_trials_finite(BERNOULLI, 1, BfThreshold(upper=3.0, cap=8), 150, seed=8),
    }


class TestTrialRecords:
    def test_len_index_and_iteration_agree(self, batches):
        for records in batches.values():
            rows = list(records)
            assert len(records) == len(rows) > 0
            assert [records[i] for i in range(len(records))] == rows
            assert records[-1] == rows[-1]
            assert [r.trial for r in rows] == list(range(len(records)))
            with pytest.raises(IndexError):
                records[len(records)]

    def test_rows_are_python_scalars(self, batches):
        for records in batches.values():
            for row in (records[0], next(iter(records))):
                assert isinstance(row, TrialRecord)
                assert type(row.k) is int and type(row.seed) is int
                assert type(row.stop_index) is int and type(row.trial) is int
                assert type(row.stopped_log_beta) is float
                assert type(row.g) is float
        assert math.isnan(batches["finite"][0].g)
        assert batches["scale"][3].g == 0.7

    def test_slice_is_a_batch_of_the_same_run(self, batches):
        for records in batches.values():
            part = records[10:20]
            assert isinstance(part, TrialRecords)
            assert list(part) == list(records)[10:20]
            assert part.rule is records.rule and part.seed == records.seed
        marginal = batches["marginal"]
        assert marginal.per_trial_g and len(marginal[5:9].g) == 4
        assert [r.g for r in marginal[5:9]] == marginal.g[5:9].tolist()

    def test_equality_is_exact(self, batches):
        records = batches["scale"]
        assert records == run_trials(CAUCHY, 1, 0.7, CORRIDOR, 300, seed=5)
        assert records != run_trials(CAUCHY, 1, 0.7, CORRIDOR, 300, seed=6)
        assert records[:100] != records[:101]
        lb = records.stopped_log_beta.copy()
        lb[42] = np.nextafter(lb[42], math.inf)
        assert replace(records, stopped_log_beta=lb) != records
        other_rule = BfThreshold(upper=5.0, lower=0.2, cap=41)
        assert replace(records, rule=other_rule) != records
        assert replace(records, g=float(np.nextafter(0.7, 1.0))) != records
        finite = batches["finite"]  # NaN nuisance slots compare equal bit for bit
        assert finite == run_trials_finite(BERNOULLI, 1, BfThreshold(upper=3.0, cap=8), 150, seed=8)
        assert records != list(records)

    def test_zero_trials_give_empty_batches(self):
        # run_trials: TestRunTrials.test_zero_trials
        for records in (
            run_marginal_trials(CAUCHY, 0, [1.0], FixedN(n=5, cap=10), 0, seed=1),
            run_trials_finite(BERNOULLI, 0, FixedN(n=5, cap=8), 0, seed=1),
        ):
            assert isinstance(records, TrialRecords)
            assert len(records) == 0 and list(records) == []

    def test_engine_and_writer_build_no_rows(self, monkeypatch, tmp_path):
        def no_rows(self, *args, **kwargs):
            raise AssertionError("a TrialRecord row was built")

        monkeypatch.setattr(TrialRecord, "__init__", no_rows)
        batches = [
            run_trials(CAUCHY, 1, 0.7, CORRIDOR, 500, seed=5),
            run_marginal_trials(CAUCHY, 1, [0.8], CORRIDOR, 500, seed=7),
        ]
        records_to_csv(batches, tmp_path / "records.csv")
        assert len((tmp_path / "records.csv").read_bytes().splitlines()) == 1001
        with pytest.raises(AssertionError, match="row was built"):
            batches[0][0]


class TestType1Rule:
    def test_refuses_records_of_another_rule(self):
        for rule in (BfThreshold(upper=10.0, cap=30), FixedN(n=20, cap=30)):
            records = run_trials(CAUCHY, 0, 1.0, rule, 50, seed=2)
            with pytest.raises(ValueError, match="BfThreshold"):
                estimate_type1(records, 0.05)

    def test_lower_bar_allowed(self):
        records = run_trials(CAUCHY, 0, 1.0, BfThreshold(upper=20.0, lower=0.2, cap=30), 50, seed=2)
        assert estimate_type1(records, 0.05).n_trials == 50

    def test_trial_stopped_exactly_at_the_bar_rejects(self):
        # for alpha = 0.036, -log(alpha) is one ulp above log(1/alpha): a value
        # the rule stops at, equal to its bar, falls short of -log(alpha)
        alpha = 0.036
        rule = BfThreshold(upper=1.0 / alpha, cap=30)
        assert -math.log(alpha) > rule.log_upper
        lb = np.array([rule.log_upper, np.nextafter(rule.log_upper, -math.inf), -1.0])
        records = TrialRecords(
            0, 1.0, 0, rule, np.array([5, 30, 30]), lb, np.arange(3, dtype=np.int64)
        )
        est = estimate_type1(records, alpha)
        assert est.n_reject == 1 and est.n_trials == 3


class TestCsvMatchesPerRowWriter:
    def assert_same_bytes(self, batches, tmp_path):
        records_to_csv(batches, tmp_path / "columnar.csv")
        records_to_csv_per_row(batches, tmp_path / "oracle.csv")
        got = (tmp_path / "columnar.csv").read_bytes()
        assert got == (tmp_path / "oracle.csv").read_bytes()
        return got

    @pytest.mark.parametrize("kind", ["scale", "fixed-n", "marginal", "finite"])
    def test_each_kind_of_run(self, batches, kind, tmp_path):
        out = self.assert_same_bytes([batches[kind]], tmp_path)
        assert out.count(b"\r\n") == len(batches[kind]) + 1

    def test_several_batches_and_an_empty_one(self, batches, tmp_path):
        empty = run_trials(CAUCHY, 0, 1.0, FixedN(n=5, cap=10), 0, seed=1)
        self.assert_same_bytes([empty], tmp_path)
        self.assert_same_bytes([batches["scale"], empty, *batches.values(), empty], tmp_path)

    @pytest.mark.parametrize("block", [1, 7, 50, 150])
    def test_slice_boundaries(self, batches, block, monkeypatch, tmp_path):
        # batches of 300, 200, 250 and 150 trials: slices of 50 or 150 end exactly
        # at some batch ends, slices of 7 leave a short last one, and 1 is row by row
        monkeypatch.setattr(montecarlo, "BLOCK_SIZE", block)
        self.assert_same_bytes(list(batches.values()), tmp_path)

    def test_awkward_floats(self, tmp_path):
        lb = np.array([0.0, -0.0, 5e-324, 1e-5, 1.0 / 3.0, -2.5e300, math.inf, 123456789.0])
        n = lb.size
        stops = np.arange(2, n + 2)
        trials = np.arange(n, dtype=np.int64)
        rule = FixedN(n=5, cap=10)
        batches = [
            TrialRecords(1, 1e-5, 2**40, rule, stops, lb, trials),
            TrialRecords(0, -0.0, 7, rule, stops, lb, trials),
            TrialRecords(1, lb[::-1].copy(), 7, rule, stops, lb, trials),
        ]
        self.assert_same_bytes(batches, tmp_path)
