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
from optstop.errors import SingularInputError
from optstop.models import CauchyEffect, InvariantModelPair, PointMass, ScaleBfCurves
from optstop.montecarlo import (
    estimate_marginal_calibration,
    estimate_stopped_bf_mean,
    estimate_strong_calibration,
    estimate_type1,
    records_to_csv,
    run_marginal_trials,
    run_trials,
    run_trials_finite,
    TrialRecords,
    wilson_interval,
)
from optstop.stopping import BfThreshold, FixedN
from reference_kernel import run_block_per_step

CAUCHY = InvariantModelPair.scale(CauchyEffect(1.0))
POINT0 = InvariantModelPair.scale(PointMass(0.0))
CORRIDOR = BfThreshold(upper=5.0, lower=0.2, cap=100)


def fresh_stream(key64, trial):
    """Trial ``trial``'s stream, built from scratch as the module docstring states it."""
    return np.random.Generator(np.random.Philox(key=np.array([key64, trial], dtype=np.uint64)))


class TestRunTrials:
    def test_zero_trials(self):
        records = run_trials(CAUCHY, 0, 1.0, FixedN(n=5, cap=10), 0, seed=1)
        assert isinstance(records, TrialRecords)
        assert len(records) == 0 and list(records) == []

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

    def test_draw_buffer_budget_only_changes_block_layout(self, monkeypatch):
        rule = BfThreshold(upper=4.0, lower=0.25, cap=40)
        a = run_trials(CAUCHY, 1, 1.3, rule, 2_000, seed=5)
        am = run_marginal_trials(CAUCHY, 1, [0.8], rule, 2_000, seed=5)
        blocks = []
        run_block = montecarlo._run_block

        def spy(pair, curves, k, g, rule, key64, lo, hi, *rest):
            blocks.append(hi - lo)
            return run_block(pair, curves, k, g, rule, key64, lo, hi, *rest)

        monkeypatch.setattr(montecarlo, "_run_block", spy)
        monkeypatch.setattr(montecarlo, "DRAW_BUFFER_BYTES", 8 * 40 * 300)
        assert run_trials(CAUCHY, 1, 1.3, rule, 2_000, seed=5) == a
        assert blocks == [300] * 6 + [200]
        blocks.clear()
        assert run_marginal_trials(CAUCHY, 1, [0.8], rule, 2_000, seed=5) == am
        assert blocks == [307] * 6 + [158]  # 39 draws per trial after x_1

    def test_default_budget_keeps_full_blocks_at_benchmark_caps(self):
        for cap in (100, 200, 1000):
            rows = montecarlo.DRAW_BUFFER_BYTES // (8 * cap)
            assert rows >= montecarlo.BLOCK_SIZE

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

    @pytest.mark.parametrize("g", [0.0, -1.0, math.nan, math.inf])
    def test_nuisance_value_outside_the_group_refused(self, g, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a table was built or a block ran")

        monkeypatch.setattr(ScaleBfCurves, "_table", no_work)
        monkeypatch.setattr(montecarlo, "_run_block", no_work)
        with pytest.raises(ValueError, match="nuisance value must be finite with a positive scale"):
            run_trials(CAUCHY, 0, g, BfThreshold(upper=20.0, cap=10), 10, seed=0)

    @pytest.mark.parametrize("seed", [2**63, -(2**63) - 1, 10**20])
    def test_seed_outside_64_bits_refused(self, seed):
        with pytest.raises(ValueError, match="seed must be a signed 64-bit integer"):
            run_trials(CAUCHY, 0, 1.0, FixedN(n=6, cap=10), 10, seed=seed)

    @pytest.mark.parametrize("seed", [-(2**63), -5, 2**63 - 1])
    def test_seed_at_64_bit_limits_runs(self, seed):
        records = run_trials(CAUCHY, 0, 1.0, FixedN(n=6, cap=10), 10, seed=seed)
        assert records.seed == seed and np.all(records.stop_index == 6)

    @pytest.mark.parametrize("n_trials", [0, 10])
    def test_location_scale_pair_refused_up_front(self, n_trials, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a table was built or a block ran")

        monkeypatch.setattr(ScaleBfCurves, "_table", no_work)
        monkeypatch.setattr(montecarlo, "_run_block", no_work)
        pair = InvariantModelPair.location_scale(PointMass(0.0))
        with pytest.raises(NotImplementedError, match="scale group"):
            run_trials(pair, 1, (1.5, -1.0), FixedN(n=6, cap=10), n_trials, seed=3)


class LeadingDraws:
    """A trial's generator whose vector of normal draws starts with ``lead``."""

    def __init__(self, gen, lead):
        self._gen, self._lead = gen, lead

    def standard_normal(self, size=None, out=None):
        if size is None and out is None:
            return self._gen.standard_normal()  # a redraw: the stream's next value
        z = self._gen.standard_normal(size, out=out)
        z[: len(self._lead)] = self._lead
        return z

    def __getattr__(self, name):
        return getattr(self._gen, name)


class TestStreamContract:
    """A trial's draws are those of Generator(Philox(key=[key64, trial]))."""

    def reference_stop(self, pair, k, g, rule, seed, trial, lead=()):
        """Stop index and stopped log beta of one trial, recomputed from its stream."""
        gen = fresh_stream(montecarlo._stream_key(seed, k, (g,), variant=0), trial)
        delta = pair.effect_prior.draw(gen) if k == 1 else 0.0
        z = gen.standard_normal(rule.cap)
        z[: len(lead)] = lead
        while g * (delta + z[0]) == 0.0:
            z[0] = gen.standard_normal()
        x = g * (delta + z)
        s1, s2 = np.cumsum(x), np.cumsum(x * x)
        curves = ScaleBfCurves(pair)
        for n in range(2, rule.cap + 1):
            q = min(max(s1[n - 1] ** 2 / (n * s2[n - 1]), 0.0), 1.0)
            t = math.copysign(math.sqrt(q), s1[n - 1])
            lb = float(curves.log_bf_cells(n, curves.coordinate(np.array([q]), np.array([t])))[0])
            if rule.decide(x[:n], lb):
                return n, lb

    @pytest.mark.parametrize(
        "k, rule", [(1, BfThreshold(upper=5.0, lower=0.2, cap=40)), (0, FixedN(n=25, cap=40))]
    )
    def test_records_match_fresh_streams(self, k, rule):
        records = run_trials(CAUCHY, k, 0.7, rule, 300, seed=11)
        for trial in (0, 1, 57, 299):
            expected = self.reference_stop(CAUCHY, k, 0.7, rule, 11, trial)
            assert (records[trial].stop_index, records[trial].stopped_log_beta) == expected

    @staticmethod
    def plain_state(bitgen):
        """A Philox state dict with its arrays as lists, comparable with ==."""
        state = bitgen.state
        return dict(state, state={k: v.tolist() for k, v in state["state"].items()},
                    buffer=state["buffer"].tolist())

    @pytest.mark.parametrize("leave", ["nothing", "uint32", "part_buffer"])
    def test_rekey_leaves_a_fresh_philox_state(self, leave):
        key64 = montecarlo._stream_key(3, 1, (0.7,), variant=0)
        streams = montecarlo._TrialStreams(key64)
        for trial in (0, 1, 2**63, 2**64 - 1):
            gen = streams.at(trial)
            if leave == "uint32":
                gen.integers(0, 10, dtype=np.uint32)
                assert gen.bit_generator.state["has_uint32"] == 1
            elif leave == "part_buffer":
                gen.bit_generator.random_raw(3)
                assert gen.bit_generator.state["buffer_pos"] == 3
            gen = streams.at(trial)
            fresh = np.random.Philox(key=np.array([key64, trial], dtype=np.uint64))
            assert self.plain_state(gen.bit_generator) == self.plain_state(fresh)
            expected = fresh_stream(key64, trial).standard_normal(3)
            assert gen.standard_normal(3).tolist() == expected.tolist()

    def patch_trial(self, monkeypatch, trial, lead):
        at = montecarlo._TrialStreams.at

        def patched(self, t):
            gen = at(self, t)
            return LeadingDraws(gen, lead) if t == trial else gen

        monkeypatch.setattr(montecarlo._TrialStreams, "at", patched)

    def test_x1_zero_redraws_from_the_trials_own_stream(self, monkeypatch):
        pair = InvariantModelPair.scale(PointMass(0.5))
        rule = BfThreshold(upper=5.0, lower=0.2, cap=20)
        before = run_trials(pair, 1, 1.3, rule, 40, seed=2)
        self.patch_trial(monkeypatch, 17, [-0.5])  # x_1 = 1.3 * (0.5 - 0.5) = 0
        after = run_trials(pair, 1, 1.3, rule, 40, seed=2)
        assert after[:17] == before[:17] and after[18:] == before[18:]
        expected = self.reference_stop(pair, 1, 1.3, rule, 2, 17, lead=[-0.5])
        assert (after[17].stop_index, after[17].stopped_log_beta) == expected
        assert after[17] != before[17]

    def test_x1_zero_redraw_with_a_chunk_boundary_after_n_2(self, monkeypatch):
        # one step per chunk: the replayed trial's x_2 is read in a chunk of its own
        monkeypatch.setattr(montecarlo, "STEP_CHUNK", 1)
        self.test_x1_zero_redraws_from_the_trials_own_stream(monkeypatch)

    def test_x1_zero_redraw_in_a_lazy_block(self, monkeypatch):
        """Trial 524 sits in the second block, which draws heads, and runs past its head."""
        pair = InvariantModelPair.scale(PointMass(0.5))
        monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 512)
        before = run_trials(pair, 1, 1.3, CORRIDOR, 1024, seed=2)
        shapes = spy_buffers(monkeypatch)
        self.patch_trial(monkeypatch, 524, [-0.5])  # x_1 = 1.3 * (0.5 - 0.5) = 0
        after = run_trials(pair, 1, 1.3, CORRIDOR, 1024, seed=2)
        (_, full), (rows, head), (survivors, replayed) = shapes
        assert rows == 512 and head < full == replayed == CORRIDOR.cap and survivors < rows
        assert after[:524] == before[:524] and after[525:] == before[525:]
        expected = self.reference_stop(pair, 1, 1.3, CORRIDOR, 2, 524, lead=[-0.5])
        assert (after[524].stop_index, after[524].stopped_log_beta) == expected
        assert after[524].stop_index > head  # its x_n past the head came from the replay


def spy_buffers(monkeypatch):
    """The (rows, columns) of every draw buffer a run maps, in order."""
    shapes = []
    draw_buffer = montecarlo._draw_buffer

    def spy(rows, cols):
        shapes.append((rows, cols))
        return draw_buffer(rows, cols)

    monkeypatch.setattr(montecarlo, "_draw_buffer", spy)
    return shapes


LAZY_RUNS = {
    "cauchy-h0": (lambda: run_trials(CAUCHY, 0, 1.3, CORRIDOR, 2048, seed=5), 100),
    # the Cauchy effect takes two leading normals
    "cauchy-h1": (lambda: run_trials(CAUCHY, 1, 1.3, CORRIDOR, 2048, seed=5), 102),
    "point-mass-h1": (
        lambda: run_trials(InvariantModelPair.scale(PointMass(0.5)), 1, 1.3, CORRIDOR, 2048, 5),
        100,
    ),
    # x_1 is given: draws start at x_2
    "marginal-h1": (lambda: run_marginal_trials(CAUCHY, 1, [0.8], CORRIDOR, 2048, seed=5), 99),
}


class TestLazyDraws:
    """Blocks after a run's first draw row heads; trials running past them replay to the cap."""

    @pytest.mark.parametrize("run, full", LAZY_RUNS.values(), ids=LAZY_RUNS.keys())
    def test_later_blocks_draw_heads_then_replay(self, run, full, monkeypatch):
        monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 512)  # four blocks
        shapes = spy_buffers(monkeypatch)
        records = run()
        assert shapes[0] == (512, full)
        later = shapes[1:]
        assert len(later) == 6
        for (rows, head), (survivors, replayed) in zip(later[::2], later[1::2]):
            assert rows == 512 and head < full and replayed == full and 0 < survivors < rows
        monkeypatch.setattr(montecarlo, "_run_block", run_block_per_step)
        assert records == run()

    @pytest.mark.parametrize(
        "k, rule", [(0, BfThreshold(upper=20.0, cap=200)), (0, FixedN(n=100)), (1, FixedN(n=100))]
    )
    def test_runs_that_reach_far_draw_in_full(self, k, rule, monkeypatch):
        # most trials run past half the cap: no head would save a replay
        monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 512)
        shapes = spy_buffers(monkeypatch)
        run_trials(CAUCHY, k, 1.0, rule, 2048, seed=3)
        assert shapes == [(512, rule.cap + 2 * k)] * 4

    @staticmethod
    def head(cap, stops):
        return montecarlo._lazy_head(np.bincount(np.array(stops, dtype=np.int64), minlength=cap + 1))

    def test_head_is_the_first_chunk_end_with_few_trials_running(self):
        assert self.head(100, []) == 100  # a fresh run draws in full
        assert self.head(100, [2] * 8) == 9
        assert self.head(100, [2] * 7 + [100]) == 9  # 1 in 8 still running
        assert self.head(100, [2] * 6 + [100] * 2) == 100  # 1 in 4 until the cap
        assert self.head(100, [45] * 8) == 49  # at most half the cap
        assert self.head(100, [51] * 8) == 100
        assert self.head(34, [10] * 8) == 17 and self.head(33, [10] * 8) == 33


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
        # each alpha runs its own rule; one seed gives every rule the same
        # trajectories, and a trajectory that reaches a higher bar reached
        # every lower one, so the rejected trials nest as alpha grows
        rejected = []
        for alpha in [0.05, 0.08, 0.12, 0.2, 0.5]:
            rule = BfThreshold(upper=1.0 / alpha, cap=200)
            records = run_trials(CAUCHY, 0, 1.0, rule, 20_000, seed=4)
            est = estimate_type1(records, alpha)
            hits = {r.trial for r in records if r.stopped_log_beta >= rule.log_upper}
            assert est.n_reject == len(hits)
            rejected.append(hits)
        assert all(a < b for a, b in zip(rejected, rejected[1:]))

    def test_type1_alpha_validation(self):
        records = run_trials(CAUCHY, 0, 1.0, BfThreshold(upper=20.0, cap=50), 100, seed=4)
        with pytest.raises(ValueError):
            estimate_type1(records, 1.5)

    def test_stopped_bf_mean_point_zero_exact(self):
        records = run_trials(POINT0, 0, 1.0, FixedN(n=4, cap=8), 500, seed=5)
        est = estimate_stopped_bf_mean(records)
        assert est.mean == 1.0
        assert est.passed

    @pytest.mark.parametrize("n_trials", [0, 1])
    def test_stopped_bf_mean_needs_two_records(self, n_trials):
        # one record has no standard error: the check would pass vacuously
        rule = BfThreshold(upper=20.0, cap=50)
        records = TrialRecords(
            0, 1.0, 3, rule, np.full(n_trials, 50), np.full(n_trials, -2.1), np.arange(n_trials)
        )
        with pytest.raises(ValueError, match="at least two records, got"):
            estimate_stopped_bf_mean(records)

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

    @pytest.mark.parametrize(
        "x_m, error",
        [([0.0], SingularInputError), ([math.nan], ValueError), ([1.0, 2.0], ValueError)],
    )
    @pytest.mark.parametrize("n_trials", [0, 10])
    def test_initial_sample_the_pair_rejects_refused(self, x_m, error, n_trials, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("a table was built or a block ran")

        monkeypatch.setattr(ScaleBfCurves, "_table", no_work)
        monkeypatch.setattr(montecarlo, "_run_block", no_work)
        with pytest.raises(error):
            run_marginal_trials(CAUCHY, 0, x_m, FixedN(n=5, cap=10), n_trials, seed=0)

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
        seqs = [sample_sequence(model, 1, fresh_stream(key64, t)) for t in trials]
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
        records_to_csv([records], p1)
        records_to_csv([records], p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "k,g,stop_index,stopped_log_beta,seed,trial"
