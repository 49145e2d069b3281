import dataclasses
import math
import os
import signal
import threading
import time

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
from optstop import montecarlo, workers
from optstop.errors import OptstopError, ResourceLimitError, SingularInputError
from optstop.models import CauchyEffect, InvariantModelPair, PointMass, ScaleBfCurves
from optstop.montecarlo import (
    estimate_stopped_bf_mean,
    estimate_strong_calibration,
    estimate_type1,
    records_to_csv,
    run_marginal_trials_many,
    run_trials,
    run_trials_finite,
    run_trials_many,
    TrialRecords,
    wilson_interval,
)
from optstop.stopping import BfThreshold, FixedN, SumOfSquares
from reference_kernel import run_block_per_step

CAUCHY = InvariantModelPair.scale(CauchyEffect(1.0))
POINT0 = InvariantModelPair.scale(PointMass(0.0))
CORRIDOR = BfThreshold(upper=5.0, lower=0.2, cap=100)
TYPE1 = BfThreshold(upper=20.0, cap=100)


def fresh_stream(key64, trial):
    """Trial ``trial``'s stream, built from scratch as the module docstring states it."""
    return np.random.Generator(np.random.Philox(key=np.array([key64, trial], dtype=np.uint64)))


@pytest.fixture
def one_process(monkeypatch):
    """Every block of a run runs in this process, where a spy sees it."""
    monkeypatch.setattr(workers, "worker_count", lambda: 1)


def count_forks(monkeypatch):
    """The forks a split job makes from here on; each still happens."""
    started = []
    fork = workers._fork

    def spy(*args):
        started.append(args)
        return fork(*args)

    monkeypatch.setattr(workers, "_fork", spy)
    return started


def stops(records, trials):
    """(stop index, stopped log beta) of each of ``trials``, read off the columns."""
    return list(zip(records.stop_index[trials].tolist(), records.stopped_log_beta[trials].tolist()))


def no_work(monkeypatch):
    """Fail the test if a table is built, a split job starts or a block runs."""

    def work(*args, **kwargs):
        raise AssertionError("a table was built, a split job started or a block ran")

    monkeypatch.setattr(ScaleBfCurves, "_build", work)
    monkeypatch.setattr(montecarlo, "_curves_for", work)
    monkeypatch.setattr(workers, "run_groups", work)
    monkeypatch.setattr(montecarlo, "_run_block", work)


def spy_blocks(monkeypatch):
    """The trials of every block a run runs in this process, in order."""
    blocks = []
    run_block = montecarlo._run_block

    def spy(pair, curves, run, lo, hi, head):
        blocks.append(hi - lo)
        return run_block(pair, curves, run, lo, hi, head)

    monkeypatch.setattr(montecarlo, "_run_block", spy)
    return blocks


TWO_SIDED = BfThreshold(upper=4.0, lower=0.25, cap=40)
LAYOUT_RUNS = {
    "two-sided-h0": lambda: run_trials(CAUCHY, 0, 1.3, TWO_SIDED, 20_000, seed=5),
    "one-sided-h1": lambda: run_trials(CAUCHY, 1, 1.3, BfThreshold(upper=4.0, cap=40), 20_000, 5),
    "fixed-n-h1": lambda: run_trials(CAUCHY, 1, 1.3, FixedN(n=25, cap=40), 20_000, seed=5),
    "sum-of-squares-h0": lambda: run_trials(CAUCHY, 0, 1.3, SumOfSquares(20.0, cap=40), 20_000, 5),
    "marginal-h1": lambda: run_marginal_trials_many(CAUCHY, [(1, [0.8], TWO_SIDED)], 20_000, 5)[0],
}


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

    @pytest.mark.parametrize(
        "n_workers, run_draw_blocks, forks",
        [(1, None, 0), (2, None, 1), (3, None, 2), (3, 2, 1)],
        ids=["1-worker", "2-workers", "3-workers", "3-workers-memory-capped-at-2"],
    )
    @pytest.mark.parametrize("run", LAYOUT_RUNS.values(), ids=LAYOUT_RUNS.keys())
    def test_block_layout_invariance(self, run, n_workers, run_draw_blocks, forks, monkeypatch):
        # 20,000 trials: three blocks of 8192 in this process against twenty
        # of 1000 split over `n_workers` processes, or over as many as
        # RUN_DRAW_BYTES lets map a block each
        monkeypatch.setattr(workers, "worker_count", lambda: 1)
        a = run()
        monkeypatch.setattr(workers, "worker_count", lambda: n_workers)
        monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 1000)
        if run_draw_blocks is not None:
            monkeypatch.setattr(montecarlo, "RUN_DRAW_BYTES", run_draw_blocks * 8 * 1000 * 40)
        started = count_forks(monkeypatch)
        assert run() == a
        assert len(started) == forks

    @pytest.mark.usefixtures("one_process")
    def test_draw_buffer_budget_only_changes_block_layout(self, monkeypatch):
        rule = BfThreshold(upper=4.0, lower=0.25, cap=40)
        a = run_trials(CAUCHY, 1, 1.3, rule, 2_000, seed=5)
        am = run_marginal_trials_many(CAUCHY, [(1, [0.8], rule)], 2_000, seed=5)[0]
        blocks = spy_blocks(monkeypatch)
        monkeypatch.setattr(montecarlo, "DRAW_BUFFER_BYTES", 8 * 40 * 300)
        assert run_trials(CAUCHY, 1, 1.3, rule, 2_000, seed=5) == a
        assert blocks == [300] * 6 + [200]  # full rows: the cap is 40
        blocks.clear()
        assert run_marginal_trials_many(CAUCHY, [(1, [0.8], rule)], 2_000, seed=5)[0] == am
        assert blocks == [307] * 6 + [158]  # 39 draws per trial after x_1

    def test_default_budget_keeps_full_blocks_at_benchmark_caps(self):
        """DRAW_BUFFER_BYTES shrinks neither the blocks of heads nor those of full rows."""
        for cap in (100, 200, 1000):
            rows = montecarlo.DRAW_BUFFER_BYTES // (8 * cap)
            assert rows >= montecarlo.BLOCK_SIZE and rows >= montecarlo.FULL_BLOCK_SIZE

    def test_two_cpus_get_two_workers_at_benchmark_caps(self):
        """The draws a block maps leave room for at least two processes within RUN_DRAW_BYTES."""
        for cap in (100, 200, 1000):
            rule = BfThreshold(upper=20.0, cap=cap)
            for g, x_init in ((1.0, None), (None, 0.8)):  # a plain run, a marginal one
                run = montecarlo._Run(0, g, rule, 0, x_init, block=montecarlo.BLOCK_SIZE)
                assert montecarlo.RUN_DRAW_BYTES // montecarlo._mapped_bytes(run) >= 2

    @pytest.mark.parametrize("marginal, row_bytes", [(False, 24), (True, 32)])
    def test_record_budget_boundary(self, marginal, row_bytes):
        most = montecarlo.RECORD_BUDGET_BYTES // row_bytes
        rule = BfThreshold(upper=20.0, cap=200)
        montecarlo._validate_run(CAUCHY, 0, rule, most, marginal)
        with pytest.raises(ResourceLimitError, match="record budget"):
            montecarlo._validate_run(CAUCHY, 0, rule, most + 1, marginal)

    def test_records_over_budget_refused_before_any_table(self, monkeypatch):
        def no_tables(pair):
            raise AssertionError("tables were built")

        monkeypatch.setattr(montecarlo, "_curves_for", no_tables)
        rule = BfThreshold(upper=20.0, cap=200)
        over = montecarlo.RECORD_BUDGET_BYTES // 24 + 1
        with pytest.raises(ResourceLimitError, match="record budget"):
            run_trials(CAUCHY, 0, 1.0, rule, over, seed=3)
        with pytest.raises(ResourceLimitError, match="record budget"):
            run_marginal_trials_many(CAUCHY, [(0, [0.8], rule)],
                                     montecarlo.RECORD_BUDGET_BYTES // 32 + 1, seed=3)

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
        no_work(monkeypatch)
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
        no_work(monkeypatch)
        pair = InvariantModelPair.location_scale(PointMass(0.0))
        with pytest.raises(NotImplementedError, match="scale group"):
            run_trials(pair, 1, (1.5, -1.0), FixedN(n=6, cap=10), n_trials, seed=3)


# runs that mix k, g, caps and bars: a corridor at cap 100, a one-sided bar at
# cap 40, and the bar-less FixedN and SumOfSquares
MANY_PLAIN = [
    (0, 0.5, CORRIDOR),
    (1, 0.5, CORRIDOR),
    (1, 3.0, BfThreshold(upper=4.0, cap=40)),
    (1, 1.0, FixedN(n=25, cap=40)),
    (0, 1.3, SumOfSquares(20.0, cap=40)),
]
MANY_MARGINAL = [
    (0, [0.8], CORRIDOR),
    (1, [0.8], CORRIDOR),
    (1, [1.5], BfThreshold(upper=4.0, cap=40)),
    (0, [-0.6], FixedN(n=25, cap=40)),
    (1, [2.0], SumOfSquares(20.0, cap=40)),
]
MANY = {
    "plain": (run_trials_many, run_trials, MANY_PLAIN),
    "marginal": (
        run_marginal_trials_many,
        lambda pair, k, x_m, rule, n_trials, seed: run_marginal_trials_many(
            pair, [(k, x_m, rule)], n_trials, seed)[0],
        MANY_MARGINAL,
    ),
}


class TestManyRuns:
    """A many-run call is one split job, and each run's records are its one-run call's."""

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    @pytest.mark.parametrize("kind", MANY)
    def test_runs_equal_their_one_run_calls(self, kind, n_workers, monkeypatch):
        many, one, runs = MANY[kind]
        monkeypatch.setattr(workers, "worker_count", lambda: 1)
        expected = [one(CAUCHY, k, v, rule, 2500, seed=5) for k, v, rule in runs]
        # five runs of 2,500 trials, in blocks of at most 1000: the group edges,
        # at items 6,250 (W = 2) and 4,166 and 8,333 (W = 3), fall inside runs
        monkeypatch.setattr(workers, "worker_count", lambda: n_workers)
        monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 1000)
        forks = count_forks(monkeypatch)
        got = many(CAUCHY, runs, 2500, seed=5)
        assert len(got) == len(expected)
        assert all(a == b for a, b in zip(got, expected))
        assert len(forks) == n_workers - 1

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            ((2, 1.0, CORRIDOR), ValueError, "hypothesis index must be 0 or 1, got 2"),
            ((0, 0.0, CORRIDOR), ValueError, "nuisance value must be finite with a positive"),
            ((1, -2.0, CORRIDOR), ValueError, "nuisance value must be finite with a positive"),
            ((1, 1.0, FixedN(n=1, cap=1)), ValueError, "rule cap 1 must exceed the initial"),
        ],
        ids=["k", "g-zero", "g-negative", "cap-within-m"],
    )
    @pytest.mark.parametrize("at", [0, 2])
    def test_a_bad_run_anywhere_is_refused_before_any_work(self, bad, error, message, at,
                                                           monkeypatch):
        no_work(monkeypatch)
        runs = MANY_PLAIN[:2]
        runs.insert(at, bad)
        with pytest.raises(error, match=message):
            run_trials_many(CAUCHY, runs, 100, seed=3)

    def test_a_bad_initial_sample_anywhere_is_refused_before_any_work(self, monkeypatch):
        no_work(monkeypatch)
        runs = MANY_MARGINAL[:2] + [(1, [0.0], CORRIDOR)]
        with pytest.raises(SingularInputError):
            run_marginal_trials_many(CAUCHY, runs, 100, seed=3)
        with pytest.raises(ValueError, match="rule cap 1 must exceed the initial"):
            run_marginal_trials_many(CAUCHY, runs[:1] + [(0, [1.0], FixedN(n=1, cap=1))], 10, 3)

    @pytest.mark.parametrize("kind, row_bytes", [("plain", 24), ("marginal", 32)])
    def test_records_over_budget_refused_before_any_work(self, kind, row_bytes, monkeypatch):
        # the budget holds per run: each run's records alone must fit
        many, _, runs = MANY[kind]
        most = montecarlo.RECORD_BUDGET_BYTES // row_bytes
        no_work(monkeypatch)
        with pytest.raises(ResourceLimitError, match="record budget"):
            many(CAUCHY, runs, most + 1, seed=3)

    @pytest.mark.parametrize("kind", MANY)
    def test_zero_trials_give_one_empty_batch_per_run(self, kind, monkeypatch):
        many, one, runs = MANY[kind]
        expected = [one(CAUCHY, k, v, rule, 0, seed=3) for k, v, rule in runs]
        no_work(monkeypatch)
        got = many(CAUCHY, runs, 0, seed=3)
        assert len(got) == len(runs) and all(len(b) == 0 for b in got)
        assert all(a == b for a, b in zip(got, expected))


def assert_no_child():
    """This process has no child process left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkerProcesses:
    """A run reaps every worker it forks, whether the run returns or raises."""

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        # 2,000 trials: two groups of 1,000, the second in a forked worker;
        # each runs two blocks of 500
        monkeypatch.setattr(workers, "worker_count", lambda: 2)
        monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 500)

    def patch_block(self, monkeypatch, before):
        """``_run_block`` that calls ``before(lo, in_worker)`` first."""
        caller = os.getpid()
        run_block = montecarlo._run_block

        def patched(pair, curves, run, lo, *rest):
            before(lo, os.getpid() != caller)
            return run_block(pair, curves, run, lo, *rest)

        monkeypatch.setattr(montecarlo, "_run_block", patched)

    def test_a_run_with_workers_leaves_no_child(self):
        assert len(run_trials(CAUCHY, 0, 1.3, TWO_SIDED, 2000, seed=5)) == 2000
        assert_no_child()

    def test_no_fork_while_another_thread_runs(self, monkeypatch):
        started = []
        monkeypatch.setattr(workers, "_fork", lambda *args: started.append(args))
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        thread.start()
        try:
            records = run_trials(CAUCHY, 0, 1.3, TWO_SIDED, 2000, seed=5)
        finally:
            release.set()
            thread.join(60)
        assert not thread.is_alive() and started == []
        monkeypatch.setattr(workers, "worker_count", lambda: 1)
        assert records == run_trials(CAUCHY, 0, 1.3, TWO_SIDED, 2000, seed=5)

    @pytest.mark.parametrize(
        "failure, message",
        [("raise", "RuntimeError: block at trial 1500 failed"), ("signal", "died by signal 9")],
    )
    def test_worker_failure_raises_in_the_caller(self, failure, message, monkeypatch):
        def before(lo, in_worker):
            if lo == 1500 and in_worker:  # the worker's last block
                if failure == "raise":
                    raise RuntimeError(f"block at trial {lo} failed")
                os.kill(os.getpid(), signal.SIGKILL)

        self.patch_block(monkeypatch, before)
        with pytest.raises(OptstopError, match=f"^a Monte Carlo worker failed: .*{message}$"):
            run_trials(CAUCHY, 0, 1.3, TWO_SIDED, 2000, seed=5)
        assert_no_child()

    def test_interrupted_caller_kills_and_reaps_its_workers(self, monkeypatch):
        def before(lo, in_worker):
            if in_worker:
                time.sleep(30)  # would outlast the run unless killed
            elif lo == 500:  # the caller's second block
                raise KeyboardInterrupt

        self.patch_block(monkeypatch, before)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_marginal_trials_many(CAUCHY, [(1, [0.8], TWO_SIDED)], 2000, seed=5)
        assert time.monotonic() - start < 15
        assert_no_child()


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
            c = pair.effect_prior.coordinate(np.array([q]), np.array([t]))
            lb = float(curves.log_bf_cells(n, c)[0])
            if rule.decide(x[:n], lb):
                return n, lb

    @pytest.mark.parametrize(
        "k, rule", [(1, BfThreshold(upper=5.0, lower=0.2, cap=40)), (0, FixedN(n=25, cap=40))]
    )
    def test_records_match_fresh_streams(self, k, rule):
        records = run_trials(CAUCHY, k, 0.7, rule, 300, seed=11)
        for trial in (0, 1, 57, 299):
            expected = self.reference_stop(CAUCHY, k, 0.7, rule, 11, trial)
            assert stops(records, [trial]) == [expected]

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
        others = np.arange(40) != 17
        assert stops(after, others) == stops(before, others)
        expected = self.reference_stop(pair, 1, 1.3, rule, 2, 17, lead=[-0.5])
        assert stops(after, [17]) == [expected] != stops(before, [17])

    def test_x1_zero_redraw_with_a_chunk_boundary_after_n_2(self, monkeypatch):
        # one step per chunk: the replayed trial's x_2 is read in a chunk of its own
        monkeypatch.setattr(montecarlo, "STEP_CHUNK", 1)
        self.test_x1_zero_redraws_from_the_trials_own_stream(monkeypatch)

    @pytest.mark.usefixtures("one_process")
    def test_x1_zero_redraw_in_a_lazy_block(self, monkeypatch):
        """Trial 524 sits in the block of heads after the first, and runs past its head."""
        pair = InvariantModelPair.scale(PointMass(0.5))
        monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 512)  # 512 full rows, then 64 heads
        before = run_trials(pair, 1, 1.3, CORRIDOR, 576, seed=2)
        shapes = spy_buffers(monkeypatch)
        self.patch_trial(monkeypatch, 524, [-0.5])  # x_1 = 1.3 * (0.5 - 0.5) = 0
        after = run_trials(pair, 1, 1.3, CORRIDOR, 576, seed=2)
        (first, full), (rows, head), (survivors, replayed) = shapes
        assert first == 512 and rows == 64
        assert head < full == replayed == CORRIDOR.cap and survivors < rows
        others = np.arange(576) != 524
        assert stops(after, others) == stops(before, others)
        expected = self.reference_stop(pair, 1, 1.3, CORRIDOR, 2, 524, lead=[-0.5])
        assert stops(after, [524]) == [expected]
        assert after.stop_index[524] > head  # its x_n past the head came from the replay


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
    "marginal-h1": (
        lambda: run_marginal_trials_many(CAUCHY, [(1, [0.8], CORRIDOR)], 2048, seed=5)[0], 99
    ),
}


class TestLazyDraws:
    """A segment's blocks after its first draw row heads; trials running past them replay.

    A segment's first block has no earlier trials to choose a head from, so
    its head is the cap: it draws full rows.
    """

    @pytest.mark.usefixtures("one_process")
    @pytest.mark.parametrize("run, full", LAZY_RUNS.values(), ids=LAZY_RUNS.keys())
    def test_later_blocks_draw_heads_then_replay(self, run, full, monkeypatch):
        monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 512)  # full rows, then three blocks
        shapes = spy_buffers(monkeypatch)
        records = run()
        assert shapes[0] == (512, full)
        later = shapes[1:]
        assert len(later) == 6
        assert [rows for rows, _ in later[::2]] == [512, 512, 512]
        for (rows, head), (survivors, replayed) in zip(later[::2], later[1::2]):
            assert head < full and replayed == full and 0 < survivors < rows
        monkeypatch.setattr(montecarlo, "_run_block", run_block_per_step)
        assert records == run()

    @pytest.mark.usefixtures("one_process")
    @pytest.mark.parametrize("run", [
        lambda: run_trials(CAUCHY, 0, 1.3, CORRIDOR, 10_000, seed=5),
        lambda: run_trials(CAUCHY, 1, 1.3, CORRIDOR, 10_000, seed=5),
        lambda: run_marginal_trials_many(CAUCHY, [(1, [0.8], CORRIDOR)], 10_000, seed=5)[0],
        # most trials run to the cap: full rows in every block
        lambda: run_trials(CAUCHY, 0, 1.3, TYPE1, 10_000, seed=5),
        lambda: run_marginal_trials_many(CAUCHY, [(0, [0.8], TYPE1)], 10_000, seed=5)[0],
    ], ids=["h0", "h1", "marginal-h1", "type1-h0", "type1-marginal-h0"])
    def test_records_equal_at_block_sizes_512_and_8192(self, run, monkeypatch):
        # full rows in blocks of 2,048 first, then heads in blocks of 8,192 or full rows
        assert (montecarlo.BLOCK_SIZE, montecarlo.FULL_BLOCK_SIZE) == (8192, 2048)
        expected = run()
        for full in (700, montecarlo.BLOCK_SIZE):
            monkeypatch.setattr(montecarlo, "FULL_BLOCK_SIZE", full)
            assert run() == expected
        monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 512)  # every block of 512
        assert run() == expected

    @pytest.mark.usefixtures("one_process")
    def test_full_rows_are_drawn_full_block_size_trials_at_a_time(self, monkeypatch):
        """A cap-200 null run maps 2,048 full rows at a time; a corridor run's heads, 6,144.

        A corridor segment starts with a block of full rows, then draws heads.
        """
        shapes = spy_buffers(monkeypatch)
        run_trials(CAUCHY, 0, 1.0, BfThreshold(upper=20.0, cap=200), 8192, seed=3)
        assert shapes == [(2048, 200)] * 4
        shapes.clear()
        run_trials(CAUCHY, 0, 1.0, CORRIDOR, 8192, seed=3)
        rows, head = shapes[1]
        assert shapes[0] == (montecarlo.FULL_BLOCK_SIZE, CORRIDOR.cap)
        assert rows == 6144 and head < CORRIDOR.cap

    @pytest.mark.usefixtures("one_process")
    @pytest.mark.parametrize(
        "k, rule", [(0, BfThreshold(upper=20.0, cap=200)), (0, FixedN(n=100)), (1, FixedN(n=100))]
    )
    def test_runs_that_reach_far_draw_in_full(self, k, rule, monkeypatch):
        # most trials run past half the cap: no head would save a replay
        monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 512)
        shapes = spy_buffers(monkeypatch)
        run_trials(CAUCHY, k, 1.0, rule, 2048, seed=3)
        full = rule.cap + 2 * k
        assert shapes == [(512, full)] * 4

    @staticmethod
    def head(cap, stops):
        return montecarlo._lazy_head(np.bincount(np.array(stops, dtype=np.int64), minlength=cap + 1))

    def test_head_is_the_first_chunk_end_with_few_trials_running(self):
        assert self.head(100, []) == 100  # a segment's first block draws in full
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
        full = (est.count0 > 0) & (est.count1 > 50)
        assert np.all(est.ci_lo[full] <= 1.0 + 0.25) and np.all(est.ci_hi[full] >= 0.75)

    def test_point_zero_single_atom_bin(self):
        rule = FixedN(n=5, cap=10)
        a = run_trials(POINT0, 0, 1.0, rule, 2000, seed=1)
        b = run_trials(POINT0, 1, 1.0, rule, 2000, seed=2)
        est = estimate_strong_calibration(a, b)
        assert est.usable_bins == 1
        (only,) = np.flatnonzero(est.count0)
        assert est.ratio[only] == pytest.approx(1.0)
        assert est.log_beta_gmean[only] == 0.0
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
            hits = set(records.trial[records.stopped_log_beta >= rule.log_bars[0][0]].tolist())
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


def marginal_calibration(pair, x_m, rule, n_trials, seed):
    """The calibration of the conditional stopped value given ``x_m``, as the CLI computes it."""
    arms = run_marginal_trials_many(pair, [(k, x_m, rule) for k in (0, 1)], n_trials, seed)
    return estimate_strong_calibration(*arms)


class TestMarginalCalibration:
    def test_point_zero_trivial(self):
        est = marginal_calibration(POINT0, [1.0], FixedN(n=5, cap=10), 1000, seed=7)
        assert est.usable_bins == 1
        assert est.passed

    def test_records_hold_conditional_values(self):
        rule = BfThreshold(upper=5.0, lower=0.2, cap=60)
        records = run_marginal_trials_many(CAUCHY, [(0, [1.0], rule)], 500, seed=8)[0]
        assert len(records) == 500
        assert all(r.stop_index >= 2 for r in records)
        # the posterior-drawn nuisance value is recorded per trial
        assert len({r.g for r in records}) > 400

    def test_requires_scale_group(self):
        pair = InvariantModelPair.location_scale(PointMass(0.0))
        with pytest.raises(NotImplementedError):
            run_marginal_trials_many(pair, [(0, [1.0, 2.0], FixedN(n=5, cap=10))], 10, seed=0)

    @pytest.mark.parametrize(
        "x_m, error",
        [([0.0], SingularInputError), ([math.nan], ValueError), ([1.0, 2.0], ValueError)],
    )
    @pytest.mark.parametrize("n_trials", [0, 10])
    def test_initial_sample_the_pair_rejects_refused(self, x_m, error, n_trials, monkeypatch):
        no_work(monkeypatch)
        with pytest.raises(error):
            run_marginal_trials_many(CAUCHY, [(0, x_m, FixedN(n=5, cap=10))], n_trials, seed=0)

    @pytest.mark.parametrize("n_trials", [0, 10])
    def test_nonzero_point_effect_refused_under_the_alternative(self, n_trials, monkeypatch):
        no_work(monkeypatch)
        pair = InvariantModelPair.scale(PointMass(0.5))
        with pytest.raises(ValueError, match="nonzero point effect"):
            run_marginal_trials_many(pair, [(1, [1.0], FixedN(n=5, cap=10))], n_trials, seed=0)

    def test_records_subtract_the_initial_samples_log_beta(self):
        # under PointMass(0.5), log beta_1 = log 2 Phi(0.5), about 0.32, at x_1 = 1: each
        # stopped value is log beta_2 - log beta_1, read off the tables (error 1e-8)
        pair = InvariantModelPair.scale(PointMass(0.5))
        assert pair.log_bf([1.0]) == pytest.approx(math.log(2.0 * stats.norm.cdf(0.5)))
        records = run_marginal_trials_many(pair, [(0, [1.0], FixedN(n=2, cap=10))], 5, seed=4)[0]
        assert np.all(records.stop_index == 2)
        key64 = montecarlo._stream_key(4, 0, (1.0,), variant=1)
        for trial in range(5):
            gen = fresh_stream(key64, trial)
            a, delta = PointMass(0.0).posterior_state(1.0, gen)  # the H0 posterior, then z_2
            x2 = a * (delta + gen.standard_normal())
            assert records.g[trial] == a
            exact = pair.log_bf([1.0, x2]) - pair.log_bf([1.0])
            assert abs(records.stopped_log_beta[trial] - exact) <= 1e-8

    @pytest.mark.parametrize("delta, k", [(0.5, 0), (0.0, 1)])
    def test_point_effect_marginal_runs_where_sampled(self, delta, k):
        pair = InvariantModelPair.scale(PointMass(delta))
        records = run_marginal_trials_many(pair, [(k, [1.0], FixedN(n=5, cap=10))], 50, seed=0)[0]
        assert len(records) == 50
        assert all(r.stop_index == 5 for r in records)

    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_both_arms_are_one_split_job(self, n_workers, monkeypatch):
        """W - 1 forks for both arms, and the estimate of the arms' own runs, bit for bit."""
        rule = BfThreshold(upper=5.0, lower=0.2, cap=40)
        monkeypatch.setattr(workers, "worker_count", lambda: 1)
        arms = [run_marginal_trials_many(CAUCHY, [(k, [1.5], rule)], 2000, seed=13)[0]
                for k in (0, 1)]
        expected = estimate_strong_calibration(*arms)
        # two arms of four blocks of 500
        monkeypatch.setattr(workers, "worker_count", lambda: n_workers)
        monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 500)
        forks = count_forks(monkeypatch)
        got = marginal_calibration(CAUCHY, [1.5], rule, 2000, seed=13)
        assert len(forks) == n_workers - 1
        for field in dataclasses.fields(got):
            value = np.asarray(getattr(got, field.name))
            assert value.tobytes() == np.asarray(getattr(expected, field.name)).tobytes()

    def test_moderate_run_calibrates(self):
        rule = BfThreshold(upper=5.0, lower=0.2, cap=100)
        est = marginal_calibration(CAUCHY, [1.5], rule, 30_000, seed=13)
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
        assert stops(long, slice(50)) == stops(short, slice(None))
        # the second chunk's rows match one-row evaluations bit for bit
        key64 = montecarlo._stream_key(9, 1, (), variant=2)
        trials = range(chunk, chunk + 50)
        seqs = [sample_sequence(model, 1, fresh_stream(key64, t)) for t in trials]
        batch = log_beta_paths(model, seqs)
        for seq, row, record in zip(seqs, batch, list(long)[chunk:]):
            assert trajectory_finite(model, seq).log_beta == tuple(row.tolist())
            assert record.stopped_log_beta == row[record.stop_index - 1]

    @pytest.mark.parametrize("grid", [500, 10_000])
    def test_records_equal_at_the_old_and_new_chunk_sizes(self, grid, monkeypatch):
        """2^20 cells per chunk (8 MB slabs) and 2^16 (512 KB) give the same records."""
        model = FiniteModel.bernoulli_point_vs_uniform(horizon=8, grid=grid)
        rule = BfThreshold(upper=3.0, lower=0.5, cap=8)
        n_trials = 2**20 // grid + 7  # past the first 2^20-cell chunk
        records = []
        for cells in (2**20, 2**16):
            monkeypatch.setattr(montecarlo, "FINITE_CHUNK_CELLS", cells)
            assert montecarlo._finite_chunk(model) == cells // grid
            records.append(run_trials_finite(model, 0, rule, n_trials, seed=5))
        assert records[0] == records[1]
        assert len(records[0]) == n_trials

    @pytest.mark.parametrize("n_trials", [0, 10])
    def test_a_bad_hypothesis_index_is_refused_before_any_draw(self, n_trials, monkeypatch):
        def draw(*args):
            raise AssertionError("a sequence was drawn")

        monkeypatch.setattr(montecarlo, "sample_sequence", draw)
        model = FiniteModel.bernoulli_point_vs_uniform(horizon=6, grid=20)
        with pytest.raises(ValueError, match="hypothesis index must be 0 or 1, got 5"):
            run_trials_finite(model, 5, FixedN(n=6, cap=6), n_trials, seed=3)

    def test_a_negative_trial_count_is_refused_before_any_draw(self, monkeypatch):
        def draw(*args):
            raise AssertionError("a sequence was drawn")

        monkeypatch.setattr(montecarlo, "sample_sequence", draw)
        model = FiniteModel.bernoulli_point_vs_uniform(horizon=6, grid=20)
        with pytest.raises(ValueError, match="^n_trials must be nonnegative$"):
            run_trials_finite(model, 0, FixedN(n=6, cap=6), -5, seed=3)

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
