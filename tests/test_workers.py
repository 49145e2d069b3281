"""Forked workers: the exact evaluator's split over processes, and the guard against nested forks."""

import math
import os
import pickle
import threading
import time

import numpy as np
import pytest

from optstop import models, montecarlo, workers
from optstop.errors import OptstopError
from optstop.models import CauchyEffect, InvariantModelPair, PointMass, ScaleBfCurves
from optstop.montecarlo import run_trials
from optstop.stopping import PROBE_CHUNK, BfThreshold, FixedN, SumOfSquares, check_invariance

CAUCHY = InvariantModelPair.scale(CauchyEffect(1.0))


def assert_no_child():
    """This process has no child process left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The groups handed to forked children, in order; the fork itself still happens."""
    started = []
    fork = workers._fork

    def spy(run, group):
        started.append(group)
        return fork(run, group)

    monkeypatch.setattr(workers, "_fork", spy)
    return started


def force_workers(monkeypatch, n_workers):
    monkeypatch.setattr(workers, "worker_count", lambda: n_workers)


def test_montecarlo_worker_count_is_the_workers_one():
    # perfbench's stamp reads optstop.montecarlo.worker_count through getattr
    assert montecarlo.worker_count is workers.worker_count
    assert workers.worker_count() >= 1


@pytest.mark.parametrize(
    "cpus, most, in_job, expected",
    [(3, 5, False, 3), (3, 2, False, 2), (3, 0, False, 1), (1, 5, False, 1), (3, 5, True, 1)],
)
def test_usable_workers(cpus, most, in_job, expected, monkeypatch):
    force_workers(monkeypatch, cpus)
    monkeypatch.setattr(workers, "_in_job", in_job)
    assert workers.usable(most) == expected


def test_a_split_job_runs_further_jobs_where_they_are(monkeypatch):
    force_workers(monkeypatch, 3)
    seen = []

    def run(group):
        if workers.usable(5) != 1:
            raise AssertionError("a job inside a split job may fork")  # in the child too
        seen.append(group)

    workers.run_groups(run, 2, 2, "a test")
    assert seen == [range(0, 1)] and workers.usable(5) == 3  # the caller's group; flag cleared
    workers.run_groups(lambda group: seen.append(workers.usable(5)), 2, 1, "a test")
    assert seen == [range(0, 1), 3]  # a job of one group forks nothing, so a job inside it may


def test_group_values_come_back_in_group_order(forks, monkeypatch):
    force_workers(monkeypatch, 3)
    # each child's value pickles to some 500 KB, which its file gives back whole
    values = workers.run_groups(list, 3 * 10**5, 3, "a test")
    assert values == [list(range(0, 10**5)), list(range(10**5, 2 * 10**5)),
                      list(range(2 * 10**5, 3 * 10**5))]
    assert forks == [range(10**5, 2 * 10**5), range(2 * 10**5, 3 * 10**5)]
    assert_no_child()


@pytest.mark.parametrize(
    "size, most, step, expected",
    [
        (0, 3, 1, [range(0, 0)]),
        (2, 3, 1, [range(0, 1), range(1, 2)]),
        (5, 2, 1, [range(0, 2), range(2, 5)]),
        (200, 3, 64, [range(0, 64), range(64, 128), range(128, 200)]),
        (65, 3, 64, [range(0, 64), range(64, 65)]),
        (64, 3, 64, [range(0, 64)]),
        (1000, 2, 64, [range(0, 512), range(512, 1000)]),
    ],
)
def test_the_split_contract(size, most, step, expected, forks, monkeypatch):
    force_workers(monkeypatch, 3)
    values = workers.run_groups(lambda group: group, size, most, "a test", step)
    assert values == expected  # in group order
    assert forks == expected[1:]  # the first group runs here, each other in a child
    assert all(values) or size == 0  # no empty group but a size-0 job's one
    assert all(len(group) % step == 0 for group in values[:-1])
    assert_no_child()


def test_a_long_failure_message_reaches_the_caller_whole(monkeypatch):
    force_workers(monkeypatch, 2)
    message = "a failure " * 500 + "ends here"
    assert len(message) > 4096  # a pipe's atomic write, which cut the message once

    def run(group):
        if group.start:
            raise RuntimeError(message)

    with pytest.raises(OptstopError) as failed:
        workers.run_groups(run, 2, 2, "a test")
    assert str(failed.value) == f"a test worker failed: RuntimeError: {message}"
    assert_no_child()


def test_a_value_that_fails_to_pickle_gives_the_pickling_error(monkeypatch):
    force_workers(monkeypatch, 2)
    # some 300 KB of the value reach the child's file before the lambda fails to pickle
    value = list(range(10**5)) + [lambda: None]
    with pytest.raises(Exception) as expected:
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    with pytest.raises(OptstopError) as failed:
        workers.run_groups(lambda group: value if group.start else None, 2, 2, "a test")
    error = expected.value
    assert str(failed.value) == f"a test worker failed: {type(error).__name__}: {error}"
    assert_no_child()


def table_bytes(prior) -> bytes:
    """The bytes of the cap-200 boundary at a bar of 20 and of every table it built."""
    curves = ScaleBfCurves(InvariantModelPair.scale(prior))
    parts = [curves.boundary(math.log(20.0), 200, above=True).tobytes()]
    for n in sorted(curves._tables):
        edges, coeffs = curves._tables[n]
        parts += [edges.tobytes(), coeffs.tobytes()]
    return b"".join(parts)


class TestSameBytesAcrossWorkerCounts:
    # r = 0.1 bends its curves near q = 0: pieces split over several rounds,
    # each a call of its own
    @pytest.mark.parametrize(
        "prior", [CauchyEffect(1.0), CauchyEffect(0.1), PointMass(0.5), PointMass(-0.5)], ids=str
    )
    def test_tables_and_boundary(self, prior, forks, monkeypatch):
        built = {}
        for n_workers in (1, 2, 3):
            force_workers(monkeypatch, n_workers)
            forks.clear()
            built[n_workers] = table_bytes(prior)
            assert len(forks) >= n_workers - 1  # every group but the caller's forked
        assert built[2] == built[1] and built[3] == built[1]

    def test_log_bf_many(self, forks, monkeypatch, rng):
        xs = [rng.standard_normal(int(rng.integers(2, 30))) + rng.uniform(-1.0, 1.0)
              for _ in range(3 * models._FORK_POINTS + 100)]
        values = {}
        for n_workers in (1, 2, 3):
            force_workers(monkeypatch, n_workers)
            forks.clear()
            values[n_workers] = CAUCHY.log_bf_many(xs).tobytes()
            assert len(forks) == n_workers - 1
        assert values[2] == values[1] and values[3] == values[1]


def test_only_large_calls_fork(forks, monkeypatch):
    force_workers(monkeypatch, 2)
    sizes = []
    log_integral = models._log_integral

    def sized(*args):
        out = log_integral(*args)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(models, "_log_integral", sized)
    ScaleBfCurves(CAUCHY).log_bf_cells(150, 0.5)  # one n
    # one full chunk, as the bundled invariance-check config makes: every
    # probe is shorter than the cap, so log beta of x and x.h in one call
    report = check_invariance(BfThreshold(upper=20.0, cap=1000), CAUCHY, PROBE_CHUNK,
                              np.random.default_rng(3))
    assert report.passed and sizes == [65, 2 * PROBE_CHUNK] and forks == []
    ScaleBfCurves(CAUCHY).boundary(math.log(20.0), 200, above=True)
    assert sizes[2:] == [12870] and len(forks) == 1


def bump(ell):
    """A log integrand 100 nats down at the ends of [0, 1]."""
    return -400.0 * (ell - 0.5) ** 2


class TestEvaluatorWorkers:
    """A split exact-evaluator call reaps every worker it forks, whether it returns or raises."""

    POINTS = 3 * models._FORK_POINTS  # three groups at three workers

    @pytest.fixture(autouse=True)
    def three_workers(self, monkeypatch):
        force_workers(monkeypatch, 3)

    def call(self, phi):
        return models._log_integral(phi, np.zeros(self.POINTS), np.ones(self.POINTS))

    def test_split_call_equals_one_process_and_leaves_no_child(self, forks, monkeypatch):
        split = self.call(bump)
        assert len(forks) == 2
        assert_no_child()
        force_workers(monkeypatch, 1)
        assert split.tobytes() == self.call(bump).tobytes()
        assert np.allclose(split, math.log(math.sqrt(math.pi / 400.0)))

    def test_worker_failure_raises_in_the_caller(self):
        caller = os.getpid()

        def phi(ell):
            if os.getpid() != caller:
                raise RuntimeError("integrand failed")
            return bump(ell)

        with pytest.raises(
            OptstopError, match="^an exact-evaluator worker failed: RuntimeError: integrand failed$"
        ):
            self.call(phi)
        assert_no_child()

    def test_interrupted_caller_kills_and_reaps_its_workers(self):
        caller = os.getpid()

        def phi(ell):
            if os.getpid() != caller:
                time.sleep(30)  # would outlast the call unless killed
            raise KeyboardInterrupt

        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            self.call(phi)
        assert time.monotonic() - start < 15
        assert_no_child()

    def test_no_fork_while_another_thread_runs(self, monkeypatch):
        started = []
        monkeypatch.setattr(workers, "_fork", lambda *args: started.append(args))
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        thread.start()
        try:
            value = self.call(bump)
        finally:
            release.set()
            thread.join(60)
        assert not thread.is_alive() and started == []
        force_workers(monkeypatch, 1)
        assert value.tobytes() == self.call(bump).tobytes()


@pytest.mark.parametrize(
    "rule", [SumOfSquares(20.0, cap=40), FixedN(n=25, cap=40)], ids=["sum-of-squares", "fixed-n"]
)
def test_a_worker_forks_nothing(rule, monkeypatch):
    # Bar-less rules build the tables their cells need on demand, inside
    # their trial blocks, in the caller's group as in the worker's.  Every
    # table build asks to fork here, and a fork inside a block fails the run.
    caller, fork, run_block = os.getpid(), workers._fork, montecarlo._run_block
    in_block = []

    def trial_block(*args):
        in_block.append(True)
        try:
            return run_block(*args)
        finally:
            in_block.pop()

    def fork_outside_blocks(run, group):
        if os.getpid() != caller or in_block:
            raise AssertionError("a process of a split run forked")
        return fork(run, group)

    monkeypatch.setattr(montecarlo, "_run_block", trial_block)
    monkeypatch.setattr(workers, "_fork", fork_outside_blocks)
    monkeypatch.setattr(models, "_FORK_POINTS", 1)
    monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 500)  # 4 blocks: 2 in a forked worker
    force_workers(monkeypatch, 2)
    monkeypatch.setattr(montecarlo, "_curves_cache", {})
    records = run_trials(CAUCHY, 1, 1.3, rule, 2000, seed=5)
    assert_no_child()
    force_workers(monkeypatch, 1)
    monkeypatch.setattr(montecarlo, "_curves_cache", {})
    assert records == run_trials(CAUCHY, 1, 1.3, rule, 2000, seed=5)
