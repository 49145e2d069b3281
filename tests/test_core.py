import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optstop.core import (
    NEVER,
    BfTrajectory,
    SignificanceLevel,
    StopOutcome,
    stop,
)
from optstop.stopping import BfThreshold, FixedN

finite_floats = st.floats(-50, 50, allow_nan=False, allow_infinity=False)


class TestSignificanceLevel:
    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.2, math.nan])
    def test_domain(self, alpha):
        with pytest.raises(ValueError):
            SignificanceLevel(alpha)

    def test_threshold(self):
        assert SignificanceLevel(0.05).log_threshold == pytest.approx(math.log(20.0))

    @pytest.mark.parametrize("alpha", [0.01, 0.042, 0.1])
    def test_threshold_is_the_rules_bar(self, alpha):
        # -log(alpha) is one ulp off log(1/alpha) at each of these
        bar = BfThreshold(upper=1 / alpha, cap=2).log_bars[0][0]
        assert SignificanceLevel(alpha).log_threshold == bar


class TestTrajectory:
    def test_indexing(self):
        traj = BfTrajectory(log_beta=(0.1, 0.2, 0.3))
        assert traj.end == 3
        assert traj.value_at(1) == 0.1 and traj.value_at(2) == 0.2

    def test_rejects_nonfinite_entries(self):
        with pytest.raises(ValueError):
            BfTrajectory(log_beta=(0.0, math.inf))

    @pytest.mark.parametrize("n", [0, 4])
    def test_value_at_rejects_n_outside_range(self, n):
        traj = BfTrajectory(log_beta=(0.7, -0.1, 2.0))
        with pytest.raises(ValueError, match="outside trajectory range"):
            traj.value_at(n)


class TestStop:
    def _bernoulli_ones_traj(self, length):
        # point Bernoulli(1/2) vs uniform prior on the all-ones sequence:
        # beta_n = 2^n / (n+1), evaluated with the same float expression
        # the threshold tests use (log of the ratio)
        values = [math.log(2.0**n / (n + 1.0)) for n in range(1, length + 1)]
        return BfTrajectory(log_beta=tuple(values))

    def test_fixed_n(self):
        traj = self._bernoulli_ones_traj(8)
        out = stop(traj, FixedN(n=5, cap=8), data=[1] * 8)
        assert out.stop_index == 5
        assert out.stopped_log_beta == traj.value_at(5)

    def test_cap_clause(self):
        traj = BfTrajectory(log_beta=tuple([0.0] * 10))
        out = stop(traj, BfThreshold(upper=20.0, cap=10), data=[0] * 10)
        assert out.stop_index == 10
        assert out.stopped_log_beta == 0.0

    def test_threshold_fires_at_four_thirds(self):
        # all-ones Bernoulli trajectory: beta_1 = 1, beta_2 = 4/3
        traj = self._bernoulli_ones_traj(6)
        out = stop(traj, BfThreshold(upper=4.0 / 3.0, cap=6), data=[1] * 6)
        assert out.stop_index == 2
        assert math.exp(out.stopped_log_beta) == pytest.approx(4.0 / 3.0, abs=1e-15)

    def test_never_when_cap_beyond_data(self):
        traj = BfTrajectory(log_beta=(0.0, 0.0, 0.0))
        out = stop(traj, BfThreshold(upper=20.0, cap=100), data=[0, 0, 0])
        assert out.stop_index is NEVER
        assert not out.stopped

    def test_tau_independence_bitwise(self):
        traj = self._bernoulli_ones_traj(8)
        data = [1] * 8
        by_threshold = stop(traj, BfThreshold(upper=4.0 / 3.0, cap=8), data)
        by_fixed = stop(traj, FixedN(n=2, cap=8), data)
        assert by_threshold.stop_index == by_fixed.stop_index == 2
        # bit-for-bit: both read the same trajectory entry
        assert by_threshold.stopped_log_beta == by_fixed.stopped_log_beta

    def test_deterministic(self):
        traj = self._bernoulli_ones_traj(8)
        rule = BfThreshold(upper=2.0, cap=8)
        outs = {stop(traj, rule, [1] * 8) for _ in range(5)}
        assert len(outs) == 1

    def test_stop_outcome_validation(self):
        with pytest.raises(ValueError):
            StopOutcome(stop_index=NEVER, stopped_log_beta=0.0)
        with pytest.raises(ValueError):
            StopOutcome(stop_index=3, stopped_log_beta=None)
        with pytest.raises(ValueError):
            StopOutcome(stop_index=0, stopped_log_beta=0.0)


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(finite_floats, min_size=3, max_size=12),
    n1=st.integers(1, 12),
    n2=st.integers(1, 12),
)
def test_stop_reads_trajectory_verbatim(values, n1, n2):
    """Any two rules stopping at the same index yield bit-identical values."""
    traj = BfTrajectory(log_beta=tuple(values))
    n1 = min(n1, traj.end)
    n2 = min(n2, traj.end)
    data = list(range(traj.end))
    out1 = stop(traj, FixedN(n=n1, cap=traj.end), data)
    out2 = stop(traj, FixedN(n=n2, cap=traj.end), data)
    if out1.stop_index == out2.stop_index:
        assert out1.stopped_log_beta == out2.stopped_log_beta
