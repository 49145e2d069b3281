import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from optstop.models import CauchyEffect, InvariantModelPair, PointMass
from optstop.stopping import (
    PROBE_CHUNK,
    BfThreshold,
    FixedN,
    InvarianceReport,
    InvariantStatistic,
    RawStatistic,
    SumOfSquares,
    check_invariance,
    rule_from_params,
)
from reference_invariance import check_invariance_sequential


class TestDecide:
    def test_bf_threshold_stops_above_upper(self):
        rule = BfThreshold(upper=20.0, cap=100)
        assert rule.decide([0.0] * 3, math.log(25.0))
        assert not rule.decide([0.0] * 3, math.log(15.0))

    def test_bf_threshold_two_sided(self):
        rule = BfThreshold(upper=5.0, lower=0.2, cap=100)
        assert rule.decide([0.0] * 3, math.log(0.1))
        assert not rule.decide([0.0] * 3, 0.0)

    def test_fixed_n_continues_before_n(self):
        rule = FixedN(n=5)
        assert not rule.decide([1.0] * 4, None)
        assert rule.decide([1.0] * 5, None)

    def test_raw_statistic_direct_arithmetic(self):
        rule = SumOfSquares(20.0, cap=100)
        assert rule.decide([3.0, 3.0, 2.0], None)  # 9 + 9 + 4 = 22 >= 20
        assert not rule.decide([3.0, 2.0], None)
        assert rule.boundary_gap([3.0, 3.0, 2.0], None) == 2.0

    def test_cap_forces_stop(self):
        rule = BfThreshold(upper=1e9, cap=4)
        assert rule.decide([0.0] * 4, 0.0)

    def test_decide_is_pure(self):
        rule = BfThreshold(upper=5.0, lower=0.2, cap=50)
        args = ([1.0, -2.0], 0.3)
        assert all(rule.decide(*args) == rule.decide(*args) for _ in range(10))

    def test_validation(self):
        with pytest.raises(ValueError):
            BfThreshold(upper=-1.0, cap=10)
        with pytest.raises(ValueError):
            BfThreshold(upper=5.0, lower=7.0, cap=10)
        with pytest.raises(ValueError):
            FixedN(n=0)
        with pytest.raises(ValueError, match="fixed sample size 11 exceeds the rule cap 10"):
            FixedN(n=11, cap=10)  # would stop at the cap, not at n
        with pytest.raises(ValueError):
            RawStatistic(statistic=sum, threshold=1.0, cap=0)

    def test_sum_of_squares_refuses_a_nan_threshold(self):
        # no sum of squares meets NaN: such a rule would run every trial to its cap
        with pytest.raises(ValueError, match="sum-of-squares threshold must be a number, got nan"):
            SumOfSquares(math.nan, cap=10)
        never = SumOfSquares(math.inf, cap=10)  # never met either, but a rule as written
        assert not never.decide([1e100, 1e100], None) and never.decide([1.0] * 10, None)

    def test_declared_invariance_flags(self):
        assert FixedN(n=3).declared_invariant
        assert BfThreshold(upper=2.0, cap=5).declared_invariant
        assert not SumOfSquares(1.0, cap=5).declared_invariant


class TestBars:
    """A rule's ``log_bars`` make its threshold decisions and measure its boundary gap."""

    RULES = {
        "one-sided": BfThreshold(upper=20.0, cap=100),
        "two-sided": BfThreshold(upper=5.0, lower=0.2, cap=100),
    }

    def test_bars_are_the_thresholds_logs(self):
        assert self.RULES["one-sided"].log_bars == ((math.log(20.0), True),)
        assert self.RULES["two-sided"].log_bars == ((math.log(5.0), True), (math.log(0.2), False))
        assert FixedN(n=3).log_bars == ()

    @pytest.mark.parametrize("rule", RULES.values(), ids=RULES.keys())
    def test_each_bar_fires_on_itself(self, rule):
        for bar, above in rule.log_bars:
            inside = np.nextafter(bar, -math.inf if above else math.inf)
            assert rule.decide([0.0] * 3, bar)
            assert not rule.decide([0.0] * 3, inside)
            batch = rule.decide_batch(np.array([3, 3]), np.array([bar, inside]), np.zeros(2))
            assert batch.tolist() == [True, False]

    def test_boundary_gap_is_the_distance_to_the_nearest_bar(self):
        up, low = math.log(5.0), math.log(0.2)
        for lb in (up + 0.3, up - 0.1, 0.0, low + 0.2, low - 1.0):
            gap = self.RULES["two-sided"].boundary_gap([0.0], lb)
            assert gap == min(abs(lb - up), abs(lb - low))
        assert self.RULES["one-sided"].boundary_gap([0.0], -1.0) == abs(-1.0 - math.log(20.0))
        assert FixedN(n=3).boundary_gap([0.0], None) == math.inf


class TestDecideBatch:
    """The vector form over the running state makes the scalar decision."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_decide(self, data):
        prefix = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=12))
        n = len(prefix)
        x = np.asarray(prefix)
        sum_sq = float(np.dot(x, x))
        cap = data.draw(st.sampled_from([n, n + 1]) | st.integers(1, 12))
        kind = data.draw(st.sampled_from(["fixed-n", "one-sided", "two-sided", "sum-squares"]))
        boundaries = []
        if kind == "fixed-n":
            fixed = data.draw(st.sampled_from([n]) | st.integers(1, 12))
            rule = FixedN(n=fixed, cap=max(cap, fixed))  # FixedN refuses n > cap
        elif kind == "sum-squares":
            threshold = data.draw(st.sampled_from([sum_sq]) | st.floats(0.0, 1200.0))
            rule = SumOfSquares(threshold, cap=cap)
        else:
            upper = math.exp(data.draw(st.floats(-3.0, 3.0)))
            lower = upper * data.draw(st.floats(0.01, 0.99)) if kind == "two-sided" else None
            rule = BfThreshold(upper=upper, lower=lower, cap=cap)
            boundaries = [bar for bar, _ in rule.log_bars]
        log_beta = data.draw(st.floats(-8.0, 8.0) | st.sampled_from(boundaries or [0.0]))
        batch = rule.decide_batch(n, np.array([log_beta]), np.array([sum_sq]))
        assert batch.shape == (1,)
        assert bool(batch[0]) == rule.decide(prefix, log_beta)

    def test_whole_prefix_rules_have_no_vector_form(self):
        rule = RawStatistic(statistic=sum, threshold=1.0, cap=10)
        with pytest.raises(NotImplementedError):
            rule.decide_batch(3, np.zeros(2), np.zeros(2))


class TestRuleFromParams:
    def test_round_trip(self):
        rule = rule_from_params("bf-threshold", cap=100, upper=20.0, lower=0.05)
        assert isinstance(rule, BfThreshold)
        assert rule.upper == 20.0 and rule.lower == 0.05 and rule.cap == 100

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            rule_from_params("martingale-magic", cap=10)

    def test_extra_params_rejected(self):
        with pytest.raises(ValueError):
            rule_from_params("fixed-n", cap=10, n=3, upper=2.0)

    def test_missing_and_malformed_params_rejected(self):
        with pytest.raises(ValueError, match="needs parameter 'upper'"):
            rule_from_params("bf-threshold", cap=10, lower=0.5)
        with pytest.raises(ValueError, match="rule parameter 'upper': not a number: 'five'"):
            rule_from_params("bf-threshold", cap=10, upper="five")
        for n in ("five", "8.5"):
            with pytest.raises(ValueError, match=f"rule parameter 'n': not an integer: '{n}'"):
                rule_from_params("fixed-n", cap=10, n=n)

    def test_string_params_and_absent_lower(self):
        rule = rule_from_params("bf_threshold", cap=10, upper="5", lower="")
        assert rule == BfThreshold(upper=5.0, lower=None, cap=10)

    @pytest.mark.parametrize("n", [8.5, 8.0, True], ids=["fraction", "float", "bool"])
    def test_a_non_integer_n_is_refused_not_truncated(self, n):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {n!r}$"):
            rule_from_params("fixed-n", cap=10, n=n)

    def test_cap_must_be_an_integer(self):
        assert rule_from_params("fixed-n", cap=np.int64(10), n=np.int32(8)) == FixedN(n=8, cap=10)
        for cap in ["12", 12.5]:
            with pytest.raises(ValueError, match=f"^cap must be an integer, got {cap!r}$"):
                rule_from_params("bf-threshold", cap=cap, upper=20)


class TestIntegerFields:
    """A rule's cap, and FixedN's n, must be integers: a float or a bool is refused."""

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: FixedN(n=8.5, cap=10), "n must be an integer, got 8.5"),
            (lambda: FixedN(n=True, cap=10), "n must be an integer, got True"),
            (lambda: FixedN(n=8.0), "n must be an integer, got 8.0"),
            (lambda: SumOfSquares(20.0, cap=12.5), "cap must be an integer, got 12.5"),
            (lambda: BfThreshold(upper=20.0, cap=10.9), "cap must be an integer, got 10.9"),
            (lambda: BfThreshold(upper=20.0, cap=True), "cap must be an integer, got True"),
            (lambda: RawStatistic(statistic=sum, threshold=1.0, cap=np.float64(10.0)),
             f"cap must be an integer, got {np.float64(10.0)!r}"),
        ],
        ids=["fixed-n-fraction", "fixed-n-bool", "fixed-n-float-cap-default", "sum-squares",
             "bf-threshold", "bf-threshold-bool", "raw-numpy-float"],
    )
    def test_refused(self, make, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make()

    def test_numpy_integers_accepted(self):
        assert FixedN(n=np.int64(8), cap=np.int32(10)) == FixedN(n=8, cap=10)


class TestCheckInvariance:
    def test_bf_threshold_invariant_under_scale(self, rng):
        pair = InvariantModelPair.scale(CauchyEffect(1.0))
        report = check_invariance(BfThreshold(upper=20.0, cap=1000), pair, 1000, rng)
        assert report.passed
        assert report.mismatches == 0

    def test_fixed_n_trivially_invariant(self, rng):
        pair = InvariantModelPair.scale(CauchyEffect(1.0))
        report = check_invariance(FixedN(n=8, cap=1000), pair, 500, rng)
        assert report.passed

    def test_sum_squares_counterexample_found(self, rng):
        pair = InvariantModelPair.scale(CauchyEffect(1.0))
        report = check_invariance(SumOfSquares(20.0, cap=1000), pair, 1000, rng)
        assert report.counterexample is not None
        x, h = report.counterexample
        # the reported pair really does flip the decision
        rule = SumOfSquares(20.0, cap=1000)
        assert rule.decide(x, None) != rule.decide(np.asarray(x) * h, None)

    def test_sum_squares_hand_example(self):
        # x = (1,1,1): sum 3 < 20; scaled by 5: sum 75 >= 20
        rule = SumOfSquares(20.0, cap=100)
        assert not rule.decide([1.0, 1.0, 1.0], None)
        assert rule.decide([5.0, 5.0, 5.0], None)

    def test_invariant_statistic_rule_passes(self, rng):
        pair = InvariantModelPair.scale(CauchyEffect(1.0))
        rule = InvariantStatistic(
            statistic=lambda coords: float(np.max(np.abs(coords))),
            threshold=2.5,
            transform=pair.maximal_invariant,
            cap=1000,
        )
        report = check_invariance(rule, pair, 500, rng)
        assert report.passed

    @pytest.mark.parametrize(
        "pair, written_out",
        [
            (InvariantModelPair.scale(CauchyEffect(1.0)), lambda x: x / abs(x[0])),
            (InvariantModelPair.location_scale(PointMass(0.0)),
             lambda x: (x[1:] - x[0]) / abs(x[1] - x[0])),
        ],
        ids=["scale", "location-scale"],
    )
    def test_maximal_invariant_is_a_transform(self, pair, written_out, rng):
        """``transform=pair.maximal_invariant`` decides as the coordinates written out."""

        def rule(transform):
            return InvariantStatistic(
                lambda coords: float(np.max(np.abs(coords))), 2.5, transform, cap=1000
            )

        direct = rule(pair.maximal_invariant)
        reference = rule(lambda prefix: written_out(np.asarray(prefix, dtype=float)))
        decisions = []
        for _ in range(400):
            n = int(rng.integers(pair.m + 1, 13))
            x = pair.sample(int(rng.integers(0, 2)), pair.group.random_element(rng), n, rng)
            decisions.append(direct.decide(x))
            assert decisions[-1] == reference.decide(x)
        assert 0 < sum(decisions) < len(decisions)
        report = check_invariance(direct, pair, 500, rng)
        assert report.passed and report.mismatches == 0

    def test_rule_that_cannot_decide_refused_before_any_probe(self, rng):
        pair = InvariantModelPair.location_scale(PointMass(0.0))
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="initial-sample size 2"):
            check_invariance(BfThreshold(upper=20.0, cap=2), pair, 10, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize(
        "declared, mismatches, skipped, found, passed",
        [
            (True, 0, 0, False, True),
            (True, 0, 9, False, True),
            (True, 0, 10, False, False),
            (True, 1, 0, False, False),
            (True, 1, 10, False, False),
            # a raw rule passes when its invariance is refuted
            (False, 1, 0, True, True),
            (False, 0, 0, False, False),
            (False, 0, 10, False, False),
        ],
    )
    def test_report_passes_on_a_decided_probe_without_mismatch(
        self, declared, mismatches, skipped, found, passed
    ):
        counterexample = (np.ones(3), 2.0) if found else None
        report = InvarianceReport("rule", declared, 10, mismatches, skipped, counterexample)
        assert report.passed is passed

    def test_location_scale_group_probe(self, rng):
        pair = InvariantModelPair.location_scale(PointMass(0.0))
        ok = check_invariance(FixedN(n=6, cap=1000), pair, 300, rng)
        assert ok.passed
        bad = check_invariance(SumOfSquares(10.0, cap=1000), pair, 500, rng)
        assert bad.counterexample is not None


class BfOrSquares(BfThreshold):
    """A rule that reads log beta but is not invariant: the scale of x also stops it."""

    declared_invariant = False

    def _fires(self, prefix, log_beta):
        return log_beta >= self.log_bars[0][0] or float(np.dot(prefix, prefix)) >= 20.0


SCALE_PAIR = InvariantModelPair.scale(CauchyEffect(1.0))


class TestChunkedProbe:
    """Chunked evaluation gives the sequential probe's report and generator state."""

    RULES = [
        BfThreshold(upper=20.0, cap=1000),
        BfThreshold(upper=5.0, lower=0.2, cap=1000),
        BfThreshold(upper=3.0, lower=0.5, cap=7),  # some probes reach the cap
        FixedN(n=8, cap=1000),
        SumOfSquares(20.0, cap=1000),
        BfOrSquares(upper=20.0, cap=1000),
        InvariantStatistic(
            statistic=lambda coords: float(np.max(np.abs(coords))),
            threshold=2.5,
            transform=SCALE_PAIR.maximal_invariant,
            cap=1000,
        ),
    ]

    @pytest.mark.parametrize("seed", [3, 11, 2024])
    @pytest.mark.parametrize(
        "rule", RULES,
        ids=["bf-upper", "bf-two-sided", "bf-cap-7", "fixed-n", "sum-squares", "bf-or-squares",
             "invariant-statistic"],
    )
    def test_matches_sequential_reference(self, rule, seed):
        pair = InvariantModelPair.scale(CauchyEffect(1.0))
        trials = 2 * PROBE_CHUNK + 452
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        got = check_invariance(rule, pair, trials, rng_a)
        ref = check_invariance_sequential(rule, pair, trials, rng_b)
        fields = ("rule_kind", "declared_invariant", "trials", "mismatches", "skipped_boundary")
        assert [getattr(got, f) for f in fields] == [getattr(ref, f) for f in fields]
        assert (got.counterexample is None) == (ref.counterexample is None)
        if ref.counterexample is not None:
            assert np.array_equal(got.counterexample[0], ref.counterexample[0])
            assert got.counterexample[1] == ref.counterexample[1]
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize(
        "pair",
        [
            InvariantModelPair.scale(PointMass(0.8)),
            InvariantModelPair.location_scale(PointMass(0.0)),
        ],
    )
    def test_matches_sequential_reference_other_pairs(self, pair):
        rule = BfThreshold(upper=5.0, lower=0.2, cap=1000)
        rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
        got = check_invariance(rule, pair, PROBE_CHUNK + 300, rng_a)
        ref = check_invariance_sequential(rule, pair, PROBE_CHUNK + 300, rng_b)
        assert (got.mismatches, got.skipped_boundary) == (ref.mismatches, ref.skipped_boundary)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_one_evaluator_call_per_chunk(self, monkeypatch):
        def scalar(self, x):
            raise AssertionError("scalar log_bf call in the probe")

        calls = []
        many = InvariantModelPair.log_bf_many

        def counted(self, xs):
            calls.append(len(xs))
            return many(self, xs)

        monkeypatch.setattr(InvariantModelPair, "log_bf", scalar)
        monkeypatch.setattr(InvariantModelPair, "log_bf_many", counted)
        pair = InvariantModelPair.scale(CauchyEffect(1.0))
        rule = BfThreshold(upper=20.0, cap=1000)
        check_invariance(rule, pair, 2 * PROBE_CHUNK + 5, np.random.default_rng(1))
        assert calls == [2 * PROBE_CHUNK, 2 * PROBE_CHUNK, 10]
