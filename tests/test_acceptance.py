"""Acceptance suite: runs every contract at its stated tolerance.

One line per criterion is printed in the terminal summary.  Monte Carlo
criteria run at a pinned seed: their pass checks compare 95% confidence
intervals against sharp predictions, so any single run is a draw from a
distribution whose pass probability the bin slack is designed around,
and the suite pins the draw rather than loosening the tolerances.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from conftest import record_criterion

from optstop.core import NEVER, SignificanceLevel, stop
from optstop.exact import (
    FiniteModel,
    build_table,
    random_finite_model,
    random_rule,
    sample_sequence,
    trajectory_finite,
    verify_calibration,
    verify_expected_stopped_bf,
    verify_markov_bound,
)
from optstop.groups import LOCATION_SCALE, SCALE
from optstop.models import CauchyEffect, InvariantModelPair, PointMass
from optstop.montecarlo import (
    BIN_PASS_FRACTION,
    estimate_stopped_bf_mean,
    estimate_strong_calibration,
    estimate_type1,
    run_marginal_trials_many,
    run_trials,
)
from optstop.stopping import BfThreshold, FixedN, SumOfSquares, check_invariance

SEED = 3  # pinned Monte Carlo seed for the statistical criteria
N_TRIALS = 100_000


@pytest.fixture(scope="module")
def cauchy_pair():
    return InvariantModelPair.scale(CauchyEffect(1.0))


@pytest.fixture(scope="module")
def random_tables():
    """100 randomized finite models with randomized capped rules."""
    rng = np.random.default_rng(424242)
    tables = []
    for _ in range(100):
        model = random_finite_model(rng)
        rule = random_rule(rng, model.horizon)
        tables.append(build_table(model, rule))
    return tables


@pytest.fixture(scope="module")
def ac7_runs(cauchy_pair):
    rule = BfThreshold(upper=5.0, lower=0.2, cap=200)
    t0 = time.perf_counter()
    runs = {}
    for g in (0.5, 1.0, 2.0):
        rec0 = run_trials(cauchy_pair, 0, g, rule, N_TRIALS, seed=SEED)
        rec1 = run_trials(cauchy_pair, 1, g, rule, N_TRIALS, seed=SEED)
        runs[g] = (rec0, rec1)
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def ac8_records(cauchy_pair):
    rule = BfThreshold(upper=20.0, cap=1000)
    return {
        g: run_trials(cauchy_pair, 0, g, rule, N_TRIALS, seed=SEED) for g in (0.25, 1.0, 4.0)
    }


def test_criterion_1_exact_weak_calibration():
    t0 = time.perf_counter()
    model = FiniteModel.bernoulli_point_vs_uniform(horizon=10)
    table = build_table(model, BfThreshold(upper=3.0, cap=10))
    report = verify_calibration(table, tol=1e-9)
    elapsed = time.perf_counter() - t0
    passed = report.passed and elapsed < 5.0
    record_criterion(
        1,
        "exact weak calibration (Bernoulli, T=10, stop at beta >= 3)",
        passed,
        f"max residual {report.max_residual:.2e}, {elapsed:.2f}s",
    )
    assert report.passed
    assert elapsed < 5.0


def test_criterion_1_property_variant(random_tables):
    results = [verify_calibration(t, tol=1e-9).passed for t in random_tables]
    passed = all(results)
    record_criterion(
        1, "exact weak calibration, 100 randomized models/rules", passed,
        f"{sum(results)}/100 pass",
    )
    assert passed


def test_criterion_2_exact_markov_bound():
    t0 = time.perf_counter()
    model = FiniteModel.bernoulli_point_vs_uniform(horizon=12)
    results = []
    for alpha in (0.01, 0.05, 0.1, 0.2):
        level = SignificanceLevel(alpha)
        table = build_table(model, BfThreshold(upper=1.0 / alpha, cap=12))
        (chk,) = verify_markov_bound(table, [level])
        results.append(chk)
    elapsed = time.perf_counter() - t0
    passed = all(c.bound_holds for c in results) and elapsed < 30.0
    record_criterion(
        2,
        "exact Markov bound (T=12, alpha in {.01,.05,.1,.2})",
        passed,
        "; ".join(f"P({c.alpha:g})={c.probability:.4f}" for c in results) + f", {elapsed:.1f}s",
    )
    for c in results:
        assert c.bound_holds
    assert elapsed < 30.0


def test_criterion_3_exact_expected_stopped_bf(random_tables):
    errors = [abs(verify_expected_stopped_bf(t) - 1.0) for t in random_tables]
    passed = max(errors) <= 1e-10
    record_criterion(
        3,
        "exact E0[stopped BF] = 1, 100 randomized models/rules",
        passed,
        f"max |E-1| = {max(errors):.2e}",
    )
    assert passed


def test_criterion_4_tau_independence_bitwise():
    rng = np.random.default_rng(777)
    checked = 0
    ok = True
    while checked < 1000:
        model = random_finite_model(rng)
        seq = sample_sequence(model, int(rng.integers(0, 2)), rng)
        traj = trajectory_finite(model, seq)
        rule_a = random_rule(rng, model.horizon)
        out_a = stop(traj, rule_a, seq)
        assert out_a.stop_index is not NEVER
        # a second rule compatible with the same stopped sequence
        rule_b = FixedN(n=out_a.stop_index, cap=model.horizon)
        out_b = stop(traj, rule_b, seq)
        ok = ok and (out_b.stop_index == out_a.stop_index)
        ok = ok and (out_b.stopped_log_beta == out_a.stopped_log_beta)  # bit-identical
        checked += 1
    record_criterion(4, "tau-independence, 1000 random sequences/rule pairs", ok)
    assert ok


def test_criterion_5_null_marginal_closed_form(cauchy_pair):
    rng = np.random.default_rng(31337)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        x = rng.standard_normal(n) * math.exp(rng.uniform(-2.0, 2.0))
        s = float(x @ x)
        center = 0.5 * math.log(s / (n + 1))

        def f(l):
            sig = math.exp(l)
            return math.exp(-0.5 * n * math.log(2 * math.pi * sig * sig) - s / (2 * sig * sig))

        val, _ = integrate.quad(f, center - 30, center + 30, epsabs=0, epsrel=1e-13, limit=300)
        diff = abs(math.expm1(cauchy_pair.log_marginal_null(x) - math.log(val)))
        worst = max(worst, diff)
    passed = worst <= 1e-10
    record_criterion(
        5, "t-test null marginal closed form vs quadrature, 1000 inputs", passed,
        f"worst rel diff {worst:.2e}",
    )
    assert passed


def test_criterion_6_bf_invariance_both_groups(cauchy_pair):
    rng = np.random.default_rng(991)
    worst_scale = 0.0
    for _ in range(10_000):
        n = int(rng.integers(2, 25))
        x = rng.standard_normal(n) + rng.uniform(-1.0, 1.0)
        c = SCALE.random_element(rng, spread=2.5)
        worst_scale = max(
            worst_scale, abs(cauchy_pair.log_bf(SCALE.act(x, c)) - cauchy_pair.log_bf(x))
        )
    ls_pair = InvariantModelPair.location_scale(CauchyEffect(1.0))
    worst_ls = 0.0
    for _ in range(10_000):
        n = int(rng.integers(2, 25))
        x = rng.standard_normal(n) + rng.uniform(-1.0, 1.0)
        g = LOCATION_SCALE.random_element(rng)
        worst_ls = max(worst_ls, abs(ls_pair.log_bf(LOCATION_SCALE.act(x, g)) - ls_pair.log_bf(x)))
    passed = worst_scale <= 1e-10 and worst_ls <= 1e-10
    record_criterion(
        6,
        "Bayes factor invariance, 10^4 random (x, g) per group",
        passed,
        f"scale worst {worst_scale:.2e}, location-scale worst {worst_ls:.2e}",
    )
    assert passed


def test_criterion_7_strong_calibration(ac7_runs):
    runs, elapsed = ac7_runs
    details = []
    passed = True
    for g, (rec0, rec1) in runs.items():
        est = estimate_strong_calibration(rec0, rec1)
        details.append(f"g={g:g}: {est.pass_fraction:.3f} of {est.usable_bins} bins")
        passed = passed and est.passed
    passed = passed and elapsed < 300.0
    record_criterion(
        7,
        f"strong calibration under stopping (>= {BIN_PASS_FRACTION:.0%} of bins)",
        passed,
        "; ".join(details) + f", {elapsed:.0f}s",
    )
    assert passed


def test_criterion_8_uniform_type1(ac8_records):
    details = []
    passed = True
    for g, records in ac8_records.items():
        est = estimate_type1(records, SignificanceLevel(0.05))
        details.append(f"g={g:g}: rate {est.rate:.4f}")
        passed = passed and est.passed
    record_criterion(
        8, "uniform Type-I control (beta >= 20, cap 1000, alpha=.05)", passed,
        "; ".join(details),
    )
    assert passed


def test_criterion_9_unit_expected_stopped_bf(ac8_records):
    details = []
    passed = True
    for g, records in ac8_records.items():
        est = estimate_stopped_bf_mean(records)
        details.append(f"g={g:g}: {est.mean:.4f}+-{est.se:.4f}")
        passed = passed and est.passed
    record_criterion(
        9, "E[stopped BF] = 1 under the null, every g (3 SE)", passed, "; ".join(details)
    )
    assert passed


def test_stopped_bf_distribution_invariant_in_g(ac8_records):
    """Consequence of the quotient-likelihood identity: beta_tau has the
    same law at every nuisance value (not an acceptance criterion, but
    checked here where the full-size records already exist)."""
    a = np.array([r.stopped_log_beta for r in ac8_records[1.0]])
    b = np.array([r.stopped_log_beta for r in ac8_records[4.0]])
    stat = stats.ks_2samp(a, b).statistic
    crit = 1.628 * math.sqrt(2.0 / N_TRIALS)
    assert stat < crit


def test_criterion_10_marginal_calibration(cauchy_pair):
    rule = BfThreshold(upper=5.0, lower=0.2, cap=200)
    details = []
    passed = True
    for x_m in (1.0, 2.0):
        arms = run_marginal_trials_many(
            cauchy_pair, [(k, [x_m], rule) for k in (0, 1)], N_TRIALS, seed=SEED
        )
        est = estimate_strong_calibration(*arms)
        details.append(f"x_m=({x_m:g},): {est.pass_fraction:.3f} of {est.usable_bins} bins")
        passed = passed and est.passed
    record_criterion(10, "marginal calibration given the initial sample", passed,
                     "; ".join(details))
    assert passed


def test_criterion_11_invariance_checker(cauchy_pair):
    rng = np.random.default_rng(515151)
    bf_report = check_invariance(BfThreshold(upper=20.0, cap=1000), cauchy_pair, 10_000, rng)
    fixed_report = check_invariance(FixedN(n=8, cap=1000), cauchy_pair, 10_000, rng)
    raw_report = check_invariance(SumOfSquares(20.0, cap=1000), cauchy_pair, 10_000, rng)
    passed = bf_report.passed and fixed_report.passed and raw_report.counterexample is not None
    record_criterion(
        11,
        "invariance checker (thresholds pass, raw sum-of-squares refuted)",
        passed,
        f"bf mismatches {bf_report.mismatches}, fixed {fixed_report.mismatches}, "
        f"raw counterexample {'found' if raw_report.counterexample is not None else 'missing'}",
    )
    assert bf_report.passed
    assert fixed_report.passed
    assert raw_report.counterexample is not None


def test_criterion_12_reproducibility_across_block_layouts(tmp_path, monkeypatch):
    from optstop import montecarlo, workers
    from optstop.cli import main

    cfg = tmp_path / "repro.cfg"
    cfg.write_text(
        "g = 0.5, 2\nn_trials = 20000\nrule = bf-threshold\nrule_upper = 20\nrule_cap = 100\n"
    )
    # (block size, full-row block size, worker processes): one process first,
    # with full rows in blocks of the default, of 700 and of BLOCK_SIZE; then
    # blocks of 1000 split over 1 to 3
    block, full = montecarlo.BLOCK_SIZE, montecarlo.FULL_BLOCK_SIZE
    layouts = [(block, full, 1), (block, 700, 1), (block, block, 1)] + [
        (1000, full, n_workers) for n_workers in (1, 2, 3)
    ]
    outputs = {}
    for block_size, full_block_size, n_workers in layouts:
        monkeypatch.setattr(montecarlo, "BLOCK_SIZE", block_size)
        monkeypatch.setattr(montecarlo, "FULL_BLOCK_SIZE", full_block_size)
        monkeypatch.setattr(workers, "worker_count", lambda: n_workers)
        out = tmp_path / f"b{block_size}-f{full_block_size}-w{n_workers}"
        code = main(["mc-bf-mean", "--config", str(cfg), "--seed", "11", "--out", str(out)])
        assert code == 0
        outputs[block_size, full_block_size, n_workers] = [
            (out / name).read_bytes() for name in ("records.csv", "summary.json", "verdict.txt")
        ]
    first, *others = outputs.values()
    passed = all(other == first for other in others)
    record_criterion(
        12, f"byte-identical outputs across block sizes {block} and 1000, full-row blocks of "
        f"{full}, 700 and {block}, and 1 to 3 worker processes", passed,
        f"{len(first[0])} bytes of records.csv",
    )
    assert passed
