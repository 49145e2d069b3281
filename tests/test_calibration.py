"""The columnar calibration estimate and its summary against the per-bin reference.

``reference_calibration`` is the estimator and summary as they were
with one ``CalibrationBin`` and one dict per bin.  Every column of the
columnar estimate must equal the reference's bit for bit (NaN positions
included), and the ``summary.json`` the CLI writes must be the bytes
``json.dumps`` gives for the reference summary, on runs whose bins span
a wide range as well as a corridor.
"""

import json

import numpy as np
import pytest

import reference_calibration as ref
from optstop import montecarlo
from optstop.cli import main, parse_config_text
from optstop.models import CauchyEffect, InvariantModelPair
from optstop.montecarlo import MAX_BIN_WIDTH, TrialRecords, estimate_strong_calibration
from optstop.stopping import BfThreshold, FixedN

CAUCHY = InvariantModelPair.scale(CauchyEffect(1.0))
CORRIDOR = BfThreshold(upper=5.0, lower=0.2, cap=100)


def handmade(k, values):
    lb = np.asarray(values, dtype=float)
    return TrialRecords(
        k, 1.0, 0, FixedN(n=5, cap=5), np.full(lb.size, 5), lb, np.arange(lb.size)
    )


def _corridor():
    return [montecarlo.run_trials(CAUCHY, k, 1.0, CORRIDOR, 3000, seed=3) for k in (0, 1)]


def _fixed_n():
    # H1's wide log-beta range: thousands of 0.2-nat bins without a null value
    rule = FixedN(n=100, cap=100)
    return [montecarlo.run_trials(CAUCHY, k, 1.0, rule, 2000, seed=3) for k in (0, 1)]


def _null_only_bin():
    # -3 and -2.5 are null values in a bin of their own, with count1 = 0
    return [handmade(0, [-3.0, -2.5, 0.0, 0.1, 1.0, 1.2]), handmade(1, [0.0, 0.05, 1.1, 1.3])]


def _all_equal():
    return [handmade(0, [0.25] * 4), handmade(1, [0.25] * 3)]


def _marginal():
    return montecarlo.run_marginal_trials_many(
        CAUCHY, [(k, [1.5], CORRIDOR) for k in (0, 1)], 2000, seed=3
    )


CASES = {
    "corridor": _corridor,
    "fixed-n-100": _fixed_n,
    "null-only-bin": _null_only_bin,
    "all-equal": _all_equal,
    "marginal": _marginal,
}


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    return request.param, CASES[request.param]()


def reference_columns(est: ref.CalibrationEstimate) -> dict:
    bins = est.bins

    def field(name, dtype=float):
        return np.array([getattr(b, name) for b in bins], dtype=dtype)

    return {
        "edges": np.array([b.log_beta_lo for b in bins] + [bins[-1].log_beta_hi]),
        "count0": field("count0", np.int64),
        "count1": field("count1", np.int64),
        "log_beta_gmean": field("log_beta_gmean"),
        "ratio": field("ratio"),
        "ci_lo": field("ci_lo"),
        "ci_hi": field("ci_hi"),
        "ok": field("ok", bool),
    }


def test_columns_match_reference_bit_for_bit(case):
    name, (rec0, rec1) = case
    est = estimate_strong_calibration(rec0, rec1)
    expected = ref.estimate_strong_calibration(rec0, rec1)
    for column, want in reference_columns(expected).items():
        got = getattr(est, column)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), column
    assert (est.n0, est.n1) == (expected.n0, expected.n1)
    assert est.usable_bins == expected.usable_bins
    assert est.excluded_bins == expected.excluded_bins
    assert est.pass_fraction == expected.pass_fraction
    assert est.passed == expected.passed
    if name == "fixed-n-100":
        assert est.excluded_bins > 1000
    if name == "null-only-bin":
        assert np.any((est.count0 > 0) & (est.count1 == 0))
    if name == "all-equal":
        assert est.edges.size == 6  # [v, v + 1] cut into 0.2-nat pieces


def test_bins_partition_the_stopped_values(case):
    _, (rec0, rec1) = case
    est = estimate_strong_calibration(rec0, rec1)
    widths = np.diff(est.edges)
    assert np.all(widths > 0.0) and np.all(widths <= MAX_BIN_WIDTH + 1e-9)
    pooled = []
    for records, counts in ((rec0, est.count0), (rec1, est.count1)):
        lb = records.stopped_log_beta
        inside = (lb[:, None] >= est.edges[:-1]) & (lb[:, None] < est.edges[1:])
        assert np.all(inside.sum(axis=1) == 1)  # every stopped value in exactly one bin
        assert np.array_equal(inside.sum(axis=0), counts)
        pooled.append((lb, inside))
    total = est.count0 + est.count1
    sums = sum(lb @ inside for lb, inside in pooled)
    filled = total > 0
    assert np.allclose(est.log_beta_gmean[filled], sums[filled] / total[filled], rtol=1e-12)
    assert np.all(np.isnan(est.log_beta_gmean[~filled]))
    usable = est.count0 > 0
    for column in (est.ratio, est.ci_lo, est.ci_hi):
        assert np.array_equal(np.isnan(column), ~usable)
    assert not np.any(est.ok[~usable])


@pytest.mark.parametrize(
    "kind, sweep, trials, summary_key",
    [
        ("mc-strong-calibration", "g", "run_trials_many", "per_g"),
        ("mc-marginal-calibration", "x_m", "run_marginal_trials_many", "per_x_m"),
    ],
)
def test_summary_bytes_match_reference(case, kind, sweep, trials, summary_key, tmp_path,
                                       monkeypatch):
    _, records = case
    monkeypatch.setattr(montecarlo, trials,
                        lambda pair, runs, *args: [records[k] for k, _, _ in runs])
    text = f"{sweep} = 1, 2\nn_trials = 10\nrule_upper = 5\nrule_lower = 0.2\nrule_cap = 100\n"
    (tmp_path / "c.cfg").write_text(text)
    code = main([kind, "--config", str(tmp_path / "c.cfg"), "--seed", "3", "--out",
                 str(tmp_path / "out")])
    est = ref.estimate_strong_calibration(*records)
    assert code == (0 if est.passed else 2)
    per_value = {v: ref._calibration_summary(est) for v in ("1", "2")}
    summary = {
        summary_key: per_value,
        "experiment": kind,
        "passed": est.passed,
        "seed": 3,
        "config": parse_config_text(text),
    }
    written = (tmp_path / "out" / "summary.json").read_text()
    assert written == json.dumps(summary, indent=2, sort_keys=True) + "\n"
