"""Negative controls: a verdict must FAIL where the paper says its property does not hold.

The paper's strong results need a rule that sees the data only through
the maximal invariant.  A rule on the raw sum of squares does not:

- at g = 0.25 it stops the null arm at a mean Bayes factor near 0.19,
  about 50 standard errors below 1 at 20,000 trials, so ``mc-bf-mean``
  must fail it;
- at g = 1 the two arms' stopped Bayes factors are not calibrated: over
  seeds 101-120 at 20,000 trials per arm, every run covered only 43-55%
  of its bins, against the 93% ``mc-strong-calibration`` asks for.
  Seed 114 covers 55%, so a verdict weakened to half the bins passes it.
"""

from optstop.cli import main

RAW_RULE = "rule = raw-sum-squares\nrule_threshold = 20\nrule_cap = 200\nn_trials = 20000\n"


def assert_fails(kind, g, seed, first_line, tmp_path, capsys):
    """``kind`` on the raw rule at ``g``: exit 2, a FAIL line per value and a FAIL verdict."""
    cfg = tmp_path / "raw.cfg"
    cfg.write_text(f"g = {g}\n{RAW_RULE}")
    out = tmp_path / "out"
    code = main([kind, "--config", str(cfg), "--seed", str(seed), "--out", str(out)])
    assert code == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(first_line) and lines[0].endswith("FAIL")
    assert lines[-1] == "VERDICT: FAIL"
    assert (out / "verdict.txt").read_text().splitlines() == lines


def test_mc_bf_mean_fails_a_raw_sum_of_squares_rule(tmp_path, capsys):
    assert_fails("mc-bf-mean", 0.25, 3, "g=0.25: mean stopped Bayes factor ", tmp_path, capsys)


def test_mc_strong_calibration_fails_a_raw_sum_of_squares_rule(tmp_path, capsys):
    assert_fails("mc-strong-calibration", 1, 114, "g=1: ", tmp_path, capsys)
