"""Negative controls: a verdict must FAIL where the paper says its property does not hold.

The stopped Bayes factor has unit expectation under the null only for a
rule that sees the data through the maximal invariant.  A rule on the
raw sum of squares does not: at g = 0.25 it stops the null arm at a
mean Bayes factor near 0.19, about 50 standard errors below 1 at
20,000 trials, so ``mc-bf-mean`` must fail it.
"""

from optstop.cli import main


def test_mc_bf_mean_fails_a_raw_sum_of_squares_rule(tmp_path, capsys):
    cfg = tmp_path / "raw.cfg"
    cfg.write_text(
        "g = 0.25\nrule = raw-sum-squares\nrule_threshold = 20\nrule_cap = 200\n"
        "n_trials = 20000\n"
    )
    out = tmp_path / "out"
    code = main(["mc-bf-mean", "--config", str(cfg), "--seed", "3", "--out", str(out)])
    assert code == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("g=0.25: mean stopped Bayes factor ") and lines[0].endswith("FAIL")
    assert lines[-1] == "VERDICT: FAIL"
    assert (out / "verdict.txt").read_text().splitlines() == lines
