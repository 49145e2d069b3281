import importlib.util
import json
import os
import re
import subprocess
import sys
import tracemalloc

import pytest

from optstop import cli, exact, montecarlo, workers
from optstop.cli import EXPERIMENTS, ConfigError, main, parse_config_text
from optstop.errors import ResourceLimitError
from optstop.models import ScaleBfCurves


def write(path, text):
    path.write_text(text)
    return str(path)


def trials_ran(*args, **kwargs):
    raise AssertionError("trials ran")


class TestConfigParsing:
    def test_basic_and_comments(self):
        cfg = parse_config_text("a = 1\n# note\nb = 2, 3  # trailing\n\nc = x\n")
        assert cfg == {"a": "1", "b": "2, 3", "c": "x"}

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            parse_config_text("just a token\n")


class TestExitCodes:
    def test_exact_markov_defaults(self, tmp_path, capsys):
        cfg = write(tmp_path / "m.cfg", "horizon = 8\nalpha = 0.05, 0.1\nprior_grid = 500\n")
        code = main(["exact-markov", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        rows = (tmp_path / "out" / "records.csv").read_text().splitlines()
        assert len(rows) == 3  # header + one row per alpha
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["passed"] is True
        assert (tmp_path / "out" / "verdict.txt").read_text().strip().endswith("PASS")

    def test_mc_type1_point_zero_reports_zero(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "t.cfg",
            "alpha = 0.05\ng = 1\nn_trials = 500\nrule_cap = 30\n"
            "effect = point\neffect_delta = 0\n",
        )
        code = main(["mc-type1", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["checks"][0]["rate"] == 0.0

    def test_invalid_alpha_exits_one(self, tmp_path, capsys):
        cfg = write(tmp_path / "bad.cfg", "alpha = 1.5\nhorizon = 6\n")
        code = main(["exact-markov", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "(0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_nonfinite_point_effect_exits_one(self, tmp_path, capsys, delta):
        cfg = write(tmp_path / "p.cfg", f"effect = point\neffect_delta = {delta}\nrule_cap = 20\n")
        code = main(["mc-type1", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "point-mass effect must be finite" in capsys.readouterr().err

    def test_fixed_n_past_the_cap_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(montecarlo, "run_trials_many", trials_ran)
        cfg = write(tmp_path / "f.cfg", "rule = fixed-n\nrule_n = 50\nrule_cap = 20\n")
        code = main(["mc-strong-calibration", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == "error: fixed sample size 50 exceeds the rule cap 20\n"

    @pytest.mark.parametrize("kind", ["exact-calibration", "exact-expectation"])
    @pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
    def test_tol_not_finite_and_nonnegative_exits_one(self, tmp_path, capsys, monkeypatch, kind,
                                                      tol):
        def no_table(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(exact, "build_table", no_table)
        cfg = write(tmp_path / "t.cfg", f"horizon = 6\nrule_upper = 3\ntol = {tol}\n")
        code = main([kind, "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: tol must be a finite number >= 0, got {float(tol)}"]

    def test_prior_grid_over_budget_exits_one_unallocated(self, tmp_path, capsys):
        cfg = write(tmp_path / "g.cfg", "prior_grid = 1000000000000\n")
        tracemalloc.start()
        try:
            code = main(["exact-calibration", "--config", cfg, "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: prior grid 1000000000000 exceeds the budget of "
                       f"{exact.MAX_PRIOR_GRID} atoms"]
        assert peak < 2**20  # refused before any atom is built

    @pytest.mark.parametrize("key", ["horizon", "prior_grid"])
    def test_finite_model_count_below_one_exits_one(self, tmp_path, capsys, key):
        cfg = write(tmp_path / "n.cfg", f"{key} = -5\n")
        code = main(["exact-markov", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {key} must be at least 1, got -5"]

    def test_worker_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        caller = os.getpid()
        run_block = montecarlo._run_block

        def failing_in_a_worker(*args):
            if os.getpid() != caller:
                raise MemoryError("no memory for the draws")
            return run_block(*args)

        monkeypatch.setattr(workers, "worker_count", lambda: 2)
        monkeypatch.setattr(montecarlo, "_run_block", failing_in_a_worker)
        # three blocks: the last two run in a forked worker
        cfg = write(tmp_path / "w.cfg", "alpha = 0.05\nrule_cap = 20\nn_trials = 20000\n")
        code = main(["mc-type1", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: a Monte Carlo worker failed: MemoryError: no memory for the draws"]
        assert not (tmp_path / "out" / "records.csv").exists()
        with pytest.raises(ChildProcessError):  # the worker was reaped
            os.waitpid(-1, os.WNOHANG)

    def test_draw_row_over_budget_exits_one(self, tmp_path, capsys):
        # one trial's draws up to this cap take 72 MB: refused on the cap alone,
        # before any Bayes-factor table is built
        cfg = write(tmp_path / "d.cfg", "alpha = 0.05\nrule_cap = 9000000\nn_trials = 10\n")
        code = main(["mc-type1", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "draw buffer budget" in err[0]

    @pytest.mark.parametrize(
        "kind", ["mc-strong-calibration", "mc-marginal-calibration", "mc-type1", "mc-bf-mean"]
    )
    def test_records_over_budget_exit_one_up_front(self, kind, tmp_path, capsys, monkeypatch):
        # terabytes of record columns: refused before any table is built or trial runs
        monkeypatch.setattr(ScaleBfCurves, "_build", trials_ran)
        monkeypatch.setattr(montecarlo, "_run_block", trials_ran)
        bar = "alpha = 0.05" if kind == "mc-type1" else "rule_upper = 20"
        cfg = write(tmp_path / "r.cfg", f"n_trials = 1000000000000\n{bar}\nrule_cap = 200\n")
        code = main([kind, "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: 1000000000000 trials' records take ")
        assert "record budget" in err[0]
        assert not (tmp_path / "out" / "records.csv").exists()

    @pytest.mark.parametrize(
        "kind", ["mc-strong-calibration", "mc-marginal-calibration", "mc-type1", "mc-bf-mean"]
    )
    @pytest.mark.parametrize("n_trials", ["0", "-3"])
    def test_no_trials_exits_one_up_front(self, kind, n_trials, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(montecarlo, "run_trials_many", trials_ran)
        monkeypatch.setattr(montecarlo, "run_marginal_trials_many", trials_ran)
        cfg = write(tmp_path / "n.cfg", f"n_trials = {n_trials}\nrule_upper = 20\nrule_cap = 20\n")
        code = main([kind, "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        least = 2 if kind == "mc-bf-mean" else 1
        assert capsys.readouterr().err == f"error: n_trials must be at least {least}, got {n_trials}\n"
        assert not (tmp_path / "out" / "records.csv").exists()

    def test_one_trial_bf_mean_exits_one_up_front(self, tmp_path, capsys, monkeypatch):
        # one trial has no standard error: the mean check would pass vacuously
        monkeypatch.setattr(montecarlo, "_run_block", trials_ran)
        cfg = write(tmp_path / "n.cfg", "n_trials = 1\nrule_upper = 20\nrule_cap = 50\n")
        code = main(["mc-bf-mean", "--config", cfg, "--seed", "3", "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == "error: n_trials must be at least 2, got 1\n"
        assert not (tmp_path / "out" / "records.csv").exists()

    @pytest.mark.parametrize("kind", ["mc-strong-calibration", "mc-marginal-calibration"])
    def test_no_bins_exits_one_up_front(self, kind, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(montecarlo, "run_trials_many", trials_ran)
        monkeypatch.setattr(montecarlo, "run_marginal_trials_many", trials_ran)
        cfg = write(tmp_path / "b.cfg", "bins = 0\nn_trials = 50\nrule_upper = 20\nrule_cap = 20\n")
        code = main([kind, "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == "error: bins must be at least 1, got 0\n"
        assert not (tmp_path / "out" / "records.csv").exists()

    @pytest.mark.parametrize("kind", ["mc-strong-calibration", "mc-marginal-calibration"])
    @pytest.mark.parametrize("bins", [montecarlo.DRAW_BUFFER_BYTES // 8, 1_000_000_000_000])
    def test_oversized_bins_refused_before_any_trial(self, kind, bins, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.setattr(montecarlo, "run_trials_many", trials_ran)
        monkeypatch.setattr(montecarlo, "run_marginal_trials_many", trials_ran)
        text = f"bins = {bins}\nn_trials = 50\nrule_upper = 20\nrule_cap = 20\n"
        code = main([kind, "--config", write(tmp_path / "b.cfg", text), "--out",
                     str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bins} bins take ")
        assert not (tmp_path / "out" / "records.csv").exists()

    def test_largest_bins_within_budget_accepted(self):
        most = montecarlo.DRAW_BUFFER_BYTES // 8 - 1
        assert montecarlo.check_bins(most) == most
        with pytest.raises(ResourceLimitError):
            montecarlo.check_bins(most + 1)

    @pytest.mark.parametrize("kind", ["mc-strong-calibration", "mc-type1", "mc-bf-mean"])
    @pytest.mark.parametrize("g", ["0", "-1", "nan", "inf"])
    def test_nuisance_value_outside_the_group_exits_one(self, kind, g, tmp_path, capsys,
                                                         monkeypatch):
        monkeypatch.setattr(montecarlo, "_run_block", trials_ran)
        rule = "rule_cap = 20\n" + ("" if kind == "mc-type1" else "rule_upper = 20\n")
        cfg = write(tmp_path / "g.cfg", f"g = {g}\nn_trials = 50\n{rule}")
        code = main([kind, "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: nuisance value must be finite with a positive scale")
        assert not (tmp_path / "out" / "records.csv").exists()

    def test_point_effect_marginal_calibration_exits_one_up_front(self, tmp_path, capsys,
                                                                  monkeypatch):
        # the alternative arm cannot sample a nonzero point effect's posterior given x_m:
        # refused before any table is built or any trial of either arm runs
        monkeypatch.setattr(ScaleBfCurves, "_build", trials_ran)
        monkeypatch.setattr(montecarlo, "_run_block", trials_ran)
        text = ("effect = point\neffect_delta = 0.5\nx_m = 1\nn_trials = 100\nrule_upper = 5\n"
                "rule_lower = 0.2\nrule_cap = 20\n")
        code = main(["mc-marginal-calibration", "--config", write(tmp_path / "p.cfg", text),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: marginal trials under the alternative need a Cauchy")
        assert not (tmp_path / "out" / "records.csv").exists()

    @pytest.mark.parametrize(
        "kind, key",
        [("mc-type1", "g"), ("mc-bf-mean", "g"), ("mc-strong-calibration", "g"),
         ("mc-marginal-calibration", "x_m")],
    )
    @pytest.mark.parametrize("value", ["", " , "])
    def test_empty_sweep_exits_one(self, kind, key, value, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(montecarlo, "run_trials_many", trials_ran)
        monkeypatch.setattr(montecarlo, "run_marginal_trials_many", trials_ran)
        rule = "" if kind == "mc-type1" else "rule_upper = 20\n"
        cfg = write(tmp_path / "e.cfg", f"{key} ={value}\nn_trials = 50\n{rule}")
        code = main([kind, "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {key}: at least one value is required\n"
        assert not (tmp_path / "out" / "records.csv").exists()

    @pytest.mark.parametrize(
        "kind, sweep, message",
        [
            ("mc-type1", "g = 1, 0", "nuisance value must be finite with a positive scale"),
            ("mc-bf-mean", "g = 2, 1, -1", "nuisance value must be finite with a positive scale"),
            ("mc-strong-calibration", "g = 1, nan", "nuisance value must be finite"),
            ("mc-marginal-calibration", "x_m = 1, 0", "initial sample lies in the excluded set"),
            ("mc-marginal-calibration", "x_m = 2, inf", "sample contains non-finite values"),
        ],
    )
    def test_bad_sweep_value_refused_before_any_trial(self, kind, sweep, message, tmp_path,
                                                      capsys, monkeypatch):
        # the many-run call checks every value before any table is built or trial runs
        monkeypatch.setattr(ScaleBfCurves, "_build", trials_ran)
        monkeypatch.setattr(montecarlo, "_run_block", trials_ran)
        rule = "" if kind == "mc-type1" else "rule_upper = 20\n"
        cfg = write(tmp_path / "v.cfg", f"{sweep}\nn_trials = 50\n{rule}")
        code = main([kind, "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")
        assert not (tmp_path / "out" / "records.csv").exists()

    # a short run of each kind of experiment: Monte Carlo, exact, invariance probe
    SEED_RUNS = {
        "mc-type1": "n_trials = 50\nrule_cap = 20\n",
        "exact-markov": "horizon = 6\nprior_grid = 50\n",
        "invariance-check": "trials = 300\nrule_cap = 500\n",
    }

    @pytest.mark.parametrize("kind", list(SEED_RUNS))
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_seed_outside_64_bits_exits_one(self, where, kind, tmp_path, capsys, monkeypatch):
        # every kind refuses the seed before any work
        monkeypatch.setattr(montecarlo, "_run_block", trials_ran)
        monkeypatch.setattr(exact, "build_table", trials_ran)
        monkeypatch.setattr(cli, "check_invariance", trials_ran)
        seed = "99999999999999999999"
        text = self.SEED_RUNS[kind] + (f"seed = {seed}\n" if where == "config" else "")
        cfg = write(tmp_path / "s.cfg", text)
        argv = [kind, "--config", cfg, "--out", str(tmp_path / "out")]
        code = main(argv + (["--seed", seed] if where == "flag" else []))
        assert code == 1
        assert capsys.readouterr().err == f"error: seed must be a signed 64-bit integer, got {seed}\n"
        assert not (tmp_path / "out" / "records.csv").exists()

    @pytest.mark.parametrize(
        "kind, text",
        [
            # the sums of squares underflow: every q is 0/0
            ("mc-type1", "g = 1e-170\n"),
            # the r = 1e200 Cauchy tables are NaN
            ("mc-type1", "effect_scale = 1e200\n"),
            # a later run of the call: the first, at g = 1, is finite
            ("mc-bf-mean", "g = 1, 1e-170\nrule_upper = 20\n"),
            # the sums of squares overflow from x_1 on
            ("mc-marginal-calibration", "x_m = 1e200\nrule_upper = 20\n"),
        ],
        ids=["g-1e-170", "effect-scale-1e200", "g-1-then-1e-170", "x_m-1e200"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # the run shows none of numpy's
    def test_non_finite_stopped_log_beta_exits_one(self, kind, text, tmp_path, capsys):
        cfg = write(tmp_path / "f.cfg", f"{text}n_trials = 300\nrule_cap = 50\n")
        code = main([kind, "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("error: ")
        assert "trials stopped at a non-finite log Bayes factor" in err[-1]
        assert not (tmp_path / "out" / "records.csv").exists()

    @pytest.mark.parametrize("kind", list(SEED_RUNS))
    def test_negative_seed_runs(self, kind, tmp_path, capsys):
        cfg = write(tmp_path / "s.cfg", self.SEED_RUNS[kind])
        code = main([kind, "--config", cfg, "--seed", "-7", "--out", str(tmp_path / "out")])
        assert code == 0
        assert json.loads((tmp_path / "out" / "summary.json").read_text())["seed"] == -7

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        cfg = write(tmp_path / "u.cfg", "horizon = 6\nmystery_key = 3\n")
        code = main(["exact-markov", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert "mystery_key" in capsys.readouterr().err

    def test_missing_config_exits_one(self, tmp_path, capsys):
        code = main(["exact-markov", "--config", str(tmp_path / "nope.cfg")])
        assert code == 1

    def test_describe_runs_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["mc-strong-calibration", "--describe"])
        assert code == 0
        out = capsys.readouterr().out
        assert "strong calibration" in out.lower() or "calibrat" in out.lower()
        assert not (tmp_path / "summary.json").exists()

    def test_package_error_exits_one_without_traceback(self, tmp_path, capsys, monkeypatch):
        def over_budget(model, rule, max_entries=2**24):
            raise ResourceLimitError("stopped-sequence table would exceed the budget")

        monkeypatch.setattr(exact, "build_table", over_budget)
        cfg = write(tmp_path / "r.cfg", "horizon = 6\nprior_grid = 50\nrule_upper = 3\n")
        code = main(["exact-calibration", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: stopped-sequence table would exceed the budget\n"

    def test_contract_failure_exits_two(self, tmp_path, capsys):
        # an identical-hypotheses model never reaches beta >= 3, so a
        # calibration run under an impossible tolerance must fail cleanly:
        # force failure via tol = 0 on a discretized model with residual > 0
        cfg = write(
            tmp_path / "c.cfg",
            "horizon = 6\nprior_grid = 50\nrule = bf-threshold\nrule_upper = 3\n"
            "rule_cap = 6\ntol = 1e-18\n",
        )
        code = main(["exact-calibration", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        assert "FAIL" in (tmp_path / "out" / "verdict.txt").read_text()


@pytest.mark.parametrize(
    "kind, text",
    [
        ("invariance-check", "trials = 200\nraw_threshold = nan\n"),
        ("mc-bf-mean", "rule = raw-sum-squares\nrule_threshold = nan\nrule_cap = 20\n"
                       "n_trials = 100\n"),
    ],
    ids=["invariance-check", "mc-bf-mean"],
)
def test_nan_sum_of_squares_threshold_exits_one_up_front(kind, text, tmp_path, capsys,
                                                         monkeypatch):
    # a rule no sum of squares fires: refused before any table, probe or trial
    monkeypatch.setattr(ScaleBfCurves, "_build", trials_ran)
    monkeypatch.setattr(montecarlo, "_run_block", trials_ran)
    monkeypatch.setattr(cli, "check_invariance", trials_ran)
    code = main([kind, "--config", write(tmp_path / "t.cfg", text), "--out",
                 str(tmp_path / "out")])
    assert code == 1
    err = "error: sum-of-squares threshold must be a number, got nan\n"
    assert capsys.readouterr().err == err
    assert not (tmp_path / "out" / "records.csv").exists()


class TestInvarianceCheckCli:
    def test_runs_and_passes(self, tmp_path, capsys):
        cfg = write(tmp_path / "i.cfg", "trials = 300\nrule_cap = 500\n")
        code = main(["invariance-check", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        text = (tmp_path / "out" / "records.csv").read_text()
        assert "raw-sum-squares" in text

    def test_cap_below_the_fixed_n_probe_exits_one(self, tmp_path, capsys):
        # the fixed-n probe is FixedN(8), which a cap of 2 would cut short; the
        # no-decided-probe FAIL rule is covered in test_stopping's InvarianceReport tests
        cfg = write(tmp_path / "i.cfg", "trials = 200\nrule_cap = 2\n")
        code = main(["invariance-check", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == "error: fixed sample size 8 exceeds the rule cap 2\n"

    def test_cap_within_the_initial_sample_exits_one(self, tmp_path, capsys):
        cfg = write(tmp_path / "i.cfg", "trials = 200\nrule_cap = 1\n")
        code = main(["invariance-check", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 1
        err = "error: rule cap 1 must exceed the initial-sample size 1\n"
        assert capsys.readouterr().err == err


class TestByteIdenticalOutputs:
    def test_same_config_same_bytes(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "b.cfg",
            "g = 0.5, 2\nn_trials = 2000\nrule = bf-threshold\nrule_upper = 10\n"
            "rule_lower = 0.1\nrule_cap = 40\nbins = 8\n",
        )
        for sub in ("o1", "o2"):
            code = main(
                ["mc-strong-calibration", "--config", cfg, "--seed", "5", "--out",
                 str(tmp_path / sub)]
            )
            assert code in (0, 2)  # contract outcome may be either at this tiny N
        for name in ("records.csv", "summary.json", "verdict.txt"):
            assert (tmp_path / "o1" / name).read_bytes() == (tmp_path / "o2" / name).read_bytes()


OUTPUTS = ("records.csv", "summary.json", "verdict.txt")


@pytest.mark.parametrize("n_workers", [2, 3])
@pytest.mark.parametrize(
    "kind, text",
    [
        ("mc-strong-calibration", "g = 0.5, 1, 2\nrule_upper = 5\nrule_lower = 0.2\nbins = 8\n"),
        ("mc-marginal-calibration", "x_m = 1, 2\nrule_upper = 5\nrule_lower = 0.2\nbins = 8\n"),
        ("mc-type1", "alpha = 0.05, 0.2\ng = 0.5, 2\n"),
    ],
)
def test_every_run_of_a_call_is_one_split_job(kind, text, n_workers, tmp_path, capsys,
                                              monkeypatch):
    """W - 1 forks for the whole call, not per arm or per value; the same bytes as W = 1."""
    cfg = write(tmp_path / "c.cfg", f"{text}n_trials = 600\nrule_cap = 30\n")
    monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 500)  # two blocks a run
    monkeypatch.setattr(workers, "worker_count", lambda: 1)
    # this first run also builds the tables, so the split run forks for its trials alone
    code = main([kind, "--config", cfg, "--seed", "3", "--out", str(tmp_path / "one")])
    started = []
    fork = workers._fork

    def spy(*args):
        started.append(args)
        return fork(*args)

    monkeypatch.setattr(workers, "_fork", spy)
    monkeypatch.setattr(workers, "worker_count", lambda: n_workers)
    assert main([kind, "--config", cfg, "--seed", "3", "--out", str(tmp_path / "split")]) == code
    assert len(started) == n_workers - 1
    for name in OUTPUTS:
        assert (tmp_path / "split" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


class TestRewrite:
    """Outputs are overwritten in place; the bytes left are exactly the new ones."""

    @pytest.mark.parametrize(
        "kind, text",
        [
            ("exact-markov", "horizon = 8\nalpha = 0.05, 0.1\nprior_grid = 500\n"),
            ("exact-calibration", "horizon = 6\nprior_grid = 500\nrule_upper = 3\n"),
            ("mc-type1", "alpha = 0.05\ng = 1\nn_trials = 300\nrule_cap = 30\n"),
        ],
    )
    def test_longer_previous_outputs_are_replaced(self, kind, text, tmp_path, capsys):
        cfg = write(tmp_path / "r.cfg", text)
        fresh, reused = tmp_path / "fresh", tmp_path / "reused"
        reused.mkdir()
        for name in OUTPUTS:
            (reused / name).write_bytes(b"stale line that is longer than any output\n" * 5000)
        for out in (fresh, reused):
            assert main([kind, "--config", cfg, "--seed", "3", "--out", str(out)]) == 0
        for name in OUTPUTS:
            assert (reused / name).read_bytes() == (fresh / name).read_bytes()

    @pytest.mark.parametrize("obstacle", ["read-only file", "directory"])
    def test_unwritable_output_exits_one(self, obstacle, tmp_path, capsys):
        cfg = write(tmp_path / "m.cfg", "horizon = 8\nalpha = 0.05\nprior_grid = 500\n")
        out = tmp_path / "out"
        out.mkdir()
        target = out / "summary.json"
        if obstacle == "directory":
            target.mkdir()
        else:
            target.write_text("old\n")
            target.chmod(0o444)
            if os.access(target, os.W_OK):
                pytest.skip("this process may write read-only files (superuser)")
        code = main(["exact-markov", "--config", cfg, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: I/O failure on {target}")
        if obstacle != "directory":
            assert target.read_text() == "old\n"


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def child_env(**extra):
    """This environment, with optstop imported from this checkout's src/ and ``extra`` set."""
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def blas_env(threads):
    """``child_env()`` with OPENBLAS_NUM_THREADS unset, or set to ``threads``."""
    env = child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


def run_python(*args):
    """A child interpreter on ``args`` that imports optstop from this checkout's src/."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=child_env())


class TestEntryPoint:
    def test_console_script_help(self):
        proc = run_python("-m", "optstop.cli", "--help")
        assert proc.returncode == 0
        assert "experiment" in proc.stdout

    def test_import_leaves_scipy_special_unloaded(self):
        code = "import sys, optstop, optstop.cli; print('scipy.special' in sys.modules)"
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("kind", ["exact-calibration", "exact-expectation"])
    def test_exact_outputs_do_not_depend_on_blas_threads(self, kind, tmp_path):
        """Same bytes with OpenBLAS left to its default pool and with one thread.

        At 10,001 atoms a node's H1 mass is a dot product that OpenBLAS
        splits over its pool, so on a host of 2 or more CPUs the last bits
        followed the pool's size until the package fixed it at one thread.
        """
        bundled = os.path.join(SCRIPTS, "configs", kind.replace("-", "_") + ".cfg")
        with open(bundled) as fh:
            text = fh.read()
        for key, value in (("horizon", 6), ("rule_cap", 6), ("prior_grid", 10_001)):
            text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        cfg = tmp_path / "small.cfg"
        cfg.write_text(text)
        outs = []
        for threads in (None, "1"):
            out = tmp_path / f"threads-{threads}"
            proc = subprocess.run(
                [sys.executable, "-m", "optstop.cli", kind, "--config", str(cfg), "--seed", "3",
                 "--out", str(out)],
                capture_output=True, text=True, env=blas_env(threads),
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        for name in ("records.csv", "summary.json", "verdict.txt"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    @pytest.mark.parametrize("setting, seen", [(None, "1"), ("2", "2")], ids=["unset", "caller"])
    def test_import_sets_one_blas_thread_unless_the_caller_did(self, setting, seen):
        code = "import os, optstop; print(os.environ['OPENBLAS_NUM_THREADS'])"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=blas_env(setting))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == seen

    @pytest.mark.parametrize("kind", ["exact-calibration", "exact-expectation"])
    def test_a_subnormal_exact_mass_exits_one_without_a_traceback(self, kind, tmp_path):
        # the all-ones sequence of FixedN(10) has null mass 1e-32^10 = 1e-320
        cfg = write(tmp_path / "s.cfg",
                    "horizon = 10\ntheta0 = 1e-32\nrule = fixed-n\nrule_n = 10\nrule_cap = 10\n")
        proc = run_python("-m", "optstop.cli", kind, "--config", cfg, "--out",
                          str(tmp_path / "out"))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: a sequence of n = 10 symbols has mass 1e-320 under H0 ")

    @pytest.mark.parametrize("kind", ["mc-type1", "invariance-check"])
    def test_a_cauchy_scale_below_the_least_exits_one(self, kind, tmp_path):
        cfg = write(tmp_path / "c.cfg", "effect_scale = 1e-300\n")
        proc = run_python("-m", "optstop.cli", kind, "--config", cfg, "--out",
                          str(tmp_path / "out"))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: Cauchy scale must be finite and at least 8.3e-143, ")

    def test_evidence_needs_no_scipy(self):
        # scipy is a test dependency only: every Bayes factor and marginal
        # must evaluate with it unimportable
        code = (
            "import sys; sys.modules['scipy'] = None\n"
            "import numpy as np\n"
            "from optstop import CauchyEffect, InvariantModelPair, PointMass, ScaleBfCurves\n"
            "x = [0.7, -0.2, 1.3, 0.4]\n"
            "for prior in (PointMass(0.5), CauchyEffect(1.0)):\n"
            "    pair = InvariantModelPair.scale(prior)\n"
            "    pair.log_bf(x[:1]), pair.log_marginal_null(x) + pair.log_bf(x)\n"
            "    curves = ScaleBfCurves(pair)\n"
            "    curves.log_bf_cells(4, prior.coordinate(np.array([0.3]), np.array([-0.5])))\n"
            "InvariantModelPair.location_scale(CauchyEffect(1.0)).log_marginal_null(x)\n"
        )
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr


SCRIPTS = os.path.join(ROOT, "scripts")


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_a_closed_stdout_ends_in_one_error_line(unbuffered, tmp_path, capsys):
    """Exit 1 with one ``error:`` line and no traceback; the three output files are complete."""
    cfg = os.path.join(SCRIPTS, "configs", "exact_calibration.cfg")
    args = ["exact-calibration", "--config", cfg, "--seed", "3", "--out"]
    assert main([*args, str(tmp_path / "ref")]) == 0
    capsys.readouterr()
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first line
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "optstop.cli", *args, str(tmp_path / "out")],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=child_env(PYTHONUNBUFFERED=unbuffered),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == "error: standard output closed: [Errno 32] Broken pipe\n"
    for name in ("records.csv", "summary.json", "verdict.txt"):
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


def test_every_kind_has_one_bundled_config():
    script = load_script("run_all_checks")
    paths = [script.config_path(kind) for kind in EXPERIMENTS]
    assert all(os.path.dirname(p) == os.path.join(SCRIPTS, "configs") for p in paths)
    assert sorted(os.listdir(os.path.join(SCRIPTS, "configs"))) == sorted(map(os.path.basename, paths))


def test_run_all_checks_summary_gives_each_kinds_wall_seconds(tmp_path, capsys, monkeypatch):
    script = load_script("run_all_checks")
    clock = iter(range(0, 4 * len(EXPERIMENTS), 2))  # start and end of each run: 2 s apart
    monkeypatch.setattr(script.time, "perf_counter", lambda: 1.5 * next(clock))
    ticks = iter(range(2 * len(EXPERIMENTS)))

    def times():
        # each run: 0.5 s user and 0.25 s system here, 1 s and 0.75 s in children
        t = next(ticks)
        return os.times_result((0.5 * t, 0.25 * t, 1.0 * t, 0.75 * t, 0.0))

    monkeypatch.setattr(script.os, "times", times)
    codes = {kind: 2 if i == 1 else 0 for i, kind in enumerate(EXPERIMENTS)}
    monkeypatch.setattr(script, "run", lambda kind, config, seed, out_dir: codes[kind])
    monkeypatch.setattr(sys, "argv", ["run_all_checks.py", "--out", str(tmp_path)])
    assert script.main() == 2
    out = capsys.readouterr()
    summary = out.out.split("summary:\n", 1)[1].splitlines()
    assert summary == [
        f"  {kind:28s} {'FAIL (exit 2)' if codes[kind] else 'PASS':13s}     3.00 s wall "
        "    2.50 s cpu"
        for kind in EXPERIMENTS
    ]
    assert out.err == ""


class TestScriptErrors:
    """run_all_checks.py reports package errors as cli.main does: one line, exit 1."""

    @pytest.mark.parametrize(
        "error",
        [ResourceLimitError("draw buffer would exceed the budget"), ConfigError("unknown key 'x'")],
    )
    def test_run_all_checks(self, error, tmp_path, capsys, monkeypatch):
        script = load_script("run_all_checks")

        def failing_run(kind, config, seed, out_dir):
            raise error

        monkeypatch.setattr(script, "run", failing_run)
        monkeypatch.setattr(sys, "argv", ["run_all_checks.py", "--out", str(tmp_path)])
        assert script.main() == 1
        assert capsys.readouterr().err == f"error: {error}\n"
