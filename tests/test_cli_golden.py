"""The CLI's output bytes, pinned per experiment kind.

Each kind runs a tiny config at seed 3.  ``tests/golden/<kind>/`` holds
the expected ``summary.json`` and ``verdict.txt``, and
``tests/golden/records.sha256`` the digest of each ``records.csv`` (in
``sha256sum`` format, so ``sha256sum -c`` run in an output tree checks
it by hand).  The exit code must agree with the verdict.
"""

import hashlib
import os

import pytest

from optstop.cli import EXPERIMENTS, main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SEED = "3"

CONFIGS = {
    "exact-calibration": "horizon = 6\nprior_grid = 50\nrule_upper = 3\n",
    "exact-markov": "horizon = 6\nprior_grid = 50\nalpha = 0.05, 0.1, 0.2\n",
    "exact-expectation": "horizon = 6\nprior_grid = 50\nrule_upper = 4\nrule_lower = 0.25\n",
    "mc-strong-calibration": "g = 0.5, 2\nn_trials = 200\nrule_upper = 5\nrule_lower = 0.2\n"
    "rule_cap = 30\nbins = 8\n",
    "mc-type1": "alpha = 0.05, 0.2\ng = 0.5, 2\nn_trials = 200\nrule_cap = 30\n",
    # fixed-n 30 under a point effect of 1: the stopped Bayes factor is so
    # heavy-tailed that 200 trials fail the mean check at g = 2, which pins
    # a null-arm FAIL beside a PASS
    "mc-bf-mean": "effect = point\neffect_delta = 1\ng = 0.5, 2\nn_trials = 200\n"
    "rule = fixed-n\nrule_n = 30\nrule_cap = 30\n",
    "mc-marginal-calibration": "x_m = 1, 2\nn_trials = 200\nrule_upper = 5\nrule_lower = 0.2\n"
    "rule_cap = 30\nbins = 8\n",
    "invariance-check": "trials = 50\nrule_cap = 30\n",
}


def expected_digests():
    with open(os.path.join(GOLDEN, "records.sha256")) as fh:
        pairs = (line.split() for line in fh if line.strip())
        return {path: digest for digest, path in pairs}


def test_every_kind_is_pinned():
    assert sorted(CONFIGS) == sorted(EXPERIMENTS)
    assert sorted(expected_digests()) == sorted(f"{kind}/records.csv" for kind in EXPERIMENTS)


@pytest.mark.parametrize("kind", sorted(CONFIGS))
def test_outputs_match_golden(kind, tmp_path, capsys):
    cfg = tmp_path / "golden.cfg"
    cfg.write_text(CONFIGS[kind])
    out = tmp_path / kind
    code = main([kind, "--config", str(cfg), "--seed", SEED, "--out", str(out)])
    expected = os.path.join(GOLDEN, kind)
    for name in ("summary.json", "verdict.txt"):
        with open(os.path.join(expected, name), "rb") as fh:
            assert (out / name).read_bytes() == fh.read(), name
    digest = hashlib.sha256((out / "records.csv").read_bytes()).hexdigest()
    assert digest == expected_digests()[f"{kind}/records.csv"]
    passed = (out / "verdict.txt").read_text().splitlines()[-1] == "VERDICT: PASS"
    assert code == (0 if passed else 2)
    assert capsys.readouterr().out == (out / "verdict.txt").read_text()
