"""The count-lattice Markov check against the stopped-sequence tree it replaces in the CLI.

``exact.crossing_probabilities`` must give the rows that
``verify_markov_bound`` reads off ``build_table`` at the strictest alpha:
byte for byte where every null mass is dyadic (theta0 = 0.5), and to the
last bits of the masses' own arithmetic elsewhere.
"""

import math
import os

import numpy as np
import pytest

from optstop import exact, workers
from optstop.cli import main
from optstop.core import SignificanceLevel
from optstop.errors import ResourceLimitError
from optstop.exact import (
    FiniteModel,
    build_table,
    crossing_probabilities,
    random_finite_model,
    verify_markov_bound,
)
from optstop.stopping import BfThreshold

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEVELS = [SignificanceLevel(a) for a in (0.01, 0.05, 0.1, 0.2, 1.0)]
REL_TOL = 1e-14  # the masses of one count vector's orderings differ in the last bits


def tree(model, levels=LEVELS):
    """The tree's rows: one table at the strictest alpha answers every alpha."""
    strictest = min(level.alpha for level in levels)
    rule = BfThreshold(upper=1.0 / strictest, cap=model.horizon)
    return verify_markov_bound(build_table(model, rule), levels)


def agree(lattice, reference) -> bool:
    return [c.alpha for c in lattice] == [c.alpha for c in reference] and all(
        math.isclose(a.probability, b.probability, rel_tol=REL_TOL, abs_tol=0.0)
        for a, b in zip(lattice, reference)
    )


def with_h1_row(model, row, masses):
    """``model`` with H1 component ``row``'s symbol masses replaced by ``masses``."""
    p = model.cond_matrix(1).copy()
    p[row] = masses
    return FiniteModel(model.alphabet_size, model.horizon, model.weights(0),
                       model.cond_matrix(0), model.weights(1), p)


class TestAgainstTheTree:
    @pytest.mark.parametrize("grid", [50, 1000])
    def test_byte_equal_at_a_fair_null(self, grid):
        for horizon in range(1, 17):
            model = FiniteModel.bernoulli_point_vs_uniform(horizon=horizon, grid=grid)
            assert crossing_probabilities(model, LEVELS) == tree(model), horizon

    def test_byte_equal_on_the_bundled_model(self):
        model = FiniteModel.bernoulli_point_vs_uniform(horizon=12, grid=10_000)
        rows = crossing_probabilities(model, LEVELS)
        assert rows == tree(model)
        assert [c.probability for c in rows[:4]] == [
            0.0009765625, 0.01171875, 0.0224609375, 0.08203125
        ]

    def test_random_models_within_the_last_bits(self):
        rng = np.random.default_rng(37)
        alphabets = set()
        for _ in range(200):
            model = random_finite_model(rng)
            alphabets.add(model.alphabet_size)
            assert agree(crossing_probabilities(model, LEVELS), tree(model))
        assert alphabets == {2, 3}

    def test_a_state_exactly_at_the_bar_absorbs(self):
        # beta of six 1s is 1 / 0.042 to the last bit (tests/test_exact.py)
        q = 0.8480636640789329
        model = FiniteModel(2, 6, [1.0], [[0.5, 0.5]], [1.0], [[1 - q, q]])
        levels = [SignificanceLevel(0.042)]
        assert crossing_probabilities(model, levels) == tree(model, levels)
        assert crossing_probabilities(model, levels)[0].probability == 0.015625

    def test_levels_keep_their_order(self):
        model = FiniteModel.bernoulli_point_vs_uniform(horizon=9, grid=50)
        levels = LEVELS[::-1]
        assert crossing_probabilities(model, levels) == tree(model, levels)

    def test_a_perturbed_h1_row_disagrees(self):
        """Negative control: the comparison above sees a wrong alternative."""
        model = FiniteModel.bernoulli_point_vs_uniform(horizon=12, grid=50)
        wrong = with_h1_row(model, 49, model.cond_matrix(1)[49][::-1])
        assert not agree(crossing_probabilities(wrong, LEVELS), tree(model))


class TestPastTheTree:
    def test_ville_bound_at_horizon_200(self):
        model = FiniteModel.bernoulli_point_vs_uniform(horizon=200, grid=1000)
        levels = [SignificanceLevel(a) for a in (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0)]
        probabilities = [c.probability for c in crossing_probabilities(model, levels)]
        assert all(0.0 < p <= level.alpha for p, level in zip(probabilities, levels))
        assert probabilities == sorted(probabilities)


class TestResourceLimits:
    @pytest.fixture
    def no_walk(self, monkeypatch):
        def walk(*args):
            raise AssertionError("the lattice was walked")

        monkeypatch.setattr(exact, "_count_states", walk)

    def test_horizon_1000_at_grid_1000_is_admitted(self, no_walk):
        model = FiniteModel.bernoulli_point_vs_uniform(horizon=1000, grid=1000)
        with pytest.raises(AssertionError, match="walked"):
            crossing_probabilities(model, LEVELS)

    def test_horizon_a_million_is_refused_before_any_mass(self, no_walk):
        model = FiniteModel.bernoulli_point_vs_uniform(horizon=10**6, grid=50)
        with pytest.raises(ResourceLimitError, match="over the budget of 4294967296"):
            crossing_probabilities(model, LEVELS)

    def test_a_subnormal_mass_is_refused_naming_n(self):
        # 0.01^154 = 1e-308 is below the smallest normal double
        model = FiniteModel.bernoulli_point_vs_uniform(horizon=200, theta0=0.01, grid=1000)
        with pytest.raises(ResourceLimitError, match=r"n = 154 symbols .* positive normal"):
            crossing_probabilities(model, LEVELS)


def run_markov(tmp_path, config: str) -> int:
    cfg = tmp_path / "m.cfg"
    cfg.write_text(config)
    return main(["exact-markov", "--config", str(cfg), "--out", str(tmp_path / "out")])


class TestCli:
    def test_horizon_40_runs(self, tmp_path, capsys):
        assert run_markov(tmp_path, "horizon = 40\nprior_grid = 50\n") == 0

    def test_horizon_a_million_exits_one(self, tmp_path, capsys):
        assert run_markov(tmp_path, "horizon = 1000000\nprior_grid = 50\n") == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: the count lattice of 500001500001 states")

    def test_bundled_config_builds_no_tree_and_forks_nothing(self, tmp_path, capsys,
                                                             monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("exact-markov built a tree or split a job")

        monkeypatch.setattr(exact, "build_table", refuse)
        monkeypatch.setattr(workers, "run_groups", refuse)
        cfg = os.path.join(ROOT, "scripts", "configs", "exact_markov.cfg")
        out = tmp_path / "out"
        assert main(["exact-markov", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "records.csv").read_text().splitlines() == [
            "alpha,crossing_probability,bound_holds",
            "0.01,0.0009765625,True",
            "0.050000000000000003,0.01171875,True",
            "0.10000000000000001,0.0224609375,True",
            "0.20000000000000001,0.08203125,True",
        ]
        assert (out / "verdict.txt").read_text().splitlines()[-1] == "VERDICT: PASS"
