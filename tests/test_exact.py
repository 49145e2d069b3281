import hashlib
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from optstop import workers
from optstop.core import NEVER, SignificanceLevel, stop
from optstop.errors import ResourceLimitError
from optstop.exact import (
    FiniteModel,
    TableEntry,
    build_table,
    log_beta_paths,
    marginal_mass,
    random_finite_model,
    random_rule,
    sample_sequence,
    trajectory_finite,
    verify_calibration,
    verify_expected_stopped_bf,
    verify_markov_bound,
)
from optstop.stopping import BfThreshold, FixedN, RawStatistic, SumOfSquares
from reference_exact import calibration_groups, expected_stopped_bf, markov_probability

COLUMNS = ("symbols", "stop_index", "mass0", "mass1", "log_beta", "max_log_beta")


@pytest.fixture(scope="module")
def bernoulli10():
    return FiniteModel.bernoulli_point_vs_uniform(horizon=10)


def rows(table):
    """The table's rows by sequence."""
    return {e.sequence: e for e in table}


class TestMarginalMass:
    def test_point_null_product_of_halves(self, bernoulli10):
        assert marginal_mass(bernoulli10, 0, (1, 1)) == pytest.approx(0.25, abs=1e-15)

    def test_uniform_prior_matches_beta_bernoulli(self, bernoulli10):
        # closed form: integral of theta^2 over [0,1] is 1/3; midpoint
        # discretization with 10^4 atoms is accurate to ~1e-9
        assert marginal_mass(bernoulli10, 1, (1, 1)) == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_empty_sequence_mass_one(self, bernoulli10):
        assert marginal_mass(bernoulli10, 0, ()) == 1.0
        assert marginal_mass(bernoulli10, 1, ()) == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range_symbol(self, bernoulli10):
        with pytest.raises(ValueError):
            marginal_mass(bernoulli10, 0, (0, 2))
        with pytest.raises(ValueError):
            marginal_mass(bernoulli10, 0, (1,) * 11)

    def test_beta_bernoulli_general_counts(self, bernoulli10):
        # P(sequence with h ones in n draws) = h!(n-h)!/(n+1)!
        seq = (1, 0, 1, 1, 0)
        expected = (
            math.factorial(3) * math.factorial(2) / math.factorial(6)
        )
        assert marginal_mass(bernoulli10, 1, seq) == pytest.approx(expected, rel=1e-8)


def log_beta_by_masses(model, x):
    return math.log(marginal_mass(model, 1, x)) - math.log(marginal_mass(model, 0, x))


FAIR = [0.5, 0.5]


def two_symbol_model(weights0, masses0, weights1, masses1):
    return FiniteModel(2, 4, weights0, masses0, weights1, masses1)


class TestModelValidation:
    GRID = 10_000

    def grid_model(self, last, form):
        """The uniform grid model whose H1 masses end in the row ``last``.

        ``form`` "rows" passes the masses as a list of rows, "array" as one
        (GRID x 2) array.
        """
        if form == "rows":
            masses = [FAIR] * (self.GRID - 1) + [last]
        else:
            masses = np.full((self.GRID, 2), 0.5)
            masses[-1] = last
        return two_symbol_model([1.0], [FAIR], np.full(self.GRID, 1.0 / self.GRID), masses)

    @pytest.mark.parametrize("form", ["rows", "array"])
    @pytest.mark.parametrize(
        "last, message",
        [
            ([0.0, 1.0], "full support required: zero conditional mass found"),
            ([-0.5, 1.5], "full support required: zero conditional mass found"),
            ([0.5, 0.6], r"conditional masses sum to 1\.1\d*, expected 1"),
            ([math.nan, 0.5], "conditional masses must be finite"),
            ([math.inf, 0.5], "conditional masses must be finite"),
        ],
        ids=["zero", "negative", "sum", "nan", "inf"],
    )
    def test_last_bad_component_of_many_is_reported(self, last, message, form):
        with pytest.raises(ValueError, match=message):
            self.grid_model(last, form)

    @pytest.mark.parametrize(
        "masses",
        [
            [FAIR] * (GRID - 1) + [[0.2, 0.3, 0.5]],
            [FAIR] * (GRID - 1) + [[1.0]],
            np.full((GRID, 3), 1.0 / 3.0),
            np.full((GRID, 1), 1.0),
            np.full(GRID, 0.5),
            np.full((GRID, 2, 1), 0.5),
        ],
        ids=["ragged-long", "ragged-short", "wide", "narrow", "vector", "three-axes"],
    )
    def test_ragged_or_wrong_width_masses_are_refused(self, masses):
        weights = np.full(self.GRID, 1.0 / self.GRID)
        with pytest.raises(ValueError, match="^conditional must have 2 entries$"):
            two_symbol_model([1.0], [FAIR], weights, masses)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5, 0.0])
    def test_non_finite_or_nonpositive_weight_rejected(self, bad):
        last_of_many = np.full(self.GRID, 1.0 / self.GRID)
        last_of_many[-1] = bad
        for weights in ([bad], [bad, 1.0], last_of_many):
            masses = np.full((len(weights), 2), 0.5)
            with pytest.raises(ValueError, match="prior weights must be positive and finite"):
                two_symbol_model([1.0], [FAIR], weights, masses)

    def test_weights_sum_to_one_to_within_the_tolerance(self):
        """``math.fsum`` of the weights: exact, whatever the count and order."""
        weights = np.full(self.GRID, 1.0 / self.GRID)
        masses = np.full((self.GRID, 2), 0.5)
        two_symbol_model([1.0], [FAIR], weights, masses)
        weights[0] += 2e-9
        with pytest.raises(ValueError, match=r"^H1 prior weights sum to 1\.000000002\d*, expected 1$"):
            two_symbol_model([1.0], [FAIR], weights, masses)
        with pytest.raises(ValueError, match=r"^H0 prior weights sum to 0\.5, expected 1$"):
            two_symbol_model([0.5], [FAIR], [1.0], [FAIR])

    @pytest.mark.parametrize(
        "weights, message",
        [
            ([], "^H1 needs at least one component$"),
            (1.0, r"^H1 prior weights must be a vector, got shape \(\)$"),
            ([[1.0]], r"^H1 prior weights must be a vector, got shape \(1, 1\)$"),
            ([0.5, 0.5], "^H1 has 2 prior weights but 1 rows of masses$"),
            (["a"], "^prior weights must be positive and finite$"),
        ],
        ids=["empty", "scalar", "matrix", "count", "not-numbers"],
    )
    def test_weights_that_are_not_one_per_row_are_refused(self, weights, message):
        with pytest.raises(ValueError, match=message):
            two_symbol_model([1.0], [FAIR], weights, [FAIR])

    def test_non_finite_mass_rejected_on_both_hypotheses(self):
        with pytest.raises(ValueError, match="must be finite"):
            two_symbol_model([1.0], [[math.nan, 0.5]], [1.0], [FAIR])

    def test_valid_grid_model_is_iid(self):
        model = self.grid_model(FAIR, "array")
        assert model.cond_matrix(1).shape == (self.GRID, 2)

    def test_the_model_keeps_read_only_copies(self):
        """The caller's arrays are copied: writing to them later leaves the model as built."""
        weights, masses = np.array([0.25, 0.75]), np.array([[0.5, 0.5], [0.1, 0.9]])
        model = two_symbol_model([1.0], [FAIR], weights, masses)
        weights[0], masses[0, 0] = 0.0, 0.0
        assert model.weights(1).tolist() == [0.25, 0.75]
        assert model.cond_matrix(1).tolist() == [[0.5, 0.5], [0.1, 0.9]]
        for read in (model.weights(1), model.cond_matrix(1)):
            with pytest.raises(ValueError, match="read-only"):
                read[0] = 1.0

    @staticmethod
    def three_symbol_model(form):
        return FiniteModel(
            alphabet_size=3,
            horizon=6,
            weights0=form([1.0]),
            masses0=form([form([0.2, 0.3, 0.5])]),
            weights1=form([0.25, 0.75]),
            masses1=form([form([0.6, 0.3, 0.1]), form([0.1, 0.1, 0.8])]),
        )

    @pytest.mark.parametrize("form", [list, tuple])
    def test_a_sequence_component_is_its_array(self, form, tmp_path):
        """Lists or tuples of masses build the ndarray form's table bytes and masses."""
        model, reference = self.three_symbol_model(form), self.three_symbol_model(np.array)
        rule = BfThreshold(upper=4.0, lower=0.25, cap=6)
        build_table(model, rule).to_csv(tmp_path / "seq.csv")
        build_table(reference, rule).to_csv(tmp_path / "array.csv")
        assert (tmp_path / "seq.csv").read_bytes() == (tmp_path / "array.csv").read_bytes()
        for x in [(), (2,), (0, 1, 2, 2), (1, 1, 0, 2, 0, 1)]:
            for k in (0, 1):
                assert marginal_mass(model, k, x) == marginal_mass(reference, k, x)
        seqs = [(0, 1, 2, 2, 1, 0), (2, 2, 2, 0, 0, 1)]
        assert log_beta_paths(model, seqs).tolist() == log_beta_paths(reference, seqs).tolist()

    @pytest.mark.parametrize(
        "bad",
        [lambda prefix: [0.5, 0.5], [0.5], (0.2, 0.3, 0.5), np.array([[0.5, 0.5]]), 0.5, "ab"],
        ids=["callable", "one-entry", "three-entries", "matrix", "scalar", "string"],
    )
    def test_a_component_that_is_not_k_masses_is_refused(self, bad):
        for masses0, masses1 in (([FAIR], [bad]), ([bad], [FAIR])):
            with pytest.raises(ValueError, match="conditional must have 2 entries"):
                two_symbol_model([1.0], masses0, [1.0], masses1)


def atom_oracle(grid, theta0=0.5):
    """The uniform-prior Bernoulli model's arrays, built one atom at a time in Python floats."""
    weights1 = [1.0 / grid for _ in range(grid)]
    masses1 = []
    for i in range(grid):
        theta = (i + 0.5) / grid
        masses1.append([1.0 - theta, theta])
    return ([1.0], [[1.0 - theta0, theta0]]), (weights1, masses1)


class TestModelArrays:
    @pytest.mark.parametrize("grid", [2, 500, 10_000])
    def test_bernoulli_builder_equals_a_per_atom_oracle(self, grid):
        """Weights, masses and sampling CDFs, bit for bit."""
        model = FiniteModel.bernoulli_point_vs_uniform(horizon=4, grid=grid)
        for k, (weights, masses) in enumerate(atom_oracle(grid)):
            assert model.weights(k).tolist() == weights
            assert model.cond_matrix(k).tolist() == masses
            mix = model._mixture(k)
            p = np.array(weights) / np.sum(weights)
            assert mix.weight_cdf.tolist() == (np.cumsum(p) / np.cumsum(p)[-1]).tolist()
            for comp, row in enumerate(masses):
                q = np.array(row) / np.sum(row)
                assert mix.symbol_cdf(comp).tolist() == (np.cumsum(q) / np.cumsum(q)[-1]).tolist()

    def test_random_models_are_those_of_the_per_row_draws(self):
        """sha256 of 20 seeded models' arrays and each generator's next draws.

        Pinned when each row of masses was drawn by its own ``rng.dirichlet``
        call and kept as a (weight, row) pair.
        """
        digest = hashlib.sha256()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            model = random_finite_model(rng, max_alphabet=5, max_components=4)
            digest.update(repr((model.alphabet_size, model.horizon)).encode())
            for k in (0, 1):
                digest.update(np.ascontiguousarray(model.weights(k)).tobytes())
                digest.update(np.ascontiguousarray(model.cond_matrix(k)).tobytes())
            digest.update(rng.random(2).tobytes())
        assert digest.hexdigest() == (
            "705f95d5f4ba6eb3700abb0c6e1315c4a81702a86ad0bf424331f374bc8c28de"
        )

    def test_a_large_build_holds_no_per_atom_objects(self):
        """10^5 atoms peak below 8 MB of traced allocations: 2.4 MB of arrays and their checks."""
        tracemalloc.start()
        try:
            model = FiniteModel.bernoulli_point_vs_uniform(horizon=4, grid=100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.weights(1).shape == (100_000,)
        assert peak < 8 * 2**20


class TestBuildTable:
    def test_stop_at_one(self, bernoulli10):
        table = build_table(bernoulli10, FixedN(n=1, cap=10))
        assert len(table) == 2
        assert math.fsum(e.mass0 for e in table) == pytest.approx(1.0, abs=1e-15)
        assert math.fsum(e.mass1 for e in table) == pytest.approx(1.0, abs=1e-12)

    def test_full_tree_leaf_count(self):
        model = FiniteModel.bernoulli_point_vs_uniform(horizon=10, grid=100)
        table = build_table(model, FixedN(n=10, cap=10))
        assert len(table) == 1024

    def test_hand_enumerated_two_level_tree(self):
        model = FiniteModel.bernoulli_point_vs_uniform(horizon=2, grid=10_000)
        table = build_table(model, BfThreshold(upper=4.0 / 3.0, cap=2))
        # (1,1) ends with beta = (1/3)/(1/4) = 4/3 >= 4/3, mass0 = 1/4
        entry = rows(table)[(1, 1)]
        assert entry.mass0 == pytest.approx(0.25, abs=1e-15)
        assert entry.stop_index == 2
        # prefix-free partition
        assert math.fsum(e.mass0 for e in table) == pytest.approx(1.0, abs=1e-12)

    def test_prefix_free(self, bernoulli10):
        table = build_table(bernoulli10, BfThreshold(upper=3.0, cap=10))
        seqs = set(rows(table))
        for s in seqs:
            for cut in range(1, len(s)):
                assert s[:cut] not in seqs

    def test_entry_budget(self, bernoulli10):
        with pytest.raises(ResourceLimitError, match="128"):
            build_table(bernoulli10, FixedN(n=10, cap=10), max_entries=128)

    def test_cap_beyond_horizon_rejected(self, bernoulli10):
        with pytest.raises(ValueError):
            build_table(bernoulli10, FixedN(n=11, cap=11))


class TestVerifiers:
    def test_identical_hypotheses_single_unit_group(self):
        model = FiniteModel(2, 6, [1.0], [[0.4, 0.6]], [1.0], [[0.4, 0.6]])
        table = build_table(model, BfThreshold(upper=2.0, cap=6))
        report = verify_calibration(table, tol=1e-12)
        assert report.passed
        assert len(report.groups) == 1
        assert report.groups[0].beta == pytest.approx(1.0, abs=1e-12)
        assert report.groups[0].residual <= 1e-12

    def test_calibration_fixed_n(self, bernoulli10):
        table = build_table(bernoulli10, FixedN(n=7, cap=10))
        assert verify_calibration(table, tol=1e-9).passed

    def test_markov_bound_alpha_one_trivial(self, bernoulli10):
        table = build_table(bernoulli10, BfThreshold(upper=1.0, cap=10))
        (chk,) = verify_markov_bound(table, [SignificanceLevel(1.0)])
        assert chk.probability <= 1.0
        assert chk.bound_holds

    def test_markov_identical_hypotheses_zero_probability(self):
        model = FiniteModel(2, 8, [1.0], [FAIR], [1.0], [FAIR])
        for alpha in (0.05, 0.5):
            table = build_table(model, BfThreshold(upper=1.0 / alpha, cap=8))
            (chk,) = verify_markov_bound(table, [SignificanceLevel(alpha)])
            assert chk.probability == 0.0

    def test_markov_counts_a_path_stopped_exactly_at_the_bar(self):
        # the rule stops (1,) * 6 at log beta = log(1 / 0.042), one ulp below
        # -log(0.042): the crossing counts only if both read the same bar
        q = 0.8480636640789329
        model = FiniteModel(2, 6, [1.0], [[0.5, 0.5]], [1.0], [[1 - q, q]])
        table = build_table(model, BfThreshold(upper=1 / 0.042, cap=6))
        entry = rows(table)[(1,) * 6]
        assert entry.log_beta == math.log(1 / 0.042) < -math.log(0.042)
        (chk,) = verify_markov_bound(table, [SignificanceLevel(0.042)])
        assert chk.probability == entry.mass0 == 0.015625

    def test_markov_rejects_tables_that_hide_the_crossing(self, bernoulli10):
        level = SignificanceLevel(0.01)
        for rule in (
            BfThreshold(upper=5.0, cap=10),  # stops before beta could reach 100
            BfThreshold(upper=100.0, lower=0.5, cap=10),  # stops paths that fall low
            FixedN(n=6, cap=10),
            SumOfSquares(3.0, cap=10),
        ):
            with pytest.raises(ValueError, match="cannot show whether beta reached 100"):
                verify_markov_bound(build_table(bernoulli10, rule), [level])

    def test_markov_fixed_n_at_cap_matches_threshold_table(self, bernoulli10):
        levels = [SignificanceLevel(a) for a in (0.05, 0.2)]
        full = verify_markov_bound(build_table(bernoulli10, FixedN(n=10, cap=10)), levels)
        for level, chk in zip(levels, full):
            own = build_table(bernoulli10, BfThreshold(upper=1.0 / level.alpha, cap=10))
            (expected,) = verify_markov_bound(own, [level])
            assert chk.probability == pytest.approx(expected.probability, rel=1e-12)

    def test_one_strict_table_answers_every_alpha(self):
        model = FiniteModel.bernoulli_point_vs_uniform(horizon=12)
        strict = build_table(model, BfThreshold(upper=100.0, cap=12))
        levels = [SignificanceLevel(a) for a in (0.05, 0.1, 0.2)]
        for level, chk in zip(levels, verify_markov_bound(strict, levels)):
            own = build_table(model, BfThreshold(upper=1.0 / level.alpha, cap=12))
            (expected,) = verify_markov_bound(own, [level])
            # theta0 = 1/2: every null mass is a power of two and fsum is exact
            assert chk.probability == expected.probability

    def test_expected_stopped_bf_identical_hypotheses(self):
        model = FiniteModel(2, 5, [1.0], [[0.3, 0.7]], [1.0], [[0.3, 0.7]])
        table = build_table(model, FixedN(n=5, cap=5))
        assert verify_expected_stopped_bf(table) == pytest.approx(1.0, abs=1e-14)

    def test_expected_stopped_bf_fixed_n_analytic(self, bernoulli10):
        # sum_x P0(x) * (P1(x)/P0(x)) = sum_x P1(x) = 1
        table = build_table(bernoulli10, FixedN(n=6, cap=10))
        assert verify_expected_stopped_bf(table) == pytest.approx(1.0, abs=1e-10)


class TestTauIndependenceCrossCheck:
    def test_two_rules_same_stopped_sequence_identical_log_beta(self, rng):
        model = random_finite_model(rng)
        rule_a = BfThreshold(upper=1.5, cap=model.horizon)
        rule_b = FixedN(n=model.horizon, cap=model.horizon)
        ta = build_table(model, rule_a)
        tb = build_table(model, rule_b)
        rows_a, rows_b = rows(ta), rows(tb)
        for seq in rows_a.keys() & rows_b.keys():
            assert rows_a[seq].log_beta == rows_b[seq].log_beta


def sample_sequence_by_choice(model, k, rng):
    """Reference sampler: one ``rng.choice`` per component and per symbol."""
    weights = model.weights(k)
    comp = int(rng.choice(len(weights), p=weights / weights.sum()))
    p = model.cond_matrix(k)[comp]
    out = []
    for _ in range(model.horizon):
        out.append(int(rng.choice(model.alphabet_size, p=p / p.sum())))
    return tuple(out)


class TestSampling:
    @pytest.mark.parametrize("kind", ["bernoulli", "random"])
    def test_sample_sequence_matches_choice(self, kind):
        """Same sequences, and the generator left at the same draw, bit for bit."""
        models = {
            "bernoulli": lambda r: FiniteModel.bernoulli_point_vs_uniform(horizon=9, grid=500),
            "random": lambda r: random_finite_model(r, max_alphabet=5, max_components=4),
        }
        for seed in range(40):
            model = models[kind](np.random.default_rng(seed))
            for k in (0, 1):
                a = np.random.Generator(np.random.Philox(key=[seed, k]))
                b = np.random.Generator(np.random.Philox(key=[seed, k]))
                for _ in range(5):
                    assert sample_sequence(model, k, a) == sample_sequence_by_choice(model, k, b)
                assert a.random(3).tolist() == b.random(3).tolist()

    @pytest.mark.parametrize("alphabet", range(2, 13))
    def test_sample_sequence_matches_choice_at_every_alphabet_size(self, alphabet):
        """Each component's CDF, formed at its draw, is the one ``rng.choice`` forms."""
        for seed in range(10):
            rng = np.random.default_rng([seed, alphabet])
            hypotheses = []
            for count in (1, int(rng.integers(2, 6))):
                masses = rng.dirichlet(np.ones(alphabet), size=count) + 0.05
                masses /= 1 + 0.05 * alphabet
                hypotheses += [rng.dirichlet(np.ones(count)), masses]
            model = FiniteModel(alphabet, 6, *hypotheses)
            for k in (0, 1):
                a = np.random.Generator(np.random.Philox(key=[seed, k]))
                b = np.random.Generator(np.random.Philox(key=[seed, k]))
                for _ in range(5):
                    assert sample_sequence(model, k, a) == sample_sequence_by_choice(model, k, b)
                assert a.random(3).tolist() == b.random(3).tolist()

    def test_the_first_draw_keeps_only_the_weights_cdf(self):
        """10^5 atoms: the draw holds one CDF of the weights (0.76 MiB) and peaks below 3 MiB.

        A (components x alphabet) CDF of every component held 2.29 MiB after
        the draw and peaked at 5.4 MiB.
        """
        model = FiniteModel.bernoulli_point_vs_uniform(horizon=4, grid=100_000)
        tracemalloc.start()
        try:
            sample_sequence(model, 1, np.random.default_rng(0))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 2**20 and peak < 3 * 2**20

    def test_a_uniform_on_a_cdf_step_takes_the_next_index(self):
        """``searchsorted(side="right")``, as ``rng.choice`` uses, for the atom and each symbol."""

        class Uniforms:
            def random(self, n):
                return np.array([0.5, 0.25, 0.0, 0.75][:n])

        # two atoms of weight 1/2 (CDF 0.5, 1): u = 0.5 picks theta = 0.75, whose CDF is (0.25, 1)
        model = FiniteModel.bernoulli_point_vs_uniform(horizon=3, grid=2)
        assert sample_sequence(model, 1, Uniforms()) == (1, 0, 1)

    @pytest.mark.parametrize(
        "read, k",
        [
            (lambda model, k: sample_sequence(model, k, np.random.default_rng(0)), -1),
            (lambda model, k: model.weights(k), 2),
            (lambda model, k: model.cond_matrix(k), -1),
            (lambda model, k: marginal_mass(model, k, (0, 1)), 2),
        ],
        ids=["sample_sequence", "weights", "cond_matrix", "marginal_mass"],
    )
    def test_a_hypothesis_index_other_than_0_or_1_is_refused(self, bernoulli10, read, k):
        with pytest.raises(ValueError, match=f"hypothesis index must be 0 or 1, got {k}"):
            read(bernoulli10, k)

    def test_sample_sequence_length_and_alphabet(self, rng):
        model = random_finite_model(rng)
        seq = sample_sequence(model, 1, rng)
        assert len(seq) == model.horizon
        assert all(0 <= s < model.alphabet_size for s in seq)

    def test_trajectory_matches_marginals(self, rng):
        model = random_finite_model(rng)
        seq = sample_sequence(model, 0, rng)
        traj = trajectory_finite(model, seq)
        for n in range(1, len(seq) + 1):
            assert traj.value_at(n) == pytest.approx(
                log_beta_by_masses(model, seq[:n]), abs=1e-12
            )

    def test_stop_on_finite_trajectory(self, rng):
        model = random_finite_model(rng)
        seq = sample_sequence(model, 0, rng)
        traj = trajectory_finite(model, seq)
        out = stop(traj, FixedN(n=2, cap=model.horizon), seq)
        assert out.stop_index == 2
        assert out.stop_index is not NEVER


# randomized whole-module properties ---------------------------------------


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.data_too_large])
@given(seed=st.integers(0, 2**31 - 1))
def test_partition_calibration_markov_expectation_properties(seed):
    """Every random model and random capped rule satisfies all table checks."""
    rng = np.random.default_rng(seed)
    model = random_finite_model(rng)
    rule = random_rule(rng, model.horizon)
    table = build_table(model, rule)
    assert abs(math.fsum(e.mass0 for e in table) - 1.0) <= 1e-12
    assert abs(math.fsum(e.mass1 for e in table) - 1.0) <= 1e-12
    assert verify_calibration(table, tol=1e-9).passed
    assert abs(verify_expected_stopped_bf(table) - 1.0) <= 1e-10
    alpha = float(rng.uniform(0.02, 0.9))
    markov_table = build_table(model, BfThreshold(upper=1.0 / alpha, cap=model.horizon))
    (chk,) = verify_markov_bound(markov_table, [SignificanceLevel(alpha)])
    assert chk.bound_holds


# one-process enumeration -----------------------------------------------------

# sha256 of repr(list(table)), the table's rows, for the stopped-sequence tree
# of the bundled exact-markov config (horizon 12, prior_grid 10,000,
# BfThreshold(100)), taken when a table was a dict of one TableEntry per
# sequence (then the repr of the dict's values)
MARKOV_DIGEST = "684c47012525ed46e9f3f01998ec4cd3b0696968367888cc31a3f215dd0de5f6"
BUDGET_MESSAGE = "^stopped-sequence table would exceed the budget of {} entries$"


def assert_no_child():
    """This process has no child process left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def items_digest(table):
    """sha256 of ``repr`` of the table's rows, in order: every float bit shows."""
    return hashlib.sha256(repr(list(table)).encode()).hexdigest()


def recursive_rows(model, rule):
    """The rows of ``build_table(model, rule)`` by a recursive enumeration.

    A node's stopped children, last symbol first, come before the subtrees
    of its open children, first symbol first; each child's masses are its
    parent's likelihoods times one conditional column, as in the tree.
    """
    w0, w1 = model.weights(0), model.weights(1)
    cond0, cond1 = model.cond_matrix(0), model.cond_matrix(1)
    found = []

    def visit(prefix, lik0, lik1, max_lb):
        open_children = []
        for sym in reversed(range(model.alphabet_size)):
            child = prefix + (sym,)
            clik0, clik1 = lik0 * cond0[:, sym], lik1 * cond1[:, sym]
            mass0, mass1 = float(w0 @ clik0), float(w1 @ clik1)
            lb = math.log(mass1) - math.log(mass0)
            if rule.decide(child, lb):
                found.append(TableEntry(child, mass0, mass1, lb, len(child), max(max_lb, lb)))
            else:
                open_children.append((child, clik0, clik1, max(max_lb, lb)))
        for node in reversed(open_children):
            visit(*node)

    visit((), np.ones(len(w0)), np.ones(len(w1)), -math.inf)
    return found


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


def test_a_table_is_columns_of_at_most_40_plus_cap_bytes_a_leaf():
    rule = BfThreshold(upper=4.0, lower=0.25, cap=10)
    table = build_table(FiniteModel.bernoulli_point_vs_uniform(horizon=10, grid=50), rule)
    columns = [getattr(table, name) for name in COLUMNS]
    assert [c.dtype for c in columns] == [np.uint8, np.int64] + [np.float64] * 4
    assert all(not c.flags.writeable for c in columns)
    assert len(table) == len(list(table)) == len(table.stop_index) > 100
    assert len(table.symbols) == table.stop_index.sum()
    assert sum(c.nbytes for c in columns) <= (40 + rule.cap) * len(table)
    assert all(type(e) is TableEntry for e in table)


def test_the_row_view_is_python_numbers():
    model = FiniteModel(2, 2, [1.0], [[0.5, 0.5]], [1.0], [[0.75, 0.25]])
    (first, second) = build_table(model, FixedN(n=1, cap=2))  # a node's leaves: last symbol first
    assert repr(first) == (
        "TableEntry(sequence=(1,), mass0=0.5, mass1=0.25, log_beta=-0.6931471805599453, "
        "stop_index=1, max_log_beta=-0.6931471805599453)"
    )
    assert second == TableEntry(sequence=(0,), mass0=0.5, mass1=0.75, log_beta=math.log(1.5),
                                stop_index=1, max_log_beta=math.log(1.5))
    assert [type(v) for v in first] == [tuple, float, float, float, int, float]
    assert type(first.sequence[0]) is int


@pytest.mark.parametrize("alphabet, dtype", [(2, np.uint8), (256, np.uint8), (257, np.uint16)])
def test_symbols_take_the_narrowest_type_that_holds_k_minus_1(alphabet, dtype):
    uniform = [np.full(alphabet, 1.0 / alphabet)]
    table = build_table(FiniteModel(alphabet, 1, [1.0], uniform, [1.0], uniform), FixedN(1, 1))
    assert table.symbols.dtype == dtype
    assert table.symbols.tolist() == list(reversed(range(alphabet)))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.data_too_large])
@given(seed=st.integers(0, 2**31 - 1))
def test_column_verifiers_equal_the_per_row_oracle(seed):
    rng = np.random.default_rng(seed)
    model = random_finite_model(rng)
    rule = random_rule(rng, model.horizon)
    levels = sorted((SignificanceLevel(float(a)) for a in rng.uniform(0.02, 0.9, 3)),
                    key=lambda level: level.alpha)
    strict = BfThreshold(upper=1.0 / levels[0].alpha, cap=model.horizon)
    table, markov_table = build_table(model, rule), build_table(model, strict)
    report = verify_calibration(table, tol=1e-9)
    groups = [(g.log_beta, g.beta, g.mass0, g.mass1, g.ratio, g.residual)
              for g in report.groups]
    assert repr(groups) == repr(calibration_groups(table))
    assert repr(verify_expected_stopped_bf(table)) == repr(expected_stopped_bf(table))
    probabilities = [c.probability for c in verify_markov_bound(markov_table, levels)]
    oracle = [markov_probability(markov_table, level.log_threshold) for level in levels]
    assert repr(probabilities) == repr(oracle)


class TestOneProcessBuild:
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_a_build_forks_nothing(self, n_workers, forks, monkeypatch):
        monkeypatch.setattr(workers, "worker_count", lambda: n_workers)
        # the bundled exact-calibration tree: 10,001 components, cap 10
        table = build_table(FiniteModel.bernoulli_point_vs_uniform(horizon=10, grid=10_000),
                            BfThreshold(upper=3.0, cap=10))
        assert (len(table), forks) == (874, [])

    @pytest.mark.parametrize(
        "rule",
        [
            BfThreshold(upper=4.0, lower=0.25, cap=10),
            RawStatistic(statistic=lambda x: float(np.sum(x)), threshold=4.0, cap=10),
            FixedN(n=10, cap=10),
        ],
        ids=["two-sided", "raw-statistic", "fixed-n"],
    )
    def test_same_items_across_worker_counts(self, rule, forks, monkeypatch):
        model = FiniteModel.bernoulli_point_vs_uniform(horizon=10, grid=50)
        oracle = recursive_rows(model, rule)
        assert len(oracle) > 100
        for n_workers in (1, 2, 3):
            monkeypatch.setattr(workers, "worker_count", lambda: n_workers)
            assert items_digest(build_table(model, rule)) == items_digest(oracle)
        assert forks == []

    def test_the_entry_budget_admits_max_entries_leaves(self):
        model = FiniteModel.bernoulli_point_vs_uniform(horizon=10, grid=100)
        rule = FixedN(n=10, cap=10)  # 1,024 leaves
        with pytest.raises(ResourceLimitError, match=BUDGET_MESSAGE.format(1023)):
            build_table(model, rule, max_entries=1023)
        assert len(build_table(model, rule, max_entries=1024)) == 1024

    # FixedN(10) on a 10-symbol-deep binary tree: 1,024 leaves
    @pytest.mark.parametrize("max_entries", [1, 128, 360, 1023])
    def test_an_over_budget_build_stops_at_the_first_leaf_past_it(self, max_entries,
                                                                  monkeypatch):
        fired, decide = [], FixedN.decide

        def spy(rule, prefix, log_beta=None):
            stops = decide(rule, prefix, log_beta)
            fired.extend([prefix] if stops else [])
            return stops

        monkeypatch.setattr(FixedN, "decide", spy)
        model = FiniteModel.bernoulli_point_vs_uniform(horizon=10, grid=100)
        with pytest.raises(ResourceLimitError, match=BUDGET_MESSAGE.format(max_entries)):
            build_table(model, FixedN(n=10, cap=10), max_entries=max_entries)
        assert len(fired) == max_entries + 1  # no leaf is reached after the one over

    def test_a_statistics_error_raises_as_itself(self, monkeypatch):
        monkeypatch.setattr(workers, "worker_count", lambda: 2)

        def statistic(x):
            if len(x) > 4 and x[0] == 1:  # deep in the root's last subtree
                raise RuntimeError("statistic failed")
            return 0.0

        rule = RawStatistic(statistic=statistic, threshold=1.0, cap=10)
        with pytest.raises(RuntimeError, match="^statistic failed$"):
            build_table(FiniteModel.bernoulli_point_vs_uniform(horizon=10, grid=10_000), rule)

    def test_an_interrupt_raises_as_itself_and_leaves_no_child(self, forks, monkeypatch):
        monkeypatch.setattr(workers, "worker_count", lambda: 3)

        def statistic(x):
            if len(x) > 4 and x[0] == 1:  # deep in the root's last subtree
                raise KeyboardInterrupt
            return 0.0

        rule = RawStatistic(statistic=statistic, threshold=1.0, cap=10)
        with pytest.raises(KeyboardInterrupt):
            build_table(FiniteModel.bernoulli_point_vs_uniform(horizon=10, grid=50), rule)
        assert forks == []
        assert_no_child()

    def test_a_build_inside_a_worker_job_forks_nothing(self, monkeypatch):
        model = FiniteModel.bernoulli_point_vs_uniform(horizon=10, grid=50)
        rule = BfThreshold(upper=4.0, lower=0.25, cap=10)
        one = items_digest(build_table(model, rule))
        caller, fork = os.getpid(), workers._fork

        def outside_jobs(run, group):
            if os.getpid() != caller or workers._in_job:
                raise AssertionError("a process of a worker job forked")
            return fork(run, group)

        monkeypatch.setattr(workers, "_fork", outside_jobs)
        monkeypatch.setattr(workers, "worker_count", lambda: 2)
        built = workers.run_groups(
            lambda group: items_digest(build_table(model, rule)), 2, 2, "a test"
        )
        assert built == [one, one]  # the caller's group's table, then the child's
        assert_no_child()

    def test_a_build_holds_one_copy_of_its_columns(self):
        model = FiniteModel.bernoulli_point_vs_uniform(horizon=14, grid=5)
        tracemalloc.start()
        try:
            table = build_table(model, FixedN(n=14, cap=14))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * sum(getattr(table, name).nbytes for name in COLUMNS)

    def test_bundled_markov_tree_digest(self):
        model = FiniteModel.bernoulli_point_vs_uniform(horizon=12, grid=10_000)
        table = build_table(model, BfThreshold(upper=100.0, cap=12))
        assert (len(table), items_digest(table)) == (4094, MARKOV_DIGEST)
