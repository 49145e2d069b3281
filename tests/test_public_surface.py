"""The package's public surface: one public way to compute each quantity.

Each removed name recomputed a quantity another public call gives,
branched on the effect prior's type where the prior now answers, or was
a second constructor or an offset that only ever held one value; the
comment beside it names what replaces it.  An entry point that
only tests use fails here if it comes back.
"""

import optstop
from optstop import core, exact, models, montecarlo, stopping

PUBLIC = [
    "NEVER",
    "BfTrajectory",
    "SignificanceLevel",
    "StopOutcome",
    "stop",
    "OptstopError",
    "ResourceLimitError",
    "SingularInputError",
    "SCALE",
    "LOCATION_SCALE",
    "ScaleGroup",
    "LocationScaleGroup",
    "CauchyEffect",
    "PointMass",
    "InvariantModelPair",
    "ScaleBfCurves",
    "StoppingRule",
    "FixedN",
    "BfThreshold",
    "InvariantStatistic",
    "RawStatistic",
    "InvarianceReport",
    "check_invariance",
    "rule_from_params",
    "SumOfSquares",
    "__version__",
]

REMOVED = [
    (core, "PriorOdds"),  # prior log odds + log beta
    (core, "posterior_odds"),
    (core, "conditional_bf"),  # value_at(n) - value_at(m)
    (core.BfTrajectory, "log_beta_m"),
    (models, "trajectory"),  # log_bf_many over the prefixes
    (models.InvariantModelPair, "log_marginal_alt"),  # log_marginal_null + log_bf
    (exact, "log_beta_finite"),  # log_beta_paths(model, [x])[0, -1]
    (exact.FiniteModel, "iid"),  # the constructor with arrays
    (exact.FiniteModel, "is_iid"),
    (exact.ExactTable, "total_mass0"),  # math.fsum over the entries
    (exact.ExactTable, "total_mass1"),
    (montecarlo, "CalibrationBin"),  # the estimate's columns
    (montecarlo.CalibrationEstimate, "bins"),
    (models.ScaleBfCurves, "coordinate"),  # pair.effect_prior.coordinate
    (models, "_cauchy_log_bf"),  # CauchyEffect.log_bf_stats
    (models.InvariantModelPair, "_log_bf_stats"),  # pair.effect_prior.log_bf_stats
    (stopping, "sum_squares_rule"),  # SumOfSquares(threshold, cap)
    (core.BfTrajectory, "start"),  # always 1
    (exact, "Conditional"),  # a component is K masses
    (exact.FiniteModel, "_conditional"),
    (exact.FiniteModel, "components0"),  # weights(k) and cond_matrix(k)
    (exact.FiniteModel, "components1"),
    (models.InvariantModelPair, "log_bf_from_stats"),  # pair.effect_prior.log_bf_stats
    # PointMass(0.0).posterior_state(x1, rng), the engine's draw under H0
    (models.InvariantModelPair, "sample_posterior_g_given_initial"),
    (models, "MaximalInvariantValue"),  # maximal_invariant returns the coordinate array
    (stopping.BfThreshold, "log_upper"),  # rule.log_bars
    (stopping.BfThreshold, "log_lower"),
    (montecarlo.TrialRecords, "__getitem__"),  # the columns
    (montecarlo.TrialRecords, "_trial_columns"),
    (montecarlo, "run_marginal_trials"),  # run_marginal_trials_many(...)[0]
    (models.ScaleBfCurves, "_table"),  # _tables, filled by _build
    # run_marginal_trials_many over both arms, then estimate_strong_calibration
    (montecarlo, "estimate_marginal_calibration"),
    (models.InvariantModelPair, "_posterior_predictive_state"),  # pair.effect(k).posterior_state
    (stopping.SumOfSquares, "_sum_sq"),  # SumOfSquares.statistic
]


def test_all_is_the_public_list():
    assert optstop.__all__ == PUBLIC


def test_every_public_name_resolves():
    assert [name for name in PUBLIC if not hasattr(optstop, name)] == []


def test_removed_names_are_gone():
    present = [name for home, name in REMOVED if hasattr(optstop, name) or hasattr(home, name)]
    assert present == []
