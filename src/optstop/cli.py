"""Command-line front end.

Usage:
    optstop <experiment-kind> --config <path> [--seed N] [--out DIR] [--describe]

The config is a flat ``key = value`` file ('#' starts a comment; lists
are comma-separated).  Unknown keys are rejected.  Each run writes
``records.csv``, ``summary.json`` and ``verdict.txt`` into the output
directory; given identical configs the outputs are byte-identical, so
reruns can be diffed directly.  Exit codes: 0 when every asserted
contract passed, 2 on a contract failure, 1 on configuration, I/O or
numerical errors (any ``OptstopError``), reported as ``error: ...`` on
stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

from . import exact, montecarlo
from .core import SignificanceLevel, rewrite, write_csv
from .errors import OptstopError
from .models import CauchyEffect, InvariantModelPair, PointMass
from .stopping import BfThreshold, FixedN, SumOfSquares, check_invariance, rule_from_params

class ConfigError(ValueError):
    pass


def parse_config_text(text: str) -> Dict[str, str]:
    """Parse the flat key = value format; later keys override earlier ones."""
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


@dataclass
class ExperimentConfig:
    values: Dict[str, str] = field(default_factory=dict)
    _used: set = field(default_factory=set)

    def get(self, key: str, default=None) -> Optional[str]:
        self._used.add(key)
        return self.values.get(key, default)

    def _parse(self, key, default, convert: Callable, what: str):
        raw = self.get(key)
        if raw is None:
            return default
        try:
            return convert(raw)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: not {what}: {raw!r}") from exc

    def get_float(self, key, default=None) -> Optional[float]:
        return self._parse(key, default, float, "a number")

    def get_int(self, key, default=None) -> Optional[int]:
        return self._parse(key, default, int, "an integer")

    def get_float_list(self, key, default=None) -> Optional[List[float]]:
        return self._parse(
            key, default, lambda raw: [float(part) for part in raw.split(",") if part.strip() != ""],
            "a comma-separated number list",
        )

    def reject_unknown(self) -> None:
        unknown = set(self.values) - self._used
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")


def _effect_prior(cfg: ExperimentConfig):
    kind = (cfg.get("effect", "cauchy") or "cauchy").lower()
    if kind == "cauchy":
        return CauchyEffect(scale=cfg.get_float("effect_scale", 1.0))
    if kind == "point":
        return PointMass(delta0=cfg.get_float("effect_delta", 0.0))
    raise ConfigError(f"effect must be 'cauchy' or 'point', got {kind!r}")


def _rule(cfg: ExperimentConfig, default_cap: int = 1000):
    kind = cfg.get("rule", "bf-threshold") or "bf-threshold"
    cap = cfg.get_int("rule_cap", default_cap)
    # every other rule_<name> key is a parameter of the rule kind, which checks them
    params = {
        key[len("rule_"):]: cfg.get(key)
        for key in cfg.values
        if key.startswith("rule_") and key != "rule_cap"
    }
    try:
        return rule_from_params(kind, cap=cap, **params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _finite_model(cfg: ExperimentConfig) -> exact.FiniteModel:
    horizon = _count(cfg, "horizon", 10)
    theta0 = cfg.get_float("theta0", 0.5)
    grid = _count(cfg, "prior_grid", 10_000)
    if not (0.0 < theta0 < 1.0):
        raise ConfigError(f"theta0 must lie strictly between 0 and 1, got {theta0}")
    return exact.FiniteModel.bernoulli_point_vs_uniform(
        horizon=horizon, theta0=theta0, grid=grid
    )


def _alphas(cfg: ExperimentConfig) -> List[SignificanceLevel]:
    values = cfg.get_float_list("alpha", [0.05])
    if not values:
        raise ConfigError("alpha: at least one level is required")
    try:
        return [SignificanceLevel(a) for a in values]
    except ValueError as exc:
        raise ConfigError(f"alpha: {exc}") from exc


def _sweep(cfg: ExperimentConfig, key: str) -> List[float]:
    """The values of a swept key (default 1); the trials' many-run call checks each."""
    values = cfg.get_float_list(key, [1.0])
    if not values:
        raise ConfigError(f"{key}: at least one value is required")
    return values


def _count(cfg: ExperimentConfig, key: str, default: int, least: int = 1) -> int:
    value = cfg.get_int(key, default)
    if value < least:
        raise ConfigError(f"{key} must be at least {least}, got {value}")
    return value


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def _estimate_row(est, g: float) -> dict:
    """A null-arm check's summary row: the estimate's fields but ``n_trials``, g and ``passed``."""
    row = asdict(est)
    del row["n_trials"]
    return dict(row, g=float(g), passed=est.passed)


def _calibration_summary(est: montecarlo.CalibrationEstimate) -> dict:
    # the estimate itself stands for its bins list, which _write_summary writes from its columns
    return {
        "n0": est.n0,
        "n1": est.n1,
        "bins": est,
        "usable_bins": est.usable_bins,
        "excluded_bins": est.excluded_bins,
        "pass_fraction": est.pass_fraction,
        "passed": est.passed,
    }


# ------------------------------------------------------------ experiment runs
# A runner reads its config keys, writes records.csv and returns its summary
# body, its verdict lines and one pass flag per check; ``run`` does the rest.


def _run_exact_table(cfg: ExperimentConfig, seed: int, out_dir: str, default_tol: float,
                     check: Callable):
    """Check the table of the configured rule's stopped sequences with ``check(table, tol)``."""
    model = _finite_model(cfg)
    rule = _rule(cfg, default_cap=model.horizon)
    tol = cfg.get_float("tol", default_tol)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ConfigError(f"tol must be a finite number >= 0, got {tol}")
    cfg.reject_unknown()
    table = exact.build_table(model, rule)
    body, lines, passed = check(table, tol)
    table.to_csv(os.path.join(out_dir, "records.csv"))
    return dict(body, entries=len(table), tol=float(tol)), lines, [passed]


def _calibration_check(table: exact.ExactTable, tol: float):
    report = exact.verify_calibration(table, tol=tol)
    groups = [{k: v for k, v in asdict(g).items() if k != "beta"} for g in report.groups]
    body = {"groups": groups, "max_residual": float(report.max_residual)}
    lines = [
        f"exact calibration: {len(report.groups)} Bayes-factor groups over "
        f"{len(table)} stopped sequences",
        f"max relative residual {report.max_residual:.3e} (tolerance {tol:.1e})",
    ]
    return body, lines, report.passed


def _expectation_check(table: exact.ExactTable, tol: float):
    expectation = exact.verify_expected_stopped_bf(table)
    error = abs(expectation - 1.0)
    body = {"expected_stopped_bf": float(expectation), "abs_error": float(error)}
    lines = [
        f"E0[stopped Bayes factor] = {expectation!r} over {len(table)} sequences",
        f"|E - 1| = {error:.3e} (tolerance {tol:.1e})",
    ]
    return body, lines, error <= tol


def _run_exact_markov(cfg: ExperimentConfig, seed: int, out_dir: str):
    model = _finite_model(cfg)
    levels = _alphas(cfg)
    cfg.reject_unknown()
    rows = exact.crossing_probabilities(model, levels)
    write_csv(
        os.path.join(out_dir, "records.csv"),
        ["alpha", "crossing_probability", "bound_holds"],
        ([format(c.alpha, ".17g"), format(c.probability, ".17g"), c.bound_holds] for c in rows),
    )
    body = {
        "checks": [
            {
                "alpha": float(c.alpha),
                "crossing_probability": float(c.probability),
                "bound_holds": c.bound_holds,
            }
            for c in rows
        ]
    }
    lines = [
        f"alpha={c.alpha:g}: P0(beta ever >= {1/c.alpha:g}) = {c.probability:.6f} "
        f"{'<=' if c.bound_holds else '>'} alpha -> {_verdict(c.bound_holds)}"
        for c in rows
    ]
    return body, lines, [c.bound_holds for c in rows]


def _run_mc_calibration(cfg: ExperimentConfig, seed: int, out_dir: str, sweep_key: str,
                        trials: str, summary_key: str, line: str):
    """H1-against-H0 calibration at every value of one swept config key.

    ``trials`` names the montecarlo function that runs the (k, value,
    rule) arms, both at every value, in one call: one split job (looked
    up at call time, so a wrapped function is the one called), which
    refuses a bad value before any table is built; ``line`` formats the
    verdict line of one value.
    """
    pair = InvariantModelPair.scale(_effect_prior(cfg))
    rule = _rule(cfg, default_cap=200)
    values = _sweep(cfg, sweep_key)
    n_trials = _count(cfg, "n_trials", 100_000)
    bins = montecarlo.check_bins(_count(cfg, "bins", montecarlo.DEFAULT_BINS))
    cfg.reject_unknown()
    runs = [(k, v, rule) for v in values for k in (0, 1)]
    all_records = getattr(montecarlo, trials)(pair, runs, n_trials, seed)
    per_value = {}
    lines, passed = [], []
    for v, rec0, rec1 in zip(values, all_records[::2], all_records[1::2]):
        est = montecarlo.estimate_strong_calibration(rec0, rec1, n_bins=bins)
        per_value[format(v, ".17g")] = _calibration_summary(est)
        lines.append(line.format(v=v, est=est, verdict=_verdict(est.passed)))
        passed.append(est.passed)
    montecarlo.records_to_csv(all_records, os.path.join(out_dir, "records.csv"))
    return {summary_key: per_value}, lines, passed


def _run_null_arm(cfg: ExperimentConfig, seed: int, out_dir: str, checks: Callable,
                  min_trials: int = 1):
    """Null-arm trials of each (rule, check) pair, in order, at every nuisance value g.

    All the (rule, g) runs are one ``run_trials_many`` call: one split job.
    ``checks(cfg)`` reads the kind's own config keys and gives the pairs;
    ``check(records, g)`` gives one summary row, with its ``passed``
    flag, and one verdict line.  ``n_trials`` below ``min_trials`` is
    refused before any trial runs.
    """
    pair = InvariantModelPair.scale(_effect_prior(cfg))
    pairs = checks(cfg)
    gs = _sweep(cfg, "g")
    n_trials = _count(cfg, "n_trials", 100_000, least=min_trials)
    cfg.reject_unknown()
    runs = [(rule, check, g) for rule, check in pairs for g in gs]
    all_records = montecarlo.run_trials_many(
        pair, [(0, g, rule) for rule, _, g in runs], n_trials, seed
    )
    rows, lines = [], []
    for (_, check, g), records in zip(runs, all_records):
        row, line = check(records, g)
        rows.append(row)
        lines.append(line)
    montecarlo.records_to_csv(all_records, os.path.join(out_dir, "records.csv"))
    return {"checks": rows}, lines, [row["passed"] for row in rows]


def _type1_checks(cfg: ExperimentConfig):
    levels = _alphas(cfg)
    cap = cfg.get_int("rule_cap", 1000)
    return [
        (BfThreshold(upper=1.0 / level.alpha, cap=cap), partial(_type1_check, level))
        for level in levels
    ]


def _type1_check(level: SignificanceLevel, records: montecarlo.TrialRecords, g: float):
    est = montecarlo.estimate_type1(records, level)
    line = (
        f"alpha={level.alpha:g} g={g:g}: rejection rate {est.rate:.5f} "
        f"(alpha + 3se = {level.alpha + 3 * est.se:.5f}) -> {_verdict(est.passed)}"
    )
    return _estimate_row(est, g), line


def _bf_mean_checks(cfg: ExperimentConfig):
    return [(_rule(cfg, default_cap=1000), _bf_mean_check)]


def _bf_mean_check(records: montecarlo.TrialRecords, g: float):
    est = montecarlo.estimate_stopped_bf_mean(records)
    line = (
        f"g={g:g}: mean stopped Bayes factor {est.mean:.4f} +- {est.se:.4f} "
        f"(|mean - 1| <= 3se) -> {_verdict(est.passed)}"
    )
    return _estimate_row(est, g), line


def _run_invariance_check(cfg: ExperimentConfig, seed: int, out_dir: str):
    pair = InvariantModelPair.scale(_effect_prior(cfg))
    trials = cfg.get_int("trials", 10_000)
    cap = cfg.get_int("rule_cap", 1000)
    upper = cfg.get_float("rule_upper", 20.0)
    raw_threshold = cfg.get_float("raw_threshold", 20.0)
    cfg.reject_unknown()
    rng = np.random.default_rng(seed % 2**64)  # a negative seed as its 64-bit pattern
    bf_rule = BfThreshold(upper=upper, cap=cap)
    bf_rule.check_start(pair.m)  # refuse a cap within the initial sample before FixedN(8) does
    rules = [
        ("bf-threshold", bf_rule),
        ("fixed-n", FixedN(n=8, cap=cap)),
        ("raw-sum-squares", SumOfSquares(raw_threshold, cap=cap)),
    ]
    rows, lines = [], []
    for name, rule in rules:
        report = check_invariance(rule, pair, trials=trials, rng=rng)
        found = report.counterexample is not None
        row = asdict(report)
        del row["rule_kind"], row["counterexample"]
        rows.append(dict(row, rule=name, counterexample_found=found, passed=report.passed))
        if rule.declared_invariant:
            lines.append(
                f"{name}: {report.mismatches} mismatches in {report.trials} trials "
                f"({report.skipped_boundary} boundary skips) -> {_verdict(report.passed)}"
            )
        else:
            detail = ""
            if found:
                x, h = report.counterexample
                detail = f" (x={np.array2string(x, precision=3)}, h={h:.3f})"
            lines.append(
                f"{name}: counterexample {'found' if found else 'NOT found'}{detail} -> "
                f"{_verdict(report.passed)}"
            )
    columns = ["rule", "declared_invariant", "trials", "mismatches", "skipped_boundary",
               "counterexample_found"]
    write_csv(
        os.path.join(out_dir, "records.csv"), columns, ([row[c] for c in columns] for row in rows)
    )
    return {"rules": rows}, lines, [row["passed"] for row in rows]


class Experiment(NamedTuple):
    """How to run one experiment kind, and what ``--describe`` says it verifies."""

    run: Callable
    description: str


# every experiment kind, in the order --help lists them
EXPERIMENTS = {
    "exact-calibration": Experiment(
        partial(_run_exact_table, default_tol=1e-9, check=_calibration_check),
        "Exhaustively enumerates a finite model under a capped stopping rule and\n"
        "checks weak calibration: within every level set of the Bayes factor, the\n"
        "ratio of alternative to null mass equals the Bayes factor itself\n"
        "(verify_calibration over an exact stopped-sequence table).",
    ),
    "exact-markov": Experiment(
        _run_exact_markov,
        "Computes exactly the null probability of the Bayes factor ever reaching\n"
        "1/alpha before the horizon and checks the Markov bound: that probability\n"
        "never exceeds alpha, which is the Type-I error guarantee of the rule\n"
        "'reject once beta >= 1/alpha' under optional stopping.  The sum runs over\n"
        "symbol-count states, not sequences: each state's exact number of paths\n"
        "that reach it without crossing, times one sequence's null mass\n"
        "(crossing_probabilities).",
    ),
    "exact-expectation": Experiment(
        partial(_run_exact_table, default_tol=1e-10, check=_expectation_check),
        "Exhaustively computes the expected stopped Bayes factor under the null\n"
        "marginal and checks that it equals 1 (the optional-stopping identity for\n"
        "the evidence process with proper priors).",
    ),
    "mc-strong-calibration": Experiment(
        partial(
            _run_mc_calibration, sweep_key="g", trials="run_trials_many", summary_key="per_g",
            line="g={v:g}: {est.usable_bins} usable bins, pass fraction "
            f"{{est.pass_fraction:.3f}} (need >= {montecarlo.BIN_PASS_FRACTION}) -> {{verdict}}",
        ),
        "Monte Carlo check of strong calibration for the scale-group test: among\n"
        "stopped runs with Bayes factor near b, the alternative arm is b times as\n"
        "frequent as the null arm, separately at every nuisance value g\n"
        "(estimate_strong_calibration; requires a quotient-measurable rule).",
    ),
    "mc-type1": Experiment(
        partial(_run_null_arm, checks=_type1_checks),
        "Monte Carlo check of uniform frequentist Type-I error control: under the\n"
        "null at each nuisance value g, the rule 'stop and reject once beta >=\n"
        "1/alpha (capped)' rejects with frequency at most alpha (estimate_type1).",
    ),
    "mc-bf-mean": Experiment(
        # a standard error needs two trials
        partial(_run_null_arm, checks=_bf_mean_checks, min_trials=2),
        "Monte Carlo check that the stopped Bayes factor has unit expectation\n"
        "under the null at every nuisance value g (estimate_stopped_bf_mean).",
    ),
    "mc-marginal-calibration": Experiment(
        # run_marginal_trials_many reads a scalar x as the initial sample x_m = (x,)
        partial(
            _run_mc_calibration, sweep_key="x_m", trials="run_marginal_trials_many",
            summary_key="per_x_m",
            line="x_m=({v:g},): {est.usable_bins} usable bins, pass fraction "
            "{est.pass_fraction:.3f} -> {verdict}",
        ),
        "Monte Carlo check of calibration for the conditional evidence given an\n"
        "initial sample: trials draw the nuisance value from its posterior given\n"
        "x_m and extend the sequence; the conditional stopped Bayes factor must\n"
        "be calibrated for every initial sample (estimate_strong_calibration).",
    ),
    "invariance-check": Experiment(
        _run_invariance_check,
        "Randomized probe of stopping-rule invariance under the group action:\n"
        "declared-invariant rules (fixed-n, Bayes-factor thresholds) must decide\n"
        "identically on x and x.g; the raw sum-of-squares rule must yield a\n"
        "counterexample (check_invariance).",
    ),
}


# where a bins list goes in the encoded summary; no config value can equal it (each is
# checked as a number or a known name), so the quoted mark occurs only at a bins key
_BINS_MARK = "\0bins"
_BIN_KEYS = ("ci_hi", "ci_lo", "count0", "count1", "log_beta_gmean", "log_beta_hi",
             "log_beta_lo", "ok", "ratio")
# bins rendered per write, so a run with thousands of bins holds only one slice's strings
_BIN_ROWS = 512


def _write_summary(fh, summary: dict) -> None:
    """Write ``json.dumps(summary, indent=2, sort_keys=True)``, each calibration's bins from columns.

    A calibration summary holds its ``CalibrationEstimate`` under
    ``bins`` (``_calibration_summary``), at depth 3: summary, per-value
    map, value.  The rest is encoded as usual with a placeholder string
    per estimate, and each placeholder is replaced by the bins list
    rendered with one row template, at that depth, from the estimate's
    columns: a dict per bin with keys sorted, floats as ``repr``,
    unusable-bin statistics as null (strict JSON: never NaN).  Every
    field is the json token the C encoder writes for that value, so the
    text equals what the indented encoder writes for the per-bin dicts.
    """
    found: List[montecarlo.CalibrationEstimate] = []

    def mark(est):
        found.append(est)
        return _BINS_MARK

    def tokens(column, nan="NaN") -> List[str]:
        return json.dumps(column.tolist())[1:-1].replace("NaN", nan).split(", ")

    parts = json.dumps(summary, indent=2, sort_keys=True, default=mark).split(
        json.dumps(_BINS_MARK)
    )
    # the indented encoder's closures form a reference cycle that keeps ``mark`` alive
    # until a full collection; unbinding ``found`` keeps the estimates out of it
    estimates, found = found, None
    depth = 3  # the bins list's key: summary > per_g / per_x_m > value
    close, item, field = (" " * 2 * d for d in (depth, depth + 1, depth + 2))
    row = f"{item}{{\n" + ",\n".join(f'{field}"{k}": %s' for k in _BIN_KEYS) + f"\n{item}}}"
    fh.write(parts[0])
    for est, rest in zip(estimates, parts[1:]):
        for lo in range(0, est.count0.size, _BIN_ROWS):
            rows = slice(lo, lo + _BIN_ROWS)
            edges = tokens(est.edges[lo : lo + _BIN_ROWS + 1])
            columns = (
                tokens(est.ci_hi[rows], "null"),
                tokens(est.ci_lo[rows], "null"),
                tokens(est.count0[rows]),
                tokens(est.count1[rows]),
                tokens(est.log_beta_gmean[rows], "null"),
                edges[1:],
                edges[:-1],
                tokens(est.ok[rows]),
                tokens(est.ratio[rows], "null"),
            )
            fh.write(",\n" if lo else "[\n")
            fh.write(",\n".join(map(row.__mod__, zip(*columns))))
        fh.write(f"\n{close}]{rest}")


def run(kind: str, config: Dict[str, str], seed: Optional[int], out_dir: str) -> int:
    cfg = ExperimentConfig(values=dict(config))
    effective_seed = seed if seed is not None else cfg.get_int("seed", 0)
    cfg._used.add("seed")
    montecarlo.check_seed(effective_seed)  # every kind: each records its seed
    try:
        os.makedirs(out_dir, exist_ok=True)
        body, lines, checks = EXPERIMENTS[kind].run(cfg, effective_seed, out_dir)
        passed = all(checks)
        lines = lines + [f"VERDICT: {_verdict(passed)}"]
        summary = dict(
            body, experiment=kind, passed=passed, seed=effective_seed, config=dict(config)
        )
        with rewrite(os.path.join(out_dir, "summary.json")) as fh:
            _write_summary(fh, summary)
            fh.write("\n")
        with rewrite(os.path.join(out_dir, "verdict.txt")) as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        path = getattr(exc, "filename", None) or out_dir
        print(f"error: I/O failure on {path}: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    return 0 if passed else 2


def exit_code(call: Callable[[], int]) -> int:
    """``call()``; on a package or value error, or a closed stdout, one ``error:`` line and 1."""
    try:
        code = call()
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # nor at exit
        print(f"error: standard output closed: {exc}", file=sys.stderr)
        return 1
    except (OptstopError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="optstop",
        description="Optional-stopping checks for Bayes factor tests: exact "
        "enumeration on finite models and Monte Carlo on group-invariant models.",
    )
    parser.add_argument("experiment", choices=list(EXPERIMENTS), help="experiment kind")
    parser.add_argument("--config", help="path to a flat key = value config file")
    parser.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    parser.add_argument("--out", default=".", help="output directory (default: current)")
    parser.add_argument(
        "--describe",
        action="store_true",
        help="print what the experiment verifies, without running it",
    )
    args = parser.parse_args(argv)

    if args.describe:
        print(f"{args.experiment}:")
        print(EXPERIMENTS[args.experiment].description)
        return 0
    if not args.config:
        print("error: --config is required unless --describe is given", file=sys.stderr)
        return 1
    try:
        with open(args.config) as fh:
            config = parse_config_text(fh.read())
    except OSError as exc:
        print(f"error: cannot read config {args.config!r}: {exc}", file=sys.stderr)
        return 1
    return exit_code(lambda: run(args.experiment, config, args.seed, args.out))


if __name__ == "__main__":
    sys.exit(main())
