#!/usr/bin/env python3
"""Mutation check: does the test suite catch each of a table of small breakages?

Each row of ``MUTANTS`` names a file, an exact piece of its text, the text
that replaces it and the pytest selection that should catch the change.
For each row the script copies the tree (``src/``, ``tests/``,
``scripts/``, ``pyproject.toml``) into a temporary directory, applies the
mutant there and runs the selection with ``-x``.  It prints one line per
row, and under it the first failing test, or why the row is stale:

- ``killed``: the selection failed (or ran past its time limit)
- ``survived``: the selection passed with the mutant in place
- ``stale``: the old text is not in the file exactly once, or the
  selection collects no test; the code or the test it names has moved,
  and the row must follow it

Exit status 1 if any row is stale, else 0; a survivor is reported, not a
failure.  The working tree is never modified.  Not part of the tier-1
suite; the whole table of 62 rows took 173 s on a 2-vCPU Xeon host.

    python scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "scripts", "pyproject.toml")
TIME_LIMIT_S = 300

INIT = "src/optstop/__init__.py"
CORE = "src/optstop/core.py"
EXACT = "src/optstop/exact.py"
WORKERS = "src/optstop/workers.py"
CLI = "src/optstop/cli.py"
MONTECARLO = "src/optstop/montecarlo.py"
MODELS = "src/optstop/models.py"
STOPPING = "src/optstop/stopping.py"
TEST_WORKERS = "tests/test_workers.py"
TEST_CLI = "tests/test_cli.py"
TEST_EXACT = "tests/test_exact.py"
TEST_LATTICE = "tests/test_lattice.py"
TEST_MONTECARLO = "tests/test_montecarlo.py"
TEST_STOPPING = "tests/test_stopping.py"

# (name, file, old text, new text, pytest selection)
MUTANTS = [
    # the finite model: one kind of component
    (
        "sample_sequence searches its CDFs with side='left'",
        EXACT,
        'u[1:], side="right")',
        'u[1:], side="left")',
        [f"{TEST_EXACT}::TestSampling"],
    ),
    (
        "_prepare without its shape check",
        EXACT,
        "        if p.ndim != 2 or p.shape[1] != self.alphabet_size:\n            raise wrong_shape\n",
        "",
        [f"{TEST_EXACT}::TestModelValidation"],
    ),
    (
        "_prepare lets masses that numpy cannot read raise as themselves",
        EXACT,
        "except (TypeError, ValueError) as exc:  # not numbers, or rows of unequal length",
        "except ValueError as exc:",
        [f"{TEST_EXACT}::TestModelValidation"],
    ),
    # the finite model: two arrays per hypothesis
    (
        "_prepare without the masses' full-support check",
        EXACT,
        "        if np.any(p <= 0.0):\n"
        '            raise ValueError("full support required: zero conditional mass found")\n',
        "",
        [f"{TEST_EXACT}::TestModelValidation::test_last_bad_component_of_many_is_reported"],
    ),
    (
        "_prepare without the weights' unit-sum check",
        EXACT,
        "        if abs(total - 1.0) > _PROB_TOL:\n"
        '            raise ValueError(f"{name} prior weights sum to {total}, expected 1")\n',
        "",
        [f"{TEST_EXACT}::TestModelValidation::test_weights_sum_to_one_to_within_the_tolerance"],
    ),
    (
        "the Bernoulli builder's rows are [theta, 1 - theta]",
        EXACT,
        "masses1=np.stack([1.0 - thetas, thetas], axis=1)",
        "masses1=np.stack([thetas, 1.0 - thetas], axis=1)",
        [f"{TEST_EXACT}::TestModelArrays::test_bernoulli_builder_equals_a_per_atom_oracle"],
    ),
    (
        "import optstop leaves OpenBLAS its default thread pool",
        INIT,
        'os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")\n',
        "",
        [f"{TEST_CLI}::TestEntryPoint::test_import_sets_one_blas_thread_unless_the_caller_did",
         f"{TEST_CLI}::TestEntryPoint::test_exact_outputs_do_not_depend_on_blas_threads"],
    ),
    # a closed stdout ends in one error line
    (
        "exit_code does not flush stdout inside its guard",
        CLI,
        "        sys.stdout.flush()  # a closed stdout fails here, not at exit\n",
        "",
        ["tests/test_cli.py::test_a_closed_stdout_ends_in_one_error_line"],
    ),
    (
        "exit_code leaves stdout on the closed pipe",
        CLI,
        "        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # nor at exit\n",
        "",
        ["tests/test_cli.py::test_a_closed_stdout_ends_in_one_error_line"],
    ),
    # one way back from a worker
    (
        "run_groups bounds not aligned to whole steps",
        WORKERS,
        "bounds = [steps * i // w * step for i in range(w)] + [size]",
        "bounds = [size * i // w for i in range(w)] + [size]",
        [f"{TEST_WORKERS}::test_the_split_contract"],
    ),
    (
        "run_groups W not capped by the number of steps",
        WORKERS,
        "w = min(usable(most), max(steps, 1))",
        "w = usable(most)",
        [f"{TEST_WORKERS}::test_the_split_contract"],
    ),
    (
        "run_groups returns the children's values reversed",
        WORKERS,
        "return [first] + values",
        "return [first] + values[::-1]",
        [f"{TEST_WORKERS}::test_group_values_come_back_in_group_order"],
    ),
    (
        "run_groups kills its children on failure without reaping them",
        WORKERS,
        "        _reap(children, kill=True)\n        raise\n",
        "        for pid, _ in children:\n            os.kill(pid, signal.SIGKILL)\n        raise\n",
        [TEST_WORKERS],
    ),
    # one result file per worker
    (
        "a failing child does not truncate its partly pickled value",
        WORKERS,
        "            result.truncate()\n",
        "",
        [f"{TEST_WORKERS}::test_a_value_that_fails_to_pickle_gives_the_pickling_error"],
    ),
    (
        "a failing child writes its message after its partly pickled value",
        WORKERS,
        "            result.seek(0)  # a value pickled partway is dropped\n",
        "",
        [f"{TEST_WORKERS}::test_a_value_that_fails_to_pickle_gives_the_pickling_error"],
    ),
    (
        "the caller unpickles values after a child failed",
        WORKERS,
        "values = [] if kill or failures else",
        "values = [] if kill else",
        [f"{TEST_WORKERS}::test_a_long_failure_message_reaches_the_caller_whole"],
    ),
    (
        "the caller reads a child's file without seeking to its start",
        WORKERS,
        "            result.seek(0)  # the exited child's writes moved the offset",
        "            pass  # the exited child's writes moved the offset",
        [f"{TEST_WORKERS}::test_a_split_job_runs_further_jobs_where_they_are"],
    ),
    # one process builds the stopped-sequence tree
    (
        "the entry budget admits one leaf more",
        EXACT,
        "                if len(stop_index) >= max_entries:\n",
        "                if len(stop_index) > max_entries:\n",
        [f"{TEST_EXACT}::TestOneProcessBuild::test_the_entry_budget_admits_max_entries_leaves"],
    ),
    (
        "a table's columns are left writable",
        EXACT,
        "*(_read_only(np.asarray(column)) for column in columns))",
        "*(np.asarray(column) for column in columns))",
        [f"{TEST_EXACT}::test_a_table_is_columns_of_at_most_40_plus_cap_bytes_a_leaf"],
    ),
    # one split job per call: every run of a many-run call
    (
        "runs joined from reversed groups",
        MONTECARLO,
        "    for group in groups:\n",
        "    for group in groups[::-1]:\n",
        [f"{TEST_MONTECARLO}::TestManyRuns::test_runs_equal_their_one_run_calls"],
    ),
    (
        "every run uses the first run's bounds",
        MONTECARLO,
        "run, offset = runs[i], i * n_trials",
        "run, offset = runs[i]._replace(bounds=runs[0].bounds), i * n_trials",
        [f"{TEST_MONTECARLO}::TestManyRuns::test_runs_equal_their_one_run_calls"],
    ),
    (
        "item -> run index off by one: a group's last run segment is dropped",
        MONTECARLO,
        "range(items.start // n_trials, (items.stop - 1) // n_trials + 1)",
        "range(items.start // n_trials, (items.stop - 1) // n_trials)",
        [f"{TEST_MONTECARLO}::TestManyRuns::test_runs_equal_their_one_run_calls"],
    ),
    (
        "a run segment starts at its run's first trial",
        MONTECARLO,
        "lo, hi = max(items.start - offset, 0), min(items.stop - offset, n_trials)",
        "lo, hi = 0, min(items.stop - offset, n_trials)",
        [f"{TEST_MONTECARLO}::TestManyRuns::test_runs_equal_their_one_run_calls"],
    ),
    (
        "the worker limit counts one run's blocks, not the call's",
        MONTECARLO,
        "n_blocks = sum(-(-n_trials // run.block) for run in runs)",
        "n_blocks = -(-n_trials // runs[0].block)",
        ["tests/test_cli.py::test_every_run_of_a_call_is_one_split_job"],
    ),
    (
        "a many-run call checks only its first run's arguments",
        MONTECARLO,
        "        _validate_run(pair, k, rule, n_trials, marginal=False)\n",
        "        checked or _validate_run(pair, k, rule, n_trials, marginal=False)\n",
        [f"{TEST_MONTECARLO}::TestManyRuns"],
    ),
    # one way through a run: planned once, its columns joined into records once
    (
        "every run reads the first run's plan",
        MONTECARLO,
        "runs = [planned(run) for run in runs]",
        "runs = [planned(runs[0])._replace(k=r.k, g=r.g, rule=r.rule, key64=r.key64, "
        "x_init=r.x_init) for r in runs]",
        [f"{TEST_MONTECARLO}::TestManyRuns::test_runs_equal_their_one_run_calls"],
    ),
    (
        "a marginal run drops its initial sample's log beta",
        MONTECARLO,
        "lb_offset = pair.log_bf([run.x_init]) if run.marginal else 0.0",
        "lb_offset = 0.0",
        [f"{TEST_MONTECARLO}::TestMarginalCalibration::"
         "test_records_subtract_the_initial_samples_log_beta"],
    ),
    (
        "the trial column counts from its block's start",
        MONTECARLO,
        "np.arange(n_trials, dtype=np.int64)))",
        "np.arange(n_trials, dtype=np.int64) % run.block))",
        [f"{TEST_MONTECARLO}::TestRunTrials::test_block_layout_invariance"],
    ),
    (
        "the CLI runs each calibration value as a call of its own",
        CLI,
        "    all_records = getattr(montecarlo, trials)(pair, runs, n_trials, seed)\n",
        "    all_records = [r for v in values for r in getattr(montecarlo, trials)(\n"
        "        pair, [(k, v, rule) for k in (0, 1)], n_trials, seed)]\n",
        ["tests/test_cli.py::test_every_run_of_a_call_is_one_split_job"],
    ),
    # one stopping-rule protocol: a rule's bars make every threshold decision
    (
        "a bar above fires only past it",
        STOPPING,
        "(log_beta >= bar if above else",
        "(log_beta > bar if above else",
        [f"{TEST_STOPPING}::TestBars::test_each_bar_fires_on_itself"],
    ),
    (
        "a bar below fires only past it",
        STOPPING,
        "else log_beta <= bar)",
        "else log_beta < bar)",
        [f"{TEST_STOPPING}::TestBars::test_each_bar_fires_on_itself"],
    ),
    (
        "boundary_gap measures to the farthest bar",
        STOPPING,
        "return min((abs(log_beta - bar) for bar, _ in self.log_bars), default=math.inf)",
        "return max((abs(log_beta - bar) for bar, _ in self.log_bars), default=math.inf)",
        [f"{TEST_STOPPING}::TestBars::test_boundary_gap_is_the_distance_to_the_nearest_bar"],
    ),
    (
        "SumOfSquares accepts a NaN threshold",
        STOPPING,
        "        if math.isnan(self.threshold):\n",
        "        if False:\n",
        [f"{TEST_STOPPING}::TestDecide::test_sum_of_squares_refuses_a_nan_threshold"],
    ),
    (
        "a raw rule passes when its invariance is not refuted",
        STOPPING,
        "return self.counterexample is not None",
        "return self.counterexample is None",
        [f"{TEST_STOPPING}::TestCheckInvariance::test_report_passes_on_a_decided_probe_without_mismatch"],
    ),
    (
        "a raw rule is probed a chunk at a time",
        STOPPING,
        "chunk = PROBE_CHUNK if rule.declared_invariant else 1",
        "chunk = PROBE_CHUNK",
        [f"{TEST_STOPPING}::TestChunkedProbe::test_matches_sequential_reference"],
    ),
    (
        "a read on an inner piece edge takes the piece that ends there",
        MODELS,
        "piece += (coord[:, None] >= stack.inner[ns]).sum(axis=1)",
        "piece += (coord[:, None] > stack.inner[ns]).sum(axis=1)",
        ["tests/test_boundary.py::test_read_on_an_inner_piece_edge_takes_the_piece_that_starts_there"],
    ),
    # one public way: the many-run calls own every Monte Carlo refusal
    (
        "run_trials_many takes g without check_nuisance",
        MONTECARLO,
        "checked.append((k, check_nuisance(g), rule))",
        "checked.append((k, float(g), rule))",
        ["tests/test_cli.py::TestExitCodes::test_bad_sweep_value_refused_before_any_trial"],
    ),
    (
        "maximal_invariant divides by x_1 without abs",
        MODELS,
        "            return x / abs(x[0])\n",
        "            return x / x[0]\n",
        ["tests/test_models_scale.py::TestMaximalInvariant"],
    ),
    (
        "the CLI runs each arm as a call of its own",
        CLI,
        "    all_records = getattr(montecarlo, trials)(pair, runs, n_trials, seed)\n",
        "    all_records = [getattr(montecarlo, trials)(pair, [r], n_trials, seed)[0] for r in runs]\n",
        ["tests/test_cli.py::test_every_run_of_a_call_is_one_split_job"],
    ),
    # one owner per decision: hypothesis k's law, a trial's row, the sum-of-squares
    # statistic, a check's summary row
    (
        "hypothesis 0 gets the alternative's prior",
        MODELS,
        "return self.effect_prior if k else _NULL_EFFECT",
        "return self.effect_prior",
        ["tests/test_models_scale.py::TestSampler::test_a_null_sample_draws_only_its_normals"],
    ),
    (
        "the finite accessor runs without its check",
        EXACT,
        "        if k not in (0, 1):\n"
        "            raise ValueError(f\"hypothesis index must be 0 or 1, got {k}\")\n",
        "",
        [f"{TEST_EXACT}::TestSampling::test_a_hypothesis_index_other_than_0_or_1_is_refused"],
    ),
    (
        "SumOfSquares.statistic returns the plain sum",
        STOPPING,
        "        return np.dot(x, x)\n",
        "        return np.sum(x)\n",
        [f"{TEST_STOPPING}::TestDecide::test_raw_statistic_direct_arithmetic"],
    ),
    (
        "a null-arm row keeps n_trials",
        CLI,
        '    del row["n_trials"]\n',
        "",
        ["tests/test_cli_golden.py::test_outputs_match_golden[mc-type1]"],
    ),
    (
        "replay skips a marginal run's posterior draw",
        MONTECARLO,
        "        for i, out in zip(act.tolist(), full):\n            fill(i, out)\n",
        "        for i, out in zip(act.tolist(), full):\n"
        "            at(lo + i).standard_normal(out=out)\n",
        [f"{TEST_MONTECARLO}::TestLazyDraws::test_later_blocks_draw_heads_then_replay[marginal-h1]"],
    ),
    # full rows in blocks of FULL_BLOCK_SIZE, read a few cells at a time
    (
        "full-row blocks hold BLOCK_SIZE trials",
        MONTECARLO,
        "else min(run.block, FULL_BLOCK_SIZE)",
        "else run.block",
        [f"{TEST_MONTECARLO}::TestLazyDraws::"
         "test_full_rows_are_drawn_full_block_size_trials_at_a_time"],
    ),
    (
        "a small read's recurrence adds c0 * 2u to c1",
        MODELS,
        "c0, c1 = c - c1, c0 + c1 * x2",
        "c0, c1 = c - c1, c1 + c0 * x2",
        ["tests/test_boundary.py::test_small_reads_equal_one_large_read"],
    ),
    # a rule's integer fields take integers only
    (
        "a rule takes a cap that is not an integer",
        STOPPING,
        '        _check_integer("cap", self.cap)\n',
        "",
        [f"{TEST_STOPPING}::TestIntegerFields::test_refused"],
    ),
    (
        "rule_from_params truncates an integer field again",
        STOPPING,
        "return int(value) if isinstance(value, str) else value",
        "return int(value)",
        [f"{TEST_STOPPING}::TestRuleFromParams::test_a_non_integer_n_is_refused_not_truncated"],
    ),
    # one alpha bar: the exact Markov check reads the rule's bar
    (
        "log_threshold is -log(alpha), one ulp off the rule's bar",
        CORE,
        "return math.log(1.0 / self.alpha)",
        "return -math.log(self.alpha)",
        [f"{TEST_EXACT}::TestVerifiers::test_markov_counts_a_path_stopped_exactly_at_the_bar"],
    ),
    # one child step for both exact engines, and its refusal of non-normal masses
    (
        "the child step reads H1's matrix for H0",
        EXACT,
        "cond0, cond1 = model.cond_matrix(0), model.cond_matrix(1)",
        "cond0, cond1 = model.cond_matrix(1), model.cond_matrix(1)",
        [f"{TEST_EXACT}::TestBuildTable", f"{TEST_LATTICE}::TestAgainstTheTree"],
    ),
    (
        "the child step admits subnormal masses",
        EXACT,
        "if not (mass0 >= _NORMAL and mass1 >= _NORMAL):",
        "if not (mass0 > 0.0 and mass1 > 0.0):",
        [f"{TEST_EXACT}::TestNonNormalMasses::"
         "test_a_tree_node_of_non_normal_mass_is_refused_naming_n[subnormal]",
         f"{TEST_LATTICE}::TestResourceLimits"],
    ),
    (
        "log_beta_paths admits subnormal masses",
        EXACT,
        "low = ~(np.minimum(mass0, mass1) >= _NORMAL)",
        "low = ~(np.minimum(mass0, mass1) > 0.0)",
        [f"{TEST_EXACT}::TestNonNormalMasses"],
    ),
    (
        "run_trials_finite checks no mass",
        MONTECARLO,
        "        _refuse_non_normal(mass0, mass1, stop_n[first:])\n",
        "",
        [f"{TEST_MONTECARLO}::TestFiniteCrossCheck::"
         "test_a_trial_is_refused_only_for_the_masses_it_read"],
    ),
    (
        "run_trials_finite checks the masses past each trial's stop",
        MONTECARLO,
        "_refuse_non_normal(mass0, mass1, stop_n[first:])",
        "_refuse_non_normal(mass0, mass1, [paths.shape[1]] * len(seqs))",
        [f"{TEST_MONTECARLO}::TestFiniteCrossCheck::"
         "test_a_trial_is_refused_only_for_the_masses_it_read"],
    ),
    (
        "CauchyEffect admits a scale below the one its integral resolves",
        MODELS,
        "if not (_MIN_CAUCHY_SCALE <= self.scale < math.inf):",
        "if not (0.0 < self.scale < math.inf):",
        ["tests/test_models_scale.py::TestCauchyScale"],
    ),
    # the exact Markov bound on the count lattice
    (
        "crossing_probabilities absorbs only above the bar",
        EXACT,
        "if reach[i] and lb >= thr:",
        "if reach[i] and lb > thr:",
        [f"{TEST_LATTICE}::TestAgainstTheTree"],
    ),
    (
        "crossing_probabilities reaches a state from its symbol-0 predecessor only",
        EXACT,
        "(paths.pop(last, None), *map(paths.get, others))",
        "(paths.pop(last, None),)",
        [f"{TEST_LATTICE}::TestAgainstTheTree"],
    ),
    (
        "crossing_probabilities drops the path count from each crossing term",
        EXACT,
        "crossed[i].append(reach[i] * mass0)",
        "crossed[i].append(mass0)",
        [f"{TEST_LATTICE}::TestAgainstTheTree"],
    ),
    (
        "crossing_probabilities without its up-front cell budget",
        EXACT,
        "    if cells > MAX_LATTICE_CELLS:\n",
        "    if False:\n",
        [f"{TEST_LATTICE}::TestResourceLimits"],
    ),
    (
        "exact-markov enumerates the stopped-sequence tree again",
        CLI,
        "rows = exact.crossing_probabilities(model, levels)",
        "rows = exact.verify_markov_bound(exact.build_table(model, BfThreshold(\n"
        "        upper=1.0 / min(level.alpha for level in levels), cap=model.horizon)), levels)",
        [f"{TEST_LATTICE}::TestCli::test_bundled_config_builds_no_tree_and_forks_nothing"],
    ),
    # verdicts: the raw-rule controls (ROADMAP item 3)
    (
        "CalibrationEstimate passes at 50% of its bins instead of 93%",
        MONTECARLO,
        "return self.pass_fraction >= BIN_PASS_FRACTION",
        "return self.pass_fraction >= 0.5",
        ["tests/test_power.py::test_mc_strong_calibration_fails_a_raw_sum_of_squares_rule"],
    ),
    # survives: the raw-rule control sits about 51 se below 1 (ROADMAP item 3)
    (
        "StoppedBfMean passes within 30 se instead of 3",
        MONTECARLO,
        "return abs(self.mean - 1.0) <= 3.0 * self.se",
        "return abs(self.mean - 1.0) <= 30.0 * self.se",
        ["tests/test_power.py"],
    ),
]


def copy_tree(dest: str) -> None:
    for name in COPIED:
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(dest, name),
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy2(src, dest)


def apply(tree: str, path: str, old: str, new: str) -> bool:
    """Replace ``old`` by ``new`` in ``tree/path``; False, changing nothing, unless ``old`` occurs once."""
    target = os.path.join(tree, path)
    with open(target) as fh:
        text = fh.read()
    if text.count(old) != 1:
        return False
    with open(target, "w") as fh:
        fh.write(text.replace(old, new))
    return True


def run_row(path: str, old: str, new: str, selection: list) -> Tuple[str, str]:
    """killed, survived or stale, for one mutant in a fresh copy of the tree; and why."""
    with tempfile.TemporaryDirectory(prefix="optstop-mutant-") as tree:
        copy_tree(tree)
        if not apply(tree, path, old, new):
            return "stale", f"the old text is not in {path} exactly once"
        env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
        try:
            proc = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True,
                                  timeout=TIME_LIMIT_S)
        except subprocess.TimeoutExpired:
            return "killed", f"past the {TIME_LIMIT_S} s limit"
    lines = (proc.stdout + proc.stderr).splitlines()
    # pytest: 0 all passed, 4 a selection not found, 5 no test collected
    if proc.returncode in (4, 5):
        return "stale", f"the selection collects no test (pytest exit {proc.returncode})"
    if proc.returncode == 0:
        return "survived", lines[-1] if lines else ""
    first = [line for line in lines if line.startswith(("FAILED", "ERROR"))]
    return "killed", first[0] if first else f"pytest exit {proc.returncode}"


def main() -> int:
    counts = {"killed": 0, "survived": 0, "stale": 0}
    start = time.perf_counter()
    for name, path, old, new, selection in MUTANTS:
        t0 = time.perf_counter()
        outcome, why = run_row(path, old, new, selection)
        counts[outcome] += 1
        print(f"{outcome:8s} {time.perf_counter() - t0:6.1f} s  {name}\n{'':18s}{why}", flush=True)
    print(", ".join(f"{n} {k}" for k, n in counts.items())
          + f" of {len(MUTANTS)} in {time.perf_counter() - start:.0f} s")
    return 1 if counts["stale"] else 0


if __name__ == "__main__":
    sys.exit(main())
