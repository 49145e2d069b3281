"""One measurement in a fresh interpreter; run.py starts it.

    python3 perfbench/child.py --mode MODE --workload NAME --seed N
        --seconds S --out DIR [--trace-file PATH]

Modes:
  measure   time ``import optstop`` plus the workload's warm-up, then
            repeat the workload's pass for about S seconds (at least once)
  trace     set up under the tracer, then alternate untraced and traced
            passes for about S seconds (at least one of each)
  trace-only  as trace, with traced passes only

The result is written as JSON to DIR/result.json.  Every pass uses the
same seed, so the outputs of each pass must be byte-identical to those
of the first.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import statistics
import sys
import time
import traceback

from workloads import WORKLOADS, FiniteCheck

ITEM_LINE = re.compile(r"-> (PASS|FAIL)$")


def warm_up(optstop, workload, seed: int) -> None:
    """The first ``run_trials`` of a process: fills the Bayes-factor caches."""
    if not workload.warmup:
        return
    pair = optstop.InvariantModelPair.scale(optstop.CauchyEffect(1.0))
    for kind, params in workload.warmup:
        rule = optstop.rule_from_params(kind, **params)
        optstop.montecarlo.run_trials(pair, 0, 1.0, rule, 1, seed)


def finite_cross_check(optstop, spec, seed: int):
    """The exact-vs-Monte-Carlo check of the test suite's TestFiniteCrossCheck."""
    exact, mc = optstop.exact, optstop.montecarlo
    model = exact.FiniteModel.bernoulli_point_vs_uniform(horizon=spec.horizon, grid=spec.grid)
    level = optstop.SignificanceLevel(spec.alpha)
    rule = optstop.BfThreshold(upper=1.0 / level.alpha, cap=spec.horizon)
    table = exact.build_table(model, rule)
    (bound,) = exact.verify_markov_bound(table, [level])
    records = mc.run_trials_finite(model, 0, rule, spec.trials, seed)
    rate = mc.estimate_type1(records, level)
    mean = mc.estimate_stopped_bf_mean(records)
    checks = [
        abs(rate.rate - bound.probability) <= spec.tolerance_se * max(rate.se, 1e-4),
        abs(mean.mean - 1.0) <= spec.tolerance_se * mean.se,
    ]
    return checks, records


def run_pass(optstop, workload, seed: int, out_dir: str) -> list:
    """Make the workload's calls once; return one raw outcome per call."""
    outcomes = []
    for i, call in enumerate(workload.calls):
        path = os.path.join(out_dir, f"{i}-{call.kind}")
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = optstop.cli.run(call.kind, dict(call.config), seed, path)
            outcomes.append((call, path, rc, None))
        except Exception:  # a call that raises fails all its checks
            outcomes.append((call, path, None, traceback.format_exc()))
    if workload.finite is not None:
        try:
            outcomes.append((workload.finite, finite_cross_check(optstop, workload.finite, seed),
                             None, None))
        except Exception:
            outcomes.append((workload.finite, None, None, traceback.format_exc()))
    return outcomes


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Ledger:
    """Counts checks.

    ``verdicts`` are the per-item verdict lines and the cross-check
    asserts; their failed share is contract_fail_frac.  ``gate`` holds
    the checks that must pass on every seed: calls that return, exit
    codes that agree with the verdict lines, complete verdicts, one
    record per finite cross-check trial, byte identity between passes,
    and the verdicts of gated calls.  The
    cross-check asserts are not gated: at the benchmark's trial count
    they are draws that fail on some seeds.
    """

    def __init__(self) -> None:
        self.verdicts = [0, 0]  # attempted, failed
        self.gate = [0, 0]
        self.digests = None  # of the first pass
        self.errors = []

    def _count(self, tally, ok: bool, n: int = 1) -> None:
        tally[0] += n
        tally[1] += 0 if ok else n

    def record(self, outcomes: list) -> None:
        digests = {}
        for i, (spec, payload, rc, error) in enumerate(outcomes):
            finite = isinstance(spec, FiniteCheck)
            label = "finite-cross-check" if finite else f"{i}-{spec.kind}"
            items = 2 if finite else spec.items
            if error is None and not finite and rc not in (0, 2):
                error = f"{label}: exit code {rc}"
            if error is not None:
                self.errors.append(error)
                self._count(self.verdicts, False, items)
                self._count(self.gate, False, items + 1)
                continue
            if finite:
                checks, records = payload
                passed = sum(checks)
                rows = "\n".join(f"{r.stop_index},{r.stopped_log_beta!r}" for r in records)
                digests[label] = {"records": hashlib.sha256(rows.encode()).hexdigest()}
                # every trial returns a record; the asserts are Monte Carlo
                # draws, like calibration, so they are not gated
                consistent, gated = len(records) == spec.trials, False
            else:
                with open(os.path.join(payload, "verdict.txt")) as fh:
                    lines = fh.read().splitlines()
                marks = [m.group(1) for m in map(ITEM_LINE.search, lines[:-1]) if m]
                passed = marks.count("PASS")
                verdict = "PASS" if rc == 0 else "FAIL"
                consistent = (
                    len(marks) == items
                    and lines[-1] == f"VERDICT: {verdict}"
                    and (rc == 0) == (passed == items)
                )
                gated = spec.gated
                digests[label] = {
                    name: _sha256(os.path.join(payload, name))
                    for name in ("records.csv", "summary.json", "verdict.txt")
                }
            self._count(self.verdicts, True, passed)
            self._count(self.verdicts, False, items - passed)
            self._count(self.gate, consistent)
            if gated:
                self._count(self.gate, True, passed)
                self._count(self.gate, False, items - passed)
        if self.digests is None:
            self.digests = digests
        else:
            self._count(self.gate, digests == self.digests)


def stamp(optstop) -> dict:
    import numpy
    import scipy

    worker_count = getattr(optstop.montecarlo, "worker_count", None)
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "optstop": getattr(optstop, "__version__", None),
        "worker_count": worker_count() if worker_count is not None else None,
        "OPTSTOP_THREADS": os.environ.get("OPTSTOP_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("measure", "trace", "trace-only"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-file")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    tracing = args.mode.startswith("trace")

    start = time.perf_counter()
    import optstop
    import optstop.cli

    tracer = None
    if tracing:
        from tracer import Tracer

        tracer = Tracer()
        tracer.enable(True)
    warm_up(optstop, workload, args.seed)
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s, "stamp": stamp(optstop)}

    ledger = Ledger()
    walls = {False: [], True: []}
    cpus = []
    traced = tracing
    begin = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.run += 1
            tracer.phase = "pass"
            tracer.enable(traced)
        w0, c0 = time.perf_counter(), time.process_time()
        outcomes = run_pass(optstop, workload, args.seed, args.out)
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if tracer is not None:
            tracer.enable(False)
        walls[traced].append(wall)
        if not traced:
            cpus.append(cpu)
        ledger.record(outcomes)
        # stop at the pass boundary nearest to the end of the window
        done = time.perf_counter() - begin >= args.seconds - wall / 2
        if args.mode == "trace":
            done = done and walls[False] and walls[True]
            traced = not traced
        if done:
            break
    result.update(
        walls=walls[False],
        traced_walls=walls[True],
        cpus=cpus,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        verdicts=ledger.verdicts,
        gate=ledger.gate,
        digests=ledger.digests,
        errors=ledger.errors[:3],
    )
    if tracer is not None:
        from tracer import layer_metrics

        result["layers"] = layer_metrics(tracer.spans, len(walls[True]))
        result["missing"] = tracer.missing
        if walls[False]:
            result["layers"]["trace.overhead_s"] = statistics.median(
                walls[True]
            ) - statistics.median(walls[False])
        if args.trace_file:
            tracer.write(args.trace_file)

    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
