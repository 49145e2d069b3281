"""Span tracer for the benchmark's traced run.

The tracer wraps public optstop functions on the attribute each caller
looks up (``optstop.montecarlo.run_trials`` is what the CLI calls,
``optstop.montecarlo.stop`` is what the finite path calls), so nothing
under src/ is edited.  Each call becomes a span: id, name, start, end,
CPU time, parent span and run id (the pass number).  Spans stay in
memory and are written out when the run ends.  A target that no longer
exists is recorded as missing and its metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import math
import os
import threading
import time
from collections import defaultdict, namedtuple
from typing import Dict, List

Span = namedtuple("Span", "id name start end cpu parent run phase info")


def _panels(arguments, result):
    return {"panels": getattr(result, "panels", 0)}


def _trials(arguments, result):
    stops = [getattr(r, "stop_index", 0) for r in result]
    cap = getattr(arguments.get("rule"), "cap", None)
    return {
        "k": arguments.get("k"),
        "trials": len(stops),
        "steps": sum(stops),
        "cap_hits": sum(1 for s in stops if s == cap),
    }


def _csv_bytes(arguments, result):
    path = arguments.get("path")
    return {"bytes": os.path.getsize(path) if path is not None else 0}


def _count(arguments, result):
    return {"trials": len(result)}


def _leaves(arguments, result):
    return {"leaves": len(getattr(result, "entries", ()))}


def _probes(arguments, result):
    return {
        "probes": getattr(result, "trials", 0),
        "skipped": getattr(result, "skipped_boundary", 0),
    }


# (module, attribute path, span name, what to record from the call)
TARGETS = (
    ("optstop.cli", "run", "cli.run", None),
    ("optstop.cli", "check_invariance", "stopping.check_invariance", _probes),
    ("optstop.quadrature", "integrate", "quadrature.integrate", _panels),
    ("optstop.models", "InvariantModelPair.log_bf", "models.log_bf", None),
    ("optstop.montecarlo", "run_trials", "montecarlo.run_trials", _trials),
    ("optstop.montecarlo", "estimate_strong_calibration", "montecarlo.estimate", None),
    ("optstop.montecarlo", "estimate_type1", "montecarlo.estimate", None),
    ("optstop.montecarlo", "estimate_stopped_bf_mean", "montecarlo.estimate", None),
    ("optstop.montecarlo", "records_to_csv", "montecarlo.records_to_csv", _csv_bytes),
    ("optstop.montecarlo", "run_trials_finite", "montecarlo.run_trials_finite", _count),
    ("optstop.montecarlo", "sample_sequence", "exact.sample_sequence", None),
    ("optstop.montecarlo", "trajectory_finite", "exact.trajectory_finite", None),
    ("optstop.montecarlo", "stop", "core.stop", None),
    ("optstop.exact", "build_table", "exact.build_table", _leaves),
    ("optstop.exact", "verify_markov_bound", "exact.verify", None),
)


class Tracer:
    """Records spans around the TARGETS while enabled.

    ``phase`` ("setup" or "pass") and ``run`` are read when a span
    starts.  Calls made from worker threads (the Monte Carlo thread
    pool) take the innermost open span of the tracing thread as parent.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self.phase = "setup"
        self.run = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: List[int] = []
        self._patches = []
        for module, path, name, describe in TARGETS:
            self._wrap(module, path, name, describe)

    def _wrap(self, module: str, path: str, name: str, describe) -> None:
        try:
            owner = importlib.import_module(module)
        except ImportError:
            owner = None
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(f"{module}.{path}")
            return
        signature = inspect.signature(original) if describe else None

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self._call(name, original, signature, describe, args, kwargs)

        self._patches.append((owner, attr, original, wrapper))

    def enable(self, on: bool) -> None:
        for owner, attr, original, wrapper in self._patches:
            setattr(owner, attr, wrapper if on else original)

    def _stack(self) -> List[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, signature, describe, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._owner_stack[-1] if self._owner_stack else None
        span_id = next(self._ids)
        phase, run = self.phase, self.run
        stack.append(span_id)
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            cpu = time.process_time() - cpu0
            stack.pop()
        info = None
        if describe is not None:
            info = describe(signature.bind(*args, **kwargs).arguments, result)
        self.spans.append(Span(span_id, name, start, end, cpu, parent, run, phase, info))
        return result

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span._asdict()) + "\n")


def _percentile_us(durations: List[float], p: float) -> float:
    if not durations:
        return 0.0
    ordered = sorted(durations)
    rank = max(math.ceil(p / 100.0 * len(ordered)), 1)
    return ordered[rank - 1] * 1e6


def _self_time(span: Span, children: List[Span]) -> float:
    """Span duration minus its direct children's, which run one after another."""
    return (span.end - span.start) - sum(c.end - c.start for c in children)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _trial_metrics(prefix: str, spans: List[Span], passes: int) -> Dict[str, float]:
    wall = sum(s.end - s.start for s in spans)
    cpu = sum(s.cpu for s in spans)
    trials = sum(s.info["trials"] for s in spans)
    steps = sum(s.info["steps"] for s in spans)
    cap_hits = sum(s.info["cap_hits"] for s in spans)
    return {
        f"{prefix}.s": wall / passes,
        f"{prefix}.trials": trials / passes,
        f"{prefix}.steps": steps / passes,
        f"{prefix}.trials_per_s": _ratio(trials, wall),
        f"{prefix}.steps_per_s": _ratio(steps, wall),
        f"{prefix}.cap_hit_frac": _ratio(cap_hits, trials),
        f"{prefix}.mean_stop": _ratio(steps, trials),
        f"{prefix}.cpu_per_wall": _ratio(cpu, wall),
    }


def layer_metrics(spans: List[Span], passes: int) -> Dict[str, float]:
    """Per-layer metrics; counts and seconds are per traced pass.

    Every traced pass repeats the same calls with the same seed, so the
    per-pass counts are exact and repeat from run to run.
    """
    passes = max(passes, 1)
    setup: Dict[str, List[Span]] = defaultdict(list)
    work: Dict[str, List[Span]] = defaultdict(list)
    children: Dict[int, List[Span]] = defaultdict(list)
    for s in spans:
        (work if s.phase == "pass" else setup)[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)

    def busy(name: str) -> float:
        return sum(s.end - s.start for s in work[name]) / passes

    def total(name: str, key: str) -> float:
        return sum(s.info[key] for s in work[name])

    quad, log_bf, stop = work["quadrature.integrate"], work["models.log_bf"], work["core.stop"]
    finite_s = busy("montecarlo.run_trials_finite")
    table_s = busy("exact.build_table")
    probe_s = busy("stopping.check_invariance")
    m = {
        "quadrature.integrate.setup_calls": len(setup["quadrature.integrate"]),
        "quadrature.integrate.setup_panels": sum(
            s.info["panels"] for s in setup["quadrature.integrate"]
        ),
        "quadrature.integrate.calls": len(quad) / passes,
        "quadrature.integrate.panels": total("quadrature.integrate", "panels") / passes,
        "quadrature.integrate.s": busy("quadrature.integrate"),
        "models.log_bf.calls": len(log_bf) / passes,
        "models.log_bf.s": busy("models.log_bf"),
        "models.log_bf.p50_us": _percentile_us([s.end - s.start for s in log_bf], 50),
        "models.log_bf.p99_us": _percentile_us([s.end - s.start for s in log_bf], 99),
        "montecarlo.estimate.s": busy("montecarlo.estimate"),
        "montecarlo.records_to_csv.s": busy("montecarlo.records_to_csv"),
        "montecarlo.records_to_csv.bytes": total("montecarlo.records_to_csv", "bytes") / passes,
        "montecarlo.run_trials_finite.s": finite_s,
        "montecarlo.run_trials_finite.trials": total("montecarlo.run_trials_finite", "trials")
        / passes,
        "exact.build_table.s": table_s,
        "exact.build_table.leaves": total("exact.build_table", "leaves") / passes,
        "exact.verify.s": busy("exact.verify"),
        "exact.sample_sequence.s": busy("exact.sample_sequence"),
        "exact.trajectory_finite.s": busy("exact.trajectory_finite"),
        "core.stop.calls": len(stop) / passes,
        "core.stop.s": busy("core.stop"),
        "core.stop.p99_us": _percentile_us([s.end - s.start for s in stop], 99),
        "stopping.check_invariance.s": probe_s,
        "stopping.check_invariance.skipped": total("stopping.check_invariance", "skipped")
        / passes,
        "cli.run.s": busy("cli.run"),
        "cli.self_s": sum(_self_time(s, children[s.id]) for s in work["cli.run"]) / passes,
    }
    m["montecarlo.run_trials_finite.trials_per_s"] = _ratio(
        m["montecarlo.run_trials_finite.trials"], finite_s
    )
    m["exact.build_table.leaves_per_s"] = _ratio(m["exact.build_table.leaves"], table_s)
    m["stopping.check_invariance.probes_per_s"] = _ratio(
        total("stopping.check_invariance", "probes") / passes, probe_s
    )
    trials = work["montecarlo.run_trials"]
    m.update(_trial_metrics("montecarlo.run_trials", trials, passes))
    for k in (0, 1):
        arm = [s for s in trials if s.info["k"] == k]
        m.update(_trial_metrics(f"montecarlo.run_trials.k{k}", arm, passes))
    return m
