#!/usr/bin/env python3
"""optstop benchmark: time to verdict, set-up time and a per-layer trace.

Run from the root of a checkout (nothing needs to be installed; the
measured interpreters import optstop from src/):

    python3 perfbench/run.py --workload mc-corridor --seed 3 --seconds 8 --trace 0

--trace 0 prints the end-to-end metrics named in BENCHMARK.json, --trace 1
the per-layer metrics of a separately traced run.  Every measurement runs
in a fresh interpreter (child.py) with default settings and one
closed-loop caller.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  LAYERS.md
describes the workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 2  # interpreters per untraced run; setup_s is the median of their set-ups
BUDGET_S = 170.0  # a run must end within 180 s


class ChildFailed(RuntimeError):
    pass


def run_child(mode, args, out: Path, deadline: float, seconds=None, threads=None,
              trace_file=None) -> dict:
    """Run child.py in a fresh interpreter and return its result."""
    out.mkdir(parents=True)
    env = dict(os.environ)
    env.pop("OPTSTOP_THREADS", None)
    if threads is not None:
        env["OPTSTOP_THREADS"] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable, str(HERE / "child.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds if seconds is not None else args.seconds),
        "--out", str(out),
    ]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} run exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads((out / "result.json").read_text())


def git_sha():
    """The checked-out commit, or None outside a git working tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[len("ref: "):]).read_text().strip()
        return head
    except OSError:
        return None


def cpu_info() -> dict:
    info = {"model": None, "caches": {}}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    info["model"] = value.strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        info["caches"][f"L{level} {kind}"] = size
    return info


def measure(args, workload, work: Path, deadline: float):
    """Untraced run: SETUPS fresh interpreters, one after another.

    Each interpreter sets up, then repeats the workload's pass for its
    share of --seconds, at least once.  A pass longer than a share (on
    scalar-bf) therefore still gives one wall sample per interpreter and
    one byte-identity comparison between them.
    """
    setups, walls, cpus, results = [], [], [], []
    for i in range(SETUPS):
        res = run_child("measure", args, work / f"run{i}", deadline,
                        seconds=args.seconds / SETUPS)
        setups.append(res["setup_s"])
        walls += res["walls"]
        cpus += res["cpus"]
        results.append(res)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
    }
    samples = {"setup_s": setups, "wall_s": walls, "cpu_s": cpus}
    return values, samples, results


def trace(args, workload, work: Path, deadline: float):
    """Traced run; Monte Carlo workloads add a run at OPTSTOP_THREADS=1."""
    trace_file = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl"
    res = run_child("trace", args, work / "trace", deadline, trace_file=trace_file)
    values = dict(res["layers"])
    values["montecarlo.worker_count"] = res["stamp"]["worker_count"] or 0
    values["trace.missing_targets"] = len(res["missing"])
    values["montecarlo.run_trials.threads1.s"] = 0.0
    values["montecarlo.run_trials.threads1.cpu_per_wall"] = 0.0
    results = [res]
    if args.workload.startswith("mc-"):
        one = run_child("trace-only", args, work / "threads1", deadline,
                        seconds=args.seconds / 2, threads=1)
        values["montecarlo.run_trials.threads1.s"] = one["layers"]["montecarlo.run_trials.s"]
        values["montecarlo.run_trials.threads1.cpu_per_wall"] = one["layers"][
            "montecarlo.run_trials.cpu_per_wall"
        ]
        results.append(one)
    samples = {"wall_s": res["walls"], "traced_wall_s": res["traced_walls"],
               "missing": res["missing"], "trace_file": str(trace_file.relative_to(ROOT)),
               "stamps": [r["stamp"] for r in results]}
    return values, samples, results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "optstop" / "__init__.py").is_file():
        print(f"error: no optstop sources under {ROOT / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]

    deadline = time.monotonic() + BUDGET_S
    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    try:
        run = trace if args.trace else measure
        values, samples, results = run(args, workload, work, deadline)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    gate = [sum(r["gate"][i] for r in results) for i in (0, 1)]
    # outputs must also be byte-identical between interpreters
    gate[0] += len(results) - 1
    gate[1] += sum(r["digests"] != results[0]["digests"] for r in results[1:])
    verdicts = [sum(r["verdicts"][i] for r in results) for i in (0, 1)]
    contract_fail_frac = verdicts[1] / verdicts[0] if verdicts[0] else 1.0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calls": [dict(asdict(c), config=dict(c.config, seed=str(args.seed)))
                  for c in workload.calls],
        "finite_cross_check": asdict(workload.finite) if workload.finite else None,
        "warmup": [{"rule": kind, **params} for kind, params in workload.warmup],
        "stamp": dict(results[0]["stamp"], nproc=os.cpu_count(),
                      affinity=len(os.sched_getaffinity(0)), git_sha=git_sha(),
                      cpu=cpu_info()),
        "digests": results[0]["digests"],
        "samples": samples,
        "checks": {"gate": gate, "verdicts": verdicts},
        "contract_fail_frac": contract_fail_frac,
        "errors": [e for r in results for e in r["errors"]],
    }
    print(json.dumps(record, indent=1, sort_keys=True))
    print(f"\n{args.workload}  seed {args.seed}  {args.seconds:g} s  trace {args.trace}")
    for m in declared:
        print(f"  {m['name']:<45} {values[m['name']]:>16.6g} {m['unit']}")
    print(f"  {'contract_fail_frac':<45} {contract_fail_frac:>16.6g} fraction"
          f"  ({verdicts[1]} of {verdicts[0]} verdict checks failed)")
    print(f"  gate: {gate[1]} of {gate[0]} checks failed")
    print(json.dumps({
        "correct": gate[0] > 0 and gate[1] == 0,
        "attempted": gate[0],
        "failed": gate[1],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
