#!/usr/bin/env python3
"""Run every bundled experiment config and summarize the verdicts.

Writes one output directory per experiment under --out (default
results/) and prints a final table: each experiment's verdict, its wall
seconds and its CPU seconds, this process's plus those of the worker
processes it forks, for Monte Carlo runs and for large Bayes-factor
table builds (stdout only; the output directories do not hold them).
Exit code 0 iff every experiment's
contracts passed; a package or configuration error stops the sweep with
``error: <message>`` on stderr and exit code 1.  The full sweep at the
bundled trial counts took 29-32 s wall (about 50 s CPU) at seed 3 on a
2-vCPU Xeon host, Python 3.11.  --quick shrinks
the Monte Carlo runs to exercise the plumbing; the calibration pass
contracts are tuned for the full trial counts and can fail spuriously at
the reduced ones.
"""

import argparse
import os
import sys
import time

from optstop.cli import EXPERIMENTS, exit_code, parse_config_text, run

HERE = os.path.dirname(os.path.abspath(__file__))

QUICK_OVERRIDES = {"n_trials": "20000", "trials": "2000"}


def config_path(kind: str) -> str:
    """The bundled config of an experiment kind: configs/<kind, '-' as '_'>.cfg."""
    return os.path.join(HERE, "configs", kind.replace("-", "_") + ".cfg")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller Monte Carlo runs (plumbing smoke; statistical "
        "contracts are tuned for the full trial counts)",
    )
    args = parser.parse_args()
    return exit_code(lambda: run_sweep(args))


def run_sweep(args: argparse.Namespace) -> int:
    outcomes = []
    for kind in EXPERIMENTS:
        with open(config_path(kind)) as fh:
            config = parse_config_text(fh.read())
        if args.quick:
            for key, value in QUICK_OVERRIDES.items():
                if key in config:
                    config[key] = value
        out_dir = os.path.join(args.out, kind)
        print(f"=== {kind} -> {out_dir}")
        start, cpu = time.perf_counter(), cpu_seconds()
        code = run(kind, config, args.seed, out_dir)
        outcomes.append((kind, code, time.perf_counter() - start, cpu_seconds() - cpu))
        print()

    print("summary:")
    for kind, code, wall, cpu in outcomes:
        verdict = "PASS" if code == 0 else f"FAIL (exit {code})"
        print(f"  {kind:28s} {verdict:13s} {wall:8.2f} s wall {cpu:8.2f} s cpu")
    return 0 if all(code == 0 for _, code, _, _ in outcomes) else 2


def cpu_seconds() -> float:
    """CPU seconds spent by this process and by its children it has waited for."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


if __name__ == "__main__":
    sys.exit(main())
