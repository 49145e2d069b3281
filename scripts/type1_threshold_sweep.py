#!/usr/bin/env python3
"""Sweep the rejection threshold and tabulate stopped Type-I error rates.

For the one-sample scale-invariant test under the null, runs one set of
trajectories per nuisance value with the loosest threshold, then counts
crossings of every tighter threshold on the same trajectories (crossing
a high bar implies having stopped at or above the lower one, so a single
record set serves the whole alpha grid).  Output is a plot-ready CSV.  A
package or argument error ends the sweep with ``error: <message>`` on
stderr and exit code 1.
"""

import argparse
import csv
import sys

from optstop.cli import exit_code
from optstop.core import rewrite
from optstop.models import CauchyEffect, InvariantModelPair
from optstop.montecarlo import estimate_type1, run_trials
from optstop.stopping import BfThreshold


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="type1_sweep.csv")
    parser.add_argument("--n-trials", type=int, default=100_000)
    parser.add_argument("--cap", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--alpha-max", type=float, default=0.1)
    parser.add_argument("--g", type=float, nargs="+", default=[0.25, 1.0, 4.0])
    args = parser.parse_args()
    return exit_code(lambda: sweep(args))


def sweep(args: argparse.Namespace) -> int:
    pair = InvariantModelPair.scale(CauchyEffect(1.0))
    rule = BfThreshold(upper=1.0 / args.alpha_max, cap=args.cap)
    alphas = [a for a in (0.1, 0.05, 0.02, 0.01, 0.005) if a <= args.alpha_max]

    rows = []
    for g in args.g:
        records = run_trials(pair, 0, g, rule, args.n_trials, seed=args.seed)
        for alpha in alphas:
            est = estimate_type1(records, alpha)
            rows.append((g, alpha, est.rate, est.wilson_lo, est.wilson_hi, est.passed))
            print(
                f"g={g:g} alpha={alpha:g}: rate {est.rate:.5f} "
                f"[{est.wilson_lo:.5f}, {est.wilson_hi:.5f}] "
                f"{'ok' if est.passed else 'VIOLATION'}"
            )

    with rewrite(args.out, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["g", "alpha", "rate", "wilson_lo", "wilson_hi", "bounded"])
        for row in rows:
            writer.writerow(row)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
