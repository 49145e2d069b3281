"""The benchmark's workloads: what one pass calls, and its warm-up.

A pass is the set of verifier calls whose time to verdict is ``wall_s``.
Every call goes through a public entry point: ``optstop.cli.run`` with a
fully resolved config, or, for the finite cross-check, the montecarlo
and exact functions the test suite uses.  Sizes are scaled down from the
bundled configs so that a run with two set-ups fits the benchmark's
time budget on two cores; LAYERS.md gives the reasons per workload.

This module imports nothing from optstop, so the parent process can
stamp configs without paying the import.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

# Set-up builds one Bayes-factor table per n <= cap (65 quadratures each)
# and every run sets up twice, so the caps bound a run's length.
# 100 is the cap of the H1 FixedN(100) case.  The Type-I workload needs
# trajectories long enough that per-step work (the Chebyshev kernel and
# the draw buffer) outweighs per-trial work.  At cap 200 a trial costs
# about 31 us plus 0.25 us per step on two cores, so the steps are about
# 60% of run_trials, and the draw buffers (two blocks of 8192 x 199
# doubles) about a quarter of peak RSS.
CAP = 100
TYPE1_CAP = 200

CAUCHY = {"effect": "cauchy", "effect_scale": "1.0"}


@dataclass(frozen=True)
class CliCall:
    """One ``optstop.cli.run`` call and the verdict lines it must print."""

    kind: str
    config: Dict[str, str]
    items: int  # per-g / per-alpha / per-rule verdict lines in verdict.txt
    gated: bool  # False: the verdict is a seed-dependent draw, reported only


@dataclass(frozen=True)
class FiniteCheck:
    """Monte Carlo on a finite model checked against its exact table."""

    horizon: int
    grid: int
    alpha: float
    trials: int
    tolerance_se: float = 3.5


@dataclass(frozen=True)
class Workload:
    name: str
    calls: Tuple[CliCall, ...]
    # (rule kind, rule_from_params keyword arguments) for the warm-up
    # run_trials(..., n_trials=1) calls; empty means set-up is the import
    warmup: Tuple[Tuple[str, Dict[str, float]], ...] = ()
    finite: Optional[FiniteCheck] = None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="mc-corridor",
            calls=(
                CliCall(
                    "mc-strong-calibration",
                    dict(CAUCHY, g="1", rule="bf-threshold", rule_upper="5",
                         rule_lower="0.2", rule_cap=str(CAP), n_trials="16384", bins="30"),
                    items=1,
                    gated=False,
                ),
            ),
            warmup=(("bf-threshold", {"upper": 5.0, "lower": 0.2, "cap": CAP}),),
        ),
        Workload(
            name="mc-type1-long",
            calls=(
                CliCall(
                    "mc-type1",
                    dict(CAUCHY, g="1", alpha="0.05", rule_cap=str(TYPE1_CAP), n_trials="16384"),
                    items=1,
                    gated=True,
                ),
            ),
            warmup=(("bf-threshold", {"upper": 20.0, "cap": TYPE1_CAP}),),
        ),
        Workload(
            name="exact-oracle",
            calls=(
                CliCall(
                    "exact-markov",
                    {"horizon": "12", "theta0": "0.5", "prior_grid": "10000",
                     "alpha": "0.01, 0.05, 0.1, 0.2"},
                    items=4,
                    gated=True,
                ),
            ),
            finite=FiniteCheck(horizon=8, grid=500, alpha=0.2, trials=300),
        ),
        Workload(
            name="scalar-bf",
            calls=(
                CliCall(
                    "invariance-check",
                    dict(CAUCHY, trials="500", rule_upper="20", rule_cap="1000",
                         raw_threshold="20"),
                    items=3,
                    gated=True,
                ),
                CliCall(
                    "mc-strong-calibration",
                    dict(CAUCHY, g="1", rule="fixed-n", rule_n=str(CAP), rule_cap=str(CAP),
                         n_trials="16384", bins="30"),
                    items=1,
                    gated=False,
                ),
            ),
            warmup=(("fixed-n", {"n": CAP, "cap": CAP}),),
        ),
    )
}
