"""The boundary engine: per-n bounds on the invariant coordinate for threshold rules.

The Monte Carlo kernel evaluates the Chebyshev tables of a threshold
rule only on the trials beyond a bar's per-n bound.  Its records must
equal, bit for bit, those of the reference kernel that evaluates every
active trial at every step, and no coordinate outside a bound may meet
the bar.
"""

import math

import numpy as np
import pytest

from optstop import montecarlo
from optstop.models import CauchyEffect, InvariantModelPair, PointMass
from optstop.montecarlo import run_marginal_trials, run_trials
from optstop.stopping import BfThreshold
from reference_kernel import run_block_per_step

PRIORS = [
    CauchyEffect(0.01),
    CauchyEffect(0.1),
    CauchyEffect(1.0),
    CauchyEffect(10.0),
    PointMass(0.5),
    PointMass(-0.5),
    PointMass(0.0),
]
RULES = {
    "one-sided": BfThreshold(upper=20.0, cap=80),
    # beta(q = 0) > 0.2 at small n: the lower bar is out of reach there
    "two-sided": BfThreshold(upper=5.0, lower=0.2, cap=80),
    # out of reach at n = 2 (and up to n = 31 for the point masses)
    "upper-1e6": BfThreshold(upper=1e6, cap=60),
    # met everywhere from n = 2 under the narrow priors and delta0 = 0
    "upper-below-1": BfThreshold(upper=0.8, cap=30),
}


def per_step(monkeypatch, run):
    """``run()``'s records under the reference kernel."""
    with monkeypatch.context() as m:
        m.setattr(montecarlo, "_run_block", run_block_per_step)
        return run()


@pytest.fixture
def split_blocks(monkeypatch):
    monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 700)  # 1,500 trials: three blocks


@pytest.mark.parametrize("rule", RULES.values(), ids=RULES.keys())
@pytest.mark.parametrize("prior", PRIORS, ids=str)
def test_trials_match_per_step_kernel(prior, rule, split_blocks, monkeypatch):
    pair = InvariantModelPair.scale(prior)
    for k in (0, 1):
        got = run_trials(pair, k, 1.3, rule, 1500, seed=11)
        assert got == per_step(monkeypatch, lambda: run_trials(pair, k, 1.3, rule, 1500, seed=11))


@pytest.mark.parametrize("x_m", [(1.0,), (2.0,)])
@pytest.mark.parametrize("rule", RULES.values(), ids=RULES.keys())
@pytest.mark.parametrize("prior", PRIORS, ids=str)
def test_marginal_trials_match_per_step_kernel(prior, rule, x_m, split_blocks, monkeypatch):
    pair = InvariantModelPair.scale(prior)
    # the alternative posterior is not sampled for a nonzero point effect
    arms = (0,) if isinstance(prior, PointMass) and prior.delta0 != 0.0 else (0, 1)
    for k in arms:
        def run():
            return run_marginal_trials(pair, k, x_m, rule, 1500, seed=12)

        assert run() == per_step(monkeypatch, run)


def test_tables_read_only_near_stops(monkeypatch):
    """A long null run reads the tables about once per trial, not once per step."""
    pair = InvariantModelPair.scale(CauchyEffect(1.0))
    rule = BfThreshold(upper=20.0, cap=200)
    curves = montecarlo._curves_for(pair)
    rows = []
    table = curves.log_bf_batch

    def counting(n, q, t):
        rows.append(np.size(q))
        return table(n, q, t)

    monkeypatch.setattr(curves, "log_bf_batch", counting)
    records = run_trials(pair, 0, 1.0, rule, 2000, seed=3)
    steps = sum(r.stop_index - 1 for r in records)
    assert steps > 150 * len(records)  # most trials run to the cap
    assert sum(rows) < 1.05 * len(records)


def _grid(bound, lo, hi):
    """A dense coordinate grid on [lo, hi], finer still within 1e-5 of a finite bound."""
    grid = np.linspace(lo, hi, 2001)
    if math.isfinite(bound):
        grid = np.concatenate([grid, bound + np.linspace(-1e-5, 1e-5, 201)])
    return np.clip(grid, lo, hi)


BARS = [(math.log(20.0), True), (math.log(0.2), False), (math.log(0.8), True)]


@pytest.mark.parametrize(
    "prior, cap",
    [
        (CauchyEffect(1.0), 1000),
        (CauchyEffect(0.1), 200),
        (PointMass(0.5), 200),
        (PointMass(-0.5), 200),
        (PointMass(0.0), 200),
    ],
    ids=str,
)
def test_boundary_is_sound(prior, cap):
    """Every coordinate where the table meets a bar lies on the candidate side."""
    pair = InvariantModelPair.scale(prior)
    curves = montecarlo._curves_for(pair)
    if isinstance(prior, CauchyEffect):
        lo, hi = 0.0, 1.0
    else:
        lo, hi = -1.0, 1.0
    sign = -1.0 if isinstance(prior, PointMass) and prior.delta0 < 0.0 else 1.0
    bounds = [(curves.boundary(bar, cap, above), bar, above) for bar, above in BARS]
    for n in range(2, cap):
        for bound, bar, above in bounds:
            c = _grid(bound[n], lo, hi)
            q, t = (c, np.sqrt(c)) if isinstance(prior, CauchyEffect) else (c * c, sign * c)
            lb = curves.log_bf_batch(n, q, t)
            if above:
                assert np.all(c[lb >= bar] >= bound[n]), (n, bar)
            else:
                assert np.all(c[lb <= bar] <= bound[n]), (n, bar)
    # the cap stops every trial: every coordinate is a candidate there
    for bound, _, above in bounds:
        assert bound[cap] == (-math.inf if above else math.inf)

