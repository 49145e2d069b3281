"""Reference invariance probe: one probe at a time, two scalar log_bf calls each.

This is ``stopping.check_invariance`` before probes were evaluated in
chunks.  Given a generator in the same state, it gives the report and
leaves the generator in the state that the chunked checker must
reproduce exactly.
"""

import numpy as np

from optstop.stopping import BOUNDARY_SKIP_BAND, InvarianceReport


def check_invariance_sequential(rule, pair, trials: int, rng: np.random.Generator,
                                max_len: int = 12) -> InvarianceReport:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    group = pair.group
    mismatches = 0
    skipped = 0
    counterexample = None
    for _ in range(trials):
        k = int(rng.integers(0, 2))
        g = group.random_element(rng)
        n = int(rng.integers(pair.m + 1, max_len + 1))
        x = pair.sample(k, g, n, rng)
        h = group.random_element(rng)
        xh = group.act(x, h)

        if n >= rule.cap:
            skipped += 1
            continue
        if rule.log_bars:
            lb_x, lb_xh = pair.log_bf(x), pair.log_bf(xh)
        else:
            lb_x = lb_xh = None
        gap = min(rule.boundary_gap(x, lb_x), rule.boundary_gap(xh, lb_xh))
        if gap <= BOUNDARY_SKIP_BAND:
            skipped += 1
            continue
        if rule.decide(x, lb_x) != rule.decide(xh, lb_xh):
            mismatches += 1
            if counterexample is None:
                counterexample = (np.array(x), h)
            if not rule.declared_invariant:
                break
    return InvarianceReport(
        rule_kind=type(rule).__name__,
        declared_invariant=rule.declared_invariant,
        trials=trials,
        mismatches=mismatches,
        skipped_boundary=skipped,
        counterexample=counterexample,
    )
