"""Reference Monte Carlo block kernel: log beta on every active trial at every n.

This is the engine's trial loop before per-n boundaries: a rule that
reads log beta gets the Chebyshev table evaluated on all active trials
at every step, one step at a time, through the per-n table read of
``reference_tables``.  Every trial draws its effect (``draw``) and its
full row of normals up front, whatever head the engine passes: it takes
the ``head`` argument and ignores it.  Swapped in for
``montecarlo._run_block`` (same signature), it gives the records the
chunked boundary engine, with its lazy heads and replayed rows, must
reproduce bit for bit.
"""

from typing import Optional

import numpy as np

from optstop.montecarlo import TrialRecords, _draws_per_trial, _TrialStreams
from reference_tables import log_bf_per_n


def run_block_per_step(
    pair, curves, k, g, rule, key64, lo, hi, seed, x_init: Optional[float], lb_offset, head
) -> TrialRecords:
    size = hi - lo
    marginal = x_init is not None
    a = np.empty(size) if marginal else float(g)
    delta = np.zeros(size)
    draws = np.empty((size, _draws_per_trial(rule, marginal)))
    streams = _TrialStreams(key64)

    def draw(i):
        gen = streams.at(lo + i)
        if marginal:
            a[i], delta[i] = pair._posterior_predictive_state(k, x_init, gen)
        elif k == 1:
            delta[i] = pair.effect_prior.draw(gen)
        gen.standard_normal(out=draws[i])
        return gen

    for i in range(size):
        draw(i)

    s1 = np.empty(size)
    s2 = np.empty(size)
    if marginal:
        s1[:] = x_init
        s2[:] = x_init * x_init
    else:
        x1 = a * (delta + draws[:, 0])
        for i in np.nonzero(x1 == 0.0)[0].tolist():
            gen = draw(i)
            while a * (delta[i] + draws[i, 0]) == 0.0:
                draws[i, 0] = gen.standard_normal()
            x1[i] = a * (delta[i] + draws[i, 0])
        s1[:] = x1
        s2[:] = x1 * x1

    def log_beta(n, rows):
        q = s1[rows] ** 2 / (n * s2[rows])
        np.clip(q, 0.0, 1.0, out=q)
        return log_bf_per_n(curves, n, q, np.copysign(np.sqrt(q), s1[rows])) - lb_offset

    active = np.ones(size, dtype=bool)
    stop_n = np.zeros(size, dtype=np.int64)
    stop_lb = np.zeros(size)
    col0 = 2 if marginal else 1

    for n in range(2, rule.cap + 1):
        act = np.nonzero(active)[0]
        if act.size == 0:
            break
        scale_act = a[act] if marginal else a
        xn = scale_act * (delta[act] + draws[act, n - col0])
        s1[act] += xn
        s2[act] += xn * xn
        lb = log_beta(n, act) if rule.log_bars else None
        mask = rule.decide_batch(n, lb, s2[act])
        if np.any(mask):
            hit = act[mask]
            stop_n[hit] = n
            stop_lb[hit] = lb[mask] if lb is not None else log_beta(n, hit)
            active[hit] = False

    return TrialRecords(k, a, seed, rule, stop_n, stop_lb, np.arange(lo, hi, dtype=np.int64))
