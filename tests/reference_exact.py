"""Per-row reference verifiers for exact tables.

These are the verifiers of ``optstop.exact`` as they read a table of one
``TableEntry`` per stopped sequence, before tables were kept as columns.
They take rows (``TableEntry``s, as iterating an ``ExactTable`` gives
them) and make the same scalar ``math.fsum``, ``math.exp`` and
``np.median`` calls, so the columnar verifiers must equal them bit for
bit.
"""

import math

import numpy as np


def markov_probability(rows, log_threshold: float) -> float:
    """P0 mass of the rows whose running max of log beta reached ``log_threshold``."""
    return math.fsum(e.mass0 for e in rows if e.max_log_beta >= log_threshold)


def expected_stopped_bf(rows) -> float:
    """E0[beta_tau] over the rows."""
    return math.fsum(e.mass0 * math.exp(e.log_beta) for e in rows)


def calibration_groups(rows) -> list:
    """(log_beta, beta, mass0, mass1, ratio, residual) of each level set, by log beta."""
    buckets = {}
    for e in rows:
        key = format(e.log_beta + 0.0, ".12g")  # +0.0 folds -0.0 into 0.0
        buckets.setdefault(key, []).append(e)
    groups = []
    for key in sorted(buckets, key=float):
        members = buckets[key]
        lb = float(np.median([e.log_beta for e in members]))
        beta = math.exp(lb)
        mass0 = math.fsum(e.mass0 for e in members)
        mass1 = math.fsum(e.mass1 for e in members)
        ratio = mass1 / mass0
        groups.append((lb, beta, mass0, mass1, ratio, abs(ratio - beta) / beta))
    return groups
