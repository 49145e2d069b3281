"""Reference tables: the per-n table fit, and the per-n table read.

``fit_per_n`` is the table build as it was before the batched one: one
table at a time, one ``chebinterpolate`` call per piece of the effect
prior's exact curve (``log_bf_table``), pieces split depth first.
``ScaleBfCurves._build`` must give its edges and coefficients bit for
bit.

``log_bf_per_n`` is the per-n table read as it was before the stacked
evaluator, taking the invariant coordinates (q, signed t): the table at
n (built by the curves object itself) is read with a single-piece fast
path or a loop over the pieces present, each a plain
``numpy.polynomial.chebyshev.chebval``.  It forms the table coordinate
itself (xi = log(1 - q) with q clamped at Q_MAX, or the signed t) and
gives its own zeros for the zero point mass, without reading a table;
``read_per_n`` is its read at given table coordinates, and
``table_at`` the table it reads.
It shares no evaluation code with ``ScaleBfCurves.log_bf_cells``, which
must match it bit for bit: +0.0 for the zero point mass.
"""

from functools import partial

import numpy as np

from optstop.models import Q_MAX, CauchyEffect, PointMass


def fit_per_n(curves, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Piece edges and per-piece Chebyshev coefficients of the table at n, fitted alone."""
    f = partial(curves._prior.log_bf_table, n)
    lo, hi = curves._prior.TABLE_RANGE
    edges, coeffs = [], []
    todo = [(lo, hi, 0)]
    while todo:
        a, b, depth = todo.pop()
        c = np.polynomial.chebyshev.chebinterpolate(
            lambda u: f((np.asarray(u) + 1.0) * 0.5 * (b - a) + a), curves.DEGREE
        )
        tol = curves.TAIL_TOL + 1e-14 * np.abs(c).max()
        if depth < curves.MAX_DEPTH and np.abs(c[-8:]).max() > tol:
            mid = 0.5 * (a + b)
            todo += [(mid, b, depth + 1), (a, mid, depth + 1)]
        else:
            edges.append(a)
            coeffs.append(c)
    edges.append(hi)
    return np.array(edges), np.array(coeffs)


def table_at(curves, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The piece edges and per-piece coefficients of the table at n, built if missing."""
    if n not in curves._tables:
        curves._build([n])
    return curves._tables[n]


def log_bf_per_n(curves, n: int, q: np.ndarray, t_signed: np.ndarray) -> np.ndarray:
    """log beta_n for vectors of invariant coordinates at one n."""
    q = np.asarray(q, dtype=float)
    prior = curves._prior
    if isinstance(prior, PointMass) and prior.delta0 == 0.0:
        return np.zeros_like(q)
    if isinstance(prior, CauchyEffect):
        coord = np.log1p(-np.minimum(q, Q_MAX))
    else:
        coord = np.asarray(t_signed, dtype=float)
    return read_per_n(curves, n, coord)


def read_per_n(curves, n: int, coord: np.ndarray) -> np.ndarray:
    """The table at n read at table coordinates: on a piece edge, the piece that starts there."""
    edges, coeffs = table_at(curves, n)
    coord = np.clip(coord, edges[0], edges[-1])
    if len(coeffs) == 1:
        lo, hi = edges
        return np.polynomial.chebyshev.chebval((coord - lo) * (2.0 / (hi - lo)) - 1.0, coeffs[0])
    piece = np.searchsorted(edges[1:-1], coord, side="right")
    lo, hi = edges[piece], edges[piece + 1]
    u = (coord - lo) * (2.0 / (hi - lo)) - 1.0
    out = np.empty_like(u)
    for k in np.unique(piece):
        sel = piece == k
        out[sel] = np.polynomial.chebyshev.chebval(u[sel], coeffs[k])
    return out
