"""Reference table read: log beta at one n >= 2, one ``chebval`` call per piece.

This is the per-n table read as it was before the stacked evaluator,
taking the invariant coordinates (q, signed t): the table at n (built
by the curves object itself) is read with a single-piece fast path or a
loop over the pieces present, each a plain
``numpy.polynomial.chebyshev.chebval``.  It shares no evaluation code
with ``ScaleBfCurves.log_bf_cells``, which must match it bit for bit.
"""

import numpy as np

from optstop.models import CauchyEffect


def log_bf_per_n(curves, n: int, q: np.ndarray, t_signed: np.ndarray) -> np.ndarray:
    """log beta_n for vectors of invariant coordinates at one n."""
    q = np.asarray(q, dtype=float)
    prior = curves._prior
    if curves._flat:
        return np.zeros_like(q)
    edges, coeffs = curves._table(n)
    if isinstance(prior, CauchyEffect):
        coord = curves._table_coord(q)
    else:
        coord = np.asarray(t_signed, dtype=float)
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
