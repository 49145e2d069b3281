"""Adaptive 1-D quadrature built on nested Gauss-Legendre pairs: a test oracle.

The package's Bayes factors come from fixed Gauss-Legendre panels
(``optstop.models._log_integral``); this independent adaptive rule checks
them in ``test_models_scale.py``.

Each panel is evaluated with a 7-point and a 15-point Gauss rule; the
difference between the two estimates serves as the panel error, and the
panel with the largest error is bisected until the global tolerance is
met.  Node tables come from ``numpy.polynomial.legendre.leggauss`` so no
hand-copied constants are involved.

``integrate_log`` integrates ``exp(log_f)`` with the running maximum
factored out, so integrands whose peak value overflows or underflows
double precision are handled in log space throughout.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss


class QuadratureError(ArithmeticError):
    """Numerical integration failed to converge; carries the last error estimate."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual estimate {residual:.3e})")
        self.residual = residual


_X_LO, _W_LO = leggauss(7)
_X_HI, _W_HI = leggauss(15)


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float
    panels: int


_X_BOTH = np.concatenate([_X_HI, _X_LO])


def _panel(f: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> tuple[float, float]:
    """Return (15-point estimate, error estimate) for one panel.

    Both rules are evaluated from a single call to ``f`` so that callers
    with per-call overhead (vectorized log-likelihoods) pay it once.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    vals = np.asarray(f(mid + half * _X_BOTH), dtype=float)
    hi = half * float(_W_HI @ vals[:15])
    lo = half * float(_W_LO @ vals[15:])
    return hi, abs(hi - lo)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rtol: float = 1e-12,
    atol: float = 0.0,
    max_panels: int = 4096,
    min_panels: int = 1,
) -> QuadResult:
    """Integrate ``f`` over [a, b] adaptively.

    ``f`` must accept a 1-D ndarray of abscissae and return the integrand
    values elementwise.  Adaptive refinement only sees features that some
    panel's nodes sample: callers who cannot bracket a narrow feature
    should raise ``min_panels`` so the initial uniform splitting resolves
    it.  Raises :class:`QuadratureError` if the panel budget is exhausted
    before the tolerance is met.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration bounds must be finite")
    if a == b:
        return QuadResult(0.0, 0.0, 0)

    splits = np.linspace(a, b, max(int(min_panels), 1) + 1)
    heap = []  # entries: (-error, tie-break counter, a, b, value, error)
    total = 0.0
    total_err = 0.0
    count = 0
    for pa, pb in zip(splits[:-1], splits[1:]):
        value, err = _panel(f, pa, pb)
        count += 1
        heap.append((-err, count, pa, pb, value, err))
        total += value
        total_err += err
    heapq.heapify(heap)
    while total_err > max(atol, rtol * abs(total)):
        if count >= max_panels:
            raise QuadratureError("adaptive quadrature did not converge", total_err)
        neg, _, pa, pb, pv, pe = heapq.heappop(heap)
        mid = 0.5 * (pa + pb)
        v1, e1 = _panel(f, pa, mid)
        v2, e2 = _panel(f, mid, pb)
        total += (v1 + v2) - pv
        total_err += (e1 + e2) - pe
        count += 1
        heapq.heappush(heap, (-e1, count, pa, mid, v1, e1))
        heapq.heappush(heap, (-e2, -count, mid, pb, v2, e2))
    return QuadResult(total, total_err, count)


def integrate_log(
    log_f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rtol: float = 1e-12,
    max_panels: int = 4096,
    shift: Optional[float] = None,
) -> float:
    """Return ``log(integral of exp(log_f))`` over [a, b].

    The integrand is evaluated as exp(log_f - shift) so that arbitrarily
    large or small log scales stay inside double range.  When ``shift``
    is not given, a coarse 64-point scan estimates the maximum; callers
    that already know the mode (narrow peaks a uniform scan could miss
    by more than ~700 nats) should pass it explicitly.
    """
    if shift is None:
        probe = np.linspace(a, b, 64)
        shift = float(np.max(log_f(probe)))
    if not math.isfinite(shift):
        raise ValueError("log-integrand is not finite anywhere on the probe grid")

    def f(x: np.ndarray) -> np.ndarray:
        return np.exp(np.asarray(log_f(x), dtype=float) - shift)

    res = integrate(f, a, b, rtol=rtol, atol=0.0, max_panels=max_panels)
    if res.value <= 0.0:
        raise QuadratureError("log-integral underflowed to zero", res.error)
    return shift + math.log(res.value)
