"""Reference calibration estimate and summary: one ``CalibrationBin`` per bin.

This is ``montecarlo.estimate_strong_calibration`` and
``cli._calibration_summary`` as they were before the columnar estimate:
the 0.2-nat subdivision is a Python loop over the quantile edges, each
bin's statistics are a ``CalibrationBin`` built in a loop, the estimate
counts usable and passing bins over that tuple, and the summary is one
dict per bin, normalized through ``_fmt`` and written with ``json.dump``.
The columnar estimate must match it bit for bit, column by column, and
the written ``summary.json`` byte for byte.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from optstop.montecarlo import BIN_PASS_FRACTION, DEFAULT_BINS, MAX_BIN_WIDTH, Z95, TrialRecords


@dataclass(frozen=True)
class CalibrationBin:
    """One bin's statistics, as Python scalars."""

    log_beta_lo: float
    log_beta_hi: float
    count0: int
    count1: int
    ratio: float
    ci_lo: float
    ci_hi: float
    log_beta_gmean: float

    @property
    def usable(self) -> bool:
        return self.count0 > 0

    @property
    def ok(self) -> bool:
        return self.usable and self.ci_lo <= math.exp(self.log_beta_gmean) <= self.ci_hi


@dataclass(frozen=True)
class CalibrationEstimate:
    bins: Tuple[CalibrationBin, ...]
    n0: int
    n1: int

    @property
    def usable_bins(self) -> int:
        return sum(1 for b in self.bins if b.usable)

    @property
    def excluded_bins(self) -> int:
        return len(self.bins) - self.usable_bins

    @property
    def pass_fraction(self) -> float:
        usable = self.usable_bins
        if usable == 0:
            return 0.0
        return sum(1 for b in self.bins if b.ok) / usable

    @property
    def passed(self) -> bool:
        return self.pass_fraction >= BIN_PASS_FRACTION


def estimate_strong_calibration(
    records0: TrialRecords, records1: TrialRecords, n_bins: int = DEFAULT_BINS
) -> CalibrationEstimate:
    """Bin stopped values and compare H1/H0 frequency ratios to the bin's beta.

    Equal-count bins on the pooled sample keep per-bin confidence
    intervals comparable even though stopped-value distributions pile up
    near thresholds and leave gaps elsewhere; exact ties (atoms) collapse
    duplicate quantile edges and so occupy bins of their own.  Bins wider
    than MAX_BIN_WIDTH nats (sparse tails, the between-thresholds
    corridor) are subdivided evenly: the frequency ratio estimates the
    bin-conditional arithmetic mean of beta, which tracks the geometric
    mean being tested only while bins stay narrow.  The ratio gets a
    delta-method 95% interval on the log scale.
    """
    lb0, lb1 = records0.stopped_log_beta, records1.stopped_log_beta
    n0, n1 = lb0.size, lb1.size
    if n0 == 0 or n1 == 0:
        raise ValueError("both record lists must be nonempty")
    if n_bins < 1:
        raise ValueError("need at least one bin")
    pooled = np.concatenate([lb0, lb1])
    edges = np.unique(np.quantile(pooled, np.linspace(0.0, 1.0, n_bins + 1)))
    if edges.size < 2:
        edges = np.array([edges[0], edges[0] + 1.0])
    refined = [edges[0]]
    for right in edges[1:]:
        left = refined[-1]
        width = right - left
        if width > MAX_BIN_WIDTH:
            pieces = int(math.ceil(width / MAX_BIN_WIDTH))
            refined.extend(left + width * (i + 1) / pieces for i in range(pieces - 1))
        refined.append(right)
    edges = np.array(refined)
    edges[-1] = np.nextafter(edges[-1], math.inf)  # keep the max inside the last bin
    nb = edges.size - 1
    idx0 = np.clip(np.searchsorted(edges, lb0, side="right") - 1, 0, nb - 1)
    idx1 = np.clip(np.searchsorted(edges, lb1, side="right") - 1, 0, nb - 1)
    c0 = np.bincount(idx0, minlength=nb)
    c1 = np.bincount(idx1, minlength=nb)
    sums = np.bincount(idx0, weights=lb0, minlength=nb) + np.bincount(
        idx1, weights=lb1, minlength=nb
    )
    bins = []
    for j in range(nb):
        count0, count1 = int(c0[j]), int(c1[j])
        total = count0 + count1
        gmean = sums[j] / total if total else math.nan
        if count0 == 0:
            ratio, ci_lo, ci_hi = math.nan, math.nan, math.nan
        else:
            p0 = count0 / n0
            if count1 == 0:
                ratio, ci_lo = 0.0, 0.0
                ci_hi = (3.0 / n1) / p0  # rule-of-three upper bound
            else:
                p1 = count1 / n1
                ratio = p1 / p0
                var_log = (1.0 - p1) / (n1 * p1) + (1.0 - p0) / (n0 * p0)
                half = Z95 * math.sqrt(var_log)
                ci_lo = ratio * math.exp(-half)
                ci_hi = ratio * math.exp(half)
        bins.append(
            CalibrationBin(
                log_beta_lo=float(edges[j]),
                log_beta_hi=float(edges[j + 1]),
                count0=count0,
                count1=count1,
                ratio=ratio,
                ci_lo=ci_lo,
                ci_hi=ci_hi,
                log_beta_gmean=float(gmean),
            )
        )
    return CalibrationEstimate(bins=tuple(bins), n0=n0, n1=n1)


def _fmt(x: float) -> float:
    """Normalize a float through 17 significant digits (round-trip exact)."""
    return float(format(float(x), ".17g"))


def _calibration_summary(est: CalibrationEstimate) -> dict:
    def opt(x: float):
        # strict JSON: unusable-bin statistics become null, never NaN
        return None if math.isnan(x) else _fmt(x)

    return {
        "n0": est.n0,
        "n1": est.n1,
        "bins": [
            {
                "log_beta_lo": _fmt(b.log_beta_lo),
                "log_beta_hi": _fmt(b.log_beta_hi),
                "count0": b.count0,
                "count1": b.count1,
                "ratio": opt(b.ratio),
                "ci_lo": opt(b.ci_lo),
                "ci_hi": opt(b.ci_hi),
                "log_beta_gmean": opt(b.log_beta_gmean),
                "ok": b.ok,
            }
            for b in est.bins
        ],
        "usable_bins": est.usable_bins,
        "excluded_bins": est.excluded_bins,
        "pass_fraction": _fmt(est.pass_fraction),
        "passed": est.passed,
    }
