"""Model-independent algebra of Bayes factors and stopped values.

Everything here works in natural-log space: Bayes factors grow or decay
geometrically with the sample size, so linear-space products overflow
long before the horizons used elsewhere in the package.  All types are
immutable values and all operations are pure functions, apart from
:func:`rewrite`, the one way the package writes an output file, and
:func:`write_csv` on top of it.
"""

from __future__ import annotations

import contextlib
import csv
import enum
import math
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, TextIO, Union

import numpy as np


class Never(enum.Enum):
    """Explicit 'the rule never fired' outcome (not an error, not infinity)."""

    NEVER = "never"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NEVER"


NEVER = Never.NEVER

StopIndex = Union[int, Never]


@dataclass(frozen=True)
class SignificanceLevel:
    """A Type-I error level alpha in (0, 1]."""

    alpha: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")

    @property
    def log_threshold(self) -> float:
        """log(1/alpha), the evidence threshold whose crossing rejects.

        The bar of ``BfThreshold(upper=1/alpha)`` bit for bit: -log(alpha)
        can lie one ulp above it, where a rule's rejection would be missed.
        """
        return math.log(1.0 / self.alpha)


@dataclass(frozen=True)
class BfTrajectory:
    """Per-prefix log Bayes factors for one data sequence.

    ``log_beta[i]`` holds log beta_n for n = i + 1.  All entries must be
    finite: the models in this package are mutually absolutely
    continuous, so an infinite Bayes factor signals a bug upstream, not
    evidence.
    """

    log_beta: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.log_beta:
            raise ValueError("trajectory must contain at least one value")
        object.__setattr__(self, "log_beta", tuple(float(v) for v in self.log_beta))
        for v in self.log_beta:
            if not math.isfinite(v):
                raise ValueError(f"log Bayes factors must be finite, got {v}")

    @property
    def end(self) -> int:
        """Largest n covered by the trajectory."""
        return len(self.log_beta)

    def value_at(self, n: int) -> float:
        if not (1 <= n <= self.end):
            raise ValueError(f"n={n} outside trajectory range [1, {self.end}]")
        return self.log_beta[n - 1]


@dataclass(frozen=True)
class StopOutcome:
    """Where a rule fired on a trajectory and the stopped log Bayes factor."""

    stop_index: StopIndex
    stopped_log_beta: Optional[float] = None

    def __post_init__(self) -> None:
        if self.stop_index is NEVER:
            if self.stopped_log_beta is not None:
                raise ValueError("no stopped value when the rule never fired")
        else:
            if not isinstance(self.stop_index, int) or self.stop_index < 1:
                raise ValueError(f"stop index must be a positive integer, got {self.stop_index}")
            if self.stopped_log_beta is None or not math.isfinite(self.stopped_log_beta):
                raise ValueError("stopped log Bayes factor must be finite")

    @property
    def stopped(self) -> bool:
        return self.stop_index is not NEVER


def stop(traj: BfTrajectory, rule, data: Sequence) -> StopOutcome:
    """Apply a stopping rule to a trajectory and return the stopped value.

    The rule is queried at n = 1, 2, ... in order; the first n at
    which it fires (or at which its cap forces a stop) is the stop index.
    The stopped value is read from ``traj`` verbatim, never recomputed,
    so two rules stopping at the same n on the same data yield
    bit-identical stopped values.

    Returns ``StopOutcome(NEVER)`` only when the rule never fires within
    the available data and its cap lies beyond the data.
    """
    if len(data) < traj.end:
        raise ValueError("data shorter than the trajectory it produced")
    data = np.asarray(data)  # prefixes below are views, not copies
    for n in range(1, traj.end + 1):
        if rule.decide(data[:n], traj.value_at(n)):
            return StopOutcome(stop_index=n, stopped_log_beta=traj.value_at(n))
    return StopOutcome(stop_index=NEVER)


@contextlib.contextmanager
def rewrite(path, newline: Optional[str] = None) -> Iterator[TextIO]:
    """Open ``path`` to write text that replaces its contents.

    As ``open(path, "w", newline=newline)``, except that an existing file
    is overwritten in place and truncated only at the end of the new
    text, never to zero first: on ext4 (default ``auto_da_alloc``)
    truncating a file that holds data to zero makes its close start
    writing the new blocks out, so every rerun into the same directory
    would wait on the disk.  A new file gets mode 0o666 less the umask,
    symlinks are followed, and a file that cannot be opened for writing
    raises the same ``OSError`` as ``open``.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline=newline) as fh:
        yield fh
        fh.truncate()


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Replace ``path`` with ``header`` and ``rows`` as ``csv.writer`` writes them."""
    with rewrite(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
