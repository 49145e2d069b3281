"""Exhaustive-enumeration oracle on finite sample spaces.

Enumerates every stopped sequence of a finite-alphabet model under a
capped stopping rule and records its exact mass under both hypothesis
marginals.  On these tables the three optional-stopping properties are
checked without sampling error: grouped-mass calibration, the Markov
bound on the threshold-crossing probability, and the unit expectation of
the stopped Bayes factor.  The tables double as ground truth for the
Monte Carlo engine.

Masses are kept in linear space: with conditional probabilities bounded
away from zero and horizons below ~40, products stay far from the
double-precision underflow threshold.  Reductions over entries use
``math.fsum`` so the verification tolerances are limited by the model's
own arithmetic, not by summation order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .core import BfTrajectory, SignificanceLevel
from .errors import ResourceLimitError
from .stopping import BfThreshold, FixedN, RawStatistic, StoppingRule

Prefix = Tuple[int, ...]
Conditional = Union[np.ndarray, Callable[[Prefix], Sequence[float]]]

_PROB_TOL = 1e-9


@dataclass(frozen=True)
class FiniteModel:
    """Two hypotheses on sequences over a finite alphabet.

    Each hypothesis is a prior-weighted mixture of components; a
    component is either an i.i.d. symbol distribution (ndarray of K
    probabilities) or a callable mapping a prefix to the conditional
    distribution of the next symbol.  Full support is required: every
    conditional probability must be strictly positive.
    """

    alphabet_size: int
    horizon: int
    components0: Tuple[Tuple[float, Conditional], ...]
    components1: Tuple[Tuple[float, Conditional], ...]

    def __post_init__(self) -> None:
        if self.alphabet_size < 2:
            raise ValueError("alphabet must have at least two symbols")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        for name, comps in (("H0", self.components0), ("H1", self.components1)):
            if not comps:
                raise ValueError(f"{name} needs at least one component")
            total = math.fsum(w for w, _ in comps)
            if abs(total - 1.0) > _PROB_TOL:
                raise ValueError(f"{name} prior weights sum to {total}, expected 1")
            for w, cond in comps:
                if w <= 0:
                    raise ValueError("prior weights must be positive")
                if isinstance(cond, np.ndarray):
                    self._check_probs(cond)

    def _check_probs(self, p: np.ndarray) -> None:
        p = np.asarray(p, dtype=float)
        if p.shape != (self.alphabet_size,):
            raise ValueError(f"conditional must have {self.alphabet_size} entries")
        if np.any(p <= 0.0):
            raise ValueError("full support required: zero conditional mass found")
        if abs(float(p.sum()) - 1.0) > _PROB_TOL:
            raise ValueError(f"conditional masses sum to {float(p.sum())}, expected 1")

    def weights(self, k: int) -> np.ndarray:
        comps = self.components0 if k == 0 else self.components1
        return np.array([w for w, _ in comps], dtype=float)

    def cond_matrix(self, k: int, prefix: Prefix) -> np.ndarray:
        """(components x alphabet) conditional mass matrix after ``prefix``."""
        comps = self.components0 if k == 0 else self.components1
        rows = []
        for _, cond in comps:
            if isinstance(cond, np.ndarray):
                rows.append(cond)
            else:
                p = np.asarray(cond(prefix), dtype=float)
                self._check_probs(p)
                rows.append(p)
        return np.vstack(rows)

    @property
    def is_iid(self) -> bool:
        return all(
            isinstance(cond, np.ndarray)
            for _, cond in self.components0 + self.components1
        )

    # ---------------------------------------------------------------- builders

    @classmethod
    def iid(
        cls,
        horizon: int,
        components0: Sequence[Tuple[float, Sequence[float]]],
        components1: Sequence[Tuple[float, Sequence[float]]],
    ) -> "FiniteModel":
        c0 = tuple((float(w), np.asarray(p, dtype=float)) for w, p in components0)
        c1 = tuple((float(w), np.asarray(p, dtype=float)) for w, p in components1)
        k = len(c0[0][1])
        return cls(alphabet_size=k, horizon=horizon, components0=c0, components1=c1)

    @classmethod
    def bernoulli_point_vs_uniform(
        cls, horizon: int, theta0: float = 0.5, grid: int = 10_000
    ) -> "FiniteModel":
        """Point Bernoulli(theta0) null against a uniform-prior Bernoulli.

        The uniform prior on theta is discretized to ``grid`` midpoint
        atoms of equal weight, which keeps the model exactly computable
        while approximating the Beta-Bernoulli closed form to O(grid^-2).
        """
        thetas = (np.arange(grid) + 0.5) / grid
        c1 = tuple((1.0 / grid, np.array([1.0 - t, t])) for t in thetas)
        c0 = ((1.0, np.array([1.0 - theta0, theta0])),)
        return cls(alphabet_size=2, horizon=horizon, components0=c0, components1=c1)


def marginal_mass(model: FiniteModel, k: int, x: Sequence[int]) -> float:
    """Exact mixture mass of the sequence ``x`` under hypothesis ``k``."""
    if k not in (0, 1):
        raise ValueError(f"hypothesis index must be 0 or 1, got {k}")
    x = tuple(int(s) for s in x)
    if len(x) > model.horizon:
        raise ValueError(f"sequence longer than the horizon {model.horizon}")
    for s in x:
        if not (0 <= s < model.alphabet_size):
            raise ValueError(f"symbol {s} outside alphabet of size {model.alphabet_size}")
    lik = np.ones(len(model.weights(k)))
    for i, s in enumerate(x):
        lik = lik * model.cond_matrix(k, x[:i])[:, s]
    return float(model.weights(k) @ lik)


def log_beta_finite(model: FiniteModel, x: Sequence[int]) -> float:
    return math.log(marginal_mass(model, 1, x)) - math.log(marginal_mass(model, 0, x))


def trajectory_finite(model: FiniteModel, x: Sequence[int]) -> BfTrajectory:
    """Per-prefix log Bayes factors of a finite-model sequence (m = 0)."""
    x = tuple(int(s) for s in x)
    values = []
    lik0 = np.ones(len(model.weights(0)))
    lik1 = np.ones(len(model.weights(1)))
    w0, w1 = model.weights(0), model.weights(1)
    for i, s in enumerate(x):
        lik0 = lik0 * model.cond_matrix(0, x[:i])[:, s]
        lik1 = lik1 * model.cond_matrix(1, x[:i])[:, s]
        values.append(math.log(float(w1 @ lik1)) - math.log(float(w0 @ lik0)))
    return BfTrajectory(m=0, log_beta=tuple(values))


def sample_sequence(model: FiniteModel, k: int, rng: np.random.Generator) -> Tuple[int, ...]:
    """Draw a full-horizon sequence from the hypothesis-k marginal."""
    weights = model.weights(k)
    comp = int(rng.choice(len(weights), p=weights / weights.sum()))
    comps = model.components0 if k == 0 else model.components1
    cond = comps[comp][1]
    out: List[int] = []
    for i in range(model.horizon):
        p = cond if isinstance(cond, np.ndarray) else np.asarray(cond(tuple(out)), dtype=float)
        out.append(int(rng.choice(model.alphabet_size, p=p / p.sum())))
    return tuple(out)


@dataclass(frozen=True)
class TableEntry:
    sequence: Prefix
    mass0: float
    mass1: float
    log_beta: float
    stop_index: int
    max_log_beta: float


@dataclass
class ExactTable:
    """All stopped sequences of a model under one capped rule."""

    model: FiniteModel
    rule: StoppingRule
    entries: Dict[Prefix, TableEntry] = field(default_factory=dict)

    @property
    def total_mass0(self) -> float:
        return math.fsum(e.mass0 for e in self.entries.values())

    @property
    def total_mass1(self) -> float:
        return math.fsum(e.mass1 for e in self.entries.values())

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sequence", "mass0", "mass1", "log_beta", "stop_index"])
            for e in self.entries.values():
                writer.writerow(
                    [
                        "-".join(str(s) for s in e.sequence),
                        format(e.mass0, ".17g"),
                        format(e.mass1, ".17g"),
                        format(e.log_beta, ".17g"),
                        e.stop_index,
                    ]
                )


def build_table(
    model: FiniteModel, rule: StoppingRule, max_entries: int = 2**24
) -> ExactTable:
    """Depth-first enumeration of the stopped sequence tree.

    A leaf is recorded at the first prefix where the rule fires (the cap
    forces firing at the latest at ``rule.cap``), so the recorded
    sequences form a prefix-free partition of the sample space.  Raises
    :class:`ResourceLimitError` once more than ``max_entries`` leaves
    would be recorded.
    """
    if rule.cap > model.horizon:
        raise ValueError(f"rule cap {rule.cap} exceeds the model horizon {model.horizon}")
    table = ExactTable(model=model, rule=rule)
    w0, w1 = model.weights(0), model.weights(1)
    root_lik0 = np.ones(len(w0))
    root_lik1 = np.ones(len(w1))
    iid = model.is_iid
    if iid:
        m0 = model.cond_matrix(0, ())
        m1 = model.cond_matrix(1, ())

    # stack of expandable nodes: (prefix, lik0, lik1, running max of log beta)
    stack = [((), root_lik0, root_lik1, -math.inf)]
    while stack:
        prefix, lik0, lik1, max_lb = stack.pop()
        cond0 = m0 if iid else model.cond_matrix(0, prefix)
        cond1 = m1 if iid else model.cond_matrix(1, prefix)
        for sym in reversed(range(model.alphabet_size)):
            child = prefix + (sym,)
            clik0 = lik0 * cond0[:, sym]
            clik1 = lik1 * cond1[:, sym]
            mass0 = float(w0 @ clik0)
            mass1 = float(w1 @ clik1)
            lb = math.log(mass1) - math.log(mass0)
            cmax = max(max_lb, lb)
            if rule.decide(child, lb):
                if len(table.entries) >= max_entries:
                    raise ResourceLimitError(
                        f"stopped-sequence table would exceed the budget of "
                        f"{max_entries} entries"
                    )
                table.entries[child] = TableEntry(
                    sequence=child,
                    mass0=mass0,
                    mass1=mass1,
                    log_beta=lb,
                    stop_index=len(child),
                    max_log_beta=cmax,
                )
            else:
                stack.append((child, clik0, clik1, cmax))
    return table


# -------------------------------------------------------------------- checks


@dataclass(frozen=True)
class CalibrationGroup:
    log_beta: float
    beta: float
    mass0: float
    mass1: float
    ratio: float
    residual: float  # |ratio - beta| / beta


@dataclass(frozen=True)
class CalibrationReport:
    groups: Tuple[CalibrationGroup, ...]
    tol: float
    passed: bool

    @property
    def max_residual(self) -> float:
        return max((g.residual for g in self.groups), default=0.0)


def verify_calibration(table: ExactTable, tol: float) -> CalibrationReport:
    """Check that within each Bayes-factor level set, mass1/mass0 equals beta.

    Entries are grouped by log Bayes factor rounded to 12 significant
    digits, which merges float noise while keeping genuinely distinct
    values apart at the horizons this module targets.
    """
    buckets: Dict[str, List[TableEntry]] = {}
    for e in table.entries.values():
        key = format(e.log_beta + 0.0, ".12g")  # +0.0 folds -0.0 into 0.0
        buckets.setdefault(key, []).append(e)
    groups = []
    ok = True
    for key in sorted(buckets, key=float):
        members = buckets[key]
        lb = float(np.median([e.log_beta for e in members]))
        beta = math.exp(lb)
        mass0 = math.fsum(e.mass0 for e in members)
        mass1 = math.fsum(e.mass1 for e in members)
        ratio = mass1 / mass0
        residual = abs(ratio - beta) / beta
        ok = ok and residual <= tol
        groups.append(
            CalibrationGroup(
                log_beta=lb, beta=beta, mass0=mass0, mass1=mass1, ratio=ratio, residual=residual
            )
        )
    return CalibrationReport(groups=tuple(groups), tol=tol, passed=ok)


@dataclass(frozen=True)
class MarkovCheck:
    alpha: float
    probability: float

    @property
    def bound_holds(self) -> bool:
        return self.probability <= self.alpha


def verify_markov_bound(
    table: ExactTable, alphas: Sequence[SignificanceLevel]
) -> Tuple[MarkovCheck, ...]:
    """Exact P0(exists n <= cap: beta_n >= 1/alpha) for each alpha.

    The crossing event is read off the per-path running maximum, so the
    table must have been built either with the matching threshold rule
    (which stops exactly at the first crossing) or with a full-horizon
    fixed-n rule (whose paths expose the complete running maximum).
    """
    checks = []
    for level in alphas:
        thr = level.log_threshold
        prob = math.fsum(e.mass0 for e in table.entries.values() if e.max_log_beta >= thr)
        checks.append(MarkovCheck(alpha=level.alpha, probability=prob))
    return tuple(checks)


def verify_expected_stopped_bf(table: ExactTable) -> float:
    """Exact E0[beta_tau]; equals 1 for every proper-prior model and capped rule."""
    return math.fsum(e.mass0 * math.exp(e.log_beta) for e in table.entries.values())


# ------------------------------------------------------- randomized instances


def random_finite_model(
    rng: np.random.Generator,
    max_alphabet: int = 3,
    max_horizon: int = 7,
    max_components: int = 3,
    min_prob: float = 0.05,
) -> FiniteModel:
    """A random i.i.d.-mixture model with conditionals bounded away from zero."""
    k = int(rng.integers(2, max_alphabet + 1))
    horizon = int(rng.integers(2, max_horizon + 1))

    def components() -> Tuple[Tuple[float, np.ndarray], ...]:
        count = int(rng.integers(1, max_components + 1))
        weights = rng.dirichlet(np.ones(count) * 2.0)
        out = []
        for w in weights:
            p = rng.dirichlet(np.ones(k))
            p = (p + min_prob) / (1.0 + k * min_prob)
            out.append((float(w), p))
        return tuple(out)

    return FiniteModel(
        alphabet_size=k, horizon=horizon, components0=components(), components1=components()
    )


def random_rule(rng: np.random.Generator, horizon: int) -> StoppingRule:
    """A random capped rule: fixed-n, Bayes-factor corridor, or raw statistic."""
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return FixedN(n=int(rng.integers(1, horizon + 1)), cap=horizon)
    if kind == 1:
        upper = float(np.exp(rng.uniform(0.1, 1.5)))
        lower = float(np.exp(-rng.uniform(0.1, 1.5))) if rng.random() < 0.5 else None
        return BfThreshold(upper=upper, lower=lower, cap=horizon)
    threshold = float(rng.uniform(0.5, 1.5)) * horizon * 0.5
    return RawStatistic(statistic=lambda x: float(np.sum(x)), threshold=threshold, cap=horizon)
