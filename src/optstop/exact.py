"""Exhaustive-enumeration oracle on finite sample spaces.

Two engines compute exact probabilities under a finite-alphabet model.

- The stopped-sequence tree (``build_table``) enumerates every stopped
  sequence under a capped stopping rule and records its exact mass under
  both hypothesis marginals.  On these tables the three optional-stopping
  properties are checked without sampling error: grouped-mass
  calibration, the Markov bound on the threshold-crossing probability,
  and the unit expectation of the stopped Bayes factor.  The tables
  double as ground truth for the Monte Carlo engine.  Its cost grows
  as K^cap.
- The count lattice (``crossing_probabilities``) computes the Markov
  bound's crossing probabilities alone, over count vectors.  Each
  hypothesis is a mixture of i.i.d. laws, so a sequence's mass under
  either, and with them beta_n, depends only on how often each symbol
  occurs; every sequence with one count vector has the masses of its
  sorted sequence.  The rule "reject once beta >= 1/alpha" reads only
  beta_n, so whether a path has crossed by step n is decided state by
  state, and the number of paths that reach a state without crossing is
  an exact integer recursion over its predecessors.  Its cost grows as
  C(H + K, K): (H + 1)(H + 2)/2 states for K = 2.  The tree stays the
  oracle it is tested against, and the engine of every per-sequence
  table.

The tree is enumerated depth first in the calling process, every node's
masses from its parent's per-component likelihoods.  A table is columns
in enumeration order, with no Python object per stopped sequence: the
sequences' symbols back to back in one array of the narrowest unsigned
type that holds K - 1, and an int64 or float64 array each of stop
indices, H0 and H1 masses, log Bayes factors and their running maxima.
A leaf takes 40 bytes plus one a symbol (K <= 256), so the default
budget of 2**24 leaves bounds a table at about 1 GB; one named tuple
per leaf in a dict, about 391 bytes each, came to about 6.5 GB.  The
leaves grow in typed arrays that the table's columns view without a
copy, and iterating a table gives its rows as ``TableEntry`` tuples.

Masses are kept in linear space.  Both engines make a child's
per-component likelihoods, masses and log beta from its parent's in one
child step (``_child_step``), which refuses, naming n, a mass under
either hypothesis that is not a positive normal double: a subnormal mass
has lost bits and 0 has no log.  The tree's products stay far from that
threshold unless a symbol is rare (mass 1e-32 reaches it at n = 10); the
lattice reaches horizons in the thousands.  ``log_beta_paths`` refuses
the same masses, and the finite Monte Carlo engine those a trial reads
up to its stop.  Reductions over rows use ``math.fsum`` so the
verification tolerances are limited by the model's own arithmetic, not
by summation order.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import BfTrajectory, SignificanceLevel, write_csv
from .errors import ResourceLimitError
from .stopping import BfThreshold, FixedN, RawStatistic, StoppingRule

Prefix = Tuple[int, ...]

_PROB_TOL = 1e-9
_NORMAL = sys.float_info.min  # the least positive normal double: an exact mass below it is refused
MAX_PRIOR_GRID = 10**6  # uniform-prior atoms: about 24 MB of weights and masses at the limit
# crossing_probabilities refuses a count lattice of more than MAX_LATTICE_CELLS
# cells, (H0 + H1 components + _NODE_CELLS) x count vectors, before any mass: a
# state costs what a tree node does, its products and dot products over the
# components plus a fixed cost about that of _NODE_CELLS components.  Horizon
# 1000 at grid 1,000 (K = 2) is 2.6e9 cells, about 5 s on one CPU; horizon 10^6
# is over 10^15
_NODE_CELLS = 4096
MAX_LATTICE_CELLS = 2**32


@dataclass(frozen=True)
class _Mixture:
    """One hypothesis's mixture, prepared once per model.

    Row s of ``by_symbol`` holds every component's mass of symbol s, so
    one gather gives a whole batch of sequences its next factors.
    """

    weights: np.ndarray  # (components,)
    by_symbol: np.ndarray  # (alphabet x components), C-contiguous

    @cached_property
    def weight_cdf(self) -> np.ndarray:
        """Sampling CDF (:func:`_cdf`) of the weights, built on the first draw."""
        return _cdf(self.weights)

    def symbol_cdf(self, comp: int) -> np.ndarray:
        """Sampling CDF of component ``comp``'s symbols, formed at each draw.

        A few microseconds a draw; a cached CDF of every component would be
        a second (components x alphabet) copy of the model.
        """
        return _cdf(np.ascontiguousarray(self.by_symbol[:, comp]))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _cdf(p: np.ndarray) -> np.ndarray:
    """Normalized CDF of masses ``p`` along the last axis, as ``rng.choice`` forms it.

    ``rng.choice(n, p=p / p.sum())`` cumulates the normalized masses,
    divides by the last partial sum and returns ``searchsorted(cdf, u,
    side="right")`` for one uniform u; this repeats those operations.
    """
    p = p / p.sum(axis=-1, keepdims=True)
    cdf = np.cumsum(p, axis=-1)
    return cdf / cdf[..., -1:]


@dataclass(frozen=True, eq=False)
class FiniteModel:
    """Two hypotheses on sequences over a finite alphabet.

    Each hypothesis is a prior-weighted mixture of C i.i.d. components,
    given as two arrays in any form numpy reads: ``weights`` of shape
    (C,) and ``masses`` of shape (C x K), row c the distribution of every
    symbol under component c.  Full support is required: every mass must
    be strictly positive.  Both arrays are checked in whole-array
    operations and copied once at construction; the model keeps only
    those copies, read-only, and no object per component.
    """

    alphabet_size: int
    horizon: int
    weights0: InitVar[Sequence[float]]
    masses0: InitVar[Sequence[Sequence[float]]]
    weights1: InitVar[Sequence[float]]
    masses1: InitVar[Sequence[Sequence[float]]]

    def __post_init__(self, weights0, masses0, weights1, masses1) -> None:
        if self.alphabet_size < 2:
            raise ValueError("alphabet must have at least two symbols")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        mixtures = (
            self._prepare("H0", weights0, masses0),
            self._prepare("H1", weights1, masses1),
        )
        object.__setattr__(self, "_mixtures", mixtures)

    def _prepare(self, name: str, weights, masses) -> _Mixture:
        """One hypothesis's arrays, copied and checked: weights summing to 1, full-support rows."""
        try:
            w = np.array(weights, dtype=float)
        except (TypeError, ValueError) as exc:  # not numbers, or a ragged sequence
            raise ValueError("prior weights must be positive and finite") from exc
        if w.ndim != 1:
            raise ValueError(f"{name} prior weights must be a vector, got shape {w.shape}")
        if not len(w):
            raise ValueError(f"{name} needs at least one component")
        if not np.all((w > 0.0) & (w < math.inf)):  # NaN fails too
            raise ValueError("prior weights must be positive and finite")
        total = math.fsum(memoryview(w))
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"{name} prior weights sum to {total}, expected 1")
        wrong_shape = ValueError(f"conditional must have {self.alphabet_size} entries")
        try:
            # column-major, so that the transpose kept below is C-contiguous without a copy
            p = np.array(masses, dtype=float, order="F")
        except (TypeError, ValueError) as exc:  # not numbers, or rows of unequal length
            raise wrong_shape from exc
        if p.ndim != 2 or p.shape[1] != self.alphabet_size:
            raise wrong_shape
        if len(p) != len(w):
            raise ValueError(f"{name} has {len(w)} prior weights but {len(p)} rows of masses")
        if not np.all(np.isfinite(p)):
            raise ValueError("conditional masses must be finite")
        if np.any(p <= 0.0):
            raise ValueError("full support required: zero conditional mass found")
        dev = p.sum(axis=1)  # each row's distance from a unit sum, in one (C,) buffer
        dev -= 1.0
        off = np.flatnonzero(np.abs(dev, out=dev) > _PROB_TOL)
        if len(off):
            raise ValueError(f"conditional masses sum to {float(p[off[0]].sum())}, expected 1")
        return _Mixture(weights=_read_only(w), by_symbol=_read_only(p).T)

    def _mixture(self, k: int) -> _Mixture:
        """Hypothesis k's mixture; ``ValueError`` unless k is 0 or 1."""
        if k not in (0, 1):
            raise ValueError(f"hypothesis index must be 0 or 1, got {k}")
        return self._mixtures[k]

    def weights(self, k: int) -> np.ndarray:
        """Prior weights of the hypothesis-k components (read-only)."""
        return self._mixture(k).weights

    def cond_matrix(self, k: int) -> np.ndarray:
        """(components x alphabet) symbol masses of the hypothesis-k components (read-only)."""
        return self._mixture(k).by_symbol.T

    # ---------------------------------------------------------------- builders

    @classmethod
    def bernoulli_point_vs_uniform(
        cls, horizon: int, theta0: float = 0.5, grid: int = 10_000
    ) -> "FiniteModel":
        """Point Bernoulli(theta0) null against a uniform-prior Bernoulli.

        The uniform prior on theta is discretized to ``grid`` midpoint
        atoms of equal weight, which keeps the model exactly computable
        while approximating the Beta-Bernoulli closed form to O(grid^-2).
        """
        if grid > MAX_PRIOR_GRID:
            raise ResourceLimitError(
                f"prior grid {grid} exceeds the budget of {MAX_PRIOR_GRID} atoms"
            )
        thetas = (np.arange(grid) + 0.5) / grid
        return cls(
            alphabet_size=2,
            horizon=horizon,
            weights0=[1.0],
            masses0=[[1.0 - theta0, theta0]],
            weights1=np.full(grid, 1.0 / grid),
            masses1=np.stack([1.0 - thetas, thetas], axis=1),
        )


def _as_sequences(model: FiniteModel, seqs) -> np.ndarray:
    """Sequences of equal length as a (rows x length) int array, checked."""
    seqs = np.asarray(seqs, dtype=np.int64)
    if seqs.ndim != 2:
        raise ValueError("sequences must form a (rows x length) array")
    if seqs.shape[1] > model.horizon:
        raise ValueError(f"sequence longer than the horizon {model.horizon}")
    bad = (seqs < 0) | (seqs >= model.alphabet_size)
    if np.any(bad):
        raise ValueError(
            f"symbol {int(seqs[bad][0])} outside alphabet of size {model.alphabet_size}"
        )
    return seqs


def _prefix_masses(model: FiniteModel, k: int, seqs: np.ndarray) -> np.ndarray:
    """(rows x length) mixture mass under hypothesis k of every prefix of every row.

    One running likelihood per (row, component), multiplied by each
    component's conditional mass of the next symbol.  Each row's mixture
    mass is reduced from that row alone (a C-contiguous sum over axis 1),
    so a row's values do not depend on which rows share the batch.
    """
    mix = model._mixture(k)
    rows, length = seqs.shape
    lik = np.ones((rows, len(mix.weights)))
    step = np.empty_like(lik)
    out = np.empty((rows, length))
    for i in range(length):
        np.take(mix.by_symbol, seqs[:, i], axis=0, out=step)
        lik *= step
        np.multiply(lik, mix.weights, out=step)
        out[:, i] = step.sum(axis=1)
    return out


def _mass_refusal(n: int, mass0: float, mass1: float) -> ResourceLimitError:
    """The error for a sequence of n symbols whose masses are not both positive normal doubles."""
    return ResourceLimitError(
        f"a sequence of n = {n} symbols has mass {mass0!r} under H0 and {mass1!r} "
        "under H1: exact log Bayes factors need both to be positive normal doubles"
    )


def _log_beta_rows(model: FiniteModel, seqs) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log beta_n and the H0 and H1 masses of every prefix of every row of ``seqs``.

    Nothing is refused here: where a mass is not a positive normal double
    log beta is wrong or infinite, and each caller refuses the prefixes it
    reads (:func:`_refuse_non_normal`).
    """
    seqs = _as_sequences(model, seqs)
    mass0, mass1 = _prefix_masses(model, 0, seqs), _prefix_masses(model, 1, seqs)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(mass1) - np.log(mass0), mass0, mass1


def _refuse_non_normal(mass0: np.ndarray, mass1: np.ndarray, lengths) -> None:
    """Raise :func:`_mass_refusal` at the first prefix, in row order, of non-normal mass.

    Only the first ``lengths[i]`` prefixes of row i are checked.
    """
    low = ~(np.minimum(mass0, mass1) >= _NORMAL)  # NaN is low too
    low &= np.arange(mass0.shape[1]) < np.asarray(lengths)[:, None]
    if low.any():
        row, col = np.argwhere(low)[0].tolist()
        raise _mass_refusal(col + 1, float(mass0[row, col]), float(mass1[row, col]))


def log_beta_paths(model: FiniteModel, seqs) -> np.ndarray:
    """log beta_n for n = 1..length of every row of ``seqs`` (rows x length).

    Raises :class:`ResourceLimitError` naming n (:func:`_mass_refusal`)
    at the first prefix, in row order, whose mass under either
    hypothesis is not a positive normal double.
    """
    log_beta, mass0, mass1 = _log_beta_rows(model, seqs)
    _refuse_non_normal(mass0, mass1, np.full(len(log_beta), log_beta.shape[1]))
    return log_beta


def marginal_mass(model: FiniteModel, k: int, x: Sequence[int]) -> float:
    """Exact mixture mass of the sequence ``x`` under hypothesis ``k``."""
    seqs = _as_sequences(model, [x])
    if seqs.shape[1] == 0:
        return float(model.weights(k).sum())
    return float(_prefix_masses(model, k, seqs)[0, -1])


def trajectory_finite(model: FiniteModel, x: Sequence[int]) -> BfTrajectory:
    """Per-prefix log Bayes factors of a finite-model sequence (m = 0).

    The one-row case of :func:`log_beta_paths`, so it equals the
    sequence's row of any batch bit for bit.
    """
    return BfTrajectory(tuple(log_beta_paths(model, [x])[0].tolist()))


def sample_sequence(model: FiniteModel, k: int, rng: np.random.Generator) -> Tuple[int, ...]:
    """Draw a full-horizon sequence from the hypothesis-k marginal.

    One ``rng.random(horizon + 1)`` gives the uniforms: the first picks
    the component and each later one the next symbol, by
    ``searchsorted(side="right")`` on a CDF from :func:`_cdf`: the
    weights', cached per model, then the drawn component's.  The
    sequence, and the generator's state afterwards, are those of one
    ``rng.choice`` per draw, bit for bit.
    """
    mix = model._mixture(k)
    u = rng.random(model.horizon + 1)
    comp = int(np.searchsorted(mix.weight_cdf, u[0], side="right"))
    return tuple(np.searchsorted(mix.symbol_cdf(comp), u[1:], side="right").tolist())


class TableEntry(NamedTuple):
    """One row of an :class:`ExactTable`, as iterating the table gives it."""

    sequence: Prefix
    mass0: float
    mass1: float
    log_beta: float
    stop_index: int
    max_log_beta: float


@dataclass(frozen=True, eq=False)
class ExactTable:
    """All stopped sequences of a model under one capped rule: columns, in enumeration order.

    Row i is the sequence of ``stop_index[i]`` symbols that follows rows
    0 to i - 1 in ``symbols``, with its masses under H0 and H1, its log
    Bayes factor and the running maximum of log beta up to its stop.
    ``symbols`` has the narrowest unsigned dtype that holds K - 1, and
    the other columns are int64 and float64: a row takes 40 bytes plus
    its symbols, one byte each for K <= 256.  The columns are read-only,
    and those :func:`build_table` gives view the typed arrays its leaves
    grew in, without a copy.  ``len`` counts the rows, and iterating the
    table gives them as :class:`TableEntry` tuples.
    """

    model: FiniteModel
    rule: StoppingRule
    symbols: np.ndarray
    stop_index: np.ndarray
    mass0: np.ndarray
    mass1: np.ndarray
    log_beta: np.ndarray
    max_log_beta: np.ndarray

    def __len__(self) -> int:
        return len(self.stop_index)

    def __iter__(self) -> Iterator[TableEntry]:
        columns = (self.mass0, self.mass1, self.log_beta, self.stop_index, self.max_log_beta)
        for seq, *fields in zip(self._sequences(), *(c.tolist() for c in columns)):
            yield TableEntry(tuple(seq), *fields)

    @property
    def entries(self) -> "ExactTable":
        """The table itself, as its row view: the name perfbench's tracer counts leaves by."""
        return self

    def _sequences(self) -> Iterator[List[int]]:
        """Each row's symbols, in row order."""
        symbols = self.symbols.tolist()
        ends = np.cumsum(self.stop_index).tolist()
        return (symbols[a:b] for a, b in zip([0] + ends, ends))

    def to_csv(self, path) -> None:
        def real(column):
            return [format(v, ".17g") for v in column.tolist()]

        write_csv(
            path,
            ["sequence", "mass0", "mass1", "log_beta", "stop_index"],
            (
                ["-".join(map(str, seq)), *fields]
                for seq, *fields in zip(
                    self._sequences(), real(self.mass0), real(self.mass1), real(self.log_beta),
                    self.stop_index.tolist(),
                )
            ),
        )


def build_table(
    model: FiniteModel, rule: StoppingRule, max_entries: int = 2**24
) -> ExactTable:
    """Depth-first enumeration of the stopped sequence tree.

    A leaf is recorded at the first prefix where the rule fires (the cap
    forces firing at the latest at ``rule.cap``), so the recorded
    sequences form a prefix-free partition of the sample space.  Open
    nodes are popped from a stack, and every stopped sequence is appended
    in the order it is reached: a node's stopped children, last symbol
    first, come before the subtrees of its open children, first symbol
    first.  Each child's masses and log beta come from its parent's
    per-component likelihoods through :func:`_child_step`, the count
    lattice's step too.

    Raises :class:`ResourceLimitError` once more than ``max_entries``
    leaves would be recorded, and at the first node whose mass under
    either hypothesis is not a positive normal double.  An error of the
    rule's own callable (the statistic of ``RawStatistic`` or
    ``InvariantStatistic``) raises as itself.

    The leaves are kept as columns (:class:`ExactTable`), 40 bytes plus
    one byte a symbol each for K <= 256, with no Python object per leaf:
    the default budget of 2**24 leaves bounds the table at about 1 GB
    (0.9 GB at cap 12), where a dict of one named tuple per leaf, about
    391 bytes each, came to about 6.5 GB.  The columns are read-only
    views of the typed arrays the leaves grow in, so one copy is held.
    """
    if rule.cap > model.horizon:
        raise ValueError(f"rule cap {rule.cap} exceeds the model horizon {model.horizon}")
    step = _child_step(model)
    symbols = array(np.min_scalar_type(model.alphabet_size - 1).char)
    columns = (symbols, array("q"), array("d"), array("d"), array("d"), array("d"))
    symbols, stop_index, masses0, masses1, log_betas, max_log_betas = columns
    # a node of the tree: (prefix, lik0, lik1, running max of log beta)
    stack = [((), np.ones(len(model.weights(0))), np.ones(len(model.weights(1))), -math.inf)]
    while stack:
        prefix, lik0, lik1, max_lb = stack.pop()
        for sym in reversed(range(model.alphabet_size)):
            child = prefix + (sym,)
            clik0, clik1, mass0, mass1, lb = step(lik0, lik1, sym, len(child))
            cmax = max(max_lb, lb)
            if rule.decide(child, lb):
                if len(stop_index) >= max_entries:
                    raise ResourceLimitError(
                        f"stopped-sequence table would exceed the budget of {max_entries} entries"
                    )
                symbols.extend(child)
                stop_index.append(len(child))
                masses0.append(mass0)
                masses1.append(mass1)
                log_betas.append(lb)
                max_log_betas.append(cmax)
            else:
                stack.append((child, clik0, clik1, cmax))
    return ExactTable(model, rule, *(_read_only(np.asarray(column)) for column in columns))


def _child_step(model: FiniteModel):
    """The one node step of both exact engines, over ``model``'s arrays.

    ``step(lik0, lik1, sym, n)`` takes each component's likelihood of a
    sequence under H0 and H1 and gives, for that sequence followed by
    ``sym`` (n symbols in all), each component's likelihood under H0 and
    H1, the two mixture masses and log beta.  It raises
    :class:`ResourceLimitError` naming n unless both masses are positive
    normal doubles (:func:`_mass_refusal`).
    """
    w0, w1 = model.weights(0), model.weights(1)
    cond0, cond1 = model.cond_matrix(0), model.cond_matrix(1)

    def step(lik0: np.ndarray, lik1: np.ndarray, sym: int, n: int):
        clik0 = lik0 * cond0[:, sym]
        clik1 = lik1 * cond1[:, sym]
        mass0 = float(w0 @ clik0)
        mass1 = float(w1 @ clik1)
        if not (mass0 >= _NORMAL and mass1 >= _NORMAL):  # NaN fails too
            raise _mass_refusal(n, mass0, mass1)
        return clik0, clik1, mass0, mass1, math.log(mass1) - math.log(mass0)

    return step


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

    Rows are grouped by log Bayes factor rounded to 12 significant
    digits, which merges float noise while keeping genuinely distinct
    values apart at the horizons this module targets.
    """
    buckets: Dict[str, List[int]] = {}
    for i, log_beta in enumerate(table.log_beta.tolist()):
        key = format(log_beta + 0.0, ".12g")  # +0.0 folds -0.0 into 0.0
        buckets.setdefault(key, []).append(i)
    groups = []
    ok = True
    for key in sorted(buckets, key=float):
        members = buckets[key]  # row numbers, in row order
        lb = float(np.median(table.log_beta[members]))
        beta = math.exp(lb)
        mass0 = math.fsum(table.mass0[members].tolist())
        mass1 = math.fsum(table.mass1[members].tolist())
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

    The crossing event is read off the per-path running maximum up to the
    stop, which shows it only if the table's rule never stops a path
    before that path could first reach 1/alpha: a one-sided
    ``BfThreshold`` with ``upper >= 1/alpha`` (a path it stops early has
    already crossed every lower threshold, so one table built at the
    smallest alpha answers every larger one), or a ``FixedN`` with
    ``n == cap``.  Any other rule raises ``ValueError``.
    """
    checks = []
    for level in alphas:
        if not table.rule.exposes_crossing(1.0 / level.alpha):
            raise ValueError(
                f"a table built with {type(table.rule).__name__} cannot show whether beta "
                f"reached {1.0 / level.alpha:g}; build it with a one-sided BfThreshold whose "
                "upper threshold is at least 1/alpha, or with FixedN(n=cap)"
            )
        thr = level.log_threshold
        prob = math.fsum(table.mass0[table.max_log_beta >= thr].tolist())
        checks.append(MarkovCheck(alpha=level.alpha, probability=prob))
    return tuple(checks)


def crossing_probabilities(
    model: FiniteModel, alphas: Sequence[SignificanceLevel]
) -> Tuple[MarkovCheck, ...]:
    """Exact P0(exists n <= horizon: beta_n >= 1/alpha) for each alpha, on the count lattice.

    The rows ``verify_markov_bound`` gives for the table of
    ``BfThreshold(upper=1/min alpha, cap=horizon)``, computed over the
    count vectors of at most ``horizon`` symbols (C(H + K, K) states)
    instead of the stopped sequences (up to K^H).  Both hypotheses are
    mixtures of i.i.d. laws, so every sequence with one count vector has
    one beta_n and one mass under each hypothesis; each state's are
    those of its sorted sequence (all 0s, then all 1s, ...), made by
    the tree's own child step (``_child_step``), so they equal the
    tree's for that sequence bit for bit.  At each level, a state's
    paths are the exact number of sequences that reach it without beta
    crossing 1/alpha before it, the sum of its open predecessors'; a
    state with beta >= 1/alpha absorbs them, and P0 is the ``math.fsum``
    of paths x null mass over the absorbing states.

    Raises ``ResourceLimitError`` before any mass is computed when the
    lattice has more than ``MAX_LATTICE_CELLS`` cells, and, through the
    child step, at the first state whose mass under either hypothesis is
    not a positive normal double.
    """
    alphabet, horizon = model.alphabet_size, model.horizon
    w0, w1 = model.weights(0), model.weights(1)
    states = math.comb(horizon + alphabet, alphabet)
    cells = (len(w0) + len(w1) + _NODE_CELLS) * states
    if cells > MAX_LATTICE_CELLS:
        raise ResourceLimitError(
            f"the count lattice of {states} states at horizon {horizon} has {cells} cells, "
            f"over the budget of {MAX_LATTICE_CELLS}"
        )
    thresholds = [level.log_threshold for level in alphas]
    step = _child_step(model)
    # lik[s]: each component's likelihood of the sorted sequence's symbols up to s
    lik0, lik1 = [np.ones(len(w0))] * alphabet, [np.ones(len(w1))] * alphabet
    paths = {0: [1] * len(thresholds)}  # an open state's paths per level, by key; 0 the root
    crossed: List[List[float]] = [[] for _ in thresholds]
    for n, sym, key, last, others in _count_states(alphabet, horizon):
        clik0, clik1, mass0, _, lb = step(lik0[sym], lik1[sym], sym, n)
        lik0[sym:] = [clik0] * (alphabet - sym)
        lik1[sym:] = [clik1] * (alphabet - sym)
        reach = [0] * len(thresholds)
        # c is the last successor of c less one 0, which is dropped here
        for prev in filter(None, (paths.pop(last, None), *map(paths.get, others))):
            reach = [a + b for a, b in zip(reach, prev)]
        for i, thr in enumerate(thresholds):
            if reach[i] and lb >= thr:
                crossed[i].append(reach[i] * mass0)  # reach <= 1 / mass0: a finite double
                reach[i] = 0
        if n < horizon and any(reach):
            paths[key] = reach
    return tuple(
        MarkovCheck(alpha=level.alpha, probability=math.fsum(terms))
        for level, terms in zip(alphas, crossed)
    )


def _count_states(
    alphabet_size: int, horizon: int
) -> Iterator[Tuple[int, int, int, Optional[int], List[int]]]:
    """Every count vector of 1 to ``horizon`` symbols, in lexicographic order.

    Yields (n, symbol, key, last, others) for each vector c of n symbols.
    c is the vector before it with count ``symbol`` one higher and every
    later count zero, so c's sorted sequence is the previous vector's
    sorted sequence up to ``symbol``, plus one ``symbol``.  ``key`` is
    the sum of c_s (horizon + 1)^s; ``last`` is the key of c less one 0
    (None without a 0), of which c is the last successor, and ``others``
    the keys of c less one of each later symbol it holds.  Every one of
    them comes before c.
    """
    radix = [(horizon + 1) ** s for s in range(alphabet_size)]
    counts = [0] * alphabet_size
    n = key = 0
    while True:
        sym = alphabet_size - 1
        if n == horizon:  # the last nonzero count goes back to zero, the one before it up
            while not counts[sym]:
                sym -= 1
            if sym == 0:
                return
            n -= counts[sym]
            key -= counts[sym] * radix[sym]
            counts[sym] = 0
            sym -= 1
        counts[sym] += 1
        n += 1
        key += radix[sym]
        yield (n, sym, key, key - 1 if counts[0] else None,
               [key - radix[s] for s in range(1, alphabet_size) if counts[s]])


def verify_expected_stopped_bf(table: ExactTable) -> float:
    """Exact E0[beta_tau]; equals 1 for every proper-prior model and capped rule."""
    return math.fsum(
        m * math.exp(lb) for m, lb in zip(table.mass0.tolist(), table.log_beta.tolist())
    )


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

    def mixture() -> Tuple[np.ndarray, np.ndarray]:
        count = int(rng.integers(1, max_components + 1))
        weights = rng.dirichlet(np.ones(count) * 2.0)
        masses = rng.dirichlet(np.ones(k), size=count)  # the draws of one call per row
        return weights, (masses + min_prob) / (1.0 + k * min_prob)

    weights0, masses0 = mixture()
    weights1, masses1 = mixture()
    return FiniteModel(k, horizon, weights0, masses0, weights1, masses1)


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
