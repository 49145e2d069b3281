"""Trial engine and the estimators built on its records.

Reproducibility model
    Every trial owns a counter-based Philox stream keyed by a 64-bit
    digest of (experiment seed, hypothesis, nuisance value, run variant)
    in one key word and the trial index in the other.  A trial's draws
    are therefore a pure function of (seed, configuration, trial index):
    neither the block layout nor which trials ran before it can change a
    single record.  A block builds one Philox generator and re-keys it
    for each trial (counter 0, empty buffer: the state a freshly built
    ``Philox(key=[key, trial])`` starts in), then draws the trial's row
    up front in one ``standard_normal`` call: the leading normals of
    hypothesis k's effect prior, ``pair.effect(k)`` (a Cauchy effect is
    r * (z0 / z1) from two, numpy's ``standard_cauchy`` bit for bit; a
    point mass, the null's among them, takes none), then one normal per
    observation.  A marginal run draws the trial's posterior state under
    that prior before its row, and again before each replay of it.  A
    run's segment (see below) runs in blocks of two kinds, each block's
    kind and size chosen as it starts, from its head: the steps up to
    the first chunk's end past which at most 1 in ``LAZY_TAIL`` of the
    segment's earlier trials ran, if that lies within half the cap, and
    else the cap.  A block of heads holds ``BLOCK_SIZE`` trials.  Before
    its first chunk that reads past the head, every trial still running
    is re-keyed and replays its whole row, the same values from the
    same stream, into a buffer of its own, and the heads are released.
    A block whose head is the cap, a segment's first among them (it has
    no earlier trials), draws full rows, the largest draws a run makes,
    and holds ``FULL_BLOCK_SIZE`` trials; its chunks then read fewer
    cells at a time, which a read of at most
    ``ScaleBfCurves.SCALAR_CELLS`` cells keeps cheap.  The rare trial
    whose initial sample falls in the excluded set is re-keyed,
    replays its full row and continues its own stream for the
    replacement.  Blocks hold at most
    ``DRAW_BUFFER_BYTES`` of observation draws (an effect's leading
    normals ride along), each block in memory mappings of its own
    (``_draw_buffer``) that are returned to the system when the block
    is done with them.  A run whose single row of observation draws
    would exceed that budget, or whose records would take more than
    ``RECORD_BUDGET_BYTES``, is refused with ``ResourceLimitError``
    before any table is built.

Worker processes
    A call's runs (``run_trials_many``, ``run_marginal_trials_many``; a
    one-run call is one of them) are one split job of ``optstop.workers``.
    Its items are every run's trials, run after run, and they are split
    into contiguous groups of equal size (to a trial): at most one group
    per ``BLOCK_SIZE`` trials of the call's runs (so a small run of full
    rows stays one group), and no more than can each map, within
    ``RUN_DRAW_BYTES``, the most draws one of the call's blocks maps at
    once (``_mapped_bytes``: heads up to half the cap with a replay
    buffer, or a block of full rows).  A group runs each run segment its
    range covers in that run's blocks, with a lazy-head history of its
    own per segment, so a segment's first block draws full rows and each
    later block the head its history calls for.  Each run's plan (trials
    per block, per-n bounds, a marginal run's log beta offset) and every
    table it reads are fixed before the fork.  Each group returns its
    segments' record columns, and the caller joins each run's in group
    order.

Records
    A run returns one :class:`TrialRecords` batch: an array each of stop
    index, stopped log beta and trial index, with the hypothesis, seed,
    rule and scale g kept once (a marginal run keeps each trial's drawn
    scale in an array too), built once, at the join, with trial indices
    0 to n_trials - 1.  The estimators read the arrays and
    ``records_to_csv`` formats rows from them a slice at a time; a
    :class:`TrialRecord` row exists only where a batch is iterated.  A
    non-finite stopped log beta fails the run.

Trajectory evaluation
    Trials run on scale-group pairs only, in lockstep over whole blocks,
    STEP_CHUNK steps at a time.  At each chunk the active trials' draws
    for its steps are gathered once into a (steps x trials) buffer, one
    contiguous row per step, and the running statistics (sum, sum of
    squares) are accumulated row by row on compact arrays.  They
    determine the invariant coordinate at each step, and the log Bayes
    factor comes from the Chebyshev tables of
    :class:`~optstop.models.ScaleBfCurves`.  The tables a rule's
    boundaries or a read by the trials needs are built together, the
    first time they are needed, and kept for the process; each spans
    every value the invariant coordinate can take, so every stopping
    decision thresholds the same deterministic function of the maximal
    invariant and no trial leaves the vectorized path.
    The tables are evaluated only where a trial can stop.  log beta_n
    increases strictly in one invariant coordinate, the effect prior's
    ``coordinate`` (q, or the signed t), so each of a threshold rule's
    ``log_bars`` is a per-n bound on it (``ScaleBfCurves.boundary``,
    taken from the tables and widened past their error).  Within a chunk
    every (trial, n) cell beyond a bound is marked with its coordinate;
    the others cannot meet a bar.  A rule without bars marks the cells
    where it fires.  The marked cells are then read in waves: wave r
    reads the r-th marked cell of every trial still running, all in one
    ``log_bf_cells`` call, and the rule decides those cells at once
    (``StoppingRule.decide_batch`` with an n per cell); a trial that
    fires stops there, and its later cells are dropped.  Every trial
    still running after the cap's step stops at the cap.  So each
    trial's cells are read in order up to its stop, exactly the cells
    that evaluating every active trial at every step would reach, and
    each value is the same elementwise table evaluation: the records
    equal those of the per-step kernel bit for bit, for any chunk width.

Pass criteria
    Calibration checks bin stopped values into equal-count bins and
    require the bin's geometric-mean Bayes factor to fall inside the 95%
    confidence interval of the alternative/null frequency ratio for at
    least 93% of usable bins; 93% is a test-design constant (nominal
    coverage minus multiplicity slack), not a theoretical quantity.
    Mean and rate checks use three standard errors.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import mmap
import struct
from dataclasses import dataclass
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .core import NEVER, BfTrajectory, SignificanceLevel, rewrite, stop
from .errors import OptstopError, ResourceLimitError
from .exact import FiniteModel, log_beta_paths, sample_sequence
from .models import InvariantModelPair, ScaleBfCurves
from .stopping import StoppingRule
from . import workers
from .workers import worker_count  # noqa: F401  (re-exported: the CPUs a run may fork over)

BLOCK_SIZE = 8192
# a block whose head is the cap (full rows) holds at most this many
# trials: a cap-200 null block of 2,048 maps 3.3 MB of draws, where one of
# 7,168 mapped 11.5 MB, and the smaller reads its chunks make stay cheap
# (ScaleBfCurves.SCALAR_CELLS).  Blocks of heads keep BLOCK_SIZE: a
# corridor's chunks read 20 to 60 cells at a time, and in blocks of 2,048 a
# cap-100 corridor run was 15-20% slower on 2 vCPUs (layout only: never
# changes a record)
FULL_BLOCK_SIZE = 2048
# steps a block advances between table reads (layout only: never changes a record)
STEP_CHUNK = 8
# a block's draws, (trials x draws per trial) doubles, take at most this;
# a long cap gets fewer trials per block (block layout never changes a record)
DRAW_BUFFER_BYTES = 64 * 2**20
# a run's processes together map at most this of draws, a block each
RUN_DRAW_BYTES = 4 * DRAW_BUFFER_BYTES
# a block draws its rows only up to the first chunk's end past which at most
# 1 in LAZY_TAIL of its segment's earlier trials ran, if that lies within half
# the cap, and _mapped_bytes bounds its replay buffer by the 1 in LAZY_TAIL of
# its trials that such a head leaves running (layout only: never changes a record)
LAZY_TAIL = 8
# a run's records, 8 bytes per trial in each column (stop index, stopped log
# beta, trial index; a marginal run's drawn scale too), take at most this: the
# budget is per run.  A many-run call holds every run's records; while it joins
# one run's columns from its groups' parts it holds up to twice that run's
# bytes, and a forked group's share passes through its unnamed temporary file
RECORD_BUDGET_BYTES = 2**30
# (trials x components) likelihood cells per finite-model chunk: each of the
# two slabs of exact._prefix_masses (running likelihoods, next factors) holds
# at most 512 KB of doubles
FINITE_CHUNK_CELLS = 2**16
DEFAULT_BINS = 30
BIN_PASS_FRACTION = 0.93
MAX_BIN_WIDTH = 0.2  # nats; see estimate_strong_calibration
Z95 = 1.959963984540054

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class TrialRecord:
    """One stopped trial, as a row of :class:`TrialRecords`; fields are Python scalars."""

    k: int
    g: float
    stop_index: int
    stopped_log_beta: float
    seed: int
    trial: int


def _bits(x) -> Tuple[str, tuple, bytes]:
    a = np.asarray(x)
    return a.dtype.str, a.shape, a.tobytes()


@dataclass(frozen=True, eq=False)
class TrialRecords:
    """The records of one run, column by column; rerunning the run reproduces them.

    ``stop_index``, ``stopped_log_beta`` and ``trial`` hold one entry per
    trial.  ``k``, ``seed`` and ``rule`` are the run's, and so is ``g``:
    its nuisance value (a scale, or NaN on a finite model), or, for a
    marginal run, whose trials draw it, an array of one value per trial.
    Iteration gives :class:`TrialRecord` rows.
    ``==`` is exact: the same run and bit-identical columns.
    """

    k: int
    g: Union[float, np.ndarray]
    seed: int
    rule: StoppingRule
    stop_index: np.ndarray
    stopped_log_beta: np.ndarray
    trial: np.ndarray

    @property
    def per_trial_g(self) -> bool:
        return isinstance(self.g, np.ndarray)

    def __len__(self) -> int:
        return len(self.trial)

    def __iter__(self) -> Iterator[TrialRecord]:
        gs = self.g.tolist() if self.per_trial_g else itertools.repeat(self.g)
        columns = self.stop_index.tolist(), self.stopped_log_beta.tolist(), self.trial.tolist()
        for g, n, lb, t in zip(gs, *columns):
            yield TrialRecord(self.k, g, n, lb, self.seed, t)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TrialRecords):
            return NotImplemented
        return (self.k, self.seed, self.rule) == (other.k, other.seed, other.rule) and all(
            _bits(getattr(self, c)) == _bits(getattr(other, c))
            for c in ("g", "stop_index", "stopped_log_beta", "trial")
        )

    @staticmethod
    def empty(k: int, g, seed: int, rule: StoppingRule) -> "TrialRecords":
        return TrialRecords(
            k, g, seed, rule, np.empty(0, dtype=np.int64), np.empty(0), np.empty(0, dtype=np.int64)
        )


def check_seed(seed: int) -> int:
    """``seed`` as an int: ``ValueError`` unless it is a signed 64-bit integer."""
    if not -(2**63) <= int(seed) < 2**63:
        raise ValueError(f"seed must be a signed 64-bit integer, got {seed}")
    return int(seed)


def _stream_key(seed: int, k: int, g_components: Sequence[float], variant: int) -> int:
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<q", check_seed(seed)))
    h.update(bytes([k & 0xFF, variant & 0xFF]))
    for c in g_components:
        h.update(struct.pack("<d", float(c)))
    return int.from_bytes(h.digest(), "little")


class _TrialStreams:
    """Every trial's Philox stream, served by one re-keyed generator.

    ``at(trial)`` puts the bit generator in the state that
    ``Philox(key=[key64, trial])`` starts in (counter 0, empty buffer) and
    returns the generator, whose draws are then exactly that trial's
    stream until the next ``at``.  Constructing a Philox also seeds a
    ``SeedSequence`` from the OS that a given key leaves unused, which
    costs more than ten times the re-keying.  The state is held as plain
    ints, which the setter reads about twice as fast as numpy scalars.
    """

    def __init__(self, key64: int) -> None:
        self._bitgen = np.random.Philox(key=np.array([key64 & _MASK64, 0], dtype=np.uint64))
        self._key = [key64 & _MASK64, 0]
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": [0] * 4, "key": self._key},
            "buffer": [0] * 4,
            "buffer_pos": 4,  # empty
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._gen = np.random.Generator(self._bitgen)

    def at(self, trial: int) -> np.random.Generator:
        self._key[1] = trial & _MASK64
        self._bitgen.state = self._state
        return self._gen


_curves_cache: dict = {}  # keyed by the (frozen, hashable) effect prior


def _curves_for(pair: InvariantModelPair) -> ScaleBfCurves:
    curves = _curves_cache.get(pair.effect_prior)
    if curves is None:
        curves = _curves_cache[pair.effect_prior] = ScaleBfCurves(pair)
    return curves


def _run_block(
    pair: InvariantModelPair, curves: ScaleBfCurves, run: _Run, lo: int, hi: int, head: int
) -> tuple:
    """Run trials [lo, hi) of a planned ``run`` in lockstep; stop indices and stopped log betas.

    A marginal run's drawn scales come third.  Each trial draws its row up
    to step ``head`` up front; the trials still running past it replay
    their rows to the cap.
    """
    rule, x_init, marginal = run.rule, run.x_init, run.marginal
    effect = pair.effect(run.k)
    size = hi - lo
    # the scale g and the effect: one each per trial, drawn from the
    # posterior, in a marginal run
    a, delta = (np.empty(size), np.empty(size)) if marginal else (run.g, None)
    # an effect drawn from the prior takes the row's leading normals
    lead = 0 if marginal else effect.NORMALS
    col0 = (2 if marginal else 1) - lead  # a row's column holding x_n is n - col0
    width = rule.cap + 1 - col0  # a full row
    draws = _draw_buffer(size, head + 1 - col0)
    at = _TrialStreams(run.key64).at

    def fill(i: int, out: np.ndarray) -> np.random.Generator:
        """Key trial ``lo + i``'s stream, draw a marginal run's posterior state, fill ``out``."""
        gen = at(lo + i)
        if marginal:
            a[i], delta[i] = effect.posterior_state(x_init, gen)
        gen.standard_normal(out=out)
        return gen

    for i, out in enumerate(draws):
        fill(i, out)

    def replay(act: np.ndarray) -> np.ndarray:
        """The full rows of trials ``act``, redrawn from their streams, in a buffer of their own."""
        full = _draw_buffer(act.size, width)
        for i, out in zip(act.tolist(), full):
            fill(i, out)
        return full

    if marginal:
        s1, s2 = np.full(size, x_init), np.full(size, x_init * x_init)
    else:
        # The excluded initial sample x_1 = 0 has probability zero.  A trial
        # that hits it replays its full row and continues its stream: the
        # next draw replaces x_1.
        delta = effect.from_normals(draws[:, :lead])
        x1 = a * (delta + draws[:, lead])
        for i in np.flatnonzero(x1 == 0.0).tolist():
            gen = fill(i, np.empty(width))
            while x1[i] == 0.0:
                x1[i] = a * (delta[i] + gen.standard_normal())
        s1, s2 = x1, x1 * x1

    def coordinate(n, c1: np.ndarray, c2: np.ndarray, out=None) -> np.ndarray:
        """The prior's ``coordinate`` at cells (n, running sum, running sum of squares)."""
        q = np.square(c1, out=out)
        q /= n * c2
        return pair.effect_prior.coordinate(np.clip(q, 0.0, 1.0, out=q), c1)

    def log_beta(ns, c: np.ndarray) -> np.ndarray:
        """log beta at cells (n, coordinate): one table read."""
        return curves.log_bf_cells(ns, c) - run.lb_offset

    row = np.arange(size)  # each trial's row of draws

    def advance(act: np.ndarray, steps: range) -> list:
        """Advance trials ``act`` over ``steps``; the cells to read before the cap.

        A cell is (trial, n, coordinate, s2, its rank: the trial's cells
        before it in the chunk).  They come as five columns, each a list of
        per-step parts.
        """
        xs = np.empty((len(steps), act.size))  # the observations, a contiguous row per step
        rows = row[act]
        for n, xn in zip(steps, xs):
            draws[:, n - col0].take(rows, out=xn)
        xs += delta[act]
        xs *= a[act] if marginal else a
        s1c, s2c = s1[act], s2[act]
        rank = np.zeros(act.size, dtype=np.int32)
        cells = [[], [], [], [], []]
        for n, xn in zip(steps, xs):
            s1c += xn
            s2c += xn * xn
            if n == rule.cap:
                continue
            if run.bounds:
                c = coordinate(n, s1c, s2c, out=xn)  # the row's observations are spent
                near = np.zeros(act.size, dtype=bool)
                for bound, above in run.bounds:
                    near |= c >= bound[n] if above else c <= bound[n]
                pos = np.flatnonzero(near)
                c = c[pos]
            else:  # the rule never reads log beta: its cells are those where it fires
                pos = np.flatnonzero(rule.decide_batch(n, None, s2c))
                c = coordinate(n, s1c[pos], s2c[pos]) if pos.size else None
            if pos.size == 0:  # most steps of a run to the cap mark no cell
                continue
            parts = act[pos], np.full(pos.size, n, dtype=np.int32), c, s2c[pos], rank[pos]
            for column, part in zip(cells, parts):
                column.append(part)
            rank[pos] += 1
        s1[act], s2[act] = s1c, s2c
        return cells

    active = np.ones(size, dtype=bool)
    stop_n = np.zeros(size, dtype=np.int64)
    stop_lb = np.zeros(size)

    def stop(trial: np.ndarray, n, lb: np.ndarray) -> None:
        stop_n[trial], stop_lb[trial], active[trial] = n, lb, False

    for n0 in range(2, rule.cap + 1, STEP_CHUNK):
        act = np.flatnonzero(active)
        if act.size == 0:
            break
        steps = range(n0, min(n0 + STEP_CHUNK, rule.cap + 1))
        if steps[-1] > head:  # the replayed rows take the heads' place
            draws, head = replay(act), rule.cap
            row[act] = np.arange(act.size)
        cells = advance(act, steps)
        if not cells[0]:
            continue
        # joined a column at a time, each column's parts freed as it is joined
        trial, ns, c, c2, rank = (np.concatenate(cells.pop(0)) for _ in range(5))
        # waves: wave r reads and decides the r-th candidate cell of every
        # trial still running, all at once
        for r in range(STEP_CHUNK):
            wave = np.flatnonzero((rank == r) & active[trial])
            if wave.size == 0:  # every trial with an r-th cell has stopped
                break
            lb = log_beta(ns[wave], c[wave])
            hit = rule.decide_batch(ns[wave], lb, c2[wave])
            stop(trial[wave[hit]], ns[wave[hit]], lb[hit])
    # the cap stops every trial still running
    rest = np.flatnonzero(active)
    stop(rest, rule.cap, log_beta(rule.cap, coordinate(rule.cap, s1[rest], s2[rest])))
    return (stop_n, stop_lb, a) if marginal else (stop_n, stop_lb)


def _draw_buffer(rows: int, cols: int) -> np.ndarray:
    """A (rows x cols) float array in an anonymous memory mapping of its own.

    A block's draws take megabytes.  From the C heap they would land in
    whatever holes earlier temporaries left (once the first buffer is
    freed, glibc raises its mmap threshold past it and serves every later
    one from the heap), so how far the heap grows, and with it the peak
    resident size, would vary with the seed.  A mapping of its own is
    faulted in up front (MAP_POPULATE, where the platform has it) and
    unmapped when the array is dropped: each block adds exactly its
    buffer to resident memory.
    """
    nbytes = max(8 * rows * cols, 1)
    if hasattr(mmap, "MAP_ANONYMOUS"):
        flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)
        buf = mmap.mmap(-1, nbytes, flags=flags)
    else:  # Windows: anonymous memory backed by the paging file
        buf = mmap.mmap(-1, nbytes)
    return np.frombuffer(buf, count=rows * cols).reshape(rows, cols)


def _draws_per_trial(rule: StoppingRule, marginal: bool) -> int:
    """Normals a trial's full row holds for its observations: one each up to the cap."""
    return rule.cap - (1 if marginal else 0)


def _lazy_head(stops: np.ndarray) -> int:
    """The last step a block draws up front, given earlier blocks' stop counts.

    ``stops[n]`` counts the earlier trials that stopped at n, up to the
    cap.  The head is the first chunk's end past which at most 1 in
    LAZY_TAIL of them ran, if it lies within half the cap, and else the
    cap.  With no earlier trials (a segment's first block), that is the
    cap.
    """
    total = int(stops.sum())
    running = total - np.cumsum(stops)  # running[n]: trials that ran past step n
    ends = np.arange(1 + STEP_CHUNK, (stops.size - 1) // 2 + 1, STEP_CHUNK)
    few = ends[running[ends] * LAZY_TAIL <= total]
    return int(few[0]) if total and few.size else stops.size - 1


class _Run(NamedTuple):
    """One run of a many-run call, checked, and the plan its blocks share.

    A marginal run has its initial sample (x_1 alone) in ``x_init`` and no
    ``g``.  ``_run_blocks`` fixes the plan before the fork: ``block``, the
    trials a block runs; ``bounds``, each bar as (``ScaleBfCurves.boundary``,
    above); ``lb_offset``, a marginal run's log beta at ``x_init``, else 0.
    """

    k: int
    g: Optional[float]
    rule: StoppingRule
    key64: int
    x_init: Optional[float] = None
    block: int = 0
    bounds: tuple = ()
    lb_offset: float = 0.0

    @property
    def marginal(self) -> bool:
        return self.x_init is not None


def _mapped_bytes(run: _Run) -> int:
    """The most bytes of draws one block of a planned ``run`` maps at once.

    A block of heads maps its rows up to at most half the cap, and then a
    replay buffer for the 1 in LAZY_TAIL of its trials that its head is
    chosen to leave running; a block of full rows maps at most
    FULL_BLOCK_SIZE of them.
    """
    row = _draws_per_trial(run.rule, run.marginal)
    heads = run.block * ((row + 1) // 2) + max(run.block // LAZY_TAIL, 1) * row
    return 8 * max(heads, min(run.block, FULL_BLOCK_SIZE) * row)


def _run_blocks(
    pair: InvariantModelPair, runs: Sequence[_Run], n_trials: int, seed: int
) -> List[TrialRecords]:
    """Trials [0, n_trials) of each run, in blocks whose draws fit DRAW_BUFFER_BYTES; its records.

    No trials give each run an empty batch, before any table or offset.
    Otherwise one split job over W processes serves the whole call: its
    items are the runs' trials, run-major, and each group runs the run
    segments its range covers.  See the module docstring for the groups
    and the choice of W.  Each block gets the head (``_lazy_head``) that
    the blocks before it in its segment call for, the cap for a
    segment's first: a block whose head is the cap holds at most
    FULL_BLOCK_SIZE trials, one of heads ``block``.  ``OptstopError`` if
    a worker failed, or, for the first such run, if a trial stopped at a
    non-finite log beta: the records of such a run would pass or fail a
    check on NaN comparisons.  So numpy's floating-point warnings, in the
    kernel and in the tables it builds, are not shown.
    """
    if n_trials == 0:
        return [TrialRecords.empty(run.k, np.empty(0) if run.marginal else run.g, seed, run.rule)
                for run in runs]
    curves = _curves_for(pair)

    def planned(run: _Run) -> _Run:
        """``run`` with its plan, once the tables its bars and its cap read are built."""
        lb_offset = pair.log_bf([run.x_init]) if run.marginal else 0.0
        # each bar of the rule as per-n bounds on the coordinate log beta
        # increases in; the tables are read only on the cells beyond a bound
        bounds = tuple((curves.boundary(bar + lb_offset, run.rule.cap, above), above)
                       for bar, above in run.rule.log_bars)
        curves.log_bf_cells(run.rule.cap, 0.0)  # the cap's table, which stops every trial left
        # the row fits: see _validate_run
        block = min(BLOCK_SIZE, DRAW_BUFFER_BYTES // (8 * _draws_per_trial(run.rule, run.marginal)))
        return run._replace(block=block, bounds=bounds, lb_offset=lb_offset)

    def run_group(items: range) -> list:
        """(run index, its record columns) for each run segment in ``items``."""
        parts = []
        for i in range(items.start // n_trials, (items.stop - 1) // n_trials + 1):
            run, offset = runs[i], i * n_trials
            lo, hi = max(items.start - offset, 0), min(items.stop - offset, n_trials)
            stops = np.zeros(run.rule.cap + 1, dtype=np.int64)
            blocks, a = [], lo
            while a < hi:
                head = _lazy_head(stops)
                size = run.block if head < run.rule.cap else min(run.block, FULL_BLOCK_SIZE)
                b = min(a + size, hi)
                blocks.append(_run_block(pair, curves, run, a, b, head))
                stops += np.bincount(blocks[-1][0], minlength=stops.size)
                a = b
            parts.append((i, [np.concatenate(column) for column in zip(*blocks)]))
        return parts

    with np.errstate(all="ignore"):  # entered before the fork: the children inherit it
        runs = [planned(run) for run in runs]
        n_blocks = sum(-(-n_trials // run.block) for run in runs)
        most = min(n_blocks, RUN_DRAW_BYTES // max(_mapped_bytes(run) for run in runs))
        groups = workers.run_groups(run_group, len(runs) * n_trials, most, "a Monte Carlo")
    by_run = [[] for _ in runs]
    for group in groups:
        for i, columns in group:
            by_run[i].append(columns)
    del groups
    batches = []
    for run in runs:
        # a run's parts are freed once its columns are joined
        stop_index, stopped_log_beta, *g = (np.concatenate(c) for c in zip(*by_run.pop(0)))
        bad = np.count_nonzero(~np.isfinite(stopped_log_beta))
        if bad:
            raise OptstopError(
                f"{bad} of {n_trials} trials stopped at a non-finite log Bayes factor: the "
                "data's sums of squares left the double range, or this effect prior's tables are "
                "not finite"
            )
        batches.append(TrialRecords(run.k, g[0] if g else run.g, seed, run.rule, stop_index,
                                    stopped_log_beta, np.arange(n_trials, dtype=np.int64)))
    return batches


def _validate_run(
    pair: InvariantModelPair, k: int, rule: StoppingRule, n_trials: int, marginal: bool
) -> None:
    """Reject a run before any table is built: bad arguments, or records or a draw row over budget.

    ``NotImplementedError`` unless the pair is a scale-group pair.
    """
    if not pair.is_scale:
        raise NotImplementedError("Monte Carlo trials are implemented for the scale group")
    pair.effect(k)  # a hypothesis index other than 0 or 1 raises
    if n_trials < 0:
        raise ValueError("n_trials must be nonnegative")
    record_bytes = 8 * (4 if marginal else 3) * n_trials
    if record_bytes > RECORD_BUDGET_BYTES:
        raise ResourceLimitError(
            f"{n_trials} trials' records take {record_bytes} bytes, over the record budget "
            f"of {RECORD_BUDGET_BYTES} bytes"
        )
    rule.check_start(pair.m)
    row_bytes = 8 * _draws_per_trial(rule, marginal)
    if row_bytes > DRAW_BUFFER_BYTES:
        raise ResourceLimitError(
            f"one trial's draws up to cap {rule.cap} take {row_bytes} bytes, over the "
            f"draw buffer budget of {DRAW_BUFFER_BYTES} bytes"
        )


def check_nuisance(g: float) -> float:
    """Scale ``g`` of a scale-group pair as a float.

    ``ValueError`` unless g is finite and positive.
    """
    c = float(g)
    if not 0.0 < c < math.inf:
        raise ValueError(f"nuisance value must be finite with a positive scale, got {g}")
    return c


def check_initial_sample(pair: InvariantModelPair, x_m, k: int) -> np.ndarray:
    """``x_m`` as a flat initial sample: ``ValueError`` unless hypothesis-k trials can use it.

    It must have length m, be finite and lie outside the pair's excluded
    set (``SingularInputError``, e.g. x_1 = 0 for the scale group).
    Hypothesis k's effect prior (``pair.effect(k)``) must have its
    posterior given ``x_m`` sampled (``posterior_sampled``): not a
    nonzero point mass under the alternative.
    """
    if not pair.effect(k).posterior_sampled:
        raise ValueError(
            "marginal trials under the alternative need a Cauchy effect or a zero point "
            "mass: the posterior of a nonzero point effect given x_m is not sampled"
        )
    x_m = np.asarray(x_m, dtype=float).reshape(-1)
    if x_m.size != pair.m:
        raise ValueError(f"initial sample must have length m = {pair.m}")
    return pair._validate(x_m)


def run_trials_many(
    pair: InvariantModelPair,
    runs: Sequence[Tuple[int, float, StoppingRule]],
    n_trials: int,
    seed: int,
) -> List[TrialRecords]:
    """Run ``n_trials`` stopped trials under P_{k,g} for each (k, g, rule) of ``runs``.

    One split job serves every run, and each run's records equal its own
    :func:`run_trials` call bit for bit.  Every run is checked, in order
    and as :func:`run_trials` checks it, before any table is built.
    """
    checked = []
    for k, g, rule in runs:
        _validate_run(pair, k, rule, n_trials, marginal=False)
        checked.append((k, check_nuisance(g), rule))
    plans = [_Run(k, g, rule, _stream_key(seed, k, (g,), variant=0)) for k, g, rule in checked]
    return _run_blocks(pair, plans, n_trials, seed)


def run_trials(
    pair: InvariantModelPair,
    k: int,
    g: float,
    rule: StoppingRule,
    n_trials: int,
    seed: int,
) -> TrialRecords:
    """Run independent stopped trials under P_{k,g}.

    Data are drawn sequentially from the pair under the given hypothesis
    and nuisance value, the log Bayes factor is updated after every
    observation, and the rule (with its mandatory cap) decides when to
    stop.  Deterministic given (seed, configuration); see the module
    docstring for the stream layout.  Scale-group pairs only
    (``NotImplementedError`` otherwise).  A nuisance value that is not a
    finite positive scale raises ``ValueError``.  The one-run call of
    :func:`run_trials_many`.
    """
    return run_trials_many(pair, [(k, g, rule)], n_trials, seed)[0]


def run_marginal_trials_many(
    pair: InvariantModelPair,
    runs: Sequence[Tuple[int, Sequence[float], StoppingRule]],
    n_trials: int,
    seed: int,
) -> List[TrialRecords]:
    """Trials from the conditional marginal given x_m, for each (k, x_m, rule) of ``runs``.

    Each trial draws its nuisance value (and, under the alternative, its
    effect) from the hypothesis-k posterior given ``x_m``, then extends
    the sequence from ``x_m`` under those parameters.  Records hold the
    conditional stopped value log beta_{tau|m}, and the rule is applied
    to that conditional value.  Scale-group pairs only.  One split job
    serves every run, and each run's records are those of a call with it
    alone, bit for bit.  Every run is checked, in order, before any table
    is built: an initial sample the pair rejects, or a nonzero point
    effect under the alternative, raises ``ValueError``
    (``check_initial_sample``).
    """
    checked = []
    for k, x_m, rule in runs:
        _validate_run(pair, k, rule, n_trials, marginal=True)
        checked.append((k, float(check_initial_sample(pair, x_m, k)[0]), rule))
    plans = [
        _Run(k, None, rule, _stream_key(seed, k, (x1,), variant=1), x1) for k, x1, rule in checked
    ]
    return _run_blocks(pair, plans, n_trials, seed)


def _finite_chunk(model: FiniteModel) -> int:
    """Trials per chunk of :func:`run_trials_finite`."""
    components = max(len(model.weights(0)), len(model.weights(1)))
    return max(1, FINITE_CHUNK_CELLS // components)


def run_trials_finite(
    model: FiniteModel, k: int, rule: StoppingRule, n_trials: int, seed: int
) -> TrialRecords:
    """Monte Carlo trials on a finite model, for cross-checking the exact tables.

    Each trial draws its full-horizon sequence from its own Philox
    stream.  The log Bayes factors of a chunk of trials come from one
    likelihood recursion over (trials x components)
    (:func:`~optstop.exact.log_beta_paths`), and ``core.stop`` then stops
    each trial on its own row, so every rule works and stopped values
    are read from the trajectory verbatim.  A trial's record depends
    neither on the chunk size nor on the other trials.  The finite model
    carries no group action: records store NaN in the nuisance slot.
    """
    model._mixture(k)  # a hypothesis index other than 0 or 1 raises, before any draw
    if n_trials < 0:
        raise ValueError("n_trials must be nonnegative")
    if rule.cap > model.horizon:
        raise ValueError("rule must cap at or before the model horizon")
    streams = _TrialStreams(_stream_key(seed, k, (), variant=2))
    chunk = _finite_chunk(model)
    stop_n: List[int] = []
    stop_lb: List[float] = []
    for lo in range(0, n_trials, chunk):
        trials = range(lo, min(lo + chunk, n_trials))
        seqs = [sample_sequence(model, k, streams.at(t)) for t in trials]
        for seq, path in zip(seqs, log_beta_paths(model, seqs).tolist()):
            outcome = stop(BfTrajectory(path), rule, seq)
            assert outcome.stop_index is not NEVER  # cap <= horizon forces a stop
            stop_n.append(outcome.stop_index)
            stop_lb.append(outcome.stopped_log_beta)
    return TrialRecords(
        k,
        math.nan,
        seed,
        rule,
        np.array(stop_n, dtype=np.int64),
        np.array(stop_lb, dtype=float),
        np.arange(len(stop_n), dtype=np.int64),
    )


# ------------------------------------------------------------------ estimators


def wilson_interval(successes: int, n: int, z: float = Z95) -> Tuple[float, float]:
    if n <= 0:
        raise ValueError("need at least one trial")
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if successes == 0 else max(center - half, 0.0)
    hi = 1.0 if successes == n else min(center + half, 1.0)
    return lo, hi


@dataclass(frozen=True, eq=False)
class CalibrationEstimate:
    """A calibration estimate, column by column: one entry per bin.

    Bin j spans ``edges[j]`` to ``edges[j + 1]`` and holds ``count0``
    null and ``count1`` alternative stopped values, whose mean log beta
    is ``log_beta_gmean`` (NaN for an empty bin).  ``ratio``, ``ci_lo``
    and ``ci_hi`` are NaN where ``count0`` is 0 (an unusable bin), and
    ``ok`` flags the usable bins whose geometric-mean Bayes factor lies
    in the interval.  ``n0`` and ``n1`` are the arms' trial counts.
    """

    edges: np.ndarray
    count0: np.ndarray
    count1: np.ndarray
    log_beta_gmean: np.ndarray
    ratio: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    ok: np.ndarray
    n0: int
    n1: int

    @property
    def usable_bins(self) -> int:
        return int(np.count_nonzero(self.count0))

    @property
    def excluded_bins(self) -> int:
        return self.count0.size - self.usable_bins

    @property
    def pass_fraction(self) -> float:
        usable = self.usable_bins
        if usable == 0:
            return 0.0
        return int(np.count_nonzero(self.ok)) / usable

    @property
    def passed(self) -> bool:
        return self.pass_fraction >= BIN_PASS_FRACTION


def check_bins(n_bins: int) -> int:
    """``n_bins`` if a calibration can bin into that many quantiles.

    ``ValueError`` below one bin; ``ResourceLimitError`` when its
    quantile edges alone would take more than DRAW_BUFFER_BYTES, so a
    run can refuse the count before any trial.
    """
    if n_bins < 1:
        raise ValueError("need at least one bin")
    if 8 * (n_bins + 1) > DRAW_BUFFER_BYTES:
        raise ResourceLimitError(
            f"{n_bins} bins take {8 * (n_bins + 1)} bytes of quantile edges, over the "
            f"budget of {DRAW_BUFFER_BYTES} bytes"
        )
    return n_bins


def _narrow_edges(edges: np.ndarray) -> np.ndarray:
    """Split every gap wider than MAX_BIN_WIDTH evenly; the given edges stay exact.

    A gap from ``left`` to ``right`` of width w > MAX_BIN_WIDTH becomes
    ``pieces = ceil(w / MAX_BIN_WIDTH)`` pieces with inner edges
    ``left + w * i / pieces``, evaluated in that order.
    """
    left = edges[:-1]
    width = edges[1:] - left
    wide = width > MAX_BIN_WIDTH
    pieces = np.ones(width.size, dtype=np.int64)
    pieces[wide] = np.ceil(width[wide] / MAX_BIN_WIDTH)
    starts = np.zeros(edges.size, dtype=np.int64)
    np.cumsum(pieces, out=starts[1:])
    gap = np.repeat(np.arange(width.size), pieces)
    i = np.arange(starts[-1]) - starts[gap]
    out = np.empty(starts[-1] + 1)
    out[:-1] = left[gap] + width[gap] * i / pieces[gap]
    out[starts] = edges
    return out


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

    The estimate is columnar (:class:`CalibrationEstimate`): edges,
    counts and mean log beta come from array operations over all bins,
    while ratio, interval and pass flag are computed only on the usable
    bins, one scalar ``math.exp`` each.  A wide-range arm can make
    thousands of bins, most of them without a null value.  ``n_bins``
    is checked by :func:`check_bins`.
    """
    lb0, lb1 = records0.stopped_log_beta, records1.stopped_log_beta
    n0, n1 = lb0.size, lb1.size
    if n0 == 0 or n1 == 0:
        raise ValueError("both record lists must be nonempty")
    check_bins(n_bins)
    pooled = np.concatenate([lb0, lb1])
    edges = np.unique(np.quantile(pooled, np.linspace(0.0, 1.0, n_bins + 1)))
    if edges.size < 2:
        edges = np.array([edges[0], edges[0] + 1.0])
    edges = _narrow_edges(edges)
    edges[-1] = np.nextafter(edges[-1], math.inf)  # keep the max inside the last bin
    nb = edges.size - 1
    idx0 = np.clip(np.searchsorted(edges, lb0, side="right") - 1, 0, nb - 1)
    idx1 = np.clip(np.searchsorted(edges, lb1, side="right") - 1, 0, nb - 1)
    c0 = np.bincount(idx0, minlength=nb)
    c1 = np.bincount(idx1, minlength=nb)
    sums = np.bincount(idx0, weights=lb0, minlength=nb) + np.bincount(
        idx1, weights=lb1, minlength=nb
    )
    total = c0 + c1
    gmean = np.full(nb, math.nan)
    np.divide(sums, total, out=gmean, where=total > 0)
    ratio, ci_lo, ci_hi = np.full(nb, math.nan), np.full(nb, math.nan), np.full(nb, math.nan)
    ok = np.zeros(nb, dtype=bool)
    usable = np.flatnonzero(c0)
    for j, count0, count1, lbar in zip(
        usable.tolist(), c0[usable].tolist(), c1[usable].tolist(), gmean[usable].tolist()
    ):
        p0 = count0 / n0
        if count1 == 0:
            r, lo, hi = 0.0, 0.0, (3.0 / n1) / p0  # rule-of-three upper bound
        else:
            p1 = count1 / n1
            r = p1 / p0
            var_log = (1.0 - p1) / (n1 * p1) + (1.0 - p0) / (n0 * p0)
            half = Z95 * math.sqrt(var_log)
            lo, hi = r * math.exp(-half), r * math.exp(half)
        ratio[j], ci_lo[j], ci_hi[j] = r, lo, hi
        ok[j] = lo <= math.exp(lbar) <= hi
    return CalibrationEstimate(edges, c0, c1, gmean, ratio, ci_lo, ci_hi, ok, n0, n1)


@dataclass(frozen=True)
class Type1Estimate:
    alpha: float
    n_trials: int
    n_reject: int
    rate: float
    se: float
    wilson_lo: float
    wilson_hi: float

    @property
    def passed(self) -> bool:
        return self.rate <= self.alpha + 3.0 * self.se


def estimate_type1(
    records: TrialRecords, alpha: Union[SignificanceLevel, float]
) -> Type1Estimate:
    """Fraction of trials whose stopped Bayes factor reached 1/alpha.

    The records must come from a rule whose only upper bar is
    log(1/alpha), such as ``BfThreshold(upper=1/alpha)`` with or without
    a ``lower`` bar; any other rule raises ``ValueError``.  Read off
    another upper bar's records, the rate is too low: a trial under a
    smaller bar stops at its first crossing of it and never gets the
    chance to reach 1/alpha, and one under a larger bar that crosses
    1/alpha without reaching its own is recorded at its final value.  A
    trial rejects where the upper bar stopped it, at log beta >= the bar,
    ``level.log_threshold``.
    """
    level = alpha if isinstance(alpha, SignificanceLevel) else SignificanceLevel(float(alpha))
    rule = records.rule
    bar = level.log_threshold
    if [b for b, above in rule.log_bars if above] != [bar]:
        raise ValueError(
            f"a Type-I rate at alpha = {level.alpha:g} needs records of "
            f"BfThreshold(upper={1.0 / level.alpha:g}), got {rule!r}"
        )
    lb = records.stopped_log_beta
    if lb.size == 0:
        raise ValueError("no records")
    n_reject = int(np.count_nonzero(lb >= bar))
    rate = n_reject / lb.size
    se = math.sqrt(rate * (1.0 - rate) / lb.size)
    lo, hi = wilson_interval(n_reject, lb.size)
    return Type1Estimate(
        alpha=level.alpha,
        n_trials=lb.size,
        n_reject=n_reject,
        rate=rate,
        se=se,
        wilson_lo=lo,
        wilson_hi=hi,
    )


@dataclass(frozen=True)
class StoppedBfMean:
    mean: float
    se: float
    ci_lo: float
    ci_hi: float
    n_trials: int

    @property
    def passed(self) -> bool:
        return abs(self.mean - 1.0) <= 3.0 * self.se


def estimate_stopped_bf_mean(records: TrialRecords) -> StoppedBfMean:
    """Sample mean of the stopped Bayes factor; equals 1 in expectation under H0.

    Its standard error needs at least two records; fewer raise ``ValueError``.
    """
    beta = np.exp(records.stopped_log_beta)
    if beta.size < 2:
        raise ValueError(f"a stopped Bayes-factor mean needs at least two records, got {beta.size}")
    mean = float(beta.mean())
    se = float(beta.std(ddof=1) / math.sqrt(beta.size))
    return StoppedBfMean(
        mean=mean,
        se=se,
        ci_lo=mean - Z95 * se,
        ci_hi=mean + Z95 * se,
        n_trials=beta.size,
    )


# -------------------------------------------------------------- serialization


def records_to_csv(batches: Sequence[TrialRecords], path) -> None:
    """Write the batches' records in order, one CSV row per trial.

    The columns are k, g, stop_index, stopped_log_beta, seed and trial:
    floats as ``.17g``, lines ended by CRLF.  No field can hold a delimiter or
    a quote, so these are the bytes ``csv.writer`` writes for the same
    rows.  Each batch has one ``%`` row template, with its k and seed
    (and a run's single g) written in, and rows are formatted from
    ``tolist()`` columns BLOCK_SIZE at a time, so only one slice's
    strings are held at once.
    """
    with rewrite(path, newline="") as fh:
        fh.write("k,g,stop_index,stopped_log_beta,seed,trial\r\n")
        for batch in batches:
            g = "%.17g" if batch.per_trial_g else format(float(batch.g), ".17g")
            fmt = f"{batch.k},{g},%d,%.17g,{batch.seed},%d\r\n"
            names = ("g",) * batch.per_trial_g + ("stop_index", "stopped_log_beta", "trial")
            for lo in range(0, len(batch), BLOCK_SIZE):
                columns = [getattr(batch, c)[lo : lo + BLOCK_SIZE].tolist() for c in names]
                fh.write("".join(map(fmt.__mod__, zip(*columns))))
