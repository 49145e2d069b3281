"""The boundary engine: per-n bounds on the invariant coordinate for threshold rules.

The Monte Carlo kernel advances trials STEP_CHUNK steps at a time and
evaluates the Chebyshev tables of a threshold rule only on the cells
beyond a bar's per-n bound, in waves.  Its records must equal, bit for
bit, those of the reference kernel that evaluates every active trial at
every step through the per-n table read, and no coordinate outside a
bound may meet the bar.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from optstop import models, montecarlo
from optstop.models import (
    Q_MAX,
    XI_MIN,
    CauchyEffect,
    InvariantModelPair,
    PointMass,
    ScaleBfCurves,
)
from optstop.montecarlo import run_marginal_trials_many, run_trials
from optstop.stopping import BfThreshold, FixedN, SumOfSquares
from reference_kernel import run_block_per_step
from reference_tables import fit_per_n, log_bf_per_n, read_per_n, table_at

PRIORS = [
    CauchyEffect(0.01),
    CauchyEffect(0.1),
    CauchyEffect(1.0),
    CauchyEffect(10.0),
    PointMass(0.5),
    PointMass(-0.5),
    PointMass(0.0),
]
RULES = {
    "one-sided": BfThreshold(upper=20.0, cap=80),
    # beta(q = 0) > 0.2 at small n: the lower bar is out of reach there
    "two-sided": BfThreshold(upper=5.0, lower=0.2, cap=80),
    # out of reach at n = 2 (and up to n = 31 for the point masses)
    "upper-1e6": BfThreshold(upper=1e6, cap=60),
    # met everywhere from n = 2 under the narrow priors and delta0 = 0
    "upper-below-1": BfThreshold(upper=0.8, cap=30),
}


def per_step(monkeypatch, run):
    """``run()``'s records under the reference kernel."""
    with monkeypatch.context() as m:
        m.setattr(montecarlo, "_run_block", run_block_per_step)
        return run()


@pytest.fixture
def split_blocks(monkeypatch):
    monkeypatch.setattr(montecarlo, "BLOCK_SIZE", 700)  # 1,500 trials: three blocks


@pytest.mark.parametrize("rule", RULES.values(), ids=RULES.keys())
@pytest.mark.parametrize("prior", PRIORS, ids=str)
def test_trials_match_per_step_kernel(prior, rule, split_blocks, monkeypatch):
    pair = InvariantModelPair.scale(prior)
    for k in (0, 1):
        got = run_trials(pair, k, 1.3, rule, 1500, seed=11)
        assert got == per_step(monkeypatch, lambda: run_trials(pair, k, 1.3, rule, 1500, seed=11))


@pytest.mark.parametrize("x_m", [(1.0,), (2.0,)])
@pytest.mark.parametrize("rule", RULES.values(), ids=RULES.keys())
@pytest.mark.parametrize("prior", PRIORS, ids=str)
def test_marginal_trials_match_per_step_kernel(prior, rule, x_m, split_blocks, monkeypatch):
    pair = InvariantModelPair.scale(prior)
    # the alternative posterior is not sampled for a nonzero point effect
    arms = (0,) if isinstance(prior, PointMass) and prior.delta0 != 0.0 else (0, 1)
    for k in arms:
        def run():
            return run_marginal_trials_many(pair, [(k, x_m, rule)], 1500, seed=12)[0]

        assert run() == per_step(monkeypatch, run)


def count_reads(monkeypatch, curves):
    """Each ``curves.log_bf_cells`` call's number of cells, in call order."""
    reads = []
    cells = curves.log_bf_cells

    def counting(ns, c):
        reads.append(np.size(c))
        return cells(ns, c)

    monkeypatch.setattr(curves, "log_bf_cells", counting)
    return reads


def test_tables_read_only_near_stops(monkeypatch):
    """A long null run reads the tables about once per trial, not once per step."""
    pair = InvariantModelPair.scale(CauchyEffect(1.0))
    rule = BfThreshold(upper=20.0, cap=200)
    reads = count_reads(monkeypatch, montecarlo._curves_for(pair))
    records = run_trials(pair, 0, 1.0, rule, 2000, seed=3)
    steps = sum(r.stop_index - 1 for r in records)
    assert steps > 150 * len(records)  # most trials run to the cap
    assert len(records) <= sum(reads) < 1.05 * len(records)


@pytest.mark.parametrize("k", [0, 1])
def test_block_reads_tables_in_a_few_waves(k, monkeypatch):
    """An 8,192-trial corridor block at cap 100 reads the tables in at most 40 calls."""
    pair = InvariantModelPair.scale(CauchyEffect(1.0))
    rule = BfThreshold(upper=5.0, lower=0.2, cap=100)
    curves = montecarlo._curves_for(pair)
    for bar, above in rule.log_bars:
        curves.boundary(bar, rule.cap, above)
    reads = count_reads(monkeypatch, curves)
    run_trials(pair, k, 1.0, rule, montecarlo.BLOCK_SIZE, seed=3)
    assert 0 < len(reads) <= 40


def test_run_peaks_near_its_draw_buffer():
    """Traced memory of a cap-200 null run: at most 2 MiB besides the draw buffer.

    Each 3.3 MB draw buffer (2,048 full rows) is a memory mapping of its
    own, which tracemalloc does not see; the rest of the kernel's memory
    is traced.
    """
    pair = InvariantModelPair.scale(CauchyEffect(1.0))
    rule = BfThreshold(upper=20.0, cap=200)
    run_trials(pair, 0, 1.0, rule, 10, seed=3)  # tables and bounds, kept for the process
    tracemalloc.start()
    try:
        run_trials(pair, 0, 1.0, rule, 2 * montecarlo.BLOCK_SIZE, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


CAP = 1000
PROBE_Q = np.concatenate([[0.0, 1e-4, Q_MAX, 1.0], np.geomspace(1e-9, 1.0, 121)])


@pytest.mark.parametrize("prior", PRIORS, ids=str)
def test_cells_read_matches_per_n_reference(prior):
    """``log_bf_cells`` equals one ``chebval`` per n and piece, bit for bit, at any mix of n."""
    curves = ScaleBfCurves(InvariantModelPair.scale(prior))
    q = np.concatenate([PROBE_Q, PROBE_Q])
    t = np.concatenate([np.sqrt(PROBE_Q), -np.sqrt(PROBE_Q)])
    c = prior.coordinate(q, t)
    ns = [2, 3, CAP]
    expected = {n: log_bf_per_n(curves, n, q, t) for n in ns}
    for n in ns:
        assert curves.log_bf_cells(n, c).tobytes() == expected[n].tobytes(), n
    # every n in one call, in shuffled order
    order = np.random.default_rng(0).permutation(len(ns) * q.size)
    got = curves.log_bf_cells(np.repeat(ns, q.size)[order], np.tile(c, len(ns))[order])
    assert got.tobytes() == np.concatenate([expected[n] for n in ns])[order].tobytes()
    empty = curves.log_bf_cells(np.empty(0, dtype=np.int64), np.empty(0))
    assert empty.shape == (0,)


SMALL_READ_PRIORS = [
    CauchyEffect(0.1),  # 7 pieces at n = 1000
    CauchyEffect(1.0),
    CauchyEffect(10.0),
    PointMass(0.5),
    PointMass(-0.7),
    PointMass(0.0),
]


@pytest.mark.parametrize("prior", SMALL_READ_PRIORS, ids=str)
def test_small_reads_equal_one_large_read(prior):
    """Cells read 1 to SCALAR_CELLS + 1 at a time equal one read of them all, bit for bit.

    A read of at most SCALAR_CELLS cells runs the recurrence on Python
    floats, a larger one on arrays.  The cells mix n, and their table
    coordinates lie inside the range, outside it, on its ends and on the
    inner piece edges.
    """
    curves = ScaleBfCurves(InvariantModelPair.scale(prior))
    lo, hi = prior.TABLE_RANGE
    rng = np.random.default_rng(3)
    edges = [table_at(curves, n)[0] for n in (2, 3, 40, CAP)]
    coord = np.concatenate([
        rng.uniform(lo, hi, 400),
        lo - rng.exponential(size=20), hi + rng.exponential(size=20),
        [lo, hi, np.nextafter(lo, hi), np.nextafter(hi, lo)] * 5,
        *(e[1:-1] for e in edges),
    ])
    ns = rng.choice([2, 3, 40, CAP], size=coord.size)
    expected = curves._cells(ns, coord)
    sizes = itertools.cycle(range(1, ScaleBfCurves.SCALAR_CELLS + 2))
    got, at = [], 0
    while at < coord.size:
        size = next(sizes)
        got.append(curves._cells(ns[at : at + size], coord[at : at + size]))
        at += size
    assert np.concatenate(got).tobytes() == expected.tobytes()


@pytest.mark.parametrize("prior", [CauchyEffect(1.0), PointMass(0.5), PointMass(0.0)], ids=str)
@pytest.mark.parametrize("ns", [1, 0, np.array([5, 1, 7])], ids=["n=1", "n=0", "mixed"])
def test_cells_read_refuses_n_below_two(prior, ns, monkeypatch):
    """The tables hold n >= 2: a cell below that is refused before any table is built.

    ``pair.log_bf`` gives the exact value at n = 1; the flat prior refuses too.
    """
    curves = ScaleBfCurves(InvariantModelPair.scale(prior))

    def no_table(ns):
        raise AssertionError("a table was built")

    monkeypatch.setattr(curves, "_build", no_table)
    with pytest.raises(ValueError, match="n >= 2"):
        curves.log_bf_cells(ns, np.array([0.1, 0.2, 0.3]))


def test_narrow_prior_tables_have_pieces():
    """The reference comparison above covers multi-piece tables."""
    for r in (0.01, 0.1):
        curves = montecarlo._curves_for(InvariantModelPair.scale(CauchyEffect(r)))
        assert len(table_at(curves, CAP)[1]) > 1


@pytest.mark.parametrize("r", [0.01, 0.1])
def test_read_on_an_inner_piece_edge_takes_the_piece_that_starts_there(r):
    """A table coordinate exactly on an inner piece edge reads as ``searchsorted``, side right."""
    curves = ScaleBfCurves(InvariantModelPair.scale(CauchyEffect(r)))
    inner = table_at(curves, CAP)[0][1:-1]
    assert inner.size > 1
    got = curves._cells(np.full(inner.size, CAP), inner)
    assert got.tobytes() == read_per_n(curves, CAP, inner).tobytes()


def spy_builds(monkeypatch, curves):
    """Each ``curves._build`` call's list of n, in call order."""
    builds = []
    build = curves._build

    def spy(ns):
        builds.append(list(ns))
        return build(ns)

    monkeypatch.setattr(curves, "_build", spy)
    return builds


def test_cells_read_builds_only_the_tables_read(monkeypatch):
    curves = ScaleBfCurves(InvariantModelPair.scale(CauchyEffect(1.0)))
    builds = spy_builds(monkeypatch, curves)
    curves.log_bf_cells(np.array([100, 7, 100]), np.array([0.1, 0.2, 0.3]))
    curves.log_bf_cells(100, np.array([0.5]))
    assert sorted({n for ns in builds for n in ns}) == [7, 100]
    monkeypatch.setattr(montecarlo, "_curves_cache", {})
    pair = InvariantModelPair.scale(PointMass(0.3))
    records = run_trials(pair, 0, 1.0, FixedN(n=100), 50, seed=3)
    assert np.all(records.stop_index == 100)
    assert list(montecarlo._curves_for(pair)._tables) == [100]


# at r = 1 every table below cap 200 is one piece: one round, so one evaluator call
ONE_ROUND_CALLS = 1


def test_boundary_builds_every_table_in_one_evaluator_call(monkeypatch):
    """``boundary`` hands every missing n to one build, which evaluates all their nodes at once."""
    calls = []
    evaluate = models._cauchy_log_bf_xi

    def counting(n, xi, r):
        calls.append(np.size(xi))
        return evaluate(n, xi, r)

    monkeypatch.setattr(models, "_cauchy_log_bf_xi", counting)
    curves = ScaleBfCurves(InvariantModelPair.scale(CauchyEffect(1.0)))
    builds = spy_builds(monkeypatch, curves)
    curves.boundary(math.log(20.0), 200, True)
    assert builds == [list(range(2, 200))]
    assert all(len(curves._tables[n][1]) == 1 for n in range(2, 200))
    assert len(calls) == ONE_ROUND_CALLS
    assert calls[0] == 198 * (ScaleBfCurves.DEGREE + 1)  # every n's nodes


FIT_CAP = 61  # tables at n = 2 .. 60


@pytest.mark.parametrize(
    "prior",
    [CauchyEffect(1.0), CauchyEffect(0.1), CauchyEffect(0.01), PointMass(0.5), PointMass(-0.5),
     PointMass(0.0)],
    ids=str,
)
def test_batched_tables_equal_per_n_fit(prior, monkeypatch):
    """Batched tables (some n built before the batch) and bounds equal per-n fits, byte for byte."""
    pair = InvariantModelPair.scale(prior)
    curves = ScaleBfCurves(pair)
    builds = spy_builds(monkeypatch, curves)
    curves._pieces(np.arange(2, FIT_CAP, 3))
    curves._pieces(np.arange(2, FIT_CAP))
    first = list(range(2, FIT_CAP, 3))
    assert builds == [first, [n for n in range(2, FIT_CAP) if n not in first]]
    reference = ScaleBfCurves(pair)
    for n in range(2, FIT_CAP):
        edges, coeffs = reference._tables[n] = fit_per_n(reference, n)
        got_edges, got_coeffs = curves._tables[n]
        assert got_edges.tobytes() == edges.tobytes(), n
        assert got_coeffs.tobytes() == coeffs.tobytes(), n
    if isinstance(prior, CauchyEffect) and prior.scale <= 0.1:
        assert len(curves._tables[FIT_CAP - 1][1]) > 1  # multi-piece tables are covered
    for bar, above in BARS:
        got = curves.boundary(bar, FIT_CAP, above)
        assert got.tobytes() == reference.boundary(bar, FIT_CAP, above).tobytes()


@pytest.mark.parametrize("steep_end", ["left", "right"])
def test_batched_pieces_in_coordinate_order(steep_end, monkeypatch):
    """A curve split deepest at either end of the range still gives per-n fits' tables."""
    lo, hi = XI_MIN, 0.0

    def curve(n, xi, r):
        u = (xi - lo) / (hi - lo) if steep_end == "left" else (hi - xi) / (hi - lo)
        return np.sqrt(u + 1e-3 / n)

    monkeypatch.setattr(models, "_cauchy_log_bf_xi", curve)
    curves = ScaleBfCurves(InvariantModelPair.scale(CauchyEffect(1.0)))
    curves._pieces(np.array([2, 9, 30]))
    for n in (2, 9, 30):
        edges, coeffs = fit_per_n(curves, n)
        assert len(coeffs) > 3
        assert curves._tables[n][0].tobytes() == edges.tobytes()
        assert curves._tables[n][1].tobytes() == coeffs.tobytes()


CHUNK_CAP = 30
CHUNK_RULES = {
    "one-sided": BfThreshold(upper=8.0, cap=CHUNK_CAP),
    "two-sided": BfThreshold(upper=3.0, lower=0.5, cap=CHUNK_CAP),
    "fixed-n": FixedN(n=12, cap=CHUNK_CAP),
    "sum-squares": SumOfSquares(threshold=25.0, cap=CHUNK_CAP),
}


@pytest.mark.parametrize("chunk", [1, 3, 8, CHUNK_CAP, CHUNK_CAP + 7])
@pytest.mark.parametrize("rule", CHUNK_RULES.values(), ids=CHUNK_RULES.keys())
@pytest.mark.parametrize("delta0", [0.5, -0.5, 0.0])
def test_records_do_not_depend_on_step_chunk(delta0, rule, chunk, monkeypatch):
    """Any chunk width gives the per-step kernel's records: both arms, marginal runs too."""
    monkeypatch.setattr(montecarlo, "STEP_CHUNK", chunk)
    scale = InvariantModelPair.scale(PointMass(delta0))
    runs = [lambda k=k: run_trials(scale, k, 1.3, rule, 400, seed=21) for k in (0, 1)]
    # the alternative posterior is not sampled for a nonzero point effect
    runs += [lambda k=k: run_marginal_trials_many(scale, [(k, (0.8,), rule)], 400, seed=21)[0]
             for k in ((0,) if delta0 else (0, 1))]
    for run in runs:
        assert run() == per_step(monkeypatch, run)


def _grid(bound, lo, hi):
    """A dense coordinate grid on [lo, hi], finer still within 1e-5 of a finite bound."""
    grid = np.linspace(lo, hi, 2001)
    if math.isfinite(bound):
        grid = np.concatenate([grid, bound + np.linspace(-1e-5, 1e-5, 201)])
    return np.clip(grid, lo, hi)


BARS = [(math.log(20.0), True), (math.log(0.2), False), (math.log(0.8), True)]


@pytest.mark.parametrize(
    "prior, cap",
    [
        (CauchyEffect(1.0), 1000),
        (CauchyEffect(0.1), 200),
        (PointMass(0.5), 200),
        (PointMass(-0.5), 200),
        (PointMass(0.0), 200),
    ],
    ids=str,
)
def test_boundary_is_sound(prior, cap):
    """Every coordinate where the table meets a bar lies on the candidate side."""
    pair = InvariantModelPair.scale(prior)
    curves = montecarlo._curves_for(pair)
    if isinstance(prior, CauchyEffect):
        lo, hi = 0.0, 1.0
    else:
        lo, hi = -1.0, 1.0
    bounds = [(curves.boundary(bar, cap, above), bar, above) for bar, above in BARS]
    for n in range(2, cap):
        for bound, bar, above in bounds:
            c = _grid(bound[n], lo, hi)
            lb = curves.log_bf_cells(n, c)
            if above:
                assert np.all(c[lb >= bar] >= bound[n]), (n, bar)
            else:
                assert np.all(c[lb <= bar] <= bound[n]), (n, bar)
    # the cap stops every trial: every coordinate is a candidate there
    for bound, _, above in bounds:
        assert bound[cap] == (-math.inf if above else math.inf)
    # the bisection runs over the prior's coordinate range, and a bound ends
    # within one bracket width of it (two allowed)
    width = 2 * (hi - lo) * 2.0**-ScaleBfCurves.BOUNDARY_STEPS
    for bound, _, _ in bounds:
        assert np.all((lo - width <= bound[2:cap]) & (bound[2:cap] <= hi + width))

