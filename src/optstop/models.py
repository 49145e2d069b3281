"""Group-invariant hypothesis pairs with right Haar nuisance priors.

Two concrete constructions are provided.

Scale group (one-sample location test, m = 1)
    Under the null the data are i.i.d. Normal(0, sigma^2); under the
    alternative an effect size delta (point mass or Cauchy) shifts the
    standardized mean, so the observations are Normal(delta*sigma,
    sigma^2).  The scale sigma is a shared nuisance parameter carrying
    the right Haar prior d(sigma)/sigma.  Writing S = sum(x_i^2), the
    null marginal has the closed form

        pbar_0(x^n) = Gamma(n/2) / (2 * pi^(n/2) * S^(n/2)),

    and the Bayes factor depends on the data only through n and the
    squared normalized mean q = n * xbar^2 / S, which is a function of
    the maximal invariant (x_1/|x_1|, ..., x_n/|x_1|).

    For a Gaussian effect component delta ~ Normal(0, v) both integrals
    are analytic and beta_n = (1+nv)^((n-1)/2) / (1 + nv(1-q))^(n/2).
    A Cauchy(0, r) effect is the inverse-gamma scale mixture of such
    components (v ~ InvGamma(1/2, r^2/2)), which leaves a single smooth
    one-dimensional integral over the mixing variance.  For a point-mass
    effect the sigma integral reduces to M_k(b) = integral of
    u^k exp(-u^2 + b*u) over u > 0 with k = n-1 and b = delta0 *
    sqrt(2n) * t, t = sign(xbar) * sqrt(q).  Both effect priors leave
    one log-integral of a unimodal integrand, and one vectorized
    evaluator (``_log_integral``: a scan, a 46-nat bracket and fixed
    Gauss-Legendre panels) computes it for whole arrays of points.

Location-scale group (m = 2)
    The group (a, b): x -> a*x + b acts on the right; with the
    composition law this induces, the right-invariant measure is
    da db / a^2, which makes the null marginal transform with Jacobian
    term -n*log(a).  A mean effect delta is absorbed exactly by the
    location component (substitute b -> b + a*delta inside the prior
    integral), so the alternative marginal equals the null marginal and
    the Bayes factor is identically one.  The pair is still useful for
    its sampler, its maximal invariant, and as the degenerate check that
    invariance machinery reports nothing where there is no evidence.

Note: the null density here is the standard normal one, with a minus
sign in the exponent; the non-integrable sign variant sometimes seen in
print is a typo and is not what any of the closed forms above integrate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import ClassVar, NamedTuple, Optional, Tuple, Union

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import workers
from .errors import SingularInputError
from .groups import LOCATION_SCALE, SCALE, GroupElement, LocationScaleGroup, ScaleGroup

LOG_2 = math.log(2.0)
LOG_PI = math.log(math.pi)
LOG_2PI = math.log(2.0 * math.pi)
Q_MAX = 1.0 - 2.0**-53  # largest double below 1
XI_MIN = math.log1p(-Q_MAX)  # xi = log(1 - q) at the clamp


@dataclass(frozen=True)
class PointMass:
    """All effect-size mass on a single value; the scale pair's tables take the signed t."""

    delta0: float
    NORMALS: ClassVar[int] = 0  # standard normals a draw reads from the stream
    COORDINATE_RANGE: ClassVar[Tuple[float, float]] = (-1.0, 1.0)
    TABLE_RANGE: ClassVar[Tuple[float, float]] = (-1.0, 1.0)

    def __post_init__(self) -> None:
        if not math.isfinite(self.delta0):
            raise ValueError(f"point-mass effect must be finite, got {self.delta0}")

    def from_normals(self, z: np.ndarray) -> np.ndarray:
        """delta0 for each row of ``z``, whose rows hold NORMALS (no) standard normals."""
        return np.full(z.shape[:-1], self.delta0)

    def draw(self, rng: np.random.Generator) -> float:
        return self.delta0

    def coordinate(self, q: np.ndarray, s1: np.ndarray) -> np.ndarray:
        """sign(delta0) * t from q and the running sum s1: t = sign(s1) * sqrt(q) at delta0 >= 0."""
        t = np.copysign(np.sqrt(q), s1)
        return -t if self.delta0 < 0.0 else t

    def table_coordinate(self, c: np.ndarray) -> np.ndarray:
        """t at ``coordinate`` values."""
        return -c if self.delta0 < 0.0 else c

    def log_bf_table(self, n, t) -> np.ndarray:
        """log beta over broadcast n and signed t; at n = 1, beta_1 = 2*Phi(delta0 * sign(x1))."""
        n, t = np.broadcast_arrays(np.asarray(n, dtype=float), np.asarray(t, dtype=float))
        if self.delta0 == 0.0:
            return np.zeros(t.shape)  # identical hypotheses, exactly
        log_gamma = np.array([math.lgamma(0.5 * v) for v in n.ravel().tolist()]).reshape(n.shape)
        b = self.delta0 * np.sqrt(2.0 * n) * t
        return -0.5 * n * self.delta0 * self.delta0 + LOG_2 - log_gamma + log_m(n - 1.0, b)

    def log_bf_stats(self, n: np.ndarray, q: np.ndarray, t_signed: np.ndarray) -> np.ndarray:
        """log beta over equal-length arrays of (n, q, t_signed): the table evaluator at t."""
        return self.log_bf_table(n, t_signed)

    @property
    def posterior_sampled(self) -> bool:
        """Is the alternative's posterior given x1 sampled?  Only at delta0 = 0, the null's."""
        return self.delta0 == 0.0

    def posterior_state(self, x1: float, rng: np.random.Generator) -> Tuple[float, float]:
        """(sigma, 0) from the posterior given x1 at delta0 = 0: x1^2 / sigma^2 is chi-square(1)."""
        return abs(x1) / math.sqrt(_chisquare1(rng)), 0.0


@dataclass(frozen=True)
class CauchyEffect:
    """Cauchy(0, scale) prior on the standardized effect size; the tables take xi = log(1 - q)."""

    scale: float = 1.0
    NORMALS: ClassVar[int] = 2  # standard normals a draw reads from the stream
    COORDINATE_RANGE: ClassVar[Tuple[float, float]] = (0.0, 1.0)
    TABLE_RANGE: ClassVar[Tuple[float, float]] = (XI_MIN, 0.0)  # q is clamped at Q_MAX
    posterior_sampled: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"Cauchy scale must be positive and finite, got {self.scale}")

    def from_normals(self, z: np.ndarray) -> np.ndarray:
        """The effect drawn from each row (z0, z1) of standard normals: scale * (z0 / z1).

        With z0 and z1 the stream's next two normals, in that order, this
        is ``scale * rng.standard_cauchy()`` bit for bit, and the stream
        ends in the same place.
        """
        return self.scale * (z[..., 0] / z[..., 1])

    def draw(self, rng: np.random.Generator) -> float:
        return float(self.from_normals(rng.standard_normal(self.NORMALS)))

    def coordinate(self, q: np.ndarray, s1: np.ndarray) -> np.ndarray:
        """q itself, whatever the sign of the running sum s1."""
        return q

    def table_coordinate(self, q: np.ndarray) -> np.ndarray:
        """xi = log(1 - q), q clamped at Q_MAX as ``log_bf_stats`` clamps it."""
        return np.log1p(-np.minimum(q, Q_MAX))

    def log_bf_table(self, n, xi) -> np.ndarray:
        """log beta at n >= 2 and xi = log(1 - q), over broadcast arrays."""
        return _cauchy_log_bf_xi(n, xi, self.scale)

    def log_bf_stats(self, n: np.ndarray, q: np.ndarray, t_signed: np.ndarray) -> np.ndarray:
        """log beta over equal-length arrays of (n, q, t_signed), one evaluator call."""
        out = np.zeros(n.shape)  # q is identically 1 at n = 1 and the integral collapses
        many = n >= 2
        # q is exactly 1.0 on collinear prefixes (all x_i equal): clamped at Q_MAX, as in
        # the tables, it stays finite; math.log1p, not np.log1p: they differ in the last bit
        xi = [math.log1p(-min(v, Q_MAX)) for v in q[many].tolist()]
        out[many] = self.log_bf_table(n[many], xi)
        return out

    def posterior_state(self, x1: float, rng: np.random.Generator) -> Tuple[float, float]:
        """(sigma, delta) from the alternative's posterior given x1, through the mixing variance v.

        v keeps its prior (one observation carries no evidence between the
        hypotheses), x1^2 / (sigma^2 (1+v)) is chi-square(1), and delta given
        (sigma, v) is Gaussian with mean (v/(1+v)) * x1/sigma and variance v/(1+v).
        """
        v = self.scale * self.scale / _chisquare1(rng)
        sigma = abs(x1) / math.sqrt(_chisquare1(rng) * (1.0 + v))
        shrink = v / (1.0 + v)
        delta = float(rng.normal(shrink * x1 / sigma, math.sqrt(shrink)))
        return sigma, delta


EffectPrior = Union[PointMass, CauchyEffect]
_NULL_EFFECT = PointMass(0.0)  # the null hypothesis: no effect


def _scale_stats(x: np.ndarray) -> Tuple[int, float, float, float]:
    """Return (n, S, q, t_signed) for the scale-group sufficient statistics."""
    n = x.size
    s = float(x @ x)
    xbar = float(x.mean())
    q = n * xbar * xbar / s
    q = min(max(q, 0.0), 1.0)
    t = math.copysign(math.sqrt(q), xbar)
    return n, s, q, t


def _chisquare1(rng: np.random.Generator) -> float:
    """A chi-square(1) draw, drawn again on the probability-zero 0.0."""
    w = 0.0
    while w == 0.0:
        w = float(rng.chisquare(1))
    return w


def _cauchy_phi(ell: np.ndarray, n, xi, r: float) -> np.ndarray:
    """log integrand of the Cauchy Bayes factor at l = log(v), v the mixing variance.

    Integrates the Gaussian-component closed form against the
    inverse-gamma mixing density; broadcasts over ``ell``, ``n`` and
    ``xi = log(1 - q)``.
    """
    half_r2 = 0.5 * r * r
    log_n = np.log(n)
    return (
        (0.5 * math.log(half_r2) - 0.5 * LOG_PI)
        - 0.5 * ell
        - half_r2 * np.exp(np.minimum(-ell, 700.0))
        + 0.5 * (n - 1) * np.logaddexp(0.0, ell + log_n)
        - 0.5 * n * np.logaddexp(0.0, ell + (log_n + xi))
    )


_SCAN = np.linspace(0.0, 1.0, 129)
_SHARES = np.linspace(0.0, 1.0, 25)  # 24 panels
_GL_X, _GL_W = leggauss(16)
# points per pass: (points x nodes) temporaries near 200 KB, the size a one-table
# fit's 65-point pass had; a batched table build passes every table's nodes at once
_CHUNK = 64
# a call forks only into groups of at least this many points (see _log_integral):
# a table build to cap c passes 65 points or more per n < c (6,370 at cap 100) and
# forks, while a single-n build (65) and check_invariance's chunk (2 x PROBE_CHUNK
# = 2,048), whose split showed no end-to-end gain on 2 CPUs, stay in one process
_FORK_POINTS = 2048


def _count_below_shares(cum: np.ndarray) -> np.ndarray:
    """(points x shares) counts: element (p, i) is how many of row p's values are < _SHARES[i].

    The count (cum[:, :, None] < _SHARES).sum(axis=1), integer for
    integer, without that (points x values x shares) array: a value is
    below share i exactly when ``searchsorted(_SHARES, value, "right")``,
    the number of shares <= it, is at most i.  So one ``searchsorted``,
    one ``bincount`` of those indices offset by row, and a running sum
    over each row's bins.  A NaN sorts past every share and is below none.
    """
    points, bins = cum.shape[0], _SHARES.size + 1  # searchsorted gives 0 .. shares
    index = np.searchsorted(_SHARES, cum, side="right")
    index += np.arange(0, points * bins, bins)[:, None]
    counts = np.bincount(index.ravel(), minlength=points * bins).reshape(points, bins)
    return counts.cumsum(axis=1)[:, :-1]


def _log_integral(phi, lo, hi, *params) -> np.ndarray:
    """log of the integral of exp(phi(s, *params)) over s, over broadcast arrays.

    ``phi`` is called with a (points x abscissae) array and each parameter
    as a column; it must be unimodal in s and fall at least 46 nats below
    its peak inside each point's scan range [lo, hi].  A 129-point scan
    of that range finds the peak; the bracket is the scan range within 46
    nats of it, widened by one scan step each side.  Composite 16-node
    Gauss-Legendre panels cover the bracket, 24 of them, each taking an
    equal share of phi's variation (clipped at the bracket floor) plus
    twice its length, so steep flanks get narrow panels and flat
    stretches still get several.

    Every point's arithmetic is its own: element i is the value of a call
    on point i alone, bit for bit, whatever the batch.  The scan interval
    holding each share comes from ``_count_below_shares``.  The points
    are passed _CHUNK at a time, in contiguous groups of whole passes
    (``workers.run_groups``) that each return their own values: groups
    of at least _FORK_POINTS points in worker processes for a call of
    many points, else one group in the caller.  The values do not depend
    on the split.
    """
    lo, hi, *params = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (lo, hi, *params)))

    def run(group: range) -> np.ndarray:
        out = np.empty(len(group))
        for s in range(0, len(group), _CHUNK):
            # read through .flat: no flattened copy
            rows = slice(group.start + s, min(group.start + s + _CHUNK, group.stop))
            cols = [p.flat[rows][:, None] for p in params]
            grid_lo = lo.flat[rows][:, None]
            ell = grid_lo + (hi.flat[rows][:, None] - grid_lo) * _SCAN
            points = ell.shape[0]
            vals = phi(ell, *cols)
            peak = vals.max(axis=1, keepdims=True)
            floor = peak - 46.0
            live = np.maximum(vals[:, 1:], vals[:, :-1]) > floor
            measure = np.abs(np.diff(np.maximum(vals, floor), axis=1))
            measure += 2.0 * live * np.diff(ell, axis=1)
            cum = np.concatenate([np.zeros_like(peak), np.cumsum(measure, axis=1)], axis=1)
            cum /= cum[:, -1:]
            # panel edges: the scan interval holding each share, then linear
            # interpolation inside it; the first edge is the last dead scan point
            j = np.clip(_count_below_shares(cum) - 1, 0, _SCAN.size - 2)
            j += np.arange(0, points * _SCAN.size, _SCAN.size)[:, None]  # flat index: cum, ell
            c0, c1 = cum.ravel()[j], cum.ravel()[j + 1]
            frac = np.clip((_SHARES - c0) / np.where(c1 > c0, c1 - c0, 1.0), 0.0, 1.0)
            l0, l1 = ell.ravel()[j], ell.ravel()[j + 1]
            edges = l0 + frac * (l1 - l0)
            edges[:, 0] = ell[np.arange(points), np.argmax(cum > 0.0, axis=1) - 1]
            half = 0.5 * np.diff(edges, axis=1)
            nodes = (edges[:, :-1, None] + half[:, :, None] * (1.0 + _GL_X)).reshape(points, -1)
            f = np.exp(phi(nodes, *cols) - peak).reshape(points, _SHARES.size - 1, -1)
            out[s:s + points] = peak[:, 0] + np.log(((f * _GL_W).sum(axis=2) * half).sum(axis=1))
        return out

    # step=_CHUNK: each pass is the one a single process makes
    groups = workers.run_groups(run, lo.size, lo.size // _FORK_POINTS, "an exact-evaluator", _CHUNK)
    return np.concatenate(groups).reshape(lo.shape)


def _cauchy_log_bf_xi(n, xi, r: float) -> np.ndarray:
    """log Bayes factor at n >= 2 and xi = log(1 - q), over broadcast arrays.

    The integrand phi decays double-exponentially on the left (prior mass
    vanishes) and like exp(-l) on the right, and its only scales are the
    prior one, v ~ r^2, and the likelihood one, v ~ 1/(n(1-q)).  The scan
    runs from 45 below the prior scale to 60 above the larger scale.
    Parameterizing by xi keeps the collinear tail (q -> 1) exact.
    """
    n, xi = np.asarray(n, dtype=float), np.asarray(xi, dtype=float)
    l_prior = math.log(0.5 * r * r)
    hi = np.maximum(l_prior, -(np.log(n) + xi)) + 60.0
    return _log_integral(partial(_cauchy_phi, r=r), l_prior - 45.0, hi, n, xi)


def _m_phi(s: np.ndarray, k, b) -> np.ndarray:
    """log integrand of M_k(b) at s = log(u)."""
    u = np.exp(s)
    return (k + 1.0) * s - u * u + b * u


def log_m(k, b) -> np.ndarray:
    """log M_k(b), M_k(b) = integral over u > 0 of u^k exp(-u^2 + b*u), over broadcast arrays.

    In s = log(u) the integrand exp((k+1)s - u^2 + b*u) has one mode, at
    u* = (b + sqrt(b^2 + 8(k+1)))/4, with width w = 1/sqrt(2u*^2 + k + 1)
    there.  From the mode, moving s right by d or u left by a fraction x
    of u* drops the log integrand by at least d^2/(2w^2), respectively
    x^2/(2w^2), and moving s left by d drops it by at least (k+1)(d - 1).
    So the scan reaches at least 50 nats down on both sides: 12w above
    log(u*), and below it the nearer of 1 + 50/(k+1) and -log(1 - 10w).
    """
    k, b = np.asarray(k, dtype=float), np.asarray(b, dtype=float)
    root = np.sqrt(b * b + 8.0 * (k + 1.0))
    # u*, written without cancellation for b < 0
    mode = np.where(b < 0.0, 2.0 * (k + 1.0) / (root - b), 0.25 * (b + root))
    width = 1.0 / np.sqrt(2.0 * mode * mode + k + 1.0)
    with np.errstate(divide="ignore"):  # 10w >= 1: the log bound is infinite
        left = np.minimum(1.0 + 50.0 / (k + 1.0), -np.log1p(-np.minimum(10.0 * width, 1.0)))
    s_mode = np.log(mode)
    return _log_integral(_m_phi, s_mode - left, s_mode + 12.0 * width, k, b)


@dataclass(frozen=True)
class InvariantModelPair:
    """A null/alternative pair sharing a group-structured nuisance parameter.

    ``m`` is the initial-sample size: the smallest prefix length at which
    the right-Haar posterior is proper (1 for the scale group, 2 for the
    location-scale group).  Inputs whose initial sample falls in the
    excluded measure-zero set (x_1 = 0, respectively x_1 = x_2) are
    rejected; the samplers draw again on the float-exact hits, which have
    probability zero.
    """

    group: Union[ScaleGroup, LocationScaleGroup]
    effect_prior: EffectPrior

    @classmethod
    def scale(cls, effect_prior: EffectPrior) -> "InvariantModelPair":
        return cls(group=SCALE, effect_prior=effect_prior)

    @classmethod
    def location_scale(cls, effect_prior: EffectPrior) -> "InvariantModelPair":
        return cls(group=LOCATION_SCALE, effect_prior=effect_prior)

    @property
    def is_scale(self) -> bool:
        return isinstance(self.group, ScaleGroup)

    @property
    def m(self) -> int:
        return 1 if self.is_scale else 2

    def _validate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size < self.m:
            raise ValueError(f"need a 1-D sample of length >= {self.m}")
        if not np.all(np.isfinite(x)):
            raise ValueError("sample contains non-finite values")
        if self._excluded(x):
            raise SingularInputError(
                "initial sample lies in the excluded set "
                f"({'x_1 = 0' if self.is_scale else 'x_1 = x_2'})"
            )
        return x

    def _excluded(self, x: np.ndarray) -> bool:
        if self.is_scale:
            return x[0] == 0.0
        return x[0] == x[1]

    # ---------------------------------------------------------------- marginals

    def log_marginal_null(self, x) -> float:
        """Log marginal likelihood of the null with the right Haar prior."""
        x = self._validate(x)
        n = x.size
        if self.is_scale:
            s = float(x @ x)
            return math.lgamma(0.5 * n) - LOG_2 - 0.5 * n * (LOG_PI + math.log(s))
        ss = float(np.sum((x - x.mean()) ** 2))
        return (
            math.lgamma(0.5 * n)
            - LOG_2
            - 0.5 * (n - 1) * LOG_2PI
            - 0.5 * math.log(n)
            - 0.5 * n * math.log(0.5 * ss)
        )

    def log_bf(self, x) -> float:
        """log beta_n; invariant under the group action on the data.

        The one-prefix call of ``log_bf_many``.
        """
        return float(self.log_bf_many([x])[0])

    def log_bf_many(self, prefixes) -> np.ndarray:
        """log beta_n of each sample in ``prefixes``, in one exact-evaluator call.

        Every sample is checked as ``log_bf`` checks it, and its statistics
        come from it alone, so element i is ``log_bf(prefixes[i])`` bit for
        bit: the evaluator treats each point independently.  Location-scale
        pairs give zeros.
        """
        samples = [self._validate(x) for x in prefixes]
        if not self.is_scale:
            return np.zeros(len(samples))
        n, q, t = np.zeros((3, len(samples)))
        for i, x in enumerate(samples):
            n[i], _, q[i], t[i] = _scale_stats(x)
        return self.effect_prior.log_bf_stats(n, q, t)

    # ---------------------------------------------------------------- sampling

    def effect(self, k: int) -> EffectPrior:
        """Hypothesis k's effect prior: ``effect_prior`` at k = 1, the zero point mass at k = 0.

        The only place the hypotheses differ; any other k raises ``ValueError``.
        """
        if k not in (0, 1):
            raise ValueError(f"hypothesis index must be 0 or 1, got {k}")
        return self.effect_prior if k else _NULL_EFFECT

    def sample(self, k: int, g: GroupElement, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw x ~ P_{k,e} and push it through the group element g."""
        effect = self.effect(k)
        if n < self.m:
            raise ValueError(f"need n >= m = {self.m}, got {n}")
        delta = effect.draw(rng)
        while True:
            x = self.group.act(rng.standard_normal(n) + delta, g)
            if not self._excluded(x):
                return x

    def maximal_invariant(self, x) -> np.ndarray:
        """The orbit's coordinates: x / |x_1|, or (x_i - x_1) / |x_2 - x_1| for i >= 2."""
        x = self._validate(x)
        if self.is_scale:
            return x / abs(x[0])
        diffs = x[1:] - x[0]
        return diffs / abs(diffs[0])


class _TableStack(NamedTuple):
    """Every table built so far, stacked for reads at many n in one pass.

    ``piece0`` is indexed by n (-1 at an n without a table); the other
    arrays by the piece's index in the stack, in which each n's pieces
    are consecutive and in coordinate order.
    """

    piece0: np.ndarray  # (n,) stack index of the table's first piece
    inner: np.ndarray  # (n, most pieces - 1) inner piece edges, padded with inf
    lo: np.ndarray  # (pieces,) left piece edge
    scale: np.ndarray  # (pieces,) 2 / piece width
    coeffs: np.ndarray  # (DEGREE + 1, pieces): row i holds every piece's coefficient i


class ScaleBfCurves:
    """Vectorized evaluation of log beta_n over invariant coordinates, at any mix of n.

    The exact Bayes factor is, for each n, a smooth function of the
    effect prior's table coordinate (xi = log(1 - q) for the Cauchy
    effect, the signed t for a point mass), its ``log_bf_table``.  This
    class caches a piecewise Chebyshev interpolant of that curve per n
    (one piece unless the curve needs more, see ``_build``; the zero
    point mass gets one all-zero piece, which reads +0.0).  The n a read
    or a boundary needs are built together, in one batched fit that
    evaluates the Chebyshev nodes of every pending piece of every n in
    one exact-evaluator call per round; each table is the one a fit of
    its n alone gives, bit for bit, and spans the prior's TABLE_RANGE.

    One evaluator reads the tables: ``log_bf_cells`` takes cells
    (n, the prior's ``coordinate``) with an n of their own and runs one
    Clenshaw recurrence over all of them, each cell on its own n's piece,
    and ``boundary`` bisects with it across all n at once.  The recurrence
    has two arithmetics: a read of at most SCALAR_CELLS cells runs it on
    Python floats, cell by cell, and a larger one on arrays, taking one
    row of the stacked coefficients per step.  Both do, for each cell,
    the IEEE operations numpy's ``chebval`` does on that piece alone, in
    its order, so the value of a cell does not depend on what else is
    read with it.

    Because the interpolant is itself a deterministic function of the
    maximal invariant, thresholding its output remains an admissible
    quotient-measurable stopping rule; the approximation error (below
    1e-8, checked in the test suite) only relabels evidence values, and
    only at that scale.

    The exact beta_n increases strictly in the prior's ``coordinate``
    (q for the Cauchy effect, sign(delta0) * t for a point mass), so a bar
    on the table at n is a bound on that coordinate.  ``boundary`` takes
    these bounds from the tables themselves, for all n at once, widened
    so that a trial outside them cannot meet the bar; the Monte Carlo
    engine evaluates the tables only on the trials inside.
    """

    DEGREE = 64
    TAIL_TOL = 1e-10
    MAX_DEPTH = 30
    # boundary(): the bisection's level sits this many nats short of the
    # bar, far above the table error (< 1e-8) and Clenshaw rounding, and
    # stops at a bracket 2**-20 of the coordinate range wide (about 1e-6)
    BOUNDARY_MARGIN = 1e-6
    BOUNDARY_STEPS = 20
    # _cells: a read of at most this many cells runs the recurrence on Python
    # floats, a larger one on arrays.  The array loop costs about 120 us in
    # numpy calls whatever the size; on 2 vCPUs a 16-cell read took 83 us in
    # floats against 128 us on arrays, and the two crossed at about 28 cells
    SCALAR_CELLS = 16
    # chebinterpolate's nodes on [-1, 1] and its transposed Vandermonde view
    _NODES = np.polynomial.chebyshev.chebpts1(DEGREE + 1)
    _VT = np.polynomial.chebyshev.chebvander(_NODES, DEGREE).T

    def __init__(self, pair: InvariantModelPair):
        if not pair.is_scale:
            raise ValueError("curves are defined for scale-group pairs")
        self._prior = pair.effect_prior
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._stacked: Optional[_TableStack] = None
        self._boundaries: dict[tuple[float, int, bool], np.ndarray] = {}

    def _build(self, ns) -> None:
        """Fit the tables at every n of ``ns`` together, one exact-evaluator call per round.

        Each table covers the coordinate range with pieces, each the
        degree-DEGREE interpolant ``chebinterpolate`` gives of the curve
        on that piece.  A piece whose top eight coefficients are not
        negligible against TAIL_TOL (plus the rounding floor of its
        largest coefficient) has not converged and is split in half, down
        to MAX_DEPTH halvings; its halves go to the next round.  One piece
        suffices for most curves; a narrow prior on a large n bends the
        Cauchy curve within ~1/n of q = 0 and needs several.

        A round evaluates the nodes of every pending piece of every n in
        one call, which treats each point on its own, and takes each
        piece's coefficients with ``chebinterpolate``'s arithmetic, one
        product per piece: every table is the one a fit of its n alone
        gives, bit for bit.
        """
        order = self.DEGREE + 1
        lo, hi = self._prior.TABLE_RANGE
        done: dict[int, list] = {n: [] for n in ns}
        pending = [(n, lo, hi, 0) for n in ns]  # (n, piece start, piece end, halvings)
        while pending:
            n, a, b, depth = (np.array(v) for v in zip(*pending))
            x = (self._NODES + 1.0) * 0.5 * (b - a)[:, None] + a[:, None]
            y = self._prior.log_bf_table(n[:, None], x)
            # one product per piece with the transposed view, as chebinterpolate
            # takes it: one product over all pieces, or a contiguous copy of the
            # view, may take another BLAS kernel and change bits
            c = np.array([np.dot(self._VT, v) for v in y])
            c[:, 0] /= order
            c[:, 1:] /= 0.5 * order
            tol = self.TAIL_TOL + 1e-14 * np.abs(c).max(axis=1)
            split = (depth < self.MAX_DEPTH) & (np.abs(c[:, -8:]).max(axis=1) > tol)
            fitted, pending = pending, []
            for (n_i, a_i, b_i, d_i), c_i, split_i in zip(fitted, c, split):
                if split_i:
                    mid = 0.5 * (a_i + b_i)
                    pending += [(n_i, a_i, mid, d_i + 1), (n_i, mid, b_i, d_i + 1)]
                else:
                    done[n_i].append((a_i, c_i))
        for n, pieces in done.items():
            pieces.sort(key=lambda piece: piece[0])
            edges = np.array([a for a, _ in pieces] + [hi])
            self._tables[n] = (edges, np.array([c for _, c in pieces]))

    def _pieces(self, ns: np.ndarray) -> tuple[_TableStack, np.ndarray]:
        """The stacked tables and the stack index of each ``ns``'s first piece.

        Tables missing at ``ns`` are built first, in one batch, and the
        stack rebuilt.
        """
        stack = self._stacked
        if stack is not None and ns.max() < stack.piece0.size:
            piece = stack.piece0[ns]
            if piece.min() >= 0:
                return stack, piece
        self._build(sorted(set(ns.tolist()) - self._tables.keys()))
        built = sorted(self._tables)
        tables = [self._tables[n] for n in built]
        counts = np.array([len(coeffs) for _, coeffs in tables])
        piece0 = np.full(built[-1] + 1, -1, dtype=np.int64)
        piece0[built] = np.cumsum(counts) - counts
        inner = np.full((piece0.size, counts.max() - 1), math.inf)  # padding selects no piece
        for n, (edges, _) in zip(built, tables):
            inner[n, : edges.size - 2] = edges[1:-1]
        lo = np.concatenate([edges[:-1] for edges, _ in tables])
        hi = np.concatenate([edges[1:] for edges, _ in tables])
        coeffs = np.concatenate([coeffs for _, coeffs in tables])
        stack = self._stacked = _TableStack(
            piece0, inner, lo, 2.0 / (hi - lo), np.ascontiguousarray(coeffs.T)
        )
        return stack, stack.piece0[ns]

    def _cells(self, ns: np.ndarray, coord: np.ndarray) -> np.ndarray:
        """The table at ``ns[i]`` read at table coordinate ``coord[i]``, for 1-D arrays, n >= 2.

        Each element goes through what a read of its own n's table alone
        does: clip to the table's range, the piece ``searchsorted`` picks,
        the affine map onto [-1, 1] and ``chebval``'s recurrence: on Python
        floats for at most SCALAR_CELLS cells, else on arrays with the
        piece's coefficients taken one row per step, so that no (cells x
        coefficients) matrix is formed.
        """
        stack, piece = self._pieces(ns)
        coord = np.clip(coord, *self._prior.TABLE_RANGE)
        if stack.inner.shape[1]:
            piece += (coord[:, None] >= stack.inner[ns]).sum(axis=1)  # searchsorted, side right
        u = coord - stack.lo[piece]  # (coord - lo) * (2.0 / (hi - lo)) - 1.0
        u *= stack.scale[piece]
        u -= 1.0
        if u.size <= self.SCALAR_CELLS:
            # chebval's recurrence on Python floats: the same IEEE operations in
            # the same order as the array loop below, without its 250 numpy calls
            values = []
            for x, cs in zip(u.tolist(), stack.coeffs[:, piece].T.tolist()):
                x2, c0, c1 = 2 * x, cs[-2], cs[-1]
                for c in cs[-3::-1]:
                    c0, c1 = c - c1, c0 + c1 * x2
                values.append(c0 + c1 * x)
            return np.array(values)
        # chebval's recurrence: c0, c1 = c[-i] - c1, c0 + c1 * 2u, in place
        rows = stack.coeffs
        u2 = 2 * u
        c0, c1, spare = rows[-2].take(piece), rows[-1].take(piece), np.empty(u.size)
        for row in rows[-3::-1]:
            row.take(piece, out=spare)
            spare -= c1
            c1 *= u2
            c1 += c0
            c0, spare = spare, c0
        return c0 + c1 * u

    def log_bf_cells(self, ns, c) -> np.ndarray:
        """log beta at cells: element i at n = ``ns[i]`` and the prior's ``coordinate`` ``c[i]``.

        The two arguments broadcast together.  The cells are read off the
        tables in one pass (``_cells``) at the table coordinate of ``c``,
        building the tables at the n that are new.  The tables hold n >= 2:
        a cell at n < 2 raises ``ValueError`` (the pair's ``log_bf`` gives
        the exact value at n = 1).
        """
        ns, c = np.broadcast_arrays(np.asarray(ns, dtype=np.int64), np.asarray(c, dtype=float))
        if c.size == 0:
            return np.zeros(c.shape)
        if ns.min() < 2:
            raise ValueError(f"the tables hold n >= 2, got a cell at n = {ns.min()}")
        return self._cells(ns.ravel(), self._prior.table_coordinate(c.ravel())).reshape(c.shape)

    def boundary(self, log_bar: float, cap: int, above: bool) -> np.ndarray:
        """Per-n bounds on the prior's ``coordinate`` beyond which the table cannot reach a bar.

        Element n (2 <= n < cap) is a bound b such that the table at n is
        >= ``log_bar`` only at coordinates >= b when ``above``, and
        <= ``log_bar`` only at coordinates <= b otherwise.  The other
        elements are -inf, respectively +inf: every coordinate is a
        candidate (the cap stops every trial).

        One bisection, vectorized across n, brackets each n's crossing of
        the level ``log_bar`` -/+ BOUNDARY_MARGIN by the table itself,
        one ``_cells`` pass over all n per step; the bound is the bracket
        end on the bar's side, moved out by one more bracket width
        (rounding in the map to the table coordinate).  Because the exact
        curve increases strictly and the table is within half the margin
        of it, a coordinate beyond the bound cannot meet the bar.  A bar
        met at every coordinate leaves the bound below the range (every
        trial a candidate); one met nowhere leaves it within two bracket
        widths of the range's far end.  Cached per (log_bar, cap, above).
        """
        key = (log_bar, cap, above)
        cached = self._boundaries.get(key)
        if cached is not None:
            return cached
        out = np.full(cap + 1, -math.inf if above else math.inf)
        ns = np.arange(2, cap)
        if ns.size:
            level = log_bar - self.BOUNDARY_MARGIN if above else log_bar + self.BOUNDARY_MARGIN
            c_lo, c_hi = self._prior.COORDINATE_RANGE
            lo, hi = np.full(ns.size, c_lo), np.full(ns.size, c_hi)
            # table(lo) < level unless lo = c_lo; level <= table(hi) unless hi = c_hi
            for _ in range(self.BOUNDARY_STEPS):
                mid = 0.5 * (lo + hi)
                table = self._cells(ns, self._prior.table_coordinate(mid))
                meets = table >= level
                hi = np.where(meets, mid, hi)
                lo = np.where(meets, lo, mid)
            width = (c_hi - c_lo) * 2.0**-self.BOUNDARY_STEPS
            out[2:cap] = lo - width if above else hi + width
        self._boundaries[key] = out
        return out
