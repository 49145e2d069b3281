"""Stopping rules and the runtime invariance checker.

A rule is a deterministic function of the observed prefix (and, for
threshold rules, of the log Bayes factor at that prefix) returning
stop/continue.  Every rule carries a mandatory horizon cap that forces a
stop, so stopping times are bounded by construction.  Each rule owns its
decision: the exact oracle, ``core.stop`` and the invariance checker ask
it one prefix at a time (``decide``), and the Monte Carlo engine asks it
about many prefixes at once, from their running state and possibly at
different lengths (``decide_batch``).  A statistic rule's ``statistic``
of the prefix serves both its ``decide`` and its ``boundary_gap``.

Rules declare whether their decision is invariant under the model's
group action.  The declaration is not trusted: ``check_invariance``
probes it with randomized data and group elements, recomputing the Bayes
factor on the transformed data.  Probes are drawn one after another in a
fixed order; for a declared-invariant rule a chunk of them is drawn
first (with the Bayes factor of all of them from one exact-evaluator
call when the rule reads it), and decisions are then taken in probe
order, so chunking changes neither the report nor the generator's final
state.  Group transformations perturb the recomputed value at the
rounding level, so decisions within 1e-10 of a rule's decision boundary
are counted as inconclusive skips rather than failures.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional, Sequence, Tuple

import numpy as np

BOUNDARY_SKIP_BAND = 1e-10
# probes per log_bf_many call in check_invariance: 2 x 1024 short samples
PROBE_CHUNK = 1024
# check_invariance draws each probe's length from [m + 1, PROBE_MAX_LEN]
PROBE_MAX_LEN = 12


def _check_integer(name: str, value) -> None:
    """``ValueError`` naming ``name`` unless ``value`` is an int or a numpy integer (not a bool)."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


class StoppingRule:
    """Base class: a rule's bars and running state make its decision.

    ``decide`` returns True (stop) at the first prefix where either the
    rule fires or the prefix length reaches the cap.  The caller is
    responsible for querying only after the initial sample (see
    ``check_start``); rules never see the initial sample alone.

    A rule that reads log beta fires, before the cap, where log beta is
    on the firing side of one of its ``log_bars``: pairs (bar, above)
    that fire at log beta >= bar when ``above`` and at log beta <= bar
    otherwise, and ``boundary_gap`` is the distance to the nearest bar.
    The Monte Carlo engine turns each bar into a per-n bound on an
    invariant coordinate and asks the rule only about the trials beyond
    one.  Empty: the decision never reads log beta, and callers may pass
    None for it.

    A rule whose decision reads the prefix only through the running
    state (n, log beta, sum of squares) states it once, elementwise, in
    ``_fires_at``; ``decide_batch`` goes through it, and so does
    ``decide`` unless the rule overrides ``_fires``, as a statistic rule
    does to read its ``statistic`` of the whole prefix.
    """

    cap: int
    declared_invariant: ClassVar[bool]
    log_bars: ClassVar[Tuple[Tuple[float, bool], ...]] = ()

    def __post_init__(self) -> None:
        _check_integer("cap", self.cap)
        if self.cap < 1:
            raise ValueError(f"cap must be a positive sample size, got {self.cap}")

    def decide(self, prefix, log_beta: Optional[float] = None) -> bool:
        """Stop after ``prefix``?  ``log_beta`` is log beta at the full prefix."""
        if len(prefix) >= self.cap:
            return True
        return bool(self._fires(prefix, log_beta))

    def decide_batch(self, n, log_beta: Optional[np.ndarray], sum_sq: np.ndarray) -> np.ndarray:
        """``decide`` for a vector of prefixes, each given by its running state.

        Element i is the decision for the prefix of length ``n[i]`` whose
        log Bayes factor is ``log_beta[i]`` and whose sum of squares is
        ``sum_sq[i]``; ``n`` may be one length for every prefix or an
        array of them, so the prefixes of one call may come from different
        steps of different trials.  ``log_beta`` may be None when the rule
        has no ``log_bars``.  The result has the broadcast shape of ``n``
        and ``sum_sq``.
        """
        at_cap = np.asarray(n) >= self.cap
        shape = np.broadcast_shapes(at_cap.shape, np.shape(sum_sq))
        if at_cap.all():
            return np.ones(shape, dtype=bool)
        return np.broadcast_to(self._fires_at(n, log_beta, sum_sq), shape) | at_cap

    def check_start(self, m: int) -> None:
        """Reject the rule if it cannot decide after an initial sample of size m."""
        if self.cap <= m:
            raise ValueError(f"rule cap {self.cap} must exceed the initial-sample size {m}")

    def _fires(self, prefix, log_beta):
        return self._fires_at(len(prefix), log_beta, None)

    def _fires_at(self, n, log_beta, sum_sq):
        if not self.log_bars:
            raise NotImplementedError(
                f"{type(self).__name__} reads the whole prefix; it has no form over the "
                "running state (n, log beta, sum of squares)"
            )
        if log_beta is None:
            raise ValueError(f"{type(self).__name__} needs the current log Bayes factor")
        fires = False
        for bar, above in self.log_bars:
            fires = fires | (log_beta >= bar if above else log_beta <= bar)
        return fires

    def boundary_gap(self, prefix, log_beta) -> float:
        """Distance from the rule's decision boundary: to the nearest bar, inf with none."""
        return min((abs(log_beta - bar) for bar, _ in self.log_bars), default=math.inf)

    def exposes_crossing(self, threshold: float) -> bool:
        """Does the Bayes factor up to this rule's stop reach ``threshold``
        exactly when it does at some n <= cap?

        ``threshold`` is on the Bayes-factor scale.  When True, the
        crossing event can be read off the running maximum of each
        stopped path (``exact.verify_markov_bound``).
        """
        return False


@dataclass(frozen=True)
class FixedN(StoppingRule):
    """Stop at a predetermined sample size, ignoring the data."""

    n: int
    cap: Optional[int] = None
    declared_invariant: ClassVar[bool] = True

    def __post_init__(self) -> None:
        _check_integer("n", self.n)
        if self.n < 1:
            raise ValueError(f"fixed sample size must be >= 1, got {self.n}")
        if self.cap is None:
            object.__setattr__(self, "cap", self.n)
        super().__post_init__()
        if self.n > self.cap:
            raise ValueError(f"fixed sample size {self.n} exceeds the rule cap {self.cap}")

    def check_start(self, m: int) -> None:
        super().check_start(m)
        if self.n <= m:
            raise ValueError(f"fixed-n rule must stop after the initial sample (n > {m})")

    def _fires_at(self, n, log_beta, sum_sq):
        return n >= self.n

    def exposes_crossing(self, threshold: float) -> bool:
        return self.n == self.cap  # every path runs to the cap


@dataclass(frozen=True)
class BfThreshold(StoppingRule):
    """Stop when the Bayes factor leaves [lower, upper].

    Thresholds are on the Bayes-factor scale; ``lower`` is optional
    (one-sided rule).  They become the rule's ``log_bars`` once, at
    construction.  The Bayes factor is a function of the maximal
    invariant, so the rule is invariant whenever the model pair shares a
    group structure.
    """

    upper: float
    lower: Optional[float] = None
    cap: int = 1000
    declared_invariant: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if not (self.upper > 0):
            raise ValueError(f"upper threshold must be positive, got {self.upper}")
        if self.lower is not None and not (0 < self.lower < self.upper):
            raise ValueError(f"lower threshold must lie in (0, upper), got {self.lower}")
        super().__post_init__()
        bars = ((math.log(self.upper), True),)
        if self.lower is not None:
            bars += ((math.log(self.lower), False),)
        object.__setattr__(self, "log_bars", bars)

    def exposes_crossing(self, threshold: float) -> bool:
        # a path stopped early has crossed upper >= threshold; the rest run to the cap
        return self.lower is None and self.upper >= threshold


class _StatisticRule(StoppingRule):
    """Stop once ``statistic`` of the prefix, mapped by ``_coords``, reaches ``threshold``."""

    def _coords(self, prefix):
        return prefix

    def _value(self, prefix) -> float:
        return float(self.statistic(np.asarray(self._coords(prefix), dtype=float)))

    def _fires(self, prefix, log_beta) -> bool:
        return self._value(prefix) >= self.threshold

    def boundary_gap(self, prefix, log_beta) -> float:
        return abs(self._value(prefix) - self.threshold)


@dataclass(frozen=True)
class InvariantStatistic(_StatisticRule):
    """Stop when a statistic of the maximal invariant crosses a threshold.

    ``transform`` maps the raw prefix to an array of maximal-invariant
    coordinates: a pair's ``maximal_invariant`` itself, or a function of
    it.  ``statistic`` maps those coordinates to a real number.
    Decisions depend on the data only through the invariant, which is
    what makes the rule admissible.
    """

    statistic: Callable[[np.ndarray], float]
    threshold: float
    transform: Callable[[Sequence[float]], np.ndarray]
    cap: int
    declared_invariant: ClassVar[bool] = True

    def _coords(self, prefix):
        return self.transform(prefix)


@dataclass(frozen=True)
class RawStatistic(_StatisticRule):
    """Stop when a statistic of the raw prefix crosses a threshold.

    Deliberately not invariant in general: a statistic of the raw data
    (its sum, say) reacts to the scale of the data, which makes the rule
    inadmissible for the group results; ``SumOfSquares`` is the
    canonical case.
    """

    statistic: Callable[[np.ndarray], float]
    threshold: float
    cap: int
    declared_invariant: ClassVar[bool] = False


@dataclass(frozen=True)
class SumOfSquares(_StatisticRule):
    """The standard inadmissible rule: stop once sum(x_i^2) >= threshold.

    Its ``statistic`` decides a prefix and ``_fires_at`` the running state
    (n, log beta, sum of squares); it reacts to the scale of the data, so
    it is not invariant.  A NaN threshold, which no sum of squares meets,
    is refused (inf runs to the cap).
    """

    threshold: float
    cap: int
    declared_invariant: ClassVar[bool] = False

    def __post_init__(self) -> None:
        if math.isnan(self.threshold):
            raise ValueError(f"sum-of-squares threshold must be a number, got {self.threshold}")
        super().__post_init__()

    @staticmethod
    def statistic(x: np.ndarray) -> float:
        return np.dot(x, x)

    def _fires_at(self, n, log_beta, sum_sq):
        return sum_sq >= self.threshold


def _integer(value):
    """A string of an integer as an int; any other value as it is, for the rule to check."""
    return int(value) if isinstance(value, str) else value


# kind -> (constructor, required parameters, optional parameters); each
# parameter name maps to the converter applied to its value, named in its error
_NOT_A = {_integer: "an integer", float: "a number"}
_RULE_KINDS = {
    "fixed-n": (FixedN, {"n": _integer}, {}),
    "bf-threshold": (BfThreshold, {"upper": float}, {"lower": float}),
    "raw-sum-squares": (SumOfSquares, {"threshold": float}, {}),
}


def rule_from_params(kind: str, cap: int, **params) -> StoppingRule:
    """Construct a rule from a kind name and numeric parameters.

    Parameters may be numbers or numeric strings; one given as None or
    "" counts as absent.  An integer field given a number that is not an
    integer is refused by the rule, not truncated, and so is a ``cap``
    that is not an integer.  Used by the CLI config loader;
    ``InvariantStatistic`` rules need callables and are not
    constructible from flat configs.
    """
    kind = kind.strip().lower().replace("_", "-")
    if kind not in _RULE_KINDS:
        raise ValueError(f"unknown stopping-rule kind {kind!r}")
    make, required, optional = _RULE_KINDS[kind]
    unexpected = sorted(set(params) - set(required) - set(optional))
    if unexpected:
        raise ValueError(f"unexpected rule parameters: {unexpected}")
    args = {}
    for name, convert in {**required, **optional}.items():
        value = params.get(name)
        if value is None or value == "":
            if name in required:
                raise ValueError(f"{kind} rule needs parameter {name!r}")
            continue
        try:
            args[name] = convert(value)
        except ValueError:
            raise ValueError(f"rule parameter {name!r}: not {_NOT_A[convert]}: {value!r}") from None
    return make(cap=cap, **args)


@dataclass(frozen=True)
class InvarianceReport:
    """Outcome of a randomized invariance probe of one rule.

    A declared-invariant rule passes with no mismatch and at least one
    decided probe: a probe at or past the cap, or within the boundary
    band, is skipped and decides nothing.  It is probed ``trials`` times,
    so that is fewer skips than trials.  A rule not declared invariant
    passes when the probe refutes its invariance: a counterexample was
    found.
    """

    rule_kind: str
    declared_invariant: bool
    trials: int
    mismatches: int
    skipped_boundary: int
    counterexample: Optional[tuple] = None

    @property
    def passed(self) -> bool:
        if not self.declared_invariant:
            return self.counterexample is not None
        return self.mismatches == 0 and self.skipped_boundary < self.trials


def _draw_probe(pair, rng: np.random.Generator):
    """One probe (n, x, h, x.h), drawing from ``rng`` in the checker's fixed order."""
    group = pair.group
    k = int(rng.integers(0, 2))
    g = group.random_element(rng)
    n = int(rng.integers(pair.m + 1, PROBE_MAX_LEN + 1))
    x = pair.sample(k, g, n, rng)
    h = group.random_element(rng)
    return n, x, h, group.act(x, h)


def check_invariance(rule: StoppingRule, pair, trials: int,
                     rng: np.random.Generator) -> InvarianceReport:
    """Probe a rule's invariance under the pair's group action.

    Each trial draws a random prefix from the pair (random hypothesis,
    random nuisance value, random length in [m+1, PROBE_MAX_LEN]) and a
    random group element h, then compares the rule's decision on x with
    its decision on x.h.  The log Bayes factor is recomputed from scratch
    on the transformed data.  For declared-invariant rules any
    disagreement outside the boundary band counts as a mismatch; for raw
    rules the probe stops at the first counterexample.

    Probes are drawn in order, in chunks: a declared-invariant rule takes
    PROBE_CHUNK probes at a time and, with ``log_bars``, has log beta of
    all of the chunk's x and x.h (below the cap) from one
    ``log_bf_many`` call; a raw rule stops at its first counterexample,
    and takes one probe at a time.  Decisions are then made in
    probe order, so the report and the generator's final state are those
    of probing one trial at a time.  A sample the pair rejects raises
    as it would there, once the rest of its chunk has been drawn.  A rule
    that cannot decide after the pair's initial sample raises
    ``ValueError`` before any probe (``StoppingRule.check_start``).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rule.check_start(pair.m)
    chunk = PROBE_CHUNK if rule.declared_invariant else 1
    mismatches = 0
    skipped = 0
    counterexample = None
    drawn = 0
    while drawn < trials and (rule.declared_invariant or counterexample is None):
        probes = [_draw_probe(pair, rng) for _ in range(min(chunk, trials - drawn))]
        drawn += len(probes)
        live = [(x, h, xh) for n, x, h, xh in probes if n < rule.cap]
        skipped += len(probes) - len(live)  # the cap forces both decisions; nothing to learn
        if rule.log_bars:
            log_betas = pair.log_bf_many([y for x, _, xh in live for y in (x, xh)]).tolist()
        else:
            log_betas = [None] * (2 * len(live))
        for (x, h, xh), lb_x, lb_xh in zip(live, log_betas[::2], log_betas[1::2]):
            gap = min(rule.boundary_gap(x, lb_x), rule.boundary_gap(xh, lb_xh))
            if gap <= BOUNDARY_SKIP_BAND:
                skipped += 1
                continue
            if rule.decide(x, lb_x) != rule.decide(xh, lb_xh):
                mismatches += 1
                if counterexample is None:
                    counterexample = (np.array(x), h)
    return InvarianceReport(
        rule_kind=type(rule).__name__,
        declared_invariant=rule.declared_invariant,
        trials=trials,
        mismatches=mismatches,
        skipped_boundary=skipped,
        counterexample=counterexample,
    )
