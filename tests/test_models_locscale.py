"""Location-scale pair: closed forms, equivariance, and the absorption identity."""

import math

import numpy as np
import pytest
from scipy import integrate

from optstop.errors import SingularInputError
from optstop.groups import LOCATION_SCALE
from optstop.models import CauchyEffect, InvariantModelPair, PointMass


@pytest.fixture(scope="module")
def pair():
    return InvariantModelPair.location_scale(CauchyEffect(1.0))


def null_oracle(x, delta0=0.0):
    """2-D quadrature of the normal likelihood against da db / a^2.

    ``delta0`` shifts the mean by a*delta0, which lets the same oracle
    also evaluate the point-effect alternative marginal.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)

    def f(b, l):
        a = math.exp(l)
        logp = -0.5 * n * math.log(2 * math.pi * a * a)
        logp -= float(np.sum((x - (a * delta0 + b)) ** 2)) / (2 * a * a)
        return math.exp(logp - l)  # weight 1/a^2 against da db = a dl db

    # the location spread scales with a, so the inner bounds must widen
    # with the outer variable or mass is truncated at large scales
    lo, hi = float(np.min(x)), float(np.max(x))
    span = hi - lo
    ss = float(np.sum((x - x.mean()) ** 2))
    val, err = integrate.dblquad(
        f,
        -10.0,
        14.0 + math.log(1.0 + ss),
        lambda l: lo - span - (9.0 + abs(delta0)) * math.exp(l),
        lambda l: hi + span + (9.0 + abs(delta0)) * math.exp(l),
        epsabs=1e-14,
        epsrel=1e-10,
    )
    return math.log(val)


class TestNullMarginal:
    def test_closed_form_vs_quadrature(self, pair, rng):
        for _ in range(6):
            n = int(rng.integers(2, 9))
            x = rng.standard_normal(n) * 1.3 + rng.uniform(-1.5, 1.5)
            got = pair.log_marginal_null(x)
            ref = null_oracle(x)
            assert abs(got - ref) <= 1e-6  # dblquad oracle accuracy bound

    def test_equivariance_jacobian(self, pair, rng):
        x = rng.standard_normal(6) + 0.3
        n = len(x)
        for a, b in ((0.5, 1.7), (3.0, -4.0)):
            lhs = pair.log_marginal_null(a * x + b)
            rhs = pair.log_marginal_null(x) - n * math.log(a)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_excluded_set(self, pair):
        with pytest.raises(SingularInputError):
            pair.log_marginal_null([2.0, 2.0, 5.0])


class TestAbsorption:
    """A mean effect is absorbed by the location component exactly."""

    def test_alt_equals_null_in_code(self, pair, rng):
        x = rng.standard_normal(5) + 0.4
        assert pair.log_bf(x) == 0.0

    def test_alt_equals_null_against_oracle(self, rng):
        # the 2-D quadrature of the shifted-mean alternative must agree
        # with the closed-form null marginal
        pm = InvariantModelPair.location_scale(PointMass(1.3))
        x = rng.standard_normal(5) * 0.8 + 0.5
        alt = pm.log_marginal_null(x) + pm.log_bf(x)
        assert alt == pytest.approx(null_oracle(x, delta0=1.3), abs=1e-6)

    def test_bf_invariance_trivial(self, pair, rng):
        for _ in range(20):
            x = rng.standard_normal(int(rng.integers(2, 10))) + 0.2
            g = LOCATION_SCALE.random_element(rng)
            assert pair.log_bf(LOCATION_SCALE.act(x, g)) == pair.log_bf(x) == 0.0


class TestMaximalInvariant:
    def test_translation_scale_invariance_example(self, pair):
        x = np.array([0.0, 2.0, 5.0])
        a, b = 3.0, 7.0
        u1 = pair.maximal_invariant(x)
        u2 = pair.maximal_invariant(a * x + b)
        assert np.allclose(u1, u2, atol=1e-14)
        assert u1.shape == (2,)

    def test_formula(self, pair):
        coords = pair.maximal_invariant([1.0, 3.0, 7.0])
        assert np.allclose(coords, [1.0, 3.0], atol=0)  # (2/|2|, 6/|2|)

    def test_orbit_recovery(self, pair, rng):
        x = rng.standard_normal(5)
        a = math.exp(rng.uniform(-1.5, 1.5))
        b = rng.normal(0, 2)
        y = a * x + b
        assert np.allclose(pair.maximal_invariant(x), pair.maximal_invariant(y), atol=1e-12)
        a_rec = abs(y[1] - y[0]) / abs(x[1] - x[0])
        b_rec = y[0] - a_rec * x[0]
        assert np.allclose(a_rec * x + b_rec, y, atol=1e-10)


class TestGroup:
    def test_axioms(self, rng):
        g = LOCATION_SCALE.random_element(rng)
        h = LOCATION_SCALE.random_element(rng)
        x = rng.standard_normal(4)
        # action compatibility: (x.g).h == x.(g*h)
        lhs = LOCATION_SCALE.act(LOCATION_SCALE.act(x, g), h)
        rhs = LOCATION_SCALE.act(x, LOCATION_SCALE.compose(g, h))
        assert np.allclose(lhs, rhs, atol=1e-12)
        # inverse
        gi = LOCATION_SCALE.inverse(g)
        assert np.allclose(LOCATION_SCALE.act(LOCATION_SCALE.act(x, g), gi), x, atol=1e-12)
        # identity
        assert np.allclose(LOCATION_SCALE.act(x, LOCATION_SCALE.identity), x, atol=0)


class TestSampler:
    def test_moments_under_action(self, pair, rng):
        a, b = 1.6, -2.0
        draws = np.concatenate([pair.sample(0, (a, b), 4, rng) for _ in range(20_000)])
        se_mean = float(np.std(draws) / math.sqrt(draws.size))
        assert abs(float(np.mean(draws)) - b) <= 4 * se_mean
        var = float(np.var(draws))
        assert abs(var - a * a) <= 0.05

    def test_alternative_mean_shift(self, rng):
        pm = InvariantModelPair.location_scale(PointMass(0.9))
        a, b = 2.0, 1.0
        draws = np.concatenate([pm.sample(1, (a, b), 4, rng) for _ in range(20_000)])
        se = float(np.std(draws) / math.sqrt(draws.size))
        assert abs(float(np.mean(draws)) - (a * 0.9 + b)) <= 4 * se

    def test_minimum_length(self, pair, rng):
        with pytest.raises(ValueError):
            pair.sample(0, (1.0, 0.0), 1, rng)
