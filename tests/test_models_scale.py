"""Scale-group pair: closed forms against independent quadrature oracles.

The oracles integrate the raw density products with scipy's QUADPACK
(plain or nested), mpmath, or the adaptive rule in ``quadrature.py``
beside this file, never reusing the package's own integration code, so
agreement here is a genuine two-route check.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from optstop import models
from optstop.errors import SingularInputError
from optstop.models import (
    Q_MAX,
    XI_MIN,
    CauchyEffect,
    InvariantModelPair,
    PointMass,
    ScaleBfCurves,
    log_m,
)
from quadrature import integrate_log

mpmath = pytest.importorskip("mpmath")


def null_log_marginal_oracle(x):
    """Adaptive quadrature of the null density over log sigma."""
    x = np.asarray(x, dtype=float)
    n, s = len(x), float(x @ x)
    center = 0.5 * math.log(s / (n + 1))

    def f(l):
        sig = math.exp(l)
        return math.exp(-0.5 * n * math.log(2 * math.pi * sig * sig) - s / (2 * sig * sig))

    val, err = integrate.quad(f, center - 30, center + 30, epsabs=0, epsrel=1e-13, limit=400)
    assert err < 1e-11 * val
    return math.log(val)


def alt_log_marginal_oracle(x, prior):
    """Nested quadrature: sigma inside (over log sigma), effect outside."""
    x = np.asarray(x, dtype=float)
    n = len(x)

    def sigma_integral(delta):
        def f(l):
            sig = math.exp(l)
            logp = -0.5 * n * math.log(2 * math.pi * sig * sig)
            logp -= float(np.sum((x - delta * sig) ** 2)) / (2 * sig * sig)
            return math.exp(logp)

        val, _ = integrate.quad(f, -30, 30, epsabs=1e-300, epsrel=1e-11, limit=400)
        return val

    if isinstance(prior, PointMass):
        return math.log(sigma_integral(prior.delta0))
    r = prior.scale

    def outer(delta):
        return sigma_integral(delta) * r / (math.pi * (delta * delta + r * r))

    val, _ = integrate.quad(outer, -np.inf, np.inf, epsabs=1e-300, epsrel=1e-10, limit=400)
    return math.log(val)


@pytest.fixture(scope="module")
def cauchy_pair():
    return InvariantModelPair.scale(CauchyEffect(1.0))


class TestNullMarginal:
    def test_single_point_closed_values(self, cauchy_pair):
        # Gamma(1/2) / (2 sqrt(pi) |x1|) = 1 / (2 |x1|)
        assert math.exp(cauchy_pair.log_marginal_null([1.0])) == pytest.approx(0.5, abs=1e-15)
        assert math.exp(cauchy_pair.log_marginal_null([2.0])) == pytest.approx(0.25, abs=1e-15)

    def test_closed_form_vs_quadrature(self, cauchy_pair, rng):
        for _ in range(25):
            n = int(rng.integers(1, 51))
            x = rng.standard_normal(n) * math.exp(rng.uniform(-2, 2))
            got = cauchy_pair.log_marginal_null(x)
            ref = null_log_marginal_oracle(x)
            assert abs(got - ref) <= 1e-10

    def test_scale_equivariance_jacobian(self, cauchy_pair, rng):
        x = rng.standard_normal(9) + 0.3
        n = len(x)
        for c in (0.5, 2.0, 17.0):
            assert cauchy_pair.log_marginal_null(c * x) == pytest.approx(
                cauchy_pair.log_marginal_null(x) - n * math.log(c), abs=1e-10
            )

    def test_excluded_set(self, cauchy_pair):
        with pytest.raises(SingularInputError):
            cauchy_pair.log_marginal_null([0.0, 1.0])


class TestLogM:
    @staticmethod
    def _reference(k, b):
        """High-precision reference.

        For b >= 0, tanh-sinh quadrature split at the mode.  For b < 0 the
        direct quadrature loses digits (huge dynamic range near zero), so
        substitute u = t/|b|, which turns the integrand into an O(1)-scaled
        gamma shape that mpmath resolves to full precision, split at its
        mode t* = |b|*u* and at 2, 4 and 8 peak widths either side of it.
        """
        mpmath.mp.dps = 40
        if b < 0.0:
            mu = mpmath.mpf(-b)
            u_mode = 2 * k / (math.sqrt(b * b + 8 * k) - b)  # u* of u^k exp(-u^2 + b*u)
            width = -b / math.sqrt(2 + (k / u_mode**2 if k else 0))  # in t
            center = -b * u_mode
            splits = [center + j * width for j in (-8, -4, -2, 0, 2, 4, 8)]
            pts = [0.0] + [p for p in splits if p > 0.0] + [mpmath.inf]
            val = mpmath.quad(lambda t: t**k * mpmath.e ** (-((t / mu) ** 2) - t), pts)
            return mpmath.log(val) - (k + 1) * mpmath.log(mu)
        mode = (b + math.sqrt(b * b + 8 * max(k, 1))) / 4
        pts = sorted({0.0, mode / 2, mode, 2 * mode + 1}) + [mpmath.inf]
        return mpmath.log(mpmath.quad(lambda u: u**k * mpmath.e ** (-u * u + b * u), pts))

    KS = [0, 1, 2, 5, 17, 60, 199, 500, 999]

    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize(
        "b", [-3000.0, -300.0, -90.0, -40.0, -3.2, -0.5, 0.0, 0.7, 4.0, 55.0, 90.0, 300.0, 3000.0]
    )
    def test_against_high_precision(self, k, b):
        # at k = 0, b = 3000 the peak is 2.4e-4 wide in log(u) beside a left
        # tail that falls by only k + 1 nats per unit: a scan range not
        # scaled to the peak width leaves it inside a single panel
        ref = float(self._reference(k, b))
        assert log_m(k, b) == pytest.approx(ref, rel=1e-11, abs=1e-11)

    def test_large_k_small_negative_drift(self):
        # the peak sits near t = |b| * sqrt(k/2), far beyond t = 4k when |b| is small
        k, b = 199_999, -10.0
        assert log_m(k, b) == pytest.approx(float(self._reference(k, b)), rel=1e-11, abs=1e-11)

    def test_zero_drift_closed_form(self):
        # M_k(0) = Gamma((k+1)/2) / 2; the evaluator has no b = 0 branch
        from scipy.special import gammaln

        for k in self.KS:
            ref = float(gammaln((k + 1) / 2)) - math.log(2.0)
            assert float(log_m(k, 0.0)) == pytest.approx(ref, rel=1e-11, abs=1e-11)


class TestAltMarginalAndBf:
    def test_pointmass_zero_equals_null_exactly(self, rng):
        pair = InvariantModelPair.scale(PointMass(0.0))
        for _ in range(10):
            x = rng.standard_normal(int(rng.integers(1, 20))) + rng.uniform(-1, 1)
            assert pair.log_bf(x) == 0.0

    def test_cauchy_bf_vs_nested_quadrature(self, cauchy_pair, rng):
        cases = [np.array([1.0, -1.0])]
        for _ in range(6):
            n = int(rng.integers(2, 12))
            cases.append(rng.standard_normal(n) + rng.uniform(-1.5, 1.5))
        for x in cases:
            got = cauchy_pair.log_bf(x)
            ref = alt_log_marginal_oracle(x, cauchy_pair.effect_prior) - null_log_marginal_oracle(x)
            # relative tolerance on the Bayes factor scale
            assert abs(math.expm1(got - ref)) <= 1e-8

    def test_pointmass_bf_vs_nested_quadrature(self, rng):
        pair = InvariantModelPair.scale(PointMass(0.8))
        for _ in range(6):
            n = int(rng.integers(1, 12))
            x = rng.standard_normal(n) + rng.uniform(-2, 2)
            got = pair.log_bf(x)
            ref = alt_log_marginal_oracle(x, pair.effect_prior) - null_log_marginal_oracle(x)
            assert abs(math.expm1(got - ref)) <= 1e-8

    def test_alt_marginal_scale_equivariance(self, cauchy_pair, rng):
        def log_marginal_alt(x):
            return cauchy_pair.log_marginal_null(x) + cauchy_pair.log_bf(x)

        x = rng.standard_normal(7) + 0.6
        n = len(x)
        for c in (0.5, 2.0):
            assert log_marginal_alt(c * x) == pytest.approx(
                log_marginal_alt(x) - n * math.log(c), abs=1e-10
            )

    def test_bf_invariance(self, cauchy_pair, rng):
        for _ in range(50):
            n = int(rng.integers(2, 40))
            x = rng.standard_normal(n) + rng.uniform(-1, 1)
            c = math.exp(rng.uniform(-3, 3))
            assert abs(cauchy_pair.log_bf(c * x) - cauchy_pair.log_bf(x)) <= 1e-10

    def test_collinear_data_clamped(self, cauchy_pair):
        # x proportional to the ones vector has q = 1 exactly, where the
        # alternative marginal diverges for n >= 3.  Both evaluation paths
        # use the largest double below 1 instead, so trajectories stay finite
        # and the scalar value matches the tabulated one.
        curves = ScaleBfCurves(cauchy_pair)
        for n in (3, 4, 12):
            x = [2.0] * n
            value = cauchy_pair.log_bf(x)
            assert math.isfinite(value)
            assert cauchy_pair.log_bf_many([x[:i] for i in range(1, n + 1)])[-1] == value
            c = cauchy_pair.effect_prior.coordinate(np.array([1.0]), np.array([1.0]))
            batch = curves.log_bf_cells(n, c)[0]
            assert abs(value - batch) <= 1e-8

    def test_trajectory_matches_log_bf_near_collinear(self, cauchy_pair, rng):
        # q rounds to within a few ulps of 1 here, where xi = log(1 - q) is
        # ill-conditioned: every prefix must take the scalar path's value
        for x in (np.full(12, 0.1), 100.0 + 1e-7 * rng.standard_normal(12)):
            prefixes = [x[:n] for n in range(1, x.size + 1)]
            assert cauchy_pair.log_bf_many(prefixes).tolist() == list(
                map(cauchy_pair.log_bf, prefixes)
            )

    def test_unit_bf_at_initial_sample_symmetric_prior(self, cauchy_pair):
        # symmetric effect prior: a single observation carries no evidence
        for x1 in (0.3, -2.0, 11.0):
            assert cauchy_pair.log_bf([x1]) == pytest.approx(0.0, abs=1e-14)

    def test_initial_sample_bf_asymmetric_point_prior(self):
        # beta_1 = 2 * Phi(delta0 * sign(x1)): nonzero for asymmetric priors
        pair = InvariantModelPair.scale(PointMass(0.7))
        for x1 in (1.5, -0.4):
            expected = 2.0 * stats.norm.cdf(0.7 * math.copysign(1.0, x1))
            assert math.exp(pair.log_bf([x1])) == pytest.approx(expected, rel=1e-12)


class TestLogBfMany:
    """One evaluator call for many samples gives each sample's log_bf bit for bit."""

    PRIORS = [CauchyEffect(0.01), CauchyEffect(0.1), CauchyEffect(1.0), CauchyEffect(10.0),
              PointMass(0.8), PointMass(-0.5), PointMass(0.0)]

    @staticmethod
    def samples(rng, m):
        xs = [rng.standard_normal(int(rng.integers(m, 15))) * rng.uniform(0.1, 5.0)
              + rng.uniform(-3.0, 3.0) for _ in range(300)]
        # n = 1; collinear prefixes, where q rounds to 1; means of both signs,
        # so a point mass of either sign sees b < 0 as well as b > 0
        xs += [np.array([0.4]), np.array([-2.5]), np.full(2, 2.0), np.full(12, -0.1),
               100.0 + 1e-7 * rng.standard_normal(12), -3.0 + 0.1 * rng.standard_normal(9)]
        return [x for x in xs if x.size >= m and (m == 1 or x[0] != x[1])]

    @pytest.mark.parametrize("group", ["scale", "location_scale"])
    @pytest.mark.parametrize("prior", PRIORS)
    def test_equals_log_bf_exactly(self, group, prior, rng):
        pair = getattr(InvariantModelPair, group)(prior)
        xs = self.samples(rng, pair.m)
        many = pair.log_bf_many(xs)
        assert many.shape == (len(xs),)
        assert [float(v) for v in many] == [pair.log_bf(x) for x in xs]
        if group == "location_scale":
            assert np.all(many == 0.0)

    @pytest.mark.parametrize("r", [0.1, 1.0])
    def test_cauchy_xi_from_math_log1p(self, r, rng):
        # np.log1p and math.log1p differ in the last bit on some q; the
        # evaluator is fed math.log1p(-q), as one-point evaluation always was
        pair = InvariantModelPair.scale(CauchyEffect(r))
        xs = self.samples(rng, 2)
        stats = [models._scale_stats(x) for x in xs]
        assert any(np.log1p(-q) != math.log1p(-q) for _, _, q, _ in stats)
        expected = [float(models._cauchy_log_bf_xi(n, math.log1p(-min(q, Q_MAX)), r))
                    for n, _, q, _ in stats]
        assert [float(v) for v in pair.log_bf_many(xs)] == expected

    def test_collinear_and_one_point_values(self, cauchy_pair):
        many = cauchy_pair.log_bf_many([[2.0], [2.0] * 3, [2.0] * 12])
        assert many[0] == 0.0
        assert np.all(np.isfinite(many)) and many[1] < many[2]

    def test_point_mass_negative_drift(self, rng):
        # b = delta0 * sqrt(2n) * t < 0 on every sample
        pair = InvariantModelPair.scale(PointMass(0.8))
        xs = [-np.abs(rng.standard_normal(n)) - 0.5 for n in (1, 2, 5, 14)]
        many = pair.log_bf_many(xs)
        assert [float(v) for v in many] == [pair.log_bf(x) for x in xs]
        assert np.all(many < 0.0)

    def test_empty_and_checked_input(self, cauchy_pair):
        assert cauchy_pair.log_bf_many([]).shape == (0,)
        with pytest.raises(SingularInputError):
            cauchy_pair.log_bf_many([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="non-finite"):
            cauchy_pair.log_bf_many([[1.0, math.nan]])

    # batch sizes 63, 64, 65 and 129: either side of one evaluator pass and of two
    @pytest.mark.parametrize("size", [models._CHUNK - 1, models._CHUNK, models._CHUNK + 1,
                                      2 * models._CHUNK + 1])
    @pytest.mark.parametrize("prior", [CauchyEffect(1.0), PointMass(0.8)], ids=str)
    def test_batches_across_the_pass_width(self, prior, size, rng):
        pair = InvariantModelPair.scale(prior)
        xs = self.samples(rng, 1)[:size]
        many = pair.log_bf_many(xs)
        assert many.shape == (size,)
        assert [float(v) for v in many] == [pair.log_bf(x) for x in xs]


class TestMaximalInvariant:
    def test_formula(self, cauchy_pair):
        coords = cauchy_pair.maximal_invariant([2.0, -4.0, 6.0])
        assert isinstance(coords, np.ndarray)
        assert np.allclose(coords, [1.0, -2.0, 3.0], atol=0)

    def test_sign_of_x1_is_kept(self, cauchy_pair, rng):
        # the group is the positive scales: x and -x lie on different orbits
        assert cauchy_pair.maximal_invariant([-2.0, -4.0, 6.0]).tolist() == [-1.0, -2.0, 3.0]
        x = rng.standard_normal(6) + 0.2
        assert np.array_equal(cauchy_pair.maximal_invariant(-x), -cauchy_pair.maximal_invariant(x))

    def test_invariance_under_scaling(self, cauchy_pair, rng):
        x = rng.standard_normal(6) + 0.2
        a = cauchy_pair.maximal_invariant(x)
        b = cauchy_pair.maximal_invariant(5.0 * x)
        assert np.allclose(a, b, atol=1e-14)

    def test_orbit_recovery(self, cauchy_pair, rng):
        # equal invariants should expose the group element connecting the points
        x = rng.standard_normal(5) + 0.4
        c = math.exp(rng.uniform(-2, 2))
        y = c * x
        ux = cauchy_pair.maximal_invariant(x)
        uy = cauchy_pair.maximal_invariant(y)
        assert np.allclose(ux, uy, atol=1e-12)
        recovered = abs(y[0]) / abs(x[0])
        assert np.allclose(x * recovered, y, atol=1e-10 * np.max(np.abs(y)))

    def test_distinct_orbits_differ(self, cauchy_pair, rng):
        x = rng.standard_normal(5) + 0.4
        y = x.copy()
        y[2] += 1.0
        assert not np.allclose(cauchy_pair.maximal_invariant(x), cauchy_pair.maximal_invariant(y))


class TestSampler:
    def test_null_second_moment(self, cauchy_pair, rng):
        sigma = 1.7
        draws = np.concatenate(
            [cauchy_pair.sample(0, sigma, 4, rng) for _ in range(25_000)]
        )
        second = float(np.mean(draws**2))
        se = float(np.std(draws**2) / math.sqrt(draws.size))
        assert abs(second - sigma**2) <= 3 * se

    def test_pointmass_alternative_mean(self, rng):
        pair = InvariantModelPair.scale(PointMass(0.9))
        sigma = 2.0
        draws = np.concatenate([pair.sample(1, sigma, 5, rng) for _ in range(20_000)])
        se = float(np.std(draws) / math.sqrt(draws.size))
        assert abs(float(np.mean(draws)) - 0.9 * sigma) <= 3 * se

    def test_group_action_distribution_equality(self, rng):
        # sigma-scaled draws at g=1 match draws at g=sigma in distribution
        pair = InvariantModelPair.scale(PointMass(0.6))
        sigma = 1.9
        a = sigma * np.array([pair.sample(1, 1.0, 3, rng)[0] for _ in range(4000)])
        b = np.array([pair.sample(1, sigma, 3, rng)[0] for _ in range(4000)])
        stat = stats.ks_2samp(a, b).statistic
        crit = 1.628 * math.sqrt(2.0 / 4000.0)  # 0.01-level two-sample threshold
        assert stat < crit

    def test_each_hypothesis_has_one_effect_prior(self):
        prior = CauchyEffect(0.7)
        pair = InvariantModelPair.scale(prior)
        assert pair.effect(1) is prior
        assert pair.effect(0) == PointMass(0.0)
        for k in (-1, 2):
            with pytest.raises(ValueError, match=f"hypothesis index must be 0 or 1, got {k}"):
                pair.effect(k)

    def test_a_null_sample_draws_only_its_normals(self, cauchy_pair):
        """The null's zero point mass draws nothing: x is g times the stream's first n normals."""
        gen, ref = np.random.default_rng(11), np.random.default_rng(11)
        x = cauchy_pair.sample(0, 2.5, 6, gen)
        assert x.tolist() == (2.5 * ref.standard_normal(6)).tolist()
        assert gen.bit_generator.state == ref.bit_generator.state

    def test_rejects_bad_arguments(self, cauchy_pair, rng):
        with pytest.raises(ValueError):
            cauchy_pair.sample(2, 1.0, 3, rng)
        with pytest.raises(ValueError):
            cauchy_pair.sample(0, 1.0, 0, rng)

    @pytest.mark.parametrize("scale", [1.0, 0.1, 7.3])
    def test_cauchy_draw_is_numpys_standard_cauchy(self, scale):
        """Two normals, z0 / z1: ``scale * standard_cauchy()`` bit for bit, on 1,000 streams.

        The stream ends where ``standard_cauchy`` leaves it: the next
        normals are equal too.
        """
        prior = CauchyEffect(scale)
        for trial in range(1000):
            key = np.array([20240817, trial], dtype=np.uint64)
            gen = np.random.Generator(np.random.Philox(key=key))
            ref = np.random.Generator(np.random.Philox(key=key))
            assert prior.draw(gen) == scale * float(ref.standard_cauchy())
            assert gen.standard_normal(3).tolist() == ref.standard_normal(3).tolist()

    def test_effect_from_leading_normals(self, rng):
        """``from_normals`` on rows of NORMALS normals equals ``draw`` on each row's stream."""
        z = rng.standard_normal((50, 2))
        cauchy = CauchyEffect(0.7)
        assert cauchy.NORMALS == 2
        rows = [float(cauchy.from_normals(row)) for row in z]
        assert cauchy.from_normals(z).tolist() == rows == [0.7 * (a / b) for a, b in z.tolist()]
        point = PointMass(-0.5)
        assert point.NORMALS == 0
        assert point.from_normals(z[:, :0]).tolist() == [-0.5] * 50


def null_posterior_sigma(x1, rng):
    """sigma from the null's posterior given x1: the draw the engine makes under H0."""
    sigma, delta = PointMass(0.0).posterior_state(x1, rng)
    assert delta == 0.0
    return sigma


class TestPosteriorSampler:
    def test_chi_square_pullback(self, rng):
        x1 = 1.0
        sigmas = np.array([null_posterior_sigma(x1, rng) for _ in range(100_000)])
        w = x1 * x1 / sigmas**2
        pvalue = stats.kstest(w, "chi2", args=(1,)).pvalue
        assert pvalue > 0.01

    def test_scale_equivariance_of_posterior(self, rng):
        a = np.array([null_posterior_sigma(1.0, rng) for _ in range(4000)])
        b = np.array([null_posterior_sigma(2.0, rng) for _ in range(4000)])
        stat = stats.ks_2samp(2.0 * a, b).statistic
        assert stat < 1.628 * math.sqrt(2.0 / 4000.0)

    def test_properness(self, rng):
        draws = np.array([null_posterior_sigma(1.3, rng) for _ in range(100_000)])
        assert np.all(np.isfinite(draws))
        assert np.all(draws > 0)

    @pytest.mark.parametrize("x1", [1.3, -0.02, 7e5])
    @pytest.mark.parametrize("prior", [CauchyEffect(1.0), PointMass(0.5)], ids=str)
    def test_draws_equal_the_chi_square_loop(self, prior, x1):
        """The engine's H0 posterior state is the chi-square loop's: same draws, same stream."""

        def loop(rng):  # the one-draw chi-square loop, written out
            w = 0.0
            while w == 0.0:
                w = float(rng.chisquare(1))
            return abs(x1) / math.sqrt(w), 0.0

        pair = InvariantModelPair.scale(prior)
        rng, ref = np.random.default_rng(4242), np.random.default_rng(4242)
        got = [pair.effect(0).posterior_state(x1, rng) for _ in range(500)]
        expected = [loop(ref) for _ in range(500)]
        assert np.array(got).tobytes() == np.array(expected).tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


def adaptive_cauchy_log_bf(n, xi, r):
    """Reference for the Cauchy evaluator: adaptive quadrature of the same phi.

    A fine scan brackets phi within 46 nats of its peak, and the package's
    adaptive Gauss-Legendre rule integrates over the bracket.
    """

    def phi(ell):
        return models._cauchy_phi(np.asarray(ell, dtype=float), n, xi, r)

    l_prior = math.log(0.5 * r * r)
    grid = np.linspace(l_prior - 45.0, max(l_prior, -(math.log(n) + xi)) + 60.0, 4001)
    vals = phi(grid)
    peak = float(vals.max())
    keep = np.nonzero(vals >= peak - 46.0)[0]
    step = grid[1] - grid[0]
    return integrate_log(phi, grid[keep[0]] - step, grid[keep[-1]] + step, rtol=1e-12, shift=peak)


class TestCauchyEvaluator:
    @pytest.mark.parametrize("r", [0.01, 0.1, 1.0, 10.0])
    @pytest.mark.parametrize("n", [2, 3, 10, 100, 1000])
    def test_matches_adaptive_quadrature(self, r, n):
        xis = np.array([XI_MIN, -20.0, -3.0, -0.3, -1e-14])
        got = models._cauchy_log_bf_xi(n, xis, r)
        for xi, value in zip(xis, got):
            assert abs(value - adaptive_cauchy_log_bf(n, float(xi), r)) <= 1e-10

    def test_scalar_equals_batch(self, rng):
        n = rng.integers(2, 1001, 300)
        xi = rng.uniform(XI_MIN, 0.0, 300)
        b = rng.uniform(-300.0, 300.0, 300)
        batch = models._cauchy_log_bf_xi(n, xi, 1.0)
        m_batch = models.log_m(n - 1, b)
        assert batch.shape == m_batch.shape == (300,)
        for i in range(0, 300, 29):
            assert models._cauchy_log_bf_xi(n[i], xi[i], 1.0) == batch[i]
            assert models.log_m(n[i] - 1, b[i]) == m_batch[i]


class TestCauchyScale:
    def test_the_least_scale_is_resolved_and_a_smaller_one_refused(self):
        # the scan's left end, log(r^2 / 2) - 45, meets _cauchy_phi's 700-nat clamp at
        # r = sqrt(2 exp(-655)); from there down log beta tends to 0 with r, and at
        # r = 1e-152 the clamped integrand gave 22.1, at r = 1e-300 a math domain error
        least = models._MIN_CAUCHY_SCALE
        assert 8.2e-143 < least < 8.4e-143
        x = [1.0, 0.5, -0.3, 2.0]
        assert abs(InvariantModelPair.scale(CauchyEffect(least)).log_bf(x)) < 1e-12
        for r in (math.nextafter(least, 0.0), 1e-152, 1e-300):
            with pytest.raises(ValueError, match=rf"^Cauchy scale .* got {r}$"):
                CauchyEffect(r)


class TestShareCount:
    """The scan points below each panel share, counted without a (points x scan x shares) array."""

    @staticmethod
    def check(cum):
        got = models._count_below_shares(cum)
        assert got.dtype.kind == "i"
        assert np.array_equal(got, (cum[:, :, None] < models._SHARES).sum(axis=1))

    @staticmethod
    def normalized(steps):
        cum = np.concatenate([np.zeros((len(steps), 1)), np.cumsum(steps, axis=1)], axis=1)
        return cum / cum[:, -1:]

    def test_random_nondecreasing_rows(self, rng):
        self.check(self.normalized(rng.exponential(size=(200, 128)) ** 3))

    def test_rows_with_ties(self, rng):
        # flat stretches (zero steps) and rows of a few repeated values
        steps = rng.exponential(size=(200, 128)) * (rng.random((200, 128)) < 0.3)
        steps[:, 0] += 1.0
        ties = np.sort(rng.choice([0.0, 0.25, 0.3, 1.0], size=(50, 129)), axis=1)
        self.check(np.concatenate([self.normalized(steps), ties]))

    def test_values_exactly_at_shares(self, rng):
        at = np.tile(models._SHARES, (100, 1))
        cum = np.sort(np.concatenate([at, rng.random((100, 104))], axis=1), axis=1)
        assert np.isin(models._SHARES, cum[0]).all()
        self.check(cum)

    def test_nan_rows(self, rng):
        # 0/0 normalizes a row with no variation to NaN throughout
        cum = self.normalized(rng.exponential(size=(5, 128)))
        cum[1] = np.nan
        cum[3, 60:] = np.nan
        self.check(cum)
        assert np.all(models._count_below_shares(cum)[1] == 0)


@pytest.fixture(scope="module")
def curves_by_prior():
    """Tables shared across hypothesis examples, built on first use per n."""
    return {}


class TestCurves:
    @pytest.mark.parametrize(
        "prior",
        [CauchyEffect(1.0), CauchyEffect(0.01), CauchyEffect(0.1), CauchyEffect(10.0), PointMass(0.8)],
    )
    def test_matches_exact_path(self, prior, rng):
        pair = InvariantModelPair.scale(prior)
        curves = ScaleBfCurves(pair)
        for n in (2, 3, 11, 64, 200, 500, 1000):
            q = np.concatenate(
                [
                    rng.uniform(0.0, 1.0 - 1e-12, 25),
                    [0.0, 1e-4, 1e-3, 3e-3, 1e-2, 1.0 - 1e-6, 1.0 - 1e-12, Q_MAX, 1.0],
                ]
            )
            t = np.copysign(np.sqrt(q), rng.standard_normal(q.size))
            got = curves.log_bf_cells(n, prior.coordinate(q, t))
            exact = prior.log_bf_stats(np.full(q.size, float(n)), q, t)
            assert np.max(np.abs(got - exact)) <= 1e-8

    def test_batch_makes_no_scalar_evaluation(self, monkeypatch):
        def scalar(*args):
            raise AssertionError("scalar Bayes-factor evaluation in the batch path")

        array_log_m = models.log_m

        def log_m_arrays_only(k, b):
            if np.ndim(b) == 0:
                scalar()
            return array_log_m(k, b)

        monkeypatch.setattr(CauchyEffect, "log_bf_stats", scalar)
        monkeypatch.setattr(models, "log_m", log_m_arrays_only)
        q = np.array([0.0, 0.5, 1.0 - 1e-6, 1.0 - 1e-12, Q_MAX, 1.0])
        t = np.sqrt(q) * np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        for prior in (CauchyEffect(1.0), PointMass(0.8)):
            curves = ScaleBfCurves(InvariantModelPair.scale(prior))
            for n in (2, 3, 50, 1000):
                assert np.all(np.isfinite(curves.log_bf_cells(n, prior.coordinate(q, t))))

    @pytest.mark.parametrize("prior", [CauchyEffect(1.0), PointMass(0.8)])
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 1000), q=st.floats(0.0, 1.0), sign=st.sampled_from([-1.0, 1.0]))
    def test_scalar_matches_batch(self, curves_by_prior, prior, n, q, sign):
        pair = InvariantModelPair.scale(prior)
        curves = curves_by_prior.setdefault(prior, ScaleBfCurves(pair))
        t = sign * math.sqrt(q)
        batch = curves.log_bf_cells(n, prior.coordinate(np.array([q]), np.array([t])))[0]
        exact = prior.log_bf_stats(np.array([float(n)]), np.array([q]), np.array([t]))[0]
        assert abs(exact - batch) <= 1e-8
