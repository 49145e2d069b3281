import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quadrature import QuadratureError, integrate, integrate_log


def test_polynomial_exact():
    res = integrate(lambda x: 3 * x**2, 0.0, 2.0)
    assert abs(res.value - 8.0) < 1e-13


def test_gaussian_integral():
    res = integrate(lambda x: np.exp(-(x**2)), -12.0, 12.0)
    assert abs(res.value - math.sqrt(math.pi)) < 1e-13


def test_peaked_integrand_with_min_panels():
    # narrow Gaussian, width 1e-2, off the default node positions; the
    # initial splitting must sample it before refinement can lock on
    res = integrate(
        lambda x: np.exp(-(((x - 0.3456) / 1e-2) ** 2)), 0.0, 1.0, min_panels=32
    )
    assert abs(res.value - 1e-2 * math.sqrt(math.pi)) < 1e-14
    assert res.panels > 32


def test_error_estimate_bounds_true_error():
    res = integrate(lambda x: np.sin(7 * x) ** 2, 0.0, 3.0, rtol=1e-10)
    truth = 1.5 - math.sin(42.0) / 28.0
    assert abs(res.value - truth) <= max(res.error, 1e-12)


def test_budget_exhaustion_raises():
    with pytest.raises(QuadratureError) as err:
        integrate(lambda x: np.exp(-np.abs(x) ** 0.1), -1.0, 1.0, rtol=1e-16, max_panels=4)
    assert err.value.residual > 0


def test_nonfinite_bounds_rejected():
    with pytest.raises(ValueError):
        integrate(lambda x: x, 0.0, math.inf)


def test_integrate_log_matches_linear():
    val = integrate_log(lambda x: -(x**2), -10.0, 10.0)
    assert abs(val - 0.5 * math.log(math.pi)) < 1e-12


def test_integrate_log_extreme_scale():
    # integrand peak value exp(5000) overflows linear space
    val = integrate_log(lambda x: 5000.0 - (x - 2.0) ** 2, -40.0, 40.0)
    assert abs(val - (5000.0 + 0.5 * math.log(math.pi))) < 1e-11


def test_integrate_log_explicit_shift():
    val = integrate_log(lambda x: -((x - 1.0) ** 2), -30.0, 30.0, shift=0.0)
    assert abs(val - 0.5 * math.log(math.pi)) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(-5, 5),
    width=st.floats(0.1, 10),
    scale=st.floats(0.1, 3),
)
def test_shifted_gaussian_property(a, width, scale):
    b = a + width
    res = integrate(lambda x: np.exp(-((x / scale) ** 2)), a, b)
    from scipy.special import erf

    truth = scale * math.sqrt(math.pi) / 2 * (erf(b / scale) - erf(a / scale))
    assert abs(res.value - truth) < 1e-12 * max(1.0, abs(truth))
