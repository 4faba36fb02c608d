"""The contour rule behind airy_quadrature, the far points of airy_grid
and airy_cdf_tail, against routes that do not share it: the power
series, Gauss-Legendre integrals of the series, and a 30-digit value
from an mpmath quadrature along the same legs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fresnelpseudo.errors import NonConvergent
from fresnelpseudo.special import (
    AiryOrder,
    airy_cdf_tail,
    airy_grid,
    airy_quadrature,
    airy_series,
    series_float64_range,
)

TOL = 1e-10
GL_X, GL_W = np.polynomial.legendre.leggauss(96)


def _gl_integral(c, d, alpha):
    nodes = 0.5 * (c + d) + 0.5 * (d - c) * GL_X
    return 0.5 * (d - c) * float(np.dot(GL_W, airy_grid(nodes, alpha, TOL)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(alpha=st.floats(1.05, 4.0), frac=st.floats(-1.0, 1.0))
def test_quadrature_matches_series_in_float64_range(alpha, frac):
    """The series runs at tol/10: at tol itself its float64 pass misses
    the tolerance at the range edge near order 1 (alpha = 1.0625,
    x = 1.33866: 2.1e-10 off), where terms past Gamma's overflow are
    rebuilt from log-magnitudes."""
    x = frac * series_float64_range(alpha)
    order = AiryOrder(alpha)
    got = airy_quadrature(x, order, TOL)
    assert abs(got - airy_series(x, order, TOL / 10.0)) <= 1.1 * TOL


@settings(derandomize=True, max_examples=60, deadline=None)
@given(alpha=st.floats(1.05, 4.0), lo=st.floats(-1.0, 1.0), hi=st.floats(-1.0, 1.0))
def test_tail_difference_matches_kernel_integral(alpha, lo, hi):
    r = series_float64_range(alpha)
    c, d = r * min(lo, hi), r * max(lo, hi)
    got = airy_cdf_tail(c, alpha, TOL) - airy_cdf_tail(d, alpha, TOL)
    assert abs(got - _gl_integral(c, d, alpha)) <= (2.0 + (d - c)) * TOL


@pytest.mark.parametrize("c", [-0.03, -1e-16, 1e-16, 0.03])
@pytest.mark.parametrize("alpha", [1.05, 2.5])
def test_tail_is_continuous_at_the_path_switch(alpha, c):
    """Near c = 0 the path is the single ray; at c -> 0- a three-leg path
    would degenerate.  int_0^inf Ai_a = 1/2 - 1/(2a)."""
    want = 0.5 - 0.5 / alpha + _gl_integral(min(c, 0.0), max(c, 0.0), alpha) * (1.0 if c < 0 else -1.0)
    assert abs(airy_cdf_tail(c, alpha, TOL) - want) <= 2.0 * TOL


@pytest.mark.parametrize("alpha,lo,hi,n", [(2.5, 0.0, 0.5, 201), (3.0, 0.5, 0.7, 41)])
def test_former_rotated_ray_holes(alpha, lo, hi, n):
    order = AiryOrder(alpha)
    for x in np.linspace(lo, hi, n):
        assert abs(airy_quadrature(x, order, TOL) - airy_series(x, order, TOL)) <= TOL


def test_deep_well_near_order_one_is_right_or_refused():
    """alpha = 1.2, x = -8: phi(s*) ~ 4.4e4, whose float64 rounding alone
    would move the value by ~2e-10.  Reference: mpmath quadrature at 40
    digits along the same three legs."""
    want = -110.698250706121643154375955121
    try:
        got = airy_quadrature(-8.0, AiryOrder(1.2), TOL)
    except NonConvergent:
        return
    assert abs(got - want) <= TOL


@pytest.mark.parametrize("alpha", [1.25, 2.0, 3.5])
def test_grid_batch_matches_scalar_calls(alpha):
    r = series_float64_range(alpha)
    xs = np.concatenate([np.linspace(-3.0 * r, -1.01 * r, 40), np.linspace(1.01 * r, 3.0 * r, 40)])
    batch = airy_grid(xs, alpha, TOL)
    scalar = np.array([airy_quadrature(x, AiryOrder(alpha), TOL) for x in xs])
    np.testing.assert_allclose(batch, scalar, rtol=1e-13, atol=1e-15)
