import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy import integrate, special as sp

from fresnelpseudo import special
from fresnelpseudo.errors import DomainError, NonConvergent
from fresnelpseudo.special import (
    _SERIES_CAP,
    _airy_term_logs,
    _scan_terms,
    _wright_term_logs,
    AiryOrder,
    WeibullParams,
    WrightArgs,
    airy_cdf_tail,
    airy_grid,
    airy_point,
    airy_quadrature,
    airy_series,
    series_float64_range,
    stable_subordinator_pdf,
    weibull_pdf,
    wright_series,
)


def classical_ai(x):
    return sp.airy(x)[0]


def fresnel_ai2(x):
    """Order-2 closed form through Fresnel integrals (independent oracle)."""
    s, c = sp.fresnel(x / math.sqrt(math.pi))
    return (
        math.cos(0.5 * x * x) * (0.5 - c) + math.sin(0.5 * x * x) * (0.5 - s)
    ) / math.sqrt(math.pi)


class TestAiryValidation:
    def test_order_must_exceed_one(self):
        with pytest.raises(DomainError):
            AiryOrder(1.0)
        with pytest.raises(DomainError):
            AiryOrder(0.5)

    def test_tol_positive(self):
        with pytest.raises(DomainError):
            airy_series(1.0, AiryOrder(2.0), tol=0.0)
        with pytest.raises(DomainError):
            airy_quadrature(1.0, AiryOrder(2.0), tol=-1e-9)


class TestAirySeries:
    @pytest.mark.parametrize("x", [-5.0, -3.3, -1.7, -0.4, 0.0, 0.6, 1.0, 2.5, 5.0])
    def test_matches_classical_airy_at_order_three(self, x):
        assert_allclose(
            airy_series(x, AiryOrder(3.0), 1e-12), classical_ai(x), atol=5e-13
        )

    @pytest.mark.parametrize("x", [-6.0, -2.5, -0.7, 0.0, 0.9, 2.2, 5.0])
    def test_matches_fresnel_closed_form_at_order_two(self, x):
        assert_allclose(airy_series(x, AiryOrder(2.0), 1e-12), fresnel_ai2(x), atol=5e-13)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 2.5, 3.0, 4.0])
    def test_value_at_zero(self, alpha):
        # k = 0 term alone: Gamma(1/a) sin(pi (a+1) / 2a) / (pi a^((a-1)/a))
        want = (
            math.gamma(1.0 / alpha)
            * math.sin(math.pi * (alpha + 1.0) / (2.0 * alpha))
            / (math.pi * alpha ** ((alpha - 1.0) / alpha))
        )
        assert airy_series(0.0, AiryOrder(alpha)) == pytest.approx(want, abs=1e-15)

    def test_escalates_beyond_float64_range(self):
        """x past the certified float64 range must still come back
        accurate (extended-precision pass), not silently wrong."""
        alpha = 1.5
        assert series_float64_range(alpha, 1e-9) < 4.0
        s = airy_series(4.0, AiryOrder(alpha), 1e-9)
        q = airy_quadrature(4.0, AiryOrder(alpha), 1e-9)
        assert abs(s - q) < 1e-8

    def test_refuses_past_precision_cap(self):
        with pytest.raises(NonConvergent):
            airy_series(80.0, AiryOrder(1.5), 1e-10)

    @pytest.mark.parametrize("x", [1.732185378102459, -1.7321])
    def test_order_near_one_past_gamma_overflow(self, x):
        """Gamma((k+1)/alpha) overflows while x**k/k! underflows at these
        points; the float64 pass must not turn inf * 0 into NaN."""
        alpha = 1.1725175860865968
        s = airy_series(x, AiryOrder(alpha))
        q = airy_quadrature(x, AiryOrder(alpha))
        assert abs(s - q) < 1e-9

    def test_no_nan_across_float64_range_near_order_one(self):
        xs = np.linspace(-1.8, 1.8, 361)
        vals = [airy_point(float(x), 1.1725175860865968) for x in xs]
        assert np.all(np.isfinite(vals))

    def test_huge_order_is_a_domain_error(self):
        with pytest.raises(DomainError):
            airy_series(1.0, AiryOrder(1e308))

    @pytest.mark.parametrize("alpha", [1.05, 1.0625, 1.1, 1.2, 1.25])
    def test_both_float64_routes_within_tol_across_range(self, alpha):
        """Near order 1 the peak term sits past k ~ 100, where a term
        rebuilt from its log-magnitude carries a few ulps of that log;
        the float64 gate must cover it on the whole certified range."""
        xs = np.linspace(-1.0, 1.0, 41) * series_float64_range(alpha)
        ref = np.array([airy_series(float(x), AiryOrder(alpha), 1e-15) for x in xs])
        series = np.array([airy_series(float(x), AiryOrder(alpha), 1e-10) for x in xs])
        assert np.max(np.abs(series - ref)) < 1e-10
        assert np.max(np.abs(airy_grid(xs, alpha, 1e-10) - ref)) < 1e-10


class TestAiryQuadrature:
    @pytest.mark.parametrize("x", [-5.0, -1.0, 0.0, 0.5, 2.0, 4.0])
    def test_matches_classical_airy_at_order_three(self, x):
        assert_allclose(
            airy_quadrature(x, AiryOrder(3.0), 1e-12), classical_ai(x), atol=2e-12
        )

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 2.5, 3.0, 4.0])
    def test_agrees_with_series(self, alpha):
        for x in np.linspace(-4.0, 4.0, 17):
            s = airy_series(float(x), AiryOrder(alpha), 1e-9)
            q = airy_quadrature(float(x), AiryOrder(alpha), 1e-9)
            assert abs(s - q) < 1e-7, f"alpha={alpha}, x={x}: {s} vs {q}"

    def test_deep_oscillatory_region(self):
        # far negative argument, order 2: oracle still in closed form
        assert_allclose(
            airy_quadrature(-25.0, AiryOrder(2.0), 1e-11), fresnel_ai2(-25.0), atol=1e-10
        )


class TestAiryHelpers:
    def test_point_and_grid_consistent(self):
        xs = np.linspace(-3.5, 3.5, 31)
        g = airy_grid(xs, 2.5, 1e-10)
        for i, x in enumerate(xs):
            assert abs(g[i] - airy_point(float(x), 2.5, 1e-10)) < 1e-9

    def test_tail_integral_classical_values(self):
        # int_0^inf Ai = 1/3 for the classical function, 1/4 at order 2
        assert_allclose(airy_cdf_tail(0.0, 3.0), 1.0 / 3.0, atol=1e-12)
        assert_allclose(airy_cdf_tail(0.0, 2.0), 0.25, atol=1e-12)

    @pytest.mark.parametrize("c", [1.0, -2.0])
    def test_tail_integral_against_direct_quadrature(self, c):
        want, _ = integrate.quad(classical_ai, c, 40.0, limit=400)
        assert_allclose(airy_cdf_tail(c, 3.0), want, atol=1e-8)

    def test_tail_integral_low_order_deep_well(self):
        """Order 1.5 at c = -6 runs the deep-phase-well branch with the
        origin's s**(alpha-2) derivative singularity; reference values
        were frozen from a 30-digit piecewise evaluation."""
        assert_allclose(
            airy_cdf_tail(-6.0, 1.5), 0.5 + 0.57627909693340097085, atol=1e-11
        )
        assert_allclose(
            airy_cdf_tail(6.0, 1.5), 0.5 - 0.49156657590699525321, atol=1e-11
        )


class TestWeibull:
    def test_validation(self):
        with pytest.raises(DomainError):
            WeibullParams(0.0, 1.0)
        with pytest.raises(DomainError):
            WeibullParams(1.0, -2.0)
        with pytest.raises(DomainError):
            weibull_pdf(0.0, WeibullParams(2.0, 1.0))
        with pytest.raises(DomainError):
            weibull_pdf(np.array([1.0, -0.5]), WeibullParams(2.0, 1.0))

    def test_exponential_special_case(self):
        # gamma = 1 reduces to Exp(1/tau)
        p = WeibullParams(1.0, 2.0)
        assert weibull_pdf(1.0, p) == pytest.approx(0.5 * math.exp(-0.5), abs=1e-16)

    def test_mode_of_shape_two(self):
        p = WeibullParams(2.0, 1.0)
        m = 1.0 / math.sqrt(2.0)
        assert weibull_pdf(m, p) == pytest.approx(math.sqrt(2.0) * math.exp(-0.5), abs=1e-15)
        assert weibull_pdf(m, p) > weibull_pdf(m + 0.05, p)
        assert weibull_pdf(m, p) > weibull_pdf(m - 0.05, p)

    @pytest.mark.parametrize("gamma,tau", [(0.7, 1.3), (2.0, 1.0), (3.5, 0.4)])
    def test_normalization(self, gamma, tau):
        val, _ = integrate.quad(
            lambda y: weibull_pdf(y, WeibullParams(gamma, tau)), 1e-12, 80.0, limit=300
        )
        assert_allclose(val, 1.0, atol=1e-7)

    def test_vector_evaluation(self):
        p = WeibullParams(2.0, 1.0)
        ys = np.array([0.2, 0.8, 1.9])
        out = weibull_pdf(ys, p)
        assert out.shape == ys.shape
        assert_allclose(out[1], weibull_pdf(0.8, p), rtol=1e-15)


class TestWright:
    def test_validation(self):
        with pytest.raises(DomainError):
            WrightArgs(0.0, -1.0)
        with pytest.raises(DomainError):
            WrightArgs(1.0, -1.0)
        with pytest.raises(DomainError):
            WrightArgs(0.5, 0.1)

    def test_value_at_zero(self):
        assert wright_series(WrightArgs(0.5, 0.0)) == pytest.approx(
            1.0 / math.sqrt(math.pi), abs=1e-16
        )

    @pytest.mark.parametrize("y", [0.3, 1.0, 2.0, 7.0])
    def test_half_theta_closed_form(self, y):
        """theta = 1/2 collapses to exp(-y^2/4)/sqrt(pi)."""
        want = math.exp(-y * y / 4.0) / math.sqrt(math.pi)
        # default tol is absolute; allow it in the comparison
        assert_allclose(wright_series(WrightArgs(0.5, -y)), want, rtol=1e-9, atol=1e-13)

    @pytest.mark.parametrize("theta", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("eta", [0.5, 1.0, 1.5])
    def test_mellin_transform_identity(self, theta, eta):
        """int_0^inf W(-y) y^(eta-1) dy = Gamma(eta)/Gamma(1-theta+theta*eta),
        checked through the y = v^2 substitution (regular at 0)."""
        vmax = {0.3: 4.5, 0.5: 3.3, 0.7: 2.3}[theta]
        val, _ = integrate.quad(
            lambda v: 2.0 * wright_series(WrightArgs(theta, -v * v)) * v ** (2.0 * eta - 1.0),
            1e-10,
            vmax,
            limit=300,
        )
        want = math.gamma(eta) / math.gamma(1.0 - theta + theta * eta)
        assert_allclose(val, want, atol=1e-6)

    def test_refuses_when_terms_never_decay(self):
        with pytest.raises(NonConvergent):
            wright_series(WrightArgs(0.5, -1e6))

    def test_theta_near_one_past_gamma_overflow(self):
        """Gamma(theta (k+1)) overflows before 1/k! is negligible here."""
        theta, z = 0.99, -1.0
        with mp.workdps(40):
            want = mp.fsum(
                mp.mpf(z) ** k
                * mp.sin(mp.pi * mp.mpf(theta) * (k + 1))
                * mp.gamma(mp.mpf(theta) * (k + 1))
                / (mp.pi * mp.factorial(k))
                for k in range(700)
            )
        assert_allclose(wright_series(WrightArgs(theta, z)), float(want), rtol=0, atol=1e-11)


class TestStableSubordinator:
    def test_validation(self):
        with pytest.raises(DomainError):
            stable_subordinator_pdf(-0.5, 1.0, 0.5)
        with pytest.raises(DomainError):
            stable_subordinator_pdf(0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            stable_subordinator_pdf(1.0, 0.0, 0.5)
        with pytest.raises(DomainError):
            stable_subordinator_pdf(1.0, 1.0, 1.0)

    @pytest.mark.parametrize(
        "x,t", [(1.0, 1.0), (0.3, 1.0), (4.0, 2.0), (0.05, 1.0), (0.01, 1.0), (0.004, 1.0)]
    )
    def test_half_theta_levy_closed_form(self, x, t):
        """theta = 1/2 is the Levy density t e^{-t^2/4x} / (2 sqrt(pi) x^{3/2});
        the small-x cases cross the series/saddle switch."""
        want = t * math.exp(-t * t / (4.0 * x)) / (2.0 * math.sqrt(math.pi) * x**1.5)
        assert_allclose(stable_subordinator_pdf(x, t, 0.5), want, rtol=1e-12)

    def test_frozen_point_value(self):
        assert stable_subordinator_pdf(1.0, 1.0, 0.5) == pytest.approx(
            0.21969564473386119852, abs=1e-15
        )

    @pytest.mark.parametrize("theta", [0.3, 0.7])
    def test_normalization(self, theta):
        # core by log substitution, power tail by the two-term expansion
        big = 1e8
        val, _ = integrate.quad(
            lambda w: stable_subordinator_pdf(math.exp(w), 1.0, theta) * math.exp(w),
            math.log(1e-6),
            math.log(big),
            limit=800,
        )
        tail = big ** (-theta) / math.gamma(1.0 - theta) - math.sin(
            2.0 * math.pi * theta
        ) * math.gamma(2.0 * theta) / (2.0 * math.pi) * big ** (-2.0 * theta)
        assert_allclose(val + tail, 1.0, atol=1e-7)

    @pytest.mark.parametrize("theta", [0.4, 0.6])
    def test_self_similarity(self, theta):
        # h(x, t) = t^(-1/theta) h(x t^(-1/theta), 1)
        t = 2.7
        for x in [0.4, 1.1, 5.0]:
            lhs = stable_subordinator_pdf(x, t, theta)
            rhs = t ** (-1.0 / theta) * stable_subordinator_pdf(
                x * t ** (-1.0 / theta), 1.0, theta
            )
            assert_allclose(lhs, rhs, rtol=1e-10)


def _full_cap_scan(logmag, cutoff_log):
    """Reference truncation scan over every index up to the cap, which
    the lazily grown _scan_terms must reproduce exactly."""
    vals = logmag(np.arange(_SERIES_CAP + 1, dtype=float))
    peak = int(np.argmax(vals))
    below = np.nonzero((np.arange(vals.size) > peak) & (vals < cutoff_log))[0]
    if below.size == 0:
        return None
    return int(below[0]), float(vals[peak])


SCAN_SETTINGS = settings(derandomize=True, max_examples=120, deadline=None)
CUTOFFS = st.one_of(st.floats(-800.0, 60.0), st.just(math.nan))


class TestTermScan:
    @SCAN_SETTINGS
    @given(
        alpha=st.floats(1.01, 6.0),
        x=st.floats(-2e3, 2e3).filter(lambda v: v != 0.0),
        cutoff=CUTOFFS,
    )
    @example(alpha=1.05, x=60.0, cutoff=-30.0)  # peak beyond the cap
    @example(alpha=2.5, x=-4.0, cutoff=math.log(1e-16))
    def test_airy_matches_full_scan(self, alpha, x, cutoff):
        logmag = lambda k: _airy_term_logs(k, x, alpha)
        assert _scan_terms(logmag, cutoff) == _full_cap_scan(logmag, cutoff)

    @SCAN_SETTINGS
    @given(theta=st.floats(0.01, 0.999), absz=st.floats(1e-8, 1e4), cutoff=CUTOFFS)
    @example(theta=0.5, absz=1e6, cutoff=-34.5)  # never decays within the cap
    def test_wright_matches_full_scan(self, theta, absz, cutoff):
        logmag = lambda k: _wright_term_logs(k, absz, theta)
        assert _scan_terms(logmag, cutoff) == _full_cap_scan(logmag, cutoff)

    @SCAN_SETTINGS
    @given(nu=st.floats(1.01, 2.0), z2=st.floats(0.0, 1e5), cutoff=CUTOFFS)
    @example(nu=1.01, z2=1e5, cutoff=-30.0)
    def test_subordinated_matches_full_scan(self, nu, z2, cutoff):
        from fresnelpseudo.subordination import _sub_term_logs

        logmag = lambda k: _sub_term_logs(k, z2, nu)
        assert _scan_terms(logmag, cutoff) == _full_cap_scan(logmag, cutoff)

    def test_cap_reached_returns_none(self):
        assert _scan_terms(lambda k: _airy_term_logs(k, 60.0, 1.05), -30.0) is None
        with pytest.raises(NonConvergent):
            airy_series(60.0, AiryOrder(1.05))

    @pytest.mark.parametrize(
        "alpha", [1.05, 1.25, 1.35, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0, 3.25, 3.5, 4.0]
    )
    def test_float64_range_matches_full_scan_bisection(self, alpha, monkeypatch):
        lazy = series_float64_range(alpha)
        monkeypatch.setattr(
            special,
            "_term_prefixes",
            lambda logmag: iter([logmag(np.arange(_SERIES_CAP + 1, dtype=float))]),
        )
        assert series_float64_range(alpha) == lazy
