import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from fresnelpseudo.errors import DomainError
from fresnelpseudo.mixture import (
    ModalityReport,
    StationaryPoint,
    cauchy_mixture_pdf,
    classify,
    critical_alpha,
    inflection_parameters,
    mode_analysis,
    pdf_derivative,
    second_derivative_at_stationary,
)
from fresnelpseudo.subordination import SubordinationSpec, subordinated_density_quadrature

PARAM_SETS = [
    (2.0, 0.5, 1.0),
    (1.5, 0.3, 0.7),
    (2.8, 0.9, 2.0),
    (1.7, 0.15, 1.2),
    (3.5, 0.6, 0.9),
]


def two_component_form(x, alpha, p, t):
    loc = t * math.sin(math.pi / (2 * alpha))
    sc = t * math.cos(math.pi / (2 * alpha))
    plus = sc / math.pi / ((x - loc) ** 2 + sc**2)
    minus = sc / math.pi / ((x + loc) ** 2 + sc**2)
    return p * plus + (1 - p) * minus


class TestPdf:
    def test_equals_two_component_mixture(self):
        rng = np.random.default_rng(0)
        for alpha, p, t in PARAM_SETS:
            xs = rng.uniform(-8.0, 8.0, 50)
            got = cauchy_mixture_pdf(xs, alpha, p, t)
            want = two_component_form(xs, alpha, p, t)
            assert np.max(np.abs(got - want)) < 1e-14

    def test_normalized(self):
        for alpha, p, t in [(2.0, 0.5, 1.0), (1.4, 0.2, 0.6)]:
            total, err = integrate.quad(
                lambda x: cauchy_mixture_pdf(x, alpha, p, t),
                -np.inf,
                np.inf,
                epsabs=1e-11,
                limit=400,
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_matches_subordination_integral(self):
        # unit-index subordination reproduces this closed form
        alpha, p = 2.0, 0.3
        spec = SubordinationSpec(alpha, 1.0 / alpha, p)
        for x in [0.0, 0.8, -2.1]:
            got = cauchy_mixture_pdf(x, alpha, p, 1.0)
            want = subordinated_density_quadrature(x, spec, 1.0)
            assert got == pytest.approx(want, abs=1e-8)

    def test_scalar_and_array(self):
        v = cauchy_mixture_pdf(0.3, 2.0, 0.5, 1.0)
        arr = cauchy_mixture_pdf(np.array([0.3, 0.4]), 2.0, 0.5, 1.0)
        assert isinstance(v, float)
        assert arr.shape == (2,)
        assert arr[0] == v

    def test_time_scaling(self):
        for x in [0.4, 1.9]:
            a = cauchy_mixture_pdf(x, 1.8, 0.4, 2.0)
            b = cauchy_mixture_pdf(x / 2.0, 1.8, 0.4, 1.0) / 2.0
            assert a == pytest.approx(b, rel=1e-14)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            cauchy_mixture_pdf(0.0, 1.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            cauchy_mixture_pdf(0.0, 2.0, 1.5, 1.0)
        with pytest.raises(DomainError):
            cauchy_mixture_pdf(0.0, 2.0, 0.5, 0.0)


class TestDerivative:
    def test_against_central_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        for alpha, p, t in PARAM_SETS:
            xs = rng.uniform(-6.0, 6.0, 40)
            analytic = pdf_derivative(xs, alpha, p, t)
            fd = (
                cauchy_mixture_pdf(xs + h, alpha, p, t)
                - cauchy_mixture_pdf(xs - h, alpha, p, t)
            ) / (2.0 * h)
            rel = np.abs(analytic - fd) / np.maximum(np.abs(analytic), 1e-3)
            assert np.max(rel) < 1e-6

    def test_odd_symmetry_at_half(self):
        # symmetric weight: f is even, so f' is odd
        xs = np.linspace(0.1, 5.0, 23)
        a = pdf_derivative(xs, 2.3, 0.5, 1.1)
        b = pdf_derivative(-xs, 2.3, 0.5, 1.1)
        assert np.max(np.abs(a + b)) < 1e-15

    def test_vanishes_at_closed_form_modes(self):
        for alpha in [1.5, 2.0, 2.7]:
            m = math.sqrt(2.0 * math.sin(math.pi / (2 * alpha)) - 1.0)
            assert abs(pdf_derivative(m, alpha, 0.5, 1.0)) < 1e-14
            assert abs(pdf_derivative(-m, alpha, 0.5, 1.0)) < 1e-14


class TestClassify:
    def test_symmetric_bimodal_frozen(self):
        rep = classify(2.0, 0.5, 1.0)
        assert rep.kind == "Bimodal"
        locs = [pt.location for pt in rep.stationary_points]
        kinds = [pt.kind for pt in rep.stationary_points]
        want = 0.643594252905582624735
        assert locs[0] == pytest.approx(-want, abs=1e-12)
        assert locs[1] == pytest.approx(0.0, abs=1e-12)
        assert locs[2] == pytest.approx(want, abs=1e-12)
        assert kinds == ["maximum", "minimum", "maximum"]

    @pytest.mark.parametrize("alpha", [3.0, 4.0])
    def test_unimodal_at_origin(self, alpha):
        # alpha = 3 is the flat case: the curvature vanishes at the
        # origin (a triple root of N) yet f' changes sign from + to -
        rep = classify(alpha, 0.5, 1.0)
        assert rep.kind == "Unimodal"
        assert len(rep.stationary_points) == 1
        pt = rep.stationary_points[0]
        assert abs(pt.location) < 1e-9
        assert pt.kind == "maximum"

    def test_critical_point_is_stationary_inflection(self):
        ac = critical_alpha()
        pstar, xstar = inflection_parameters(ac, +1)
        rep = classify(ac, pstar, 1.0)
        assert rep.kind == "InflectionCase"
        assert len(rep.stationary_points) == 2
        inflect = rep.stationary_points[1]
        assert inflect.kind == "inflection"
        assert inflect.location == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-9)
        assert rep.stationary_points[0].kind == "maximum"
        assert abs(pdf_derivative(inflect.location, ac, pstar, 1.0)) < 1e-10

    @pytest.mark.parametrize("dp,kind", [(-1e-8, "Unimodal"), (1e-8, "Bimodal")])
    def test_window_round_the_critical_inflection_is_symmetric(self, dp, kind):
        """Just off p*, N has a conjugate pair 0.5773503 +- 7.9e-5i on one
        side and a real pair 1.6e-4 apart on the other; neither lies
        within the 1e-5 cluster radius, so neither is an inflection."""
        ac = critical_alpha()
        pstar, _ = inflection_parameters(ac, +1)
        rep = classify(ac, pstar + dp, 1.0)
        assert rep.kind == kind
        assert all(pt.kind != "inflection" for pt in rep.stationary_points)

    def test_below_critical_chosen_point_is_maximum(self):
        p, xstar = inflection_parameters(1.5, +1)
        rep = classify(1.5, p, 1.0)
        assert rep.kind == "Bimodal"
        nearest = min(rep.stationary_points, key=lambda pt: abs(pt.location - xstar))
        assert nearest.kind == "maximum"
        assert nearest.location == pytest.approx(xstar, abs=1e-9)

    def test_above_critical_chosen_point_is_minimum(self):
        p, xstar = inflection_parameters(1.8, +1)
        rep = classify(1.8, p, 1.0)
        assert rep.kind == "Bimodal"
        nearest = min(rep.stationary_points, key=lambda pt: abs(pt.location - xstar))
        assert nearest.kind == "minimum"
        assert nearest.location == pytest.approx(xstar, abs=1e-9)

    def test_single_component_weights(self):
        for p, sgn in [(1.0, 1.0), (0.0, -1.0)]:
            rep = classify(1.5, p, 1.0)
            assert rep.kind == "Unimodal"
            loc = rep.stationary_points[0].location
            assert loc == pytest.approx(sgn * math.sin(math.pi / 3.0), abs=1e-9)

    def test_time_scaling(self):
        r1 = classify(2.0, 0.5, 1.0)
        r2 = classify(2.0, 0.5, 2.0)
        for a, b in zip(r1.stationary_points, r2.stationary_points):
            assert b.location == pytest.approx(2.0 * a.location, abs=1e-11)
            assert b.kind == a.kind

    def test_report_carries_parameters(self):
        rep = classify(2.2, 0.4, 1.3)
        assert rep.parameters_used == (2.2, 0.4, 1.3)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(alpha=st.floats(1.05, 6.0), p=st.floats(0.0, 1.0), t=st.floats(0.2, 5.0))
    def test_labels_follow_the_sign_of_the_derivative(self, alpha, p, t):
        points = classify(alpha, p, t).stationary_points
        xs = [pt.location for pt in points]
        # a quarter of the way to each neighbour, t beyond the outermost
        reach = np.diff(xs, prepend=xs[0] - 4.0 * t, append=xs[-1] + 4.0 * t) / 4.0
        left = pdf_derivative(np.array(xs) - reach[:-1], alpha, p, t)
        right = pdf_derivative(np.array(xs) + reach[1:], alpha, p, t)
        want = {"maximum": (1, -1), "minimum": (-1, 1)}
        for pt, lo, hi in zip(points, np.sign(left), np.sign(right)):
            assert want.get(pt.kind, (lo, lo)) == (lo, hi)
        # every root of N lies within 4t (Cauchy's bound at unit time)
        scan = np.sign(pdf_derivative(np.linspace(-5.0 * t, 5.0 * t, 20001), alpha, p, t))
        scan = scan[scan != 0.0]
        n_max = int(np.count_nonzero((scan[:-1] > 0.0) & (scan[1:] < 0.0)))
        assert [pt.kind for pt in points].count("maximum") == n_max


class TestInflectionParameters:
    def test_frozen_at_critical(self):
        ac = critical_alpha()
        assert ac == pytest.approx(1.644267771536001926734, abs=1e-15)
        p, x = inflection_parameters(ac, +1)
        assert p == pytest.approx(0.146446609406726237800, abs=1e-14)
        assert p == pytest.approx((math.sqrt(2.0) - 1.0) / (2.0 * math.sqrt(2.0)), abs=1e-15)
        assert x == pytest.approx(0.577350269189625764509, abs=1e-14)

    def test_mirror_symmetry(self):
        pp, xp = inflection_parameters(1.6, +1)
        pm, xm = inflection_parameters(1.6, -1)
        assert pm == pytest.approx(1.0 - pp, abs=1e-15)
        assert xm == pytest.approx(-xp, abs=1e-15)

    def test_weight_stays_in_range(self):
        for alpha in [1.05, 1.3, 1.644, 1.95]:
            p, _ = inflection_parameters(alpha, +1)
            assert 0.0 < p <= 0.5

    def test_rejects_orders_outside_band(self):
        for alpha in [1.0, 2.0, 2.5, 0.8]:
            with pytest.raises(DomainError):
                inflection_parameters(alpha, +1)

    def test_rejects_bad_sign(self):
        with pytest.raises(DomainError):
            inflection_parameters(1.5, 0)


class TestStationaryCurvature:
    def test_matches_finite_differences(self):
        h = 1e-4
        for alpha in [1.3, 1.5, 1.8]:
            p, xs = inflection_parameters(alpha, +1)
            t = 1.3
            x = xs * t
            fd = (
                cauchy_mixture_pdf(x + h, alpha, p, t)
                - 2.0 * cauchy_mixture_pdf(x, alpha, p, t)
                + cauchy_mixture_pdf(x - h, alpha, p, t)
            ) / h**2
            assert second_derivative_at_stationary(alpha, t) == pytest.approx(fd, abs=1e-6)

    def test_vanishes_at_critical_order(self):
        assert abs(second_derivative_at_stationary(critical_alpha(), 1.0)) < 1e-15

    def test_sign_flips_across_critical(self):
        assert second_derivative_at_stationary(1.5, 1.0) < 0.0
        assert second_derivative_at_stationary(1.8, 1.0) > 0.0

    def test_time_scaling(self):
        a = second_derivative_at_stationary(1.5, 1.0)
        b = second_derivative_at_stationary(1.5, 2.0)
        assert b == pytest.approx(a / 8.0, rel=1e-14)

    def test_rejects_orders_outside_band(self):
        with pytest.raises(DomainError):
            second_derivative_at_stationary(2.2, 1.0)


class TestModeAnalysis:
    def test_transition_at_three(self):
        below = mode_analysis(2.999, 1.0)
        at = mode_analysis(3.0, 1.0)
        assert below.kind == "Bimodal"
        assert at.kind == "Unimodal"

    @pytest.mark.parametrize("alpha", [1.2, 1.6, 2.0, 2.5, 2.9])
    def test_bimodal_locations(self, alpha):
        rep = mode_analysis(alpha, 1.0)
        want = math.sqrt(2.0 * math.sin(math.pi / (2.0 * alpha)) - 1.0)
        assert rep.kind == "Bimodal"
        assert rep.stationary_points[2].location == pytest.approx(want, abs=1e-15)
        assert rep.stationary_points[0].location == pytest.approx(-want, abs=1e-15)

    @pytest.mark.parametrize("alpha", [3.0, 3.5, 5.0])
    def test_unimodal_orders(self, alpha):
        rep = mode_analysis(alpha, 1.0)
        assert rep.kind == "Unimodal"
        assert rep.stationary_points[0].location == 0.0

    def test_scales_with_time(self):
        r = mode_analysis(2.0, 3.0)
        assert r.stationary_points[2].location == pytest.approx(
            3.0 * math.sqrt(math.sqrt(2.0) - 1.0), abs=1e-14
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            mode_analysis(0.9, 1.0)
        with pytest.raises(DomainError):
            mode_analysis(2.0, -1.0)
