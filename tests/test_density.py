import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate

from fresnelpseudo.density import (
    OscillationConstants,
    PseudoParams,
    char_fn,
    density,
    has_closed_form,
    pde_fourier_residual,
    weibull_representation,
)
from fresnelpseudo.errors import DomainError, NonConvergent, UnsupportedClosedForm
from fresnelpseudo.special import airy_cdf_tail, series_float64_range
from fresnelpseudo.subordination import (
    SubordinationSpec,
    subordinated_density_series,
    subordinated_weibull_repr,
)


class TestParams:
    @pytest.mark.parametrize(
        "alpha,p,t",
        [(1.0, 0.5, 1.0), (0.5, 0.5, 1.0), (2.0, -0.1, 1.0), (2.0, 1.2, 1.0), (2.0, 0.5, 0.0)],
    )
    def test_rejects_bad_parameters(self, alpha, p, t):
        with pytest.raises(DomainError):
            PseudoParams(alpha, p, t)

    def test_scale(self):
        assert PseudoParams(2.0, 0.5, 2.0).lam == pytest.approx(2.0)

    def test_oscillation_constants(self):
        osc = OscillationConstants.for_order(2.0)
        assert osc.a_alpha == pytest.approx(math.cos(math.pi / 4.0))
        assert osc.b_alpha == pytest.approx(math.sin(math.pi / 4.0))
        for alpha in (1.5, 2.7, 5.0):
            o = OscillationConstants.for_order(alpha)
            assert o.a_alpha**2 + o.b_alpha**2 == pytest.approx(1.0, abs=1e-15)


class TestDensityRoutes:
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_closed_form_matches_kernel_routes(self, t):
        pp = PseudoParams(2.0, 0.5, t)
        xs = np.linspace(-8.0, 8.0, 81)
        cf = density(xs, pp, method="closed_form")
        assert_allclose(cf, density(xs, pp, method="series", tol=1e-12), atol=1e-10)
        assert_allclose(cf, density(xs, pp, method="airy", tol=1e-12), atol=1e-10)
        # and against the cosine expression itself
        want = np.cos(xs * xs / (4.0 * t) - math.pi / 4.0) / (2.0 * math.sqrt(math.pi * t))
        assert_allclose(cf, want, rtol=0, atol=1e-15)

    def test_closed_form_gate(self):
        assert has_closed_form(PseudoParams(2.0, 0.5, 1.0))
        assert not has_closed_form(PseudoParams(2.5, 0.5, 1.0))
        with pytest.raises(UnsupportedClosedForm):
            density(1.0, PseudoParams(2.5, 0.5, 1.0), method="closed_form")
        with pytest.raises(UnsupportedClosedForm):
            density(1.0, PseudoParams(2.0, 0.3, 1.0), method="closed_form")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            density(1.0, PseudoParams(2.0, 0.5, 1.0), method="magic")

    @pytest.mark.parametrize("alpha,p,t", [(1.5, 0.3, 1.0), (2.5, 0.7, 0.5), (4.0, 1.0, 1.0)])
    def test_series_and_quadrature_agree(self, alpha, p, t):
        pp = PseudoParams(alpha, p, t)
        xs = np.linspace(-4.0, 4.0, 21)
        se = density(xs, pp, method="series", tol=1e-10)
        ai = density(xs, pp, method="airy", tol=1e-10)
        au = density(xs, pp, method="auto", tol=1e-10)
        assert np.max(np.abs(se - ai)) < 1e-8
        assert np.max(np.abs(au - se)) < 1e-8

    @pytest.mark.parametrize("alpha", [1.05, 1.25, 2.5, 4.0])
    def test_auto_matches_series_route_at_every_size(self, alpha):
        """method="auto" is one batched kernel call at any input size,
        on both sides of the float64 series range."""
        pp = PseudoParams(alpha, 0.3, 0.8)
        xs = pp.lam * 1.1 * series_float64_range(alpha) * np.linspace(-1.0, 1.0, 21)
        want = density(xs, pp, method="series", tol=1e-10)
        assert np.max(np.abs(density(xs, pp, tol=1e-10) - want)) < 1e-10
        scalars = [density(float(x), pp, tol=1e-10) for x in xs]
        assert np.max(np.abs(np.array(scalars) - want)) < 1e-10

    def test_scalar_and_array_forms(self):
        pp = PseudoParams(2.5, 0.4, 1.0)
        v = density(0.7, pp)
        arr = density(np.array([0.7]), pp)
        assert isinstance(v, float)
        assert arr.shape == (1,)
        assert arr[0] == pytest.approx(v, abs=1e-12)

    def test_scaling_law(self):
        """u(x, t) = t^(-1/a) u(x t^(-1/a), 1); exact in the kernel
        composition, so demanded at 1e-10."""
        pp1 = PseudoParams(2.5, 0.65, 1.0)
        for t in (0.3, 2.0, 7.5):
            ppt = PseudoParams(2.5, 0.65, t)
            for x in (-2.0, 0.5, 3.0):
                rhs = t ** (-1.0 / 2.5) * density(x * t ** (-1.0 / 2.5), pp1)
                assert density(x, ppt) == pytest.approx(rhs, abs=1e-10)

    def test_takes_negative_values(self):
        pp = PseudoParams(2.0, 0.5, 1.0)
        vals = density(np.linspace(-10.0, 10.0, 401), pp)
        assert np.min(vals) < -0.1

    @pytest.mark.parametrize("alpha,p,t", [(1.5, 0.3, 1.0), (2.0, 0.5, 0.7), (3.0, 0.8, 1.5)])
    def test_total_integral_is_one(self, alpha, p, t):
        pp = PseudoParams(alpha, p, t)
        lam = pp.lam
        big = 6.0 * lam
        core, _ = integrate.quad(
            lambda x: density(x, pp, tol=1e-11), -big, big, limit=800, epsabs=1e-10
        )
        # analytic tails through the kernel's tail-integral identity
        yb = big / lam
        upper = p * (1.0 - airy_cdf_tail(-yb, alpha)) + (1.0 - p) * airy_cdf_tail(yb, alpha)
        lower = p * airy_cdf_tail(yb, alpha) + (1.0 - p) * (1.0 - airy_cdf_tail(-yb, alpha))
        assert_allclose(core + upper + lower, 1.0, atol=1e-7)


class TestCharFn:
    def test_value_at_zero_is_exactly_one(self):
        assert char_fn(0.0, PseudoParams(3.0, 0.4, 1.3)) == 1.0 + 0.0j

    def test_modulus_bounded_by_one(self):
        pp = PseudoParams(3.0, 0.4, 1.3)
        g = np.linspace(-6.0, 6.0, 301)
        assert np.max(np.abs(char_fn(g, pp))) <= 1.0 + 1e-14

    def test_symmetric_weight_gives_real_cosine(self):
        pp = PseudoParams(3.0, 0.5, 1.3)
        g = np.linspace(-5.0, 5.0, 101)
        vals = char_fn(g, pp)
        assert np.max(np.abs(vals.imag)) == 0.0
        assert_allclose(vals.real, np.cos(np.abs(g) ** 3 * 1.3), atol=1e-14)

    def test_hermitian_symmetry(self):
        # real-valued u forces cf(-g) = conj(cf(g))
        pp = PseudoParams(2.5, 0.2, 0.8)
        g = np.linspace(0.1, 4.0, 40)
        assert_allclose(char_fn(-g, pp), np.conj(char_fn(g, pp)), rtol=0, atol=1e-15)

    def test_transform_of_density_matches(self):
        """Gaussian-regularized two-sided check that char_fn really is
        the e^{+i g x} transform of density:  both sides of

            int u(x,t) e^{igx} e^{-eps x^2} dx
              = (1/(2 sqrt(pi eps))) int cf(g') e^{-(g-g')^2/(4 eps)} dg'

        are computed numerically (nothing cancels by construction)."""
        pp = PseudoParams(2.5, 0.3, 1.0)
        eps = 0.01
        span = np.linspace(-45.0, 45.0, 6001)
        dens = density(span, pp, tol=1e-10)
        damp = np.exp(-eps * span * span)
        for g in (0.7, 1.6):
            lhs = np.trapezoid(dens * damp * np.exp(1j * g * span), span)
            rhs, _ = integrate.quad(
                lambda gp: (
                    char_fn(gp, pp) * np.exp(-((g - gp) ** 2) / (4.0 * eps))
                ).real,
                g - 30.0 * math.sqrt(eps),
                g + 30.0 * math.sqrt(eps),
                limit=400,
            )
            rhs_i, _ = integrate.quad(
                lambda gp: (
                    char_fn(gp, pp) * np.exp(-((g - gp) ** 2) / (4.0 * eps))
                ).imag,
                g - 30.0 * math.sqrt(eps),
                g + 30.0 * math.sqrt(eps),
                limit=400,
            )
            rhs = (rhs + 1j * rhs_i) / (2.0 * math.sqrt(math.pi * eps))
            assert abs(lhs - rhs) < 2e-5, f"g={g}: {lhs} vs {rhs}"


class TestWeibullRepresentation:
    @pytest.mark.parametrize("alpha,p,t", [(2.0, 0.5, 1.0), (2.5, 0.3, 0.5), (3.0, 0.7, 2.0)])
    def test_quadrature_mode_reproduces_density(self, alpha, p, t):
        pp = PseudoParams(alpha, p, t)
        for x in (0.5, 1.0, 2.0, 4.0, -1.5):
            wr = weibull_representation(x, pp, mode="quadrature", tol=1e-12)
            assert wr == pytest.approx(density(float(x), pp, tol=1e-12), abs=1e-9)

    def test_monte_carlo_mode_is_seeded_and_consistent(self):
        pp = PseudoParams(2.0, 0.5, 1.0)
        a = weibull_representation(1.0, pp, mode="monte_carlo", n=300_000, seed=42)
        b = weibull_representation(1.0, pp, mode="monte_carlo", n=300_000, seed=42)
        c = weibull_representation(1.0, pp, mode="monte_carlo", n=300_000, seed=7)
        assert a == b
        truth = density(1.0, pp)
        assert abs(a - truth) < 5e-3
        assert abs(c - truth) < 5e-3

    @pytest.mark.parametrize(
        "alpha,x", [(1.5, 10.0), (1.5, 12.0), (2.5, 10.0), (2.5, 30.0), (2.5, 40.0), (3.0, 40.0)]
    )
    def test_moderate_x_agrees_or_refuses(self, alpha, x):
        """Past moderate |x| the integrand's growth e^{b_c x g} cancels
        to an O(1) value; the quadrature either still certifies it or
        raises NonConvergent, never NaN or a wrong number."""
        pp = PseudoParams(alpha, 0.3, 1.0)
        try:
            wr = weibull_representation(x, pp)
        except NonConvergent:
            return
        assert wr == pytest.approx(density(x, pp), abs=1e-9)

    def test_cancellation_gate_lets_moderate_x_through(self):
        pp = PseudoParams(2.5, 0.3, 1.0)
        assert weibull_representation(10.0, pp) == pytest.approx(density(10.0, pp), abs=1e-9)
        with pytest.raises(NonConvergent):
            weibull_representation(30.0, pp)

    @pytest.mark.parametrize("x", [1e-8, 1e-12, 1e-300, 5e-324])
    def test_tiny_x_keeps_its_accuracy(self, x):
        """The tolerance applies to the integral of sin(a_c x g)/x, so it
        survives the division by x, and a subnormal x does not underflow."""
        pp = PseudoParams(3.0, 0.3, 1.0)
        assert abs(weibull_representation(x, pp) - density(x, pp)) <= 1e-10
        spec = SubordinationSpec(3.0, 0.5, 0.5)
        want = subordinated_density_series(x, spec, 1.0)
        assert abs(subordinated_weibull_repr(x, spec, 1.0) - want) <= 1e-10

    def test_rejects_x_zero_and_bad_mode(self):
        pp = PseudoParams(2.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            weibull_representation(0.0, pp)
        with pytest.raises(ValueError):
            weibull_representation(1.0, pp, mode="guess")


class TestFourierResidual:
    @pytest.mark.parametrize("alpha,p,t", [(2.0, 0.5, 1.0), (3.0, 0.3, 0.8)])
    def test_residual_within_discretization_bound(self, alpha, p, t):
        pp = PseudoParams(alpha, p, t)
        g = np.linspace(-3.0, 3.0, 61)
        r = pde_fourier_residual(g, pp, h=1e-3)
        # central differences leave h^2/12 * d4/dt4 = h^2/12 * |g|^{4a}
        bound = 1e-6 / 12.0 * np.abs(g) ** (4.0 * alpha) + 1e-9
        assert np.all(np.abs(r) <= 1.05 * bound)

    def test_residual_shrinks_quadratically_in_h(self):
        pp = PseudoParams(2.5, 0.4, 1.0)
        g = np.array([1.5])
        r1 = abs(pde_fourier_residual(g, pp, h=2e-3)[0])
        r2 = abs(pde_fourier_residual(g, pp, h=1e-3)[0])
        assert r1 / r2 == pytest.approx(4.0, rel=0.05)
