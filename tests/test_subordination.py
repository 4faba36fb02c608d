import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from fresnelpseudo.errors import DomainError, InvalidRegime, NonConvergent
from fresnelpseudo.subordination import (
    CauchyCase,
    StableParams,
    SubordinationSpec,
    parameter_map,
    subordinated_char_fn,
    subordinated_density_quadrature,
    subordinated_density_series,
    subordinated_weibull_repr,
)


def cf_inversion_half(x, alpha, theta, t):
    """Cosine-transform inversion of the p = 1/2 transform; absolutely
    convergent, so plain quadrature is a trustworthy oracle."""
    nu = alpha * theta
    c = math.cos(math.pi * theta / 2.0)
    s = math.sin(math.pi * theta / 2.0)
    with warnings.catch_warnings():
        # roundoff chatter at this tightness; the estimate below still gates
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(
            lambda g: math.cos(g * x) * math.exp(-t * c * g**nu) * math.cos(t * s * g**nu),
            0.0,
            np.inf,
            epsabs=1e-15,
            epsrel=1e-13,
            limit=1000,
        )
    assert err < 1e-12
    return val / math.pi


class TestSpecValidation:
    @pytest.mark.parametrize("alpha", [1.0, 0.5, -2.0, float("inf")])
    def test_bad_alpha(self, alpha):
        with pytest.raises(DomainError):
            SubordinationSpec(alpha, 0.5, 0.5)

    @pytest.mark.parametrize("theta", [0.0, 1.0, -0.2, 1.4])
    def test_bad_theta(self, theta):
        with pytest.raises(DomainError):
            SubordinationSpec(2.0, theta, 0.5)

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_bad_weight(self, p):
        with pytest.raises(DomainError):
            SubordinationSpec(2.0, 0.5, p)


class TestParameterMap:
    def test_known_point(self):
        pm = parameter_map(SubordinationSpec(3.0, 0.5, 0.5))
        assert isinstance(pm, StableParams)
        assert pm.nu == pytest.approx(1.5, abs=1e-15)
        assert pm.beta == pytest.approx(-1.0, abs=1e-12)
        assert pm.sigma == pytest.approx(0.793700525984099737376, abs=1e-15)
        assert pm.mu == 0.0

    def test_gaussian_convention(self):
        pm = parameter_map(SubordinationSpec(4.0, 0.5, 0.3))
        assert pm.nu == 2.0
        assert pm.beta == 0.0
        assert pm.sigma == pytest.approx(math.cos(math.pi / 4.0) ** 0.5, abs=1e-15)

    def test_boundary_asymmetry(self):
        # tan(0.8 pi) = -tan(0.2 pi), so beta lands exactly on -1
        pm = parameter_map(SubordinationSpec(4.0, 0.4, 0.8))
        assert pm.nu == pytest.approx(1.6, abs=1e-15)
        assert pm.beta == -1.0
        # same boundary reached through rounding noise must clamp, not raise
        pm2 = parameter_map(SubordinationSpec(1.5, 0.8, 0.3))
        assert pm2.beta == -1.0

    @pytest.mark.parametrize("alpha,theta", [(2.0, 0.5), (3.0, 1.0 / 3.0), (4.0, 0.25)])
    def test_unit_index_is_cauchy(self, alpha, theta):
        cc = parameter_map(SubordinationSpec(alpha, theta, 0.4))
        assert isinstance(cc, CauchyCase)
        assert cc.alpha == alpha
        assert cc.p == 0.4
        assert cc.location == pytest.approx(math.sin(math.pi / (2 * alpha)), abs=1e-15)
        assert cc.scale == pytest.approx(math.cos(math.pi / (2 * alpha)), abs=1e-15)

    @pytest.mark.parametrize("alpha,theta", [(4.0, 0.75), (3.0, 0.9)])
    def test_index_above_two(self, alpha, theta):
        with pytest.raises(InvalidRegime):
            parameter_map(SubordinationSpec(alpha, theta, 0.5))

    @pytest.mark.parametrize("alpha,theta", [(2.5, 0.6), (2.0, 0.75)])
    def test_asymmetry_out_of_range(self, alpha, theta):
        with pytest.raises(InvalidRegime):
            parameter_map(SubordinationSpec(alpha, theta, 0.5))

    def test_map_matches_transform(self):
        # below index 2 the mixture of mapped stable transforms must
        # reproduce the subordinated transform exactly
        t = 1.3
        for alpha, theta in [(3.0, 0.5), (4.0, 0.4), (1.5, 0.8)]:
            spec = SubordinationSpec(alpha, theta, 0.3)
            pm = parameter_map(spec)
            tan_term = math.tan(math.pi * pm.nu / 2.0)
            for g in [0.5, -1.2, 2.0, -0.07]:
                plus = np.exp(
                    -t * pm.sigma**pm.nu * abs(g) ** pm.nu
                    * (1 - 1j * pm.beta * np.sign(g) * tan_term)
                    + 1j * pm.mu * t * g
                )
                want = 0.3 * plus + 0.7 * np.conj(plus)
                got = subordinated_char_fn(g, spec, t)
                assert got == pytest.approx(want, abs=1e-13)

    def test_index_two_map_is_a_convention(self):
        # at index exactly 2 the asymmetry drops out of every stable
        # transform, but the subordinated transform keeps an
        # oscillatory factor cos(t sin(pi theta/2) g^2); the mapped
        # Gaussian is a labeling convention, not an identity
        spec = SubordinationSpec(4.0, 0.5, 0.5)
        pm = parameter_map(spec)
        g, t = 1.1, 0.9
        gauss = math.exp(-t * pm.sigma**2 * g**2)
        got = subordinated_char_fn(g, spec, t)
        assert abs(got.imag) < 1e-16
        want = gauss * math.cos(t * math.sin(math.pi / 4.0) * g**2)
        assert got.real == pytest.approx(want, abs=1e-15)
        assert abs(got.real - gauss) > 0.1


class TestCharFn:
    def test_unit_at_zero(self):
        for p in [0.0, 0.3, 0.5, 1.0]:
            spec = SubordinationSpec(2.5, 0.7, p)
            assert subordinated_char_fn(0.0, spec, 2.0) == 1.0 + 0.0j

    def test_modulus_bounded(self):
        spec = SubordinationSpec(3.0, 0.5, 0.25)
        g = np.linspace(-6.0, 6.0, 101)
        vals = subordinated_char_fn(g, spec, 0.7)
        assert vals.shape == g.shape
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)

    def test_hermitian(self):
        spec = SubordinationSpec(2.0, 0.6, 0.8)
        g = np.linspace(0.1, 4.0, 17)
        assert np.allclose(
            subordinated_char_fn(-g, spec, 1.4),
            np.conj(subordinated_char_fn(g, spec, 1.4)),
            atol=1e-16,
            rtol=0.0,
        )

    def test_symmetric_weight_is_real(self):
        spec = SubordinationSpec(2.0, 0.75, 0.5)
        g = np.linspace(-5.0, 5.0, 41)
        vals = subordinated_char_fn(g, spec, 1.0)
        assert np.max(np.abs(vals.imag)) < 1e-16

    def test_rejects_bad_t(self):
        with pytest.raises(DomainError):
            subordinated_char_fn(1.0, SubordinationSpec(2.0, 0.75, 0.5), 0.0)


class TestSeries:
    def test_center_value_frozen(self):
        # alpha*theta = 2 with alpha = 4: cos(pi/8) / (2 sqrt(pi t))
        v = subordinated_density_series(0.0, SubordinationSpec(4.0, 0.5, 0.5), 1.0)
        assert v == pytest.approx(0.260621604347919320025, abs=1e-14)

    def test_center_value_formula(self):
        for alpha, theta in [(2.0, 0.75), (2.5, 0.6), (3.0, 0.5)]:
            nu = alpha * theta
            want = (
                math.gamma(1.0 / nu)
                * math.sin(math.pi * (alpha + 1.0) / (2.0 * alpha))
                / (nu * math.pi)
            )
            got = subordinated_density_series(0.0, SubordinationSpec(alpha, theta, 0.5), 1.0)
            assert got == pytest.approx(want, abs=1e-14)

    @pytest.mark.parametrize("alpha,theta", [(2.0, 0.75), (3.0, 0.5), (2.5, 0.6)])
    def test_matches_transform_inversion(self, alpha, theta):
        spec = SubordinationSpec(alpha, theta, 0.5)
        for x in [0.0, 0.7, 2.0, 4.0]:
            want = cf_inversion_half(x, alpha, theta, 1.0)
            got = subordinated_density_series(x, spec, 1.0)
            assert got == pytest.approx(want, abs=5e-11)

    def test_escalated_precision_far_out(self):
        # far enough out that float64 cancellation forces the
        # high-precision path; must still match the oracle
        spec = SubordinationSpec(2.0, 0.75, 0.5)
        want = cf_inversion_half(12.0, 2.0, 0.75, 1.0)
        assert subordinated_density_series(12.0, spec, 1.0) == pytest.approx(want, abs=1e-12)

    def test_index_near_one_past_gamma_overflow(self):
        """Gamma((2k+1)/nu) overflows while z**2k/(2k)! is still in play
        at this point; the float64 pass used to end in inf - inf."""
        spec = SubordinationSpec(3.0933989675739655, 0.35438126456675634, 0.5)
        x, t = 2.2551783164115364, 1.6488682713909983
        want = subordinated_weibull_repr(x, spec, t)
        assert subordinated_density_series(x, spec, t) == pytest.approx(want, abs=1e-10)

    def test_even_in_x(self):
        spec = SubordinationSpec(2.5, 0.6, 0.5)
        for x in [0.4, 1.7, 3.3]:
            a = subordinated_density_series(x, spec, 0.8)
            b = subordinated_density_series(-x, spec, 0.8)
            assert a == b

    def test_self_similarity(self):
        spec = SubordinationSpec(3.0, 0.5, 0.5)
        nu = spec.nu
        for t in [0.5, 2.0]:
            for x in [0.3, 1.1, 2.6]:
                direct = subordinated_density_series(x, spec, t)
                scaled = subordinated_density_series(x * t ** (-1.0 / nu), spec, 1.0)
                assert direct == pytest.approx(t ** (-1.0 / nu) * scaled, rel=1e-12)

    def test_rejects_low_index(self):
        with pytest.raises(DomainError):
            subordinated_density_series(1.0, SubordinationSpec(1.8, 0.5, 0.5), 1.0)

    def test_rejects_asymmetric_weight(self):
        with pytest.raises(DomainError):
            subordinated_density_series(1.0, SubordinationSpec(3.0, 0.5, 0.4), 1.0)

    def test_rejects_bad_t(self):
        with pytest.raises(DomainError):
            subordinated_density_series(1.0, SubordinationSpec(3.0, 0.5, 0.5), -1.0)


class TestQuadrature:
    @pytest.mark.parametrize("alpha,theta", [(2.0, 0.75), (3.0, 0.5), (4.0, 0.4)])
    def test_matches_series(self, alpha, theta):
        spec = SubordinationSpec(alpha, theta, 0.5)
        for x in [0.0, 0.5, 1.5, 3.0, 5.0]:
            sv = subordinated_density_series(x, spec, 1.0)
            qv = subordinated_density_quadrature(x, spec, 1.0)
            assert qv == pytest.approx(sv, abs=1e-8)

    def test_matches_series_other_times(self):
        spec = SubordinationSpec(3.0, 0.5, 0.5)
        for t in [0.5, 2.0]:
            for x in [0.8, 2.5]:
                sv = subordinated_density_series(x, spec, t)
                qv = subordinated_density_quadrature(x, spec, t)
                assert qv == pytest.approx(sv, abs=1e-8)

    def test_cauchy_regime_center_frozen(self):
        # alpha = 2, theta = 1/2, p = 1/2 at the origin: 1/(pi sqrt 2)
        spec = SubordinationSpec(2.0, 0.5, 0.5)
        v = subordinated_density_quadrature(0.0, spec, 1.0)
        assert v == pytest.approx(0.225079079039276517389, abs=1e-9)

    @pytest.mark.parametrize("alpha,p", [(2.0, 0.5), (2.0, 0.3), (3.0, 0.7)])
    def test_cauchy_regime_closed_form(self, alpha, p):
        theta = 1.0 / alpha
        spec = SubordinationSpec(alpha, theta, p)
        loc = math.sin(math.pi / (2 * alpha))
        sc = math.cos(math.pi / (2 * alpha))
        for x in [0.0, 1.0, -2.5]:
            want = p * sc / math.pi / ((x - loc) ** 2 + sc**2) + (1 - p) * sc / math.pi / (
                (x + loc) ** 2 + sc**2
            )
            got = subordinated_density_quadrature(x, spec, 1.0)
            assert got == pytest.approx(want, abs=1e-8)

    def test_asymmetric_weight_symmetric_part(self):
        # the weight only enters the odd part of the kernel, so the even
        # part of the subordinated density must match the p = 1/2 series
        spec_p = SubordinationSpec(3.0, 0.5, 0.3)
        spec_h = SubordinationSpec(3.0, 0.5, 0.5)
        for x in [0.7, 1.8]:
            even = 0.5 * (
                subordinated_density_quadrature(x, spec_p, 1.0)
                + subordinated_density_quadrature(-x, spec_p, 1.0)
            )
            assert even == pytest.approx(
                subordinated_density_series(x, spec_h, 1.0), abs=1e-9
            )

    @pytest.mark.parametrize("x", [6.3e-4, 1e-3, 1.5e-3])
    def test_tiny_x_matches_transform_inversion(self, x):
        """Near the origin at p != 1/2 the direct integral agrees with a
        plain quadrature of (1/pi) int_0^inf Re(e^{-igx} w_hat(g)) dg, whose
        integrand barely oscillates at such x (Fourier-weighted QAWF
        quadrature breaks down there, which is why it is not used)."""
        spec = SubordinationSpec(3.0, 0.5, 0.3)
        val, err = integrate.quad(
            lambda g: (np.exp(-1j * g * x) * subordinated_char_fn(g, spec, 1.0)).real,
            0.0,
            np.inf,
            epsabs=1e-14,
            epsrel=1e-13,
            limit=400,
        )
        assert err < 1e-11
        assert subordinated_density_quadrature(x, spec, 1.0) == pytest.approx(
            val / math.pi, abs=1e-9
        )

    def test_rejects_bad_t(self):
        with pytest.raises(DomainError):
            subordinated_density_quadrature(1.0, SubordinationSpec(3.0, 0.5, 0.5), 0.0)


class TestWeibullForm:
    @pytest.mark.parametrize("alpha,theta", [(2.0, 0.75), (3.0, 0.5)])
    def test_matches_series(self, alpha, theta):
        spec = SubordinationSpec(alpha, theta, 0.5)
        for x in [0.5, 1.0, 2.0]:
            wv = subordinated_weibull_repr(x, spec, 1.0)
            sv = subordinated_density_series(x, spec, 1.0)
            assert wv == pytest.approx(sv, abs=1e-12)

    def test_even_in_x(self):
        spec = SubordinationSpec(2.0, 0.75, 0.5)
        assert subordinated_weibull_repr(-1.3, spec, 1.0) == pytest.approx(
            subordinated_weibull_repr(1.3, spec, 1.0), abs=1e-14
        )

    def test_shape_must_be_product_order(self):
        # negative control: running the same expectation with the base
        # order alpha as the Weibull shape (instead of alpha*theta)
        # must NOT reproduce the density
        alpha, theta, t, x = 3.0, 0.5, 1.0, 1.0
        spec = SubordinationSpec(alpha, theta, 0.5)
        a_c = math.cos(math.pi / (2 * alpha))
        b_c = math.sin(math.pi / (2 * alpha))
        wrong_shape = alpha
        val, _ = integrate.quad(
            lambda g: math.sin(a_c * x * g)
            * math.cosh(b_c * x * g)
            * wrong_shape
            * t
            * g ** (wrong_shape - 1.0)
            * math.exp(-t * g**wrong_shape),
            0.0,
            np.inf,
            epsabs=1e-12,
            limit=400,
        )
        wrong = val / (math.pi * x)
        right = subordinated_weibull_repr(x, spec, t)
        target = subordinated_density_series(x, spec, t)
        assert abs(right - target) < 1e-12
        assert abs(wrong - target) > 1e-2

    @pytest.mark.parametrize("x", [3.0, 4.0, 5.0, 8.0, 12.0, 20.0])
    def test_moderate_x_agrees_or_refuses(self, x):
        """These points used to raise OverflowError from a separate
        cosh factor; now each agrees with the series or raises
        NonConvergent from the cancellation gate."""
        spec = SubordinationSpec(3.0, 0.4, 0.5)
        try:
            wv = subordinated_weibull_repr(x, spec, 1.0)
        except NonConvergent:
            return
        assert wv == pytest.approx(subordinated_density_series(x, spec, 1.0), abs=1e-10)

    def test_value_past_the_old_overflow(self):
        spec = SubordinationSpec(3.0, 0.4, 0.5)
        wv = subordinated_weibull_repr(4.0, spec, 1.0)
        assert wv == pytest.approx(subordinated_density_series(4.0, spec, 1.0), abs=1e-12)
        with pytest.raises(NonConvergent):
            subordinated_weibull_repr(8.0, spec, 1.0)

    def test_rejects_origin(self):
        with pytest.raises(DomainError):
            subordinated_weibull_repr(0.0, SubordinationSpec(2.0, 0.75, 0.5), 1.0)

    def test_rejects_asymmetric_weight(self):
        with pytest.raises(DomainError):
            subordinated_weibull_repr(1.0, SubordinationSpec(2.0, 0.75, 0.4), 1.0)

    def test_rejects_low_index(self):
        with pytest.raises(DomainError):
            subordinated_weibull_repr(1.0, SubordinationSpec(1.9, 0.5, 0.5), 1.0)
