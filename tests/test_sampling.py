import math

import numpy as np
import pytest
from scipy import integrate, special as sp, stats

from fresnelpseudo.density import PseudoParams, char_fn
from fresnelpseudo.errors import DomainError, UnsupportedExponent
from fresnelpseudo.sampling import (
    MixtureSpec,
    SeededStream,
    empirical_char_fn,
    sample_cauchy_mixture,
    sample_mixture,
    sample_stable,
)
from fresnelpseudo.special import stable_subordinator_pdf
from fresnelpseudo.subordination import (
    StableParams,
    SubordinationSpec,
    parameter_map,
    subordinated_char_fn,
)


class TestDeterminism:
    def test_bit_identical_replay(self):
        p = StableParams(1.5, 1.0, 0.5, 0.0)
        a = sample_stable(p, 1.0, 1000, SeededStream(42, 0))
        b = sample_stable(p, 1.0, 1000, SeededStream(42, 0))
        assert np.array_equal(a, b)

    def test_streams_are_distinct(self):
        p = StableParams(1.5, 1.0, 0.5, 0.0)
        a = sample_stable(p, 1.0, 1000, SeededStream(42, 0))
        c = sample_stable(p, 1.0, 1000, SeededStream(42, 1))
        d = sample_stable(p, 1.0, 1000, SeededStream(43, 0))
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_mixture_replay(self):
        spec = MixtureSpec(StableParams(1.6, 0.8, 1.0, 0.0), 0.3, 0.5)
        a = sample_mixture(spec, 500, SeededStream(1, 2))
        b = sample_mixture(spec, 500, SeededStream(1, 2))
        assert np.array_equal(a, b)

    def test_time_scaling_is_exact_pathwise(self):
        # same stream, so the underlying uniform draws are identical and
        # the self-similarity relation holds sample by sample
        p = StableParams(1.6, 0.9, 0.4, 0.3)
        x1 = sample_stable(p, 1.0, 5000, SeededStream(5, 5))
        x2 = sample_stable(p, 2.0, 5000, SeededStream(5, 5))
        assert np.allclose(x2 - 0.3 * 2.0, 2.0 ** (1 / 1.6) * (x1 - 0.3), atol=1e-12)


class TestMarginals:
    def test_index_two_is_gaussian(self):
        sigma, t = 0.7, 1.3
        draws = sample_stable(StableParams(2.0, sigma, 0.0, 0.0), t, 200_000, SeededStream(42, 0))
        ks = stats.kstest(draws, "norm", args=(0.0, math.sqrt(2.0 * sigma**2 * t)))
        assert ks.statistic < 0.005

    def test_subordinator_is_positive_and_levy(self):
        # nu = theta = 1/2 with scale cos(pi/4)^2 has Laplace transform
        # e^{-t sqrt(g)}, whose distribution function is erfc(1/(2 sqrt s))
        theta = 0.5
        params = StableParams(theta, math.cos(math.pi * theta / 2.0) ** (1.0 / theta), 1.0, 0.0)
        h = sample_stable(params, 1.0, 200_000, SeededStream(42, 0))
        assert np.all(h > 0)
        hs = np.sort(h)
        emp = (np.arange(1, hs.size + 1) - 0.5) / hs.size
        ks = np.max(np.abs(sp.erfc(1.0 / (2.0 * np.sqrt(hs))) - emp))
        assert ks < 0.005

    def test_asymmetric_subordinator_matches_density(self):
        # theta away from 1/2: the draws must follow the series/saddle
        # density used by the quadrature code
        theta, t, n = 0.6, 1.0, 100_000
        params = StableParams(theta, math.cos(math.pi * theta / 2.0) ** (1.0 / theta), 1.0, 0.0)
        h = sample_stable(params, t, n, SeededStream(9, 4))
        assert np.all(h > 0)
        probes = [0.15, 0.3, 0.6, 1.0, 1.8, 3.5, 8.0, 25.0]
        lo = 1e-8
        cdf_vals = []
        acc = 0.0
        prev = lo
        for q in probes:
            seg, _ = integrate.quad(
                lambda s: stable_subordinator_pdf(s, t, theta), prev, q, limit=300
            )
            acc += seg
            cdf_vals.append(acc)
            prev = q
        emp = np.searchsorted(np.sort(h), probes, side="right") / n
        assert np.max(np.abs(np.asarray(cdf_vals) - emp)) < 0.01

    def test_cauchy_mixture_matches_arctan_law(self):
        alpha, p, t = 2.0, 0.3, 1.0
        x = sample_cauchy_mixture(alpha, p, t, 200_000, SeededStream(11, 0))
        loc = t * math.sin(math.pi / (2 * alpha))
        sc = t * math.cos(math.pi / (2 * alpha))
        xs = np.sort(x)
        emp = (np.arange(1, xs.size + 1) - 0.5) / xs.size
        want = p * (0.5 + np.arctan((xs - loc) / sc) / math.pi) + (1 - p) * (
            0.5 + np.arctan((xs + loc) / sc) / math.pi
        )
        assert np.max(np.abs(want - emp)) < 0.005

    def test_mixture_sign_fraction(self):
        # one-sided component, so the sign of each output is exactly the
        # attached sign; the positive fraction estimates p
        spec = MixtureSpec(StableParams(0.7, 1.0, 1.0, 0.0), 0.3, 1.0)
        x = sample_mixture(spec, 100_000, SeededStream(21, 0))
        frac = np.mean(x > 0)
        assert abs(frac - 0.3) < 4.0 * math.sqrt(0.3 * 0.7 / 100_000)


class TestTransformLoop:
    @pytest.mark.parametrize("alpha,theta,p", [(3.0, 0.5, 0.3), (4.0, 0.4, 0.8)])
    def test_empirical_transform_matches(self, alpha, theta, p):
        t, n = 0.7, 200_000
        spec = SubordinationSpec(alpha, theta, p)
        mix = MixtureSpec(parameter_map(spec), p, t)
        x = sample_mixture(mix, n, SeededStream(7, 3))
        gam = np.linspace(-4.0, 4.0, 21)
        emp = empirical_char_fn(x, gam)
        want = subordinated_char_fn(gam, spec, t)
        err = np.max(np.abs(emp - want))
        assert err < 4.0 / math.sqrt(n)
        if p != 0.5:
            # orientation control: the conjugate transform (signs
            # attached the other way round) must NOT fit
            flipped = np.max(np.abs(emp - np.conj(want)))
            assert flipped > 10.0 * err

    @staticmethod
    def _char_fn_over_subordinator(g, alpha, theta, p, t):
        """int_0^inf char_fn(g; alpha, p, s) h_theta(s, t) ds.  char_fn at
        time s is cos(w s) + i (2p - 1) sgn(g) sin(w s), w = |g|^alpha
        (checked below), so the integral is two Fourier integrals of h."""
        w = abs(g) ** alpha
        for s in (0.3, 1.7):
            want = math.cos(w * s) + 1j * (2.0 * p - 1.0) * math.copysign(1.0, g) * math.sin(w * s)
            assert abs(char_fn(g, PseudoParams(alpha, p, s)) - want) < 1e-14
        h = lambda s: stable_subordinator_pdf(s, t, theta) if s > 0.0 else 0.0
        cos_part, _ = integrate.quad(h, 0.0, np.inf, weight="cos", wvar=w)
        sin_part, _ = integrate.quad(h, 0.0, np.inf, weight="sin", wvar=w)
        return cos_part + 1j * (2.0 * p - 1.0) * math.copysign(1.0, g) * sin_part

    @pytest.mark.parametrize("alpha,theta", [(3.0, 0.5), (2.0, 0.5)])
    def test_draws_follow_the_density_not_its_mirror(self, alpha, theta):
        """Draws at p != 1/2 against the base transform averaged over the
        subordinator, a route that shares no code with the sampler or
        subordinated_char_fn; nu = 1 takes the Cauchy-mixture sampler, so
        the orientation must not change as nu crosses 1."""
        p, t, n = 0.3, 1.0, 200_000
        spec = SubordinationSpec(alpha, theta, p)
        if alpha * theta == 1.0:
            x = sample_cauchy_mixture(alpha, p, t, n, SeededStream(5, 1))
        else:
            x = sample_mixture(MixtureSpec(parameter_map(spec), p, t), n, SeededStream(5, 1))
        gam = np.array([-0.9, 0.5, 1.3])
        want = np.array([self._char_fn_over_subordinator(g, alpha, theta, p, t) for g in gam])
        assert np.max(np.abs(empirical_char_fn(x, gam) - want)) < 4.0 / math.sqrt(n)
        assert np.max(np.abs(subordinated_char_fn(gam, spec, t) - want)) < 1e-8

    def test_empirical_transform_at_zero(self):
        x = sample_cauchy_mixture(2.0, 0.4, 1.0, 1000, SeededStream(0, 0))
        assert empirical_char_fn(x, 0.0) == 1.0 + 0.0j

    def test_empirical_char_fn_shapes(self):
        x = np.array([0.5, -1.0, 2.0])
        scalar = empirical_char_fn(x, 1.0)
        arr = empirical_char_fn(x, np.array([1.0, 2.0]))
        assert isinstance(scalar, complex)
        assert arr.shape == (2,)
        assert arr[0] == pytest.approx(scalar, abs=1e-15)


class TestValidation:
    def test_unit_index_refused(self):
        with pytest.raises(UnsupportedExponent):
            sample_stable(StableParams(1.0, 1.0, 0.0, 0.0), 1.0, 10, SeededStream(0))
        with pytest.raises(UnsupportedExponent):
            sample_mixture(
                MixtureSpec(StableParams(1.0, 1.0, 0.0, 0.0), 0.5, 1.0),
                10,
                SeededStream(0),
            )

    @pytest.mark.parametrize(
        "params",
        [
            StableParams(2.5, 1.0, 0.0, 0.0),
            StableParams(-0.5, 1.0, 0.0, 0.0),
            StableParams(1.5, 0.0, 0.0, 0.0),
            StableParams(1.5, -1.0, 0.0, 0.0),
            StableParams(1.5, 1.0, 1.5, 0.0),
            StableParams(1.5, 1.0, 0.0, float("nan")),
        ],
    )
    def test_bad_stable_params(self, params):
        with pytest.raises(DomainError):
            sample_stable(params, 1.0, 10, SeededStream(0))

    def test_bad_time_and_count(self):
        p = StableParams(1.5, 1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            sample_stable(p, 0.0, 10, SeededStream(0))
        with pytest.raises(DomainError):
            sample_stable(p, 1.0, 0, SeededStream(0))
        with pytest.raises(DomainError):
            sample_stable(p, 1.0, 2.5, SeededStream(0))

    def test_bad_mixture_spec(self):
        p = StableParams(1.5, 1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            MixtureSpec(p, 1.2, 1.0)
        with pytest.raises(DomainError):
            MixtureSpec(p, 0.5, -1.0)

    def test_bad_cauchy_arguments(self):
        with pytest.raises(DomainError):
            sample_cauchy_mixture(1.0, 0.5, 1.0, 10, SeededStream(0))
        with pytest.raises(DomainError):
            sample_cauchy_mixture(2.0, -0.1, 1.0, 10, SeededStream(0))
        with pytest.raises(DomainError):
            sample_cauchy_mixture(2.0, 0.5, 0.0, 10, SeededStream(0))
        with pytest.raises(DomainError):
            sample_cauchy_mixture(2.0, 0.5, 1.0, -5, SeededStream(0))
