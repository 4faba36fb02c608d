"""Time change of the oscillating pseudo-process by a one-sided stable
subordinator, and the parameter map onto genuinely stable laws.

Composing the order-2a signed kernel with an independent subordinator
of index theta in (0, 1) gives

    w(x, t) = int_0^inf u(x, s) h_theta(s, t) ds,

and on the Fourier side (for the branch weighted p)

    w_hat(g, t) = p  * exp(-t |g|^{a th} cos(pi th/2) (1 - i tan(pi th/2) sgn g))
                + (1-p) * exp(-t |g|^{a th} cos(pi th/2) (1 + i tan(pi th/2) sgn g)),

which is the characteristic function of a two-component mixture of
stable laws of index nu = a*theta.  parameter_map extracts those stable
parameters; nu = 1 (a*theta = 1) is the Cauchy-mixture regime handled
in closed form elsewhere, and nu > 2 or an asymmetry outside [-1, 1] is
not a stable law at all (InvalidRegime).

When the product a*theta exceeds 1 and p = 1/2 the density also has a
rapidly converging power series and a Weibull-expectation form whose
shape parameter is a*theta while the oscillation constants stay those
of the original order a; both are kept as independent cross-checks of
the subordination integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy import integrate, special as sp

from .density import PseudoParams, _weibull_expectation, density
from .errors import DomainError, InvalidRegime, QuadratureFailure, check_params
from .special import _certified_sum, stable_subordinator_pdf

# skip the subordinator's essentially-zero left tail: below the s where
# its saddle exponent reaches this, h < e^-40 * polynomial
_TAIL_B = 40.0


@dataclass(frozen=True)
class SubordinationSpec:
    """Order alpha > 1 of the base kernel, subordinator index theta in
    (0,1), branch weight p in [0,1]."""

    alpha: float
    theta: float
    p: float

    def __post_init__(self):
        check_params(alpha=self.alpha, p=self.p, theta=self.theta)

    @property
    def nu(self):
        return self.alpha * self.theta


@dataclass(frozen=True)
class StableParams:
    """Stable law in the (nu, sigma, beta, mu) parametrization with
    characteristic function
    exp(-t sigma^nu |g|^nu (1 - i beta sgn(g) tan(pi nu/2)) + i mu t g)."""

    nu: float
    sigma: float
    beta: float
    mu: float


@dataclass(frozen=True)
class CauchyCase:
    """Marker for nu = alpha*theta = 1: the closed-form two-component
    Cauchy mixture with per-unit-time location +/- sin(pi/2a) and scale
    cos(pi/2a)."""

    alpha: float
    p: float
    location: float
    scale: float


def parameter_map(spec):
    """Stable parameters of the subordinated law.

    Returns StableParams for nu != 1, CauchyCase for nu == 1.

    Raises InvalidRegime when nu > 2 or the implied asymmetry leaves
    [-1, 1] (no stable law matches the transform there).
    """
    nu = spec.nu
    if nu > 2.0:
        raise InvalidRegime(
            f"index alpha*theta = {nu} exceeds 2; no stable law has this transform"
        )
    if math.isclose(nu, 1.0, rel_tol=0.0, abs_tol=1e-12):
        half = math.pi / (2.0 * spec.alpha)
        return CauchyCase(
            alpha=spec.alpha, p=spec.p, location=math.sin(half), scale=math.cos(half)
        )
    half_theta = math.pi * spec.theta / 2.0
    if nu == 2.0:
        # tan(pi nu / 2) = 0: the asymmetry is unidentifiable and the
        # law is Gaussian; fix beta = 0 by convention
        beta = 0.0
    else:
        beta = math.tan(half_theta) / math.tan(math.pi * nu / 2.0)
    if abs(beta) > 1.0 + 1e-9:
        raise InvalidRegime(
            f"implied asymmetry beta = {beta:.6f} outside [-1, 1] at "
            f"alpha={spec.alpha}, theta={spec.theta}"
        )
    if abs(abs(beta) - 1.0) <= 1e-9:
        beta = math.copysign(1.0, beta)  # snap rounding noise onto the boundary
    sigma = math.cos(half_theta) ** (1.0 / nu)
    return StableParams(nu=nu, sigma=sigma, beta=beta, mu=0.0)


def subordinated_char_fn(gamma, spec, t):
    """Fourier transform of the subordinated signed density: char_fn
    composed with the subordinator's Laplace transform e^{-t lam^theta},
    lam = -i |g|^alpha sgn g on the p-branch."""
    check_params(t=t)
    scalar = np.isscalar(gamma) or np.ndim(gamma) == 0
    g = np.atleast_1d(np.asarray(gamma, dtype=float))
    nu = spec.nu
    half_theta = math.pi * spec.theta / 2.0
    base = t * np.abs(g) ** nu * math.cos(half_theta)
    rot = 1.0 - 1j * math.tan(half_theta) * np.sign(g)
    out = spec.p * np.exp(-base * rot) + (1.0 - spec.p) * np.exp(-base * np.conj(rot))
    return complex(out[0]) if scalar else out


def _sub_term_logs(k, z2, nu):
    """Log-magnitudes of the even-power series terms."""
    with np.errstate(divide="ignore", invalid="ignore"):
        logz = k * (math.log(z2) if z2 > 0.0 else -math.inf)
        logz[k == 0] = 0.0
    return logz + sp.gammaln((2.0 * k + 1.0) / nu) - sp.gammaln(2.0 * k + 1.0)


def subordinated_density_series(x, spec, t, tol=1e-10):
    """Power-series density of the subordinated process.

    Only defined for nu = alpha*theta > 1 (the series diverges at or
    below 1) and p = 1/2 (odd terms cancel); DomainError otherwise.
    """
    nu = spec.nu
    if nu <= 1.0:
        raise DomainError(f"series requires alpha*theta > 1, got {nu}")
    if spec.p != 0.5:
        raise DomainError("series form exists only at p = 1/2")
    check_params(t=t, tol=tol)
    z = abs(float(x)) / t ** (1.0 / nu)
    pref = 1.0 / (nu * math.pi * t ** (1.0 / nu))
    sine_arg = math.pi * (spec.alpha + 1.0) / (2.0 * spec.alpha)
    if z == 0.0:
        return pref * math.gamma(1.0 / nu) * math.sin(sine_arg)
    alpha = spec.alpha

    def f64_terms(k):
        z2k_fact = np.cumprod(np.concatenate(([1.0], z * z / ((2.0 * k[1:] - 1.0) * 2.0 * k[1:]))))
        sines = np.sin(math.pi * (2.0 * k + 1.0) * (alpha + 1.0) / (2.0 * alpha))
        return sp.gamma((2.0 * k + 1.0) / nu) * z2k_fact * sines, z2k_fact, sines

    def mp_terms(K):
        zm, am = mp.mpf(z), mp.mpf(alpha)
        for k in range(K + 1):
            sine = mp.sin(mp.pi * (2 * k + 1) * (am + 1) / (2 * am))
            yield zm ** (2 * k) * mp.gamma(mp.mpf(2 * k + 1) / nu) * sine / mp.factorial(2 * k)

    logmag = lambda k: _sub_term_logs(k, z * z, nu)
    cutoff = math.log(tol / pref) + math.log(1e-3)
    what = lambda: f"subordinated series at x={x}"
    return pref * _certified_sum(logmag, cutoff, math.log(pref), tol, f64_terms, mp_terms, what)


def _left_cutoff(theta, t):
    # s below which the subordinator saddle exponent exceeds _TAIL_B
    coeff = (1.0 - theta) * theta ** (theta / (1.0 - theta))
    return t ** (1.0 / theta) * (coeff / _TAIL_B) ** ((1.0 - theta) / theta)


def subordinated_density_quadrature(x, spec, t, tol=1e-9):
    """Direct subordination integral int_0^inf u(x, s) h(s, t) ds.

    Works for every weight p and any nu = alpha*theta in (0, 2]; this
    is the reference route the series and expectation forms are checked
    against.
    """
    check_params(t=t, tol=tol)
    x = float(x)
    alpha, theta, p = spec.alpha, spec.theta, spec.p

    def integrand(s):
        return density(x, PseudoParams(alpha, p, s), tol=tol / 10.0) * stable_subordinator_pdf(
            s, t, theta
        )

    s_lo = _left_cutoff(theta, t)
    bulk = t ** (1.0 / theta)  # scale of the subordinator's body
    osc_end = abs(x) ** alpha / alpha  # past this the kernel stops oscillating in s
    b1 = max(4.0 * bulk, 2.0 * osc_end, 1.0, 8.0 * s_lo)
    pts = sorted(v for v in (bulk, osc_end) if s_lo < v < b1) or None
    core, err_core = integrate.quad(
        integrand, s_lo, b1, epsabs=tol / 2.0, epsrel=1e-11, limit=800, points=pts
    )
    # remaining tail decays like s^{-1-theta-1/alpha}, smooth and monotone
    tail, err_tail = integrate.quad(
        integrand, b1, np.inf, epsabs=tol / 2.0, epsrel=1e-11, limit=400
    )
    if err_core + err_tail > max(100.0 * tol, 1e-6):
        raise QuadratureFailure(
            f"subordination integral error estimate {err_core + err_tail:.2e} "
            f"exceeds budget at x={x}"
        )
    return core + tail


def subordinated_weibull_repr(x, spec, t, tol=1e-10):
    """Expectation form of the subordinated density at p = 1/2:

        (1/(pi x)) E[ sin(a_c x G) cosh(b_c x G) ],

    where G is Weibull with shape nu = alpha*theta (tail e^{-t g^nu})
    and a_c, b_c are the oscillation constants of the base order alpha.
    The shape must be the product order: the base shape alpha makes the
    identity fail, which the tests check as a negative control.

    Requires nu > 1 (the expectation diverges otherwise), p = 1/2, and
    x != 0; raises NonConvergent where the integrand's growth outweighs
    the tolerance (see density._weibull_expectation).
    """
    if x == 0.0:
        raise DomainError("the expectation identity is undefined at x = 0")
    if spec.p != 0.5:
        raise DomainError("expectation form exists only at p = 1/2")
    nu = spec.nu
    if nu <= 1.0:
        raise DomainError(f"expectation form requires alpha*theta > 1, got {nu}")
    check_params(t=t, tol=tol)
    return _weibull_expectation(float(x), nu, t, 0.5, spec.alpha, tol)
