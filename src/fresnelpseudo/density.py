"""Signed pseudo-density of the order-2a oscillating process.

The fundamental object is

    u(x, t) = (1/lam) * [ p * Ai_a(-x/lam) + (1-p) * Ai_a(x/lam) ],
    lam = (a*t)**(1/a),

whose Fourier transform (in the int e^{i g x} u dx convention) is

    p * exp(+i |g|^a t sgn g) + (1-p) * exp(-i |g|^a t sgn g).

u integrates to 1 but is genuinely signed for non-integer-coupled
orders; at a = 2, p = 1/2 it collapses to the closed oscillating form
cos(x^2/(4t) - pi/4) / (2 sqrt(pi t)).

Three evaluation methods are kept deliberately independent so they can
cross-check each other: the power series and the oscillatory quadrature
of the Airy kernel, plus the closed form where it exists.  A fourth
route, the Weibull expectation identity, rewrites u(x, t) for x != 0 as

    (1/(pi x)) * E[ sin(a_c x G) * (p e^{b_c x G} + (1-p) e^{-b_c x G}) ],

with G Weibull(shape a, scale t in the exp(-t g^a) sense) and
a_c = cos(pi/2a), b_c = sin(pi/2a); it is evaluated either by
quadrature or by Monte Carlo averaging over exact Weibull draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .errors import DomainError, NonConvergent, UnsupportedClosedForm, check_params
from .special import AiryOrder, airy_grid, airy_quadrature, airy_series

_METHODS = ("auto", "series", "airy", "closed_form")


@dataclass(frozen=True)
class PseudoParams:
    """Order parameter alpha > 1, branch weight p in [0, 1], time t > 0."""

    alpha: float
    p: float
    t: float

    def __post_init__(self):
        check_params(alpha=self.alpha, p=self.p, t=self.t)

    @property
    def lam(self):
        """Self-similar scale (alpha*t)**(1/alpha)."""
        return (self.alpha * self.t) ** (1.0 / self.alpha)


@dataclass(frozen=True)
class OscillationConstants:
    """cos / sin of pi/(2 alpha); the decomposition constants of the
    oscillating kernel (a_alpha^2 + b_alpha^2 = 1)."""

    a_alpha: float
    b_alpha: float

    @classmethod
    def for_order(cls, alpha):
        check_params(alpha=alpha)
        half = math.pi / (2.0 * alpha)
        return cls(a_alpha=math.cos(half), b_alpha=math.sin(half))


def has_closed_form(params):
    return params.alpha == 2.0 and params.p == 0.5


def _closed_form(x, t):
    return np.cos(x * x / (4.0 * t) - math.pi / 4.0) / (2.0 * math.sqrt(math.pi * t))


def _signed_kernel(y, params, tol):
    """u(y, t) over an array y of any shape: two airy_grid calls, at -y/lam
    and y/lam.  The one kernel evaluator behind density(method="auto")
    and every cylinder measure."""
    lam = params.lam
    y = np.asarray(y, dtype=float) / lam
    neg = airy_grid(-y, params.alpha, tol)
    pos = airy_grid(y, params.alpha, tol)
    return (params.p * neg + (1.0 - params.p) * pos) / lam


def density(x, params, method="auto", tol=1e-10):
    """Pseudo-density u(x, t) at one point or over an array.

    Args:
        x: real point(s).
        params: PseudoParams.
        method: "auto" picks the closed form when it exists and
            otherwise evaluates every point through airy_grid (float64
            series inside its certified range, the batched contour rule
            beyond); "series", "airy" (contour quadrature) and
            "closed_form" force a single route, point by point.
        tol: absolute tolerance passed to the kernel evaluations.

    Raises:
        UnsupportedClosedForm: method="closed_form" outside alpha=2, p=1/2.
        ValueError: unknown method name.
    """
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))

    if method == "closed_form" or (method == "auto" and has_closed_form(params)):
        if not has_closed_form(params):
            raise UnsupportedClosedForm(
                "closed form exists only at alpha=2, p=1/2; got "
                f"alpha={params.alpha}, p={params.p}"
            )
        out = _closed_form(xs, params.t)
        return float(out[0]) if scalar else out

    if method == "auto":
        out = _signed_kernel(xs, params, tol)
    else:
        route = airy_series if method == "series" else airy_quadrature
        order, lam, p = AiryOrder(params.alpha), params.lam, params.p
        out = np.array(
            [
                (p * route(-xi / lam, order, tol) + (1.0 - p) * route(xi / lam, order, tol)) / lam
                for xi in xs
            ]
        )
    return float(out[0]) if scalar else out


def char_fn(gamma, params):
    """Fourier transform p e^{i|g|^a t sgn g} + (1-p) e^{-i|g|^a t sgn g}.

    Returns complex; reduces to cos(|g|^a t) at p = 1/2 and always has
    modulus <= 1.
    """
    scalar = np.isscalar(gamma) or np.ndim(gamma) == 0
    g = np.atleast_1d(np.asarray(gamma, dtype=float))
    phase = np.abs(g) ** params.alpha * params.t * np.sign(g)
    out = params.p * np.exp(1j * phase) + (1.0 - params.p) * np.exp(-1j * phase)
    return complex(out[0]) if scalar else out


def _weibull_expectation(x, shape, t, p, alpha, tol):
    """Quadrature of (1/(pi x)) E[sin(a_c x G) (p e^{b_c x G} + (1-p) e^{-b_c x G})],
    x != 0, G Weibull with tail e^{-t g^shape} (shape > 1), a_c, b_c the
    oscillation constants of order alpha.

    The integrand peaks near e^M, M = max_g (b_c |x| g - t g^shape) =
    (1 - 1/shape) b_c |x| g* at g* = (b_c |x| / (t shape))^(1/(shape-1)),
    for an O(1) result; raises NonConvergent when e^M * 1e-16 > tol.  The
    callers check that x is finite.
    """
    osc = OscillationConstants.for_order(alpha)
    a_c, b_c = osc.a_alpha, osc.b_alpha
    bx = b_c * abs(x)
    # numpy power: an overflowing g* becomes inf, which the gate refuses,
    # where a float power would raise OverflowError
    with np.errstate(over="ignore"):
        g_star = np.float64(bx / (t * shape)) ** (1.0 / (shape - 1.0))
    peak_log = (1.0 - 1.0 / shape) * bx * g_star
    if not peak_log + math.log(1e-16) <= math.log(tol):
        raise NonConvergent(
            f"Weibull expectation at x={x} cancels: integrand peaks near "
            f"e^{peak_log:.1f} against tol {tol}"
        )
    # smallest g with t g^shape - b_c|x| g > ~746 (integrand underflow);
    # a couple of fixed-point sweeps from the x = 0 value suffice
    upper = (746.0 / t) ** (1.0 / shape)
    for _ in range(4):
        upper = ((746.0 + bx * upper) / t) ** (1.0 / shape)
    mode_g = ((shape - 1.0) / (shape * t)) ** (1.0 / shape)
    bxs = b_c * x

    def integrand(g):
        # sin(a_c x g)/x as a_c g sinc(a_c x g / pi): the tolerance then
        # applies to the quotient, and a subnormal x cannot underflow it
        arg = a_c * x * g
        sin_over_x = a_c * g * (math.sin(arg) / arg if arg else 1.0)
        decay = t * g**shape
        weights = p * math.exp(bxs * g - decay) + (1.0 - p) * math.exp(-bxs * g - decay)
        return sin_over_x * shape * t * g ** (shape - 1.0) * weights

    val, _ = integrate.quad(
        integrand,
        0.0,
        upper,
        epsabs=tol,
        epsrel=1e-12,
        limit=500,
        points=[mode_g] if 0.0 < mode_g < upper else None,
    )
    return val / math.pi


def weibull_representation(x, params, mode="quadrature", n=200_000, seed=0, tol=1e-10):
    """Weibull-expectation value of u(x, t) for x != 0.

    mode="quadrature" integrates the expectation against the Weibull
    density (see _weibull_expectation); mode="monte_carlo" averages n
    exact inverse-transform draws (seeded, reproducible).

    Raises DomainError at x = 0 (the identity divides by x) or a
    non-finite x, and NonConvergent in quadrature mode where the
    integrand's growth e^{b_c |x| g} outweighs the tolerance.
    """
    x = float(x)
    if not (math.isfinite(x) and x != 0.0):
        raise DomainError(f"the expectation identity needs a finite x != 0, got {x}")
    if mode not in ("quadrature", "monte_carlo"):
        raise ValueError(f"mode must be quadrature or monte_carlo, got {mode!r}")
    p, t, alpha = params.p, params.t, params.alpha
    if mode == "quadrature":
        return _weibull_expectation(x, alpha, t, p, alpha, tol)
    osc = OscillationConstants.for_order(alpha)
    a_c, b_c = osc.a_alpha, osc.b_alpha
    rng = np.random.Generator(np.random.Philox(seed))
    g = (rng.standard_exponential(n) / t) ** (1.0 / alpha)
    payoff = np.sin(a_c * x * g) * (p * np.exp(b_c * x * g) + (1.0 - p) * np.exp(-b_c * x * g))
    return float(np.mean(payoff)) / (math.pi * x)


def pde_fourier_residual(gamma_grid, params, h=1e-3):
    """Residual of the Fourier-side dispersion identity
    d^2/dt^2 u_hat = -|g|^{2a} u_hat, with the time derivative taken by
    central differences of step h.  Both exponential branches satisfy
    the identity exactly, so the residual is O(h^2) for every p."""
    g = np.atleast_1d(np.asarray(gamma_grid, dtype=float))
    plus = char_fn(g, PseudoParams(params.alpha, params.p, params.t + h))
    minus = char_fn(g, PseudoParams(params.alpha, params.p, params.t - h))
    mid = char_fn(g, params)
    second = (plus - 2.0 * mid + minus) / (h * h)
    return second + np.abs(g) ** (2.0 * params.alpha) * mid
