"""Exact samplers for the stable laws behind the subordinated process.

The transform of the subordinated process at p = 1/2, and each branch
of it at general p, is a genuinely stable characteristic function
whenever 1 < alpha*theta < 2 and the mapped asymmetry lands in [-1, 1].
Sampling the mixture (a stable draw H taken with sign +1 with
probability p and -1 otherwise) therefore gives a Monte Carlo route to
the subordinated law that never touches the quadrature code, which is
what makes the empirical-transform comparisons meaningful.

Draws use the Chambers-Mallows-Stuck construction in the
parametrization with characteristic function

    E e^{i g X_t} = exp(-t sigma^nu |g|^nu (1 - i beta sgn(g) tan(pi nu/2))
                        + i mu t g),

self-similar in t with exponent 1/nu plus linear drift.  nu = 1 needs
a different construction (the log-correction term) and is deliberately
unsupported; the unit-index regime of this package is the closed-form
Cauchy mixture, which has its own sampler.

Streams are Philox counter-based: a (seed, stream_id) pair pins the
whole draw sequence bit-for-bit, and distinct stream ids give
independent streams under one seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedExponent, check_params
from .subordination import StableParams


@dataclass(frozen=True)
class SeededStream:
    seed: int
    stream_id: int = 0

    def generator(self):
        """Fresh generator positioned at the start of this stream."""
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream_id]))


@dataclass(frozen=True)
class MixtureSpec:
    """A stable component H and the probability p of attaching sign +1."""

    stable: StableParams
    p: float
    t: float

    def __post_init__(self):
        check_params(p=self.p, t=self.t)


def _validate_stable(params):
    if math.isclose(params.nu, 1.0, rel_tol=0.0, abs_tol=1e-12):
        raise UnsupportedExponent(
            "index 1 needs the logarithmic correction term; "
            "use the closed-form Cauchy-mixture sampler instead"
        )
    check_params(nu=params.nu, sigma=params.sigma, beta=params.beta)
    if not math.isfinite(params.mu):
        raise DomainError(f"drift must be finite, got {params.mu}")


def _stable_draws(params, t, n, gen):
    nu, beta = params.nu, params.beta
    u = gen.uniform(-math.pi / 2.0, math.pi / 2.0, n)
    w = gen.standard_exponential(n)
    tan_half = math.tan(math.pi * nu / 2.0)
    shift = math.atan(beta * tan_half) / nu
    scale = (1.0 + (beta * tan_half) ** 2) ** (1.0 / (2.0 * nu))
    z = (
        scale
        * np.sin(nu * (u + shift))
        / np.cos(u) ** (1.0 / nu)
        * (np.cos(u - nu * (u + shift)) / w) ** ((1.0 - nu) / nu)
    )
    return t ** (1.0 / nu) * params.sigma * z + params.mu * t


def sample_stable(params, t, n, rng):
    """n draws of the stable law at time t, bit-reproducible from rng."""
    _validate_stable(params)
    check_params(t=t, n=n)
    return _stable_draws(params, t, int(n), rng.generator())


def sample_mixture(spec, n, rng):
    """Signed mixture: H with sign +1 with probability p, else -1.

    The component draws and the sign draws come from the same stream,
    component first, so a (seed, stream_id) pair fixes the output.
    """
    _validate_stable(spec.stable)
    check_params(n=n)
    gen = rng.generator()
    h = _stable_draws(spec.stable, spec.t, int(n), gen)
    signs = np.where(gen.random(int(n)) < spec.p, 1.0, -1.0)
    return signs * h


def sample_cauchy_mixture(alpha, p, t, n, rng):
    """Draws from the closed-form unit-index regime: a two-component
    Cauchy mixture with location +/- t sin(pi/2a), scale t cos(pi/2a),
    weight p on the positive-location component."""
    check_params(alpha=alpha, p=p, t=t, n=n)
    half = math.pi / (2.0 * alpha)
    loc = t * math.sin(half)
    sc = t * math.cos(half)
    gen = rng.generator()
    core = gen.standard_cauchy(int(n))
    signs = np.where(gen.random(int(n)) < p, 1.0, -1.0)
    return signs * loc + sc * core


def empirical_char_fn(samples, gamma):
    """Sample average of e^{i g X} at each probe frequency."""
    g = np.atleast_1d(np.asarray(gamma, dtype=float))
    x = np.asarray(samples, dtype=float)
    out = np.empty(g.shape, dtype=complex)
    for j, gj in enumerate(g):
        out[j] = np.mean(np.exp(1j * gj * x))
    return out if np.ndim(gamma) else complex(out[0])
