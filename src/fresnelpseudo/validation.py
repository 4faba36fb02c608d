"""Self-check suites behind the command-line `validate` subcommand.

Each suite re-verifies a slice of the package against an independent
route: special functions against their classical reductions, densities
against closed forms and each other, the expectation identity, the
subordination routes, Monte Carlo draws against the analytic transform,
and the closed-form modality analysis against finite differences.

A check is a named measured error with a tolerance; a suite is an
ordered list of checks.  These run in seconds and are meant as a field
diagnostic, not a replacement for the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp

from .density import PseudoParams, char_fn, density, weibull_representation
from .measure import line_total
from .mixture import (
    cauchy_mixture_pdf,
    classify,
    critical_alpha,
    inflection_parameters,
    pdf_derivative,
    second_derivative_at_stationary,
)
from .sampling import (
    MixtureSpec,
    SeededStream,
    empirical_char_fn,
    sample_cauchy_mixture,
    sample_mixture,
)
from .special import AiryOrder, airy_quadrature, airy_series
from .subordination import (
    SubordinationSpec,
    parameter_map,
    subordinated_density_quadrature,
    subordinated_density_series,
    subordinated_weibull_repr,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    error: float
    tol: float

    @property
    def passed(self):
        return self.error <= self.tol

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{self.name}: error={self.error:.3e} tol={self.tol:.1e} {status}"


def _boolean(name, ok):
    return CheckResult(name, 0.0 if ok else 1.0, 0.5)


def airy_suite():
    checks = []
    for alpha in (1.5, 2.5):
        order = AiryOrder(alpha)
        err = max(
            abs(airy_series(x, order, 1e-10) - airy_quadrature(x, order, 1e-10))
            for x in (-2.0, 0.0, 1.0, 3.0)
        )
        checks.append(CheckResult(f"series-vs-quadrature order {alpha}", err, 1e-9))
    order3 = AiryOrder(3.0)
    err = max(
        abs(airy_series(x, order3, 1e-12) - sp.airy(x)[0]) for x in (-3.0, -1.0, 0.0, 2.0)
    )
    checks.append(CheckResult("order 3 vs classical function", err, 1e-9))
    return checks


def density_suite():
    checks = []
    params = PseudoParams(2.0, 0.5, 1.0)
    err = max(
        abs(
            density(x, params, method="closed_form")
            - density(x, params, method="series")
        )
        for x in (-3.0, -0.5, 0.0, 1.0, 2.5)
    )
    checks.append(CheckResult("order 2 closed form vs series", err, 1e-9))
    p25 = PseudoParams(2.5, 0.3, 1.0)
    checks.append(
        CheckResult("transform at zero equals one", abs(char_fn(0.0, p25) - 1.0), 1e-15)
    )
    checks.append(
        CheckResult(
            "total signed mass equals one",
            abs(line_total(2.5, 0.3, 1.0) - 1.0),
            1e-6,
        )
    )
    return checks


def weibull_suite():
    checks = []
    for alpha, t in ((2.0, 1.0), (3.0, 0.5)):
        params = PseudoParams(alpha, 0.5, t)
        err = max(
            abs(weibull_representation(x, params) - density(x, params))
            for x in (0.5, 1.0, 2.0, 4.0)
        )
        checks.append(
            CheckResult(f"expectation identity order {alpha} t {t}", err, 1e-8)
        )
    params = PseudoParams(2.0, 0.5, 1.0)
    err = abs(
        weibull_representation(1.0, params, mode="monte_carlo", n=200_000, seed=11)
        - density(1.0, params)
    )
    checks.append(CheckResult("expectation identity by Monte Carlo", err, 5e-3))
    return checks


def subordination_suite():
    checks = []
    pm = parameter_map(SubordinationSpec(3.0, 0.5, 0.5))
    err = (
        abs(pm.nu - 1.5)
        + abs(pm.beta + 1.0)
        + abs(pm.sigma - 2.0 ** (-1.0 / 3.0))
        + abs(pm.mu)
    )
    checks.append(CheckResult("stable parameters at order 3, index 1/2", err, 1e-12))
    spec = SubordinationSpec(3.0, 0.5, 0.5)
    err = max(
        abs(
            subordinated_density_series(x, spec, 1.0)
            - subordinated_density_quadrature(x, spec, 1.0)
        )
        for x in (0.0, 1.0, 2.5)
    )
    checks.append(CheckResult("series vs subordination integral", err, 1e-6))
    cc = SubordinationSpec(2.0, 0.5, 0.5)
    err = abs(
        subordinated_density_quadrature(0.0, cc, 1.0) - 1.0 / (math.pi * math.sqrt(2.0))
    )
    checks.append(CheckResult("unit-index closed form at origin", err, 1e-6))
    spec2 = SubordinationSpec(2.0, 0.75, 0.5)
    err = abs(
        subordinated_weibull_repr(1.0, spec2, 1.0)
        - subordinated_density_series(1.0, spec2, 1.0)
    )
    checks.append(CheckResult("subordinated expectation identity", err, 1e-9))
    return checks


def cf_mc_suite(n=100_000, seed=7):
    checks = []
    band = 4.0 / math.sqrt(n)
    probes = np.linspace(-4.0, 4.0, 20)
    for alpha, theta, p in ((3.0, 0.5, 0.3), (4.0, 0.4, 0.8)):
        spec = SubordinationSpec(alpha, theta, p)
        mix = MixtureSpec(parameter_map(spec), p, 0.7)
        draws = sample_mixture(mix, int(n), SeededStream(int(seed), 0))
        from .subordination import subordinated_char_fn

        err = float(
            np.max(
                np.abs(
                    empirical_char_fn(draws, probes)
                    - subordinated_char_fn(probes, spec, 0.7)
                )
            )
        )
        checks.append(
            CheckResult(
                f"empirical transform ({alpha}, {theta}, p={p})", err, band
            )
        )
    draws = sample_cauchy_mixture(2.0, 0.3, 1.0, int(n), SeededStream(int(seed), 1))
    loc, sc = math.sin(math.pi / 4.0), math.cos(math.pi / 4.0)
    xs = np.sort(draws)
    emp = (np.arange(1, xs.size + 1) - 0.5) / xs.size
    want = 0.3 * (0.5 + np.arctan((xs - loc) / sc) / math.pi) + 0.7 * (
        0.5 + np.arctan((xs + loc) / sc) / math.pi
    )
    checks.append(
        CheckResult(
            "unit-index sampler vs arctan law", float(np.max(np.abs(want - emp))), band
        )
    )
    return checks


def mixture_suite():
    checks = []
    rep = classify(2.0, 0.5, 1.0)
    err = abs(rep.stationary_points[2].location - 0.643594252905582624735)
    checks.append(CheckResult("symmetric mode location at order 2", err, 1e-9))
    checks.append(_boolean("order 3 is unimodal", classify(3.0, 0.5, 1.0).kind == "Unimodal"))
    ac = critical_alpha()
    pstar, _ = inflection_parameters(ac, +1)
    checks.append(
        CheckResult(
            "inflection weight at critical order",
            abs(pstar - (math.sqrt(2.0) - 1.0) / (2.0 * math.sqrt(2.0))),
            1e-12,
        )
    )
    checks.append(
        CheckResult(
            "curvature vanishes at critical order",
            abs(second_derivative_at_stationary(ac, 1.0)),
            1e-12,
        )
    )
    rng = np.random.default_rng(3)
    xs = rng.uniform(-6.0, 6.0, 20)
    h = 1e-6
    analytic = pdf_derivative(xs, 1.7, 0.15, 1.2)
    fd = (
        cauchy_mixture_pdf(xs + h, 1.7, 0.15, 1.2)
        - cauchy_mixture_pdf(xs - h, 1.7, 0.15, 1.2)
    ) / (2.0 * h)
    rel = float(np.max(np.abs(analytic - fd) / np.maximum(np.abs(analytic), 1e-3)))
    checks.append(CheckResult("derivative vs finite differences", rel, 1e-6))
    return checks


SUITES = {
    "airy": airy_suite,
    "density": density_suite,
    "weibull": weibull_suite,
    "subordination": subordination_suite,
    "cf-mc": cf_mc_suite,
    "mixture": mixture_suite,
}


def run_suite(name, **kwargs):
    """Run one named suite; kwargs are forwarded (cf-mc takes n, seed)."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](**kwargs)
