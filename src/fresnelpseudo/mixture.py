"""Shape analysis of the closed-form Cauchy-mixture regime.

At unit index (alpha*theta = 1) the subordinated law is the genuine
probability density

    f(x) = (t c / pi) (x^2 + t^2 + 2(2p-1) x t s)
           / (x^4 + t^4 + 2 x^2 t^2 cos(pi/alpha)),

with s = sin(pi/2a), c = cos(pi/2a): a two-component Cauchy mixture
with locations +/- t s and common scale t c.  Everything about its
shape reduces to a quintic polynomial N, the numerator of f', so
modality can be decided exactly:

  * symmetric weight: two maxima at +/- t sqrt(2s - 1) for 1 < a < 3,
    one maximum at the origin for a >= 3;
  * asymmetric weights in 1 < a < 2: a one-parameter family where a
    chosen point x* = sign * t sqrt(-cos(pi/a)) becomes stationary,
    with curvature proportional to 3c^2 - 1, so it degenerates into a
    stationary inflection exactly at the critical order
    pi / (2 arccos(1/sqrt 3)).

classify() works for every admissible (alpha, p, t) by locating the
real roots of N numerically and probing the sign of f' on both sides
of each root; the closed-form routines above double-check it where
they apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RootFindingFailure, check_params

_CLUSTER_REL = 1e-5  # merge numerically split multiple roots
_CURVATURE_GATE = 1e-8  # |f''| below this (relative) falls back to sign probes


def cauchy_mixture_pdf(x, alpha, p, t):
    """Closed-form density of the unit-index regime."""
    check_params(alpha=alpha, p=p, t=t)
    s = math.sin(math.pi / (2.0 * alpha))
    c = math.cos(math.pi / (2.0 * alpha))
    big_c = math.cos(math.pi / alpha)
    x = np.asarray(x, dtype=float)
    num = x**2 + t**2 + 2.0 * (2.0 * p - 1.0) * x * t * s
    den = x**4 + t**4 + 2.0 * big_c * x**2 * t**2
    out = (t * c / math.pi) * num / den
    return float(out) if out.ndim == 0 else out


def _quintic_coeffs(alpha, p, t):
    s = math.sin(math.pi / (2.0 * alpha))
    big_c = math.cos(math.pi / alpha)
    d = (2.0 * p - 1.0) * t * s
    return np.array(
        [
            -1.0,
            -3.0 * d,
            -2.0 * t**2,
            -2.0 * big_c * d * t**2,
            (1.0 - 2.0 * big_c) * t**4,
            d * t**4,
        ]
    )


def pdf_derivative(x, alpha, p, t):
    """d/dx of the closed-form density, as an explicit rational function.

    The numerator quintic is what the modality analysis studies; this
    function is the analytic reference the finite-difference checks
    compare against.
    """
    check_params(alpha=alpha, p=p, t=t)
    c = math.cos(math.pi / (2.0 * alpha))
    big_c = math.cos(math.pi / alpha)
    coef = _quintic_coeffs(alpha, p, t)
    x = np.asarray(x, dtype=float)
    n = np.polyval(coef, x)
    den = x**4 + t**4 + 2.0 * big_c * x**2 * t**2
    out = (2.0 * t * c / math.pi) * n / den**2
    return float(out) if out.ndim == 0 else out


def _second_derivative(x, alpha, p, t):
    # f'' = (2tc/pi) (N' D - 2 N D') / D^3
    c = math.cos(math.pi / (2.0 * alpha))
    big_c = math.cos(math.pi / alpha)
    coef = _quintic_coeffs(alpha, p, t)
    dcoef = np.polyder(coef)
    n = np.polyval(coef, x)
    np_ = np.polyval(dcoef, x)
    den = x**4 + t**4 + 2.0 * big_c * x**2 * t**2
    dden = 4.0 * x**3 + 4.0 * big_c * x * t**2
    return (2.0 * t * c / math.pi) * (np_ * den - 2.0 * n * dden) / den**3


@dataclass(frozen=True)
class StationaryPoint:
    location: float
    kind: str  # "maximum" | "minimum" | "inflection"


@dataclass(frozen=True)
class ModalityReport:
    kind: str  # "Unimodal" | "Bimodal" | "InflectionCase" | "Degenerate"
    stationary_points: tuple
    parameters_used: tuple  # (alpha, p, t)


def critical_alpha():
    """Order at which the chosen stationary point loses its curvature:
    pi / (2 arccos(1/sqrt 3))."""
    return math.pi / (2.0 * math.acos(1.0 / math.sqrt(3.0)))


def inflection_parameters(alpha, sign):
    """Weight p and per-unit-time location making x = x_star * t a
    stationary point of the density, for orders strictly between 1 and 2.

    Returns (p, x_star) with x_star = sign * sqrt(-cos(pi/alpha)).  At
    the critical order the point is a stationary inflection; below it
    a maximum, above it a minimum.
    """
    if not (1.0 < alpha < 2.0):
        raise DomainError(f"requires 1 < alpha < 2, got {alpha}")
    if sign not in (1, -1, 1.0, -1.0):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    s = math.sin(math.pi / (2.0 * alpha))
    q = math.sqrt(-math.cos(math.pi / alpha))
    return (s - sign * q) / (2.0 * s), sign * q


def second_derivative_at_stationary(alpha, t):
    """Curvature of the density at the stationary point produced by
    inflection_parameters: (3 c^2 - 1) / (2 pi t^3 c s^4).

    Vanishes exactly at critical_alpha(); the same value holds for
    either sign branch by mirror symmetry.
    """
    if not (1.0 < alpha < 2.0):
        raise DomainError(f"requires 1 < alpha < 2, got {alpha}")
    check_params(t=t)
    s = math.sin(math.pi / (2.0 * alpha))
    c = math.cos(math.pi / (2.0 * alpha))
    return (3.0 * c**2 - 1.0) / (2.0 * math.pi * t**3 * c * s**4)


def _polish_root(coef, dcoef, x0, t):
    """Newton on the quintic, falling back to the derivative's root for
    (near-)multiple roots where plain Newton stalls."""
    scale = max(abs(x0), t) ** 5
    x = x0
    for _ in range(100):
        n = np.polyval(coef, x)
        dn = np.polyval(dcoef, x)
        if abs(dn) < 1e-9 * max(abs(x), t) ** 4:
            break  # multiple root: Newton step would blow up
        step = n / dn
        x -= step
        if abs(step) <= 1e-15 * max(abs(x), t):
            return x
    # treat as root of the derivative (double root of the quintic)
    d2coef = np.polyder(dcoef)
    y = x0
    for _ in range(100):
        dn = np.polyval(dcoef, y)
        d2 = np.polyval(d2coef, y)
        if d2 == 0.0:
            break
        step = dn / d2
        y -= step
        if abs(step) <= 1e-15 * max(abs(y), t):
            if abs(np.polyval(coef, y)) <= 1e-7 * scale:
                return y
            break
    if abs(np.polyval(coef, x)) <= 1e-9 * scale:
        return x
    raise RootFindingFailure(f"stationary-point polish failed near x = {x0}")


def classify(alpha, p, t):
    """Locate and label every stationary point of the closed-form
    density, then name the overall shape.

    Roots of the derivative's numerator come from the companion matrix
    and are polished by Newton iteration.  Each stationary point is
    labeled by the curvature when it is decisively nonzero, and by the
    sign of f' on both sides otherwise, which distinguishes a flat
    maximum (order three zero, as at alpha = 3) from a stationary
    inflection (order two zero, as at the critical order).
    """
    check_params(alpha=alpha, p=p, t=t)
    coef = _quintic_coeffs(alpha, p, t)
    dcoef = np.polyder(coef)
    raw = np.roots(coef)
    real = [z.real for z in raw if abs(z.imag) <= 1e-4 * max(abs(z), t)]
    if not real:
        raise RootFindingFailure("no real stationary point found")
    real.sort()
    clusters = [[real[0]]]
    for r in real[1:]:
        if r - clusters[-1][-1] <= _CLUSTER_REL * max(t, abs(r)):
            clusters[-1].append(r)
        else:
            clusters.append([r])
    points = []
    for group in clusters:
        points.append(_polish_root(coef, dcoef, float(np.mean(group)), t))
    # dedup after polishing (two clusters may converge to one root)
    merged = []
    for x in sorted(points):
        if not merged or x - merged[-1] > _CLUSTER_REL * max(t, abs(x)):
            merged.append(x)

    curvatures = np.array([_second_derivative(x, alpha, p, t) for x in merged])
    gate = _CURVATURE_GATE * max(np.max(np.abs(curvatures)), 1e-300)
    spacing = min(
        (b - a for a, b in zip(merged, merged[1:])), default=t
    )
    delta = max(min(0.45 * spacing, 1e-2 * t), 1e-8 * t)
    labeled = []
    for x, curv in zip(merged, curvatures):
        if abs(curv) > gate:
            kind = "maximum" if curv < 0.0 else "minimum"
        else:
            left = pdf_derivative(x - delta, alpha, p, t)
            right = pdf_derivative(x + delta, alpha, p, t)
            if left > 0.0 > right:
                kind = "maximum"
            elif left < 0.0 < right:
                kind = "minimum"
            else:
                kind = "inflection"
        labeled.append(StationaryPoint(location=float(x), kind=kind))

    kinds = [pt.kind for pt in labeled]
    n_max = kinds.count("maximum")
    n_min = kinds.count("minimum")
    n_inf = kinds.count("inflection")
    if n_inf > 0 and n_max >= 1:
        overall = "InflectionCase"
    elif n_max == 2 and n_min == 1 and n_inf == 0:
        overall = "Bimodal"
    elif n_max == 1 and n_min == 0 and n_inf == 0:
        overall = "Unimodal"
    else:
        overall = "Degenerate"
    return ModalityReport(
        kind=overall,
        stationary_points=tuple(labeled),
        parameters_used=(alpha, p, t),
    )


def mode_analysis(alpha, t):
    """Closed-form modality at symmetric weight: two maxima at
    +/- t sqrt(2 sin(pi/2a) - 1) when 1 < a < 3 (with a minimum at the
    origin), a single maximum at the origin when a >= 3.

    The closed form is verified internally against the numeric
    classifier; disagreement raises RootFindingFailure.
    """
    check_params(alpha=alpha, t=t)
    s = math.sin(math.pi / (2.0 * alpha))
    if alpha < 3.0:
        m = t * math.sqrt(2.0 * s - 1.0)
        expected = ModalityReport(
            kind="Bimodal",
            stationary_points=(
                StationaryPoint(-m, "maximum"),
                StationaryPoint(0.0, "minimum"),
                StationaryPoint(m, "maximum"),
            ),
            parameters_used=(alpha, 0.5, t),
        )
    else:
        expected = ModalityReport(
            kind="Unimodal",
            stationary_points=(StationaryPoint(0.0, "maximum"),),
            parameters_used=(alpha, 0.5, t),
        )
    got = classify(alpha, 0.5, t)
    if got.kind != expected.kind or len(got.stationary_points) != len(
        expected.stationary_points
    ):
        raise RootFindingFailure(
            f"closed-form modality ({expected.kind}) disagrees with the "
            f"numeric classifier ({got.kind}) at alpha={alpha}"
        )
    for want, have in zip(expected.stationary_points, got.stationary_points):
        if want.kind != have.kind or abs(want.location - have.location) > 1e-9 * max(
            1.0, t
        ):
            raise RootFindingFailure(
                f"stationary point mismatch at alpha={alpha}: "
                f"closed form {want}, classifier {have}"
            )
    return expected
