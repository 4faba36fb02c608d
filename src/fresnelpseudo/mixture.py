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

classify() works for every admissible (alpha, p, t) with one rule for
roots and one for labels: the real roots of N (a cluster of them taken
as one multiple root), each labeled by the sign changes of N, which is
the sign of f', between it and its neighbours.  The closed-form
routines above double-check it where they apply.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RootFindingFailure, check_params

_CLUSTER_REL = 1e-5  # merge numerically split multiple roots
_SIGN_CHANGE_KIND = {(1.0, -1.0): "maximum", (-1.0, 1.0): "minimum"}  # sign of f' left, right


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


def classify(alpha, p, t):
    """Locate and label every stationary point of the closed-form
    density, then name the overall shape.

    The stationary points are the real roots of the numerator quintic N
    of f', taken from the companion matrix.  Roots within a relative
    1e-5 of each other are one multiple root, split by rounding, and
    are replaced by their centroid; a conjugate pair counts as real on
    the same terms (|imag| within half that radius), so a near-double
    root reads alike on either side of the axis.  A single root is
    polished by at most three Newton steps, each kept only while it
    shrinks |N|.  f' has the sign of N, so each point is
    labeled by the sign of N halfway to its neighbours (one t beyond
    the outermost points): + then - is a maximum, - then + a minimum,
    no change an inflection.  The one rule covers the flat maximum at
    alpha = 3 (an order-three zero) and the stationary inflection at
    the critical order (an order-two zero).
    """
    check_params(alpha=alpha, p=p, t=t)
    coef = _quintic_coeffs(alpha, p, t)
    dcoef = np.polyder(coef)
    raw = np.roots(coef)
    real = sorted(z.real for z in raw if abs(z.imag) <= 0.5 * _CLUSTER_REL * max(abs(z), t))
    if not real:
        raise RootFindingFailure("no real stationary point found")
    clusters = [[real[0]]]
    for r in real[1:]:
        if r - clusters[-1][-1] <= _CLUSTER_REL * max(t, abs(r)):
            clusters[-1].append(r)
        else:
            clusters.append([r])
    points = []
    for group in clusters:
        x = float(np.mean(group))
        n = np.polyval(coef, x)
        for _ in range(3 if len(group) == 1 else 0):
            dn = np.polyval(dcoef, x)
            if dn == 0.0:
                break
            y = x - n / dn
            ny = np.polyval(coef, y)
            if not abs(ny) < abs(n):
                break  # converged, or overshooting beside a near-multiple root
            x, n = y, ny
        bound = (1e-9 if len(group) == 1 else 1e-7) * max(abs(x), t) ** 5
        if not abs(n) <= bound:
            raise RootFindingFailure(f"stationary point not resolved near x = {x}")
        points.append(float(x))
    points.sort()  # a step may cross a neighbour inside an ill-conditioned cluster

    probes = np.concatenate(
        ([points[0] - t], 0.5 * np.add(points[:-1], points[1:]), [points[-1] + t])
    )
    signs = np.sign(np.polyval(coef, probes))
    labeled = [
        StationaryPoint(location=x, kind=_SIGN_CHANGE_KIND.get((left, right), "inflection"))
        for x, left, right in zip(points, signs[:-1], signs[1:])
    ]

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
