"""Acceptance gate: eleven numbered criteria, one printed PASS/FAIL
line each (run with ``pytest tests/test_acceptance.py -v -s`` to see
the lines as they go by).

Criterion 6 covers three parameter combinations; the middle one,
(alpha, theta, p) = (2.5, 0.6, 0.5), asks for draws from a stable law
whose implied asymmetry is beta = tan(pi*0.3)/tan(pi*0.75) = -1.376,
outside the admissible range [-1, 1].  No sampler can realize it, so
that sub-case is marked xfail(strict=True): it fails for the stated
reason, visibly, and the suite stays green.  The other two
combinations pass at the full 10^6-sample scale.
"""

import math
import time

import numpy as np
import pytest
from scipy import special as sp

from fresnelpseudo import (
    AiryOrder,
    CylinderEvent,
    InvalidRegime,
    MixtureSpec,
    PseudoParams,
    SeededStream,
    SubordinationSpec,
    airy_quadrature,
    airy_series,
    cauchy_mixture_pdf,
    char_fn,
    classify,
    critical_alpha,
    cylinder_measure,
    density,
    empirical_char_fn,
    line_total,
    parameter_map,
    pdf_derivative,
    sample_mixture,
    subordinated_char_fn,
    subordinated_density_quadrature,
    subordinated_density_series,
    weibull_representation,
)


def report(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_airy_cross_validation():
    t0 = time.monotonic()
    xs = np.linspace(-4.0, 4.0, 41)
    worst = 0.0
    for alpha in (1.5, 2.0, 2.5, 3.0, 4.0):
        order = AiryOrder(alpha)
        for x in xs:
            diff = abs(airy_series(x, order, 1e-9) - airy_quadrature(x, order, 1e-9))
            worst = max(worst, diff)
    oracle_worst = 0.0
    order3 = AiryOrder(3.0)
    for x in xs:
        classical = sp.airy(x)[0]
        oracle_worst = max(
            oracle_worst,
            abs(airy_series(x, order3, 1e-9) - classical),
            abs(airy_quadrature(x, order3, 1e-9) - classical),
        )
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-7 and oracle_worst <= 1e-7 and elapsed < 30.0
    report(
        1, ok,
        f"series-vs-quadrature {worst:.2e}, classical oracle {oracle_worst:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_02_closed_form_order_two():
    # the auto route at order 2 short-circuits to the closed form, so a
    # real check has to force the kernel-series route against it
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        params = PseudoParams(2.0, 0.5, t)
        xs = np.linspace(-8.0, 8.0, 200)
        want = np.cos(xs**2 / (4.0 * t) - np.pi / 4.0) / (2.0 * np.sqrt(np.pi * t))
        for method in ("series", "airy", "auto"):
            got = density(xs, params, method=method)
            worst = max(worst, float(np.max(np.abs(got - want))))
    report(2, worst <= 1e-10, f"max deviation {worst:.2e} over 600 points")


def test_criterion_03_weibull_identity():
    worst = 0.0
    for alpha in (2.0, 2.5, 3.0):
        for t in (0.5, 1.0, 2.0):
            params = PseudoParams(alpha, 0.5, t)
            for x in (0.5, 1.0, 2.0, 4.0):
                diff = abs(weibull_representation(x, params) - density(x, params))
                worst = max(worst, diff)
    report(3, worst <= 1e-8, f"max two-sided gap {worst:.2e}")


def test_criterion_04_normalization():
    combos = [
        (1.5, 0.5, 1.0), (2.0, 0.3, 0.5), (2.0, 0.5, 2.0),
        (2.5, 0.25, 1.0), (2.5, 0.75, 0.7), (3.0, 0.5, 1.0),
        (3.0, 0.1, 2.0), (4.0, 0.6, 0.5), (4.0, 0.5, 1.0),
    ]
    worst_mass = 0.0
    transform_ok = True
    for alpha, p, t in combos:
        worst_mass = max(worst_mass, abs(line_total(alpha, p, t) - 1.0))
        transform_ok = transform_ok and char_fn(0.0, PseudoParams(alpha, p, t)) == 1.0
    ok = worst_mass <= 1e-6 and transform_ok
    report(
        4, ok,
        f"mass error {worst_mass:.2e} over 9 combos, transform at zero exact: "
        f"{transform_ok}",
    )


def test_criterion_05_subordination_routes_agree():
    worst = 0.0
    xs = np.linspace(-5.0, 5.0, 11)
    for alpha, theta in ((2.0, 0.75), (3.0, 0.5), (2.5, 0.6)):
        spec = SubordinationSpec(alpha, theta, 0.5)
        for x in xs:
            a = subordinated_density_series(float(x), spec, 1.0)
            b = subordinated_density_quadrature(float(x), spec, 1.0)
            worst = max(worst, abs(a - b))
    report(5, worst <= 1e-6, f"max series-vs-integral gap {worst:.2e}")


@pytest.mark.parametrize("alpha,theta,p", [(3.0, 0.5, 0.3), (4.0, 0.4, 0.8)])
def test_criterion_06_empirical_transform(alpha, theta, p):
    t0 = time.monotonic()
    n = 1_000_000
    spec = SubordinationSpec(alpha, theta, p)
    mix = MixtureSpec(parameter_map(spec), p, 1.0)
    draws = sample_mixture(mix, n, SeededStream(20260816, 0))
    probes = np.linspace(-4.0, 4.0, 20)
    gap = float(
        np.max(np.abs(empirical_char_fn(draws, probes) - subordinated_char_fn(probes, spec, 1.0)))
    )
    band = 4.0 / math.sqrt(n)
    elapsed = time.monotonic() - t0
    ok = gap <= band and elapsed < 120.0
    report(
        6, ok,
        f"({alpha}, {theta}, p={p}): max transform gap {gap:.2e} vs band "
        f"{band:.1e}, {elapsed:.1f}s",
    )


@pytest.mark.xfail(
    strict=True,
    reason="(2.5, 0.6, 0.5) maps to asymmetry beta = -1.376, outside [-1, 1]; "
    "no stable law has that parameter, so the draw is impossible",
)
def test_criterion_06_middle_combination():
    spec = SubordinationSpec(2.5, 0.6, 0.5)
    try:
        parameter_map(spec)
    except InvalidRegime as exc:
        report(6, False, f"(2.5, 0.6, p=0.5): {exc}")


def test_criterion_07_unit_index_closed_form():
    worst = 0.0
    for alpha, p in ((2.0, 0.3), (3.0, 0.5), (4.0, 0.7)):
        theta = 1.0 / alpha
        spec = SubordinationSpec(alpha, theta, p)
        for x in (-3.0, -1.0, 0.0, 0.5, 2.0):
            got = subordinated_density_quadrature(x, spec, 1.0)
            want = cauchy_mixture_pdf(x, alpha, p, 1.0)
            worst = max(worst, abs(got - want))
    pinned = abs(cauchy_mixture_pdf(0.0, 2.0, 0.5, 1.0) - 1.0 / (math.pi * math.sqrt(2.0)))
    ok = worst <= 1e-6 and pinned <= 1e-14
    report(
        7, ok,
        f"closed-form gap {worst:.2e}, origin value error {pinned:.2e}",
    )


def test_criterion_08_modality():
    rep = classify(2.0, 0.5, 1.0)
    maxima = sorted(
        pt.location for pt in rep.stationary_points if pt.kind == "maximum"
    )
    mode = 0.643594252905582624735  # sqrt(sqrt(2) - 1)
    two_ok = (
        rep.kind == "Bimodal"
        and len(maxima) == 2
        and abs(maxima[0] + mode) <= 1e-9
        and abs(maxima[1] - mode) <= 1e-9
    )
    uni_ok = True
    for alpha in (3.0, 4.0):
        r = classify(alpha, 0.5, 1.0)
        tops = [pt.location for pt in r.stationary_points if pt.kind == "maximum"]
        uni_ok = uni_ok and r.kind == "Unimodal" and len(tops) == 1 and abs(tops[0]) <= 1e-12
    err = max(abs(maxima[0] + mode), abs(maxima[1] - mode)) if len(maxima) == 2 else float("inf")
    report(
        8, two_ok and uni_ok,
        f"order 2 modes at +-{mode:.7f} within {err:.2e}; orders 3 and 4 unimodal at 0",
    )


def test_criterion_09_inflection_case():
    alpha = critical_alpha()
    p = (math.sqrt(2.0) - 1.0) / (2.0 * math.sqrt(2.0))
    t = 1.0
    rep = classify(alpha, p, t)
    pts = rep.stationary_points
    target = t / math.sqrt(3.0)
    hit = min(pts, key=lambda q: abs(q.location - target))
    slope = abs(pdf_derivative(hit.location, alpha, p, t))
    h = 1e-4
    curod = (
        pdf_derivative(hit.location + h, alpha, p, t)
        - pdf_derivative(hit.location - h, alpha, p, t)
    ) / (2.0 * h)
    ok = (
        len(pts) == 2
        and abs(hit.location - target) <= 1e-8
        and slope <= 1e-10
        and abs(curod) <= 1e-8
    )
    report(
        9, ok,
        f"two stationary points, flat one at {hit.location:.9f} "
        f"(|f'|={slope:.1e}, |f''| by differences {abs(curod):.1e})",
    )


def test_criterion_10_signed_measure_sanity():
    full = cylinder_measure(
        CylinderEvent(times=(1.0,), boxes=((-math.inf, math.inf),)), 2.5, 0.3
    )
    mass_err = abs(full - 1.0)

    negative_box = None
    for a in np.arange(2.0, 6.0, 0.25):
        ev = CylinderEvent(times=(1.0,), boxes=((float(a), float(a) + 1.0),))
        if cylinder_measure(ev, 2.0, 0.5) < 0.0:
            negative_box = (float(a), float(a) + 1.0)
            break

    def box(a, b):
        return cylinder_measure(
            CylinderEvent(times=(1.0,), boxes=((a, b),)), 2.5, 0.3
        )

    additivity = max(
        abs(box(lo, hi) - box(lo, mid) - box(mid, hi))
        for lo, mid, hi in ((-2.0, 0.5, 3.0), (0.0, 1.0, 2.0), (-4.0, -1.0, 1.5))
    )
    ok = mass_err <= 1e-6 and negative_box is not None and additivity <= 1e-8
    report(
        10, ok,
        f"full line 1{mass_err:+.1e}, negative box {negative_box}, "
        f"additivity {additivity:.1e}",
    )


def test_criterion_11_derivative_correctness():
    rng = np.random.default_rng(2026)
    param_sets = [
        (1.5, 0.5, 1.0), (2.0, 0.3, 0.5), (2.5, 0.7, 1.0),
        (3.0, 0.5, 2.0), (1.7, 0.15, 1.2),
    ]
    h = 1e-6
    worst = 0.0
    for alpha, p, t in param_sets:
        xs = rng.uniform(-6.0 * t, 6.0 * t, 100)
        analytic = pdf_derivative(xs, alpha, p, t)
        fd = (
            cauchy_mixture_pdf(xs + h, alpha, p, t)
            - cauchy_mixture_pdf(xs - h, alpha, p, t)
        ) / (2.0 * h)
        # floor guards points landing almost exactly on a stationary point
        rel = np.abs(analytic - fd) / np.maximum(np.abs(analytic), 1e-3)
        worst = max(worst, float(np.max(rel)))
    report(11, worst <= 1e-6, f"max relative gap {worst:.2e} over 500 points")
