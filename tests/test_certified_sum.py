"""Every exit of the certified-sum engine behind the Airy, Wright and
subordinated series: the float64 pass (the zero-argument case
included), the mpmath pass, the refusal past the working-precision cap
and the refusal at the term cap.  The two value exits are compared with
a 50-digit mpmath sum of the same series, and the deep-cancellation
mpmath exits with a 240-digit one."""

import mpmath as mp
import pytest

from fresnelpseudo.errors import NonConvergent
from fresnelpseudo.special import AiryOrder, WrightArgs, airy_series, wright_series
from fresnelpseudo.subordination import SubordinationSpec, subordinated_density_series


def _reference_sum(magnitude, sign, dps=50):
    """dps-digit sum of magnitude(k) * sign(k), stopped once the
    magnitudes fall past their peak below 1e-60 (they are log-concave
    in k, so they keep falling)."""
    with mp.workdps(dps):
        total, k, last = mp.mpf(0), 0, mp.inf
        while True:
            m = magnitude(k)
            total += m * sign(k)
            if k > 10 and m <= last and m < mp.mpf(10) ** -60:
                return total
            last, k = m, k + 1


def airy_reference(x, alpha, dps=50):
    a = mp.mpf(alpha)
    total = _reference_sum(
        lambda k: abs(mp.mpf(x)) ** k * a ** (k / a) * mp.gamma((k + 1) / a) / mp.factorial(k),
        lambda k: mp.sign(x) ** k * mp.sin(mp.pi * (k + 1) * (a + 1) / (2 * a)),
        dps,
    )
    with mp.workdps(dps):
        return float(total / (mp.pi * a ** ((a - 1) / a)))


def wright_reference(theta, z, dps=50):
    th = mp.mpf(theta)
    total = _reference_sum(
        lambda k: abs(mp.mpf(z)) ** k * mp.gamma(th * (k + 1)) / (mp.pi * mp.factorial(k)),
        lambda k: (-1) ** k * mp.sin(mp.pi * th * (k + 1)),
        dps,
    )
    return float(total)


def subordinated_reference(x, alpha, theta, t, dps=50):
    a, nu = mp.mpf(alpha), mp.mpf(alpha) * mp.mpf(theta)
    with mp.workdps(dps):
        z = abs(mp.mpf(x)) / mp.mpf(t) ** (1 / nu)
        pref = 1 / (nu * mp.pi * mp.mpf(t) ** (1 / nu))
    total = _reference_sum(
        lambda k: z ** (2 * k) * mp.gamma((2 * k + 1) / nu) / mp.factorial(2 * k),
        lambda k: mp.sin(mp.pi * (2 * k + 1) * (a + 1) / (2 * a)),
        dps,
    )
    with mp.workdps(dps):
        return float(pref * total)


def _airy(x, alpha, tol=1e-10, dps=50):
    call = lambda: airy_series(x, AiryOrder(alpha), tol)
    return (call, lambda: airy_reference(x, alpha, dps), tol)


def _wright(theta, z, tol=1e-12, dps=50):
    call = lambda: wright_series(WrightArgs(theta, z), tol)
    return (call, lambda: wright_reference(theta, z, dps), tol)


def _subordinated(x, alpha, theta, t, tol=1e-10, dps=50):
    spec = SubordinationSpec(alpha, theta, 0.5)
    return (
        lambda: subordinated_density_series(x, spec, t, tol),
        lambda: subordinated_reference(x, alpha, theta, t, dps),
        tol,
    )


def _exit(call, monkeypatch):
    """(value, "float64" or "mpmath") of call()."""
    used = []
    workdps = mp.workdps
    monkeypatch.setattr(mp, "workdps", lambda dps: used.append(dps) or workdps(dps))
    return call(), "mpmath" if used else "float64"


# (case, exit): the overflow points are float64 passes whose Gamma
# factors overflow while the power-over-factorial factors underflow,
# so the engine rebuilds those terms from their log-magnitudes
VALUE_EXITS = {
    "airy-float64": (_airy(1.0, 2.5), "float64"),
    "airy-float64-overflow": (_airy(1.732185378102459, 1.1725175860865968), "float64"),
    "airy-mpmath": (_airy(4.0, 1.5, 1e-9), "mpmath"),
    "wright-float64": (_wright(0.5, -2.0), "float64"),
    "wright-float64-overflow": (_wright(0.99, -1.0), "float64"),
    "wright-mpmath": (_wright(0.5, -7.0), "mpmath"),
    "subordinated-float64": (_subordinated(1.0, 3.0, 0.5, 1.0), "float64"),
    "subordinated-float64-overflow": (
        _subordinated(
            2.2551783164115364, 3.0933989675739655, 0.35438126456675634, 1.6488682713909983
        ),
        "float64",
    ),
    "subordinated-mpmath": (_subordinated(6.0, 3.0, 0.5, 1.0), "mpmath"),
    # a zero argument leaves the first term only, summed in float64 at
    # any tolerance (a scan of the zero series sizes mpmath digits from it)
    "airy-zero": (_airy(0.0, 2.5, 1e-14), "float64"),
    "airy-negative-zero": (_airy(-0.0, 1.2, 1e-14), "float64"),
    "wright-zero": (_wright(0.5, 0.0, 1e-14), "float64"),
    "wright-negative-zero": (_wright(0.42, -0.0, 1e-14), "float64"),
    "wright-negative-zero-4e-14": (_wright(0.42, -0.0, 4e-14), "float64"),
    "subordinated-zero": (_subordinated(0.0, 3.0, 0.5, 1.0, 1e-14), "float64"),
    "subordinated-negative-zero": (_subordinated(-0.0, 2.5, 0.7, 2.0, 1e-14), "float64"),
}


@pytest.mark.parametrize("name", sorted(VALUE_EXITS))
def test_value_exit_matches_50_digit_sum(name, monkeypatch):
    (call, reference, tol), path = VALUE_EXITS[name]
    want = reference()
    got, used = _exit(call, monkeypatch)
    assert used == path
    assert abs(got - want) <= tol, f"{got} vs {want}"


# mpmath exits at 33 to 183 digits, where the peak term exceeds tol by
# 10**18 to 10**168; the mpmath pass must take its parameters exactly (a
# float64 rounding of x alpha**(1/alpha) costs up to half of tol there)
DEEP_CANCELLATION = {
    "airy-1.6998": _airy(-9.0376, 1.6998, 1.8e-13, dps=240),
    "airy-1.2334": _airy(-2.1684, 1.2334, 1.5e-13, dps=240),
    "wright": _wright(0.57, -25.0, 1e-11, dps=240),
    "subordinated": _subordinated(-7.8, 3.6, 0.48, 0.2, 1e-11, dps=240),
}


@pytest.mark.parametrize("name", sorted(DEEP_CANCELLATION))
def test_deep_cancellation_matches_240_digit_sum(name, monkeypatch):
    call, reference, tol = DEEP_CANCELLATION[name]
    want = reference()
    got, used = _exit(call, monkeypatch)
    assert used == "mpmath"
    assert abs(got - want) <= tol / 100.0


REFUSALS = {
    "airy-digit-cap": (lambda: airy_series(100.0, AiryOrder(3.0)), "digits"),
    "airy-term-cap": (lambda: airy_series(60.0, AiryOrder(1.05)), "fail to decay"),
    "wright-digit-cap": (lambda: wright_series(WrightArgs(0.5, -45.0)), "digits"),
    "wright-term-cap": (lambda: wright_series(WrightArgs(0.5, -1e6)), "fail to decay"),
    "subordinated-digit-cap": (
        lambda: subordinated_density_series(16.0, SubordinationSpec(3.0, 0.5, 0.5), 1.0),
        "digits",
    ),
    "subordinated-term-cap": (
        lambda: subordinated_density_series(30.0, SubordinationSpec(2.02, 0.5, 0.5), 1.0),
        "fail to decay",
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal_exit(name):
    call, reason = REFUSALS[name]
    with pytest.raises(NonConvergent, match=reason):
        call()

