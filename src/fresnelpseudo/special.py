"""Generalized Airy function, Wright function branch, Weibull and
one-sided stable subordinator densities.

The generalized Airy function of order alpha > 1 is

    Ai_a(x) = (1/pi) int_0^inf cos(s*x + s**a/a) ds,

which coincides with the classical Airy function at a = 3.  Two
independent evaluation routes are provided: a power series and a
contour-integral scheme; their agreement is the main
cross-validation of this package.

Numerical notes
---------------
* Every series here (Airy, Wright, and the subordinated density) goes
  through one engine, _certified_sum, and supplies only its term
  log-magnitudes, float64 terms and mpmath term.  The series are
  entire but alternate with huge terms once |x| grows (at a = 1.5,
  x = 4 the largest Airy term is ~1e8 while the sum is O(1)), so the
  float64 fsum is accepted only when the largest term's rounding stays
  below the tolerance; otherwise the sum is redone in mpmath at digits
  sized from that term.  That rounding is taken as
  max(5e-14, 8 ulp * lgamma(k + 2)) relative at the peak index k: a
  term rebuilt from its log-magnitude inherits a few ulps of the log,
  so a flat bound would understate it near order 1, where the peak
  lies past k ~ 100.  Past ~200 digits, or the 10001-term cap, it
  refuses (NonConvergent) instead of silently degrading; callers fall
  back to airy_quadrature, which has no such range limit.
* The truncation scan _scan_peak evaluates log|term_k| on a prefix
  k < n, n = 64, 512, 4096, then the cap of 10001 indices, and stops at
  the first prefix that holds an index past its peak whose value is
  below the cutoff.  The result is exact, not a heuristic: each
  log-magnitude is linear in k plus gammaln(c (k+1)) - gammaln(k+1) (or
  the 2k+1 analogue) with c < 1, which is strictly concave because
  c**2 psi'(c w) = sum_n 1/(w + n/c)**2 < psi'(w).  Past the peak the
  sequence keeps falling, so the prefix's peak and first-below index
  are those of a scan out to the cap, and the elementwise ufuncs give
  the same bits on a prefix.  The series need 30-300 terms, so the
  scan usually stops at the 64- or 512-index prefix.
* Near order 1 (and Wright index near 1) the float64 pass meets
  Gamma(k/alpha) overflowing while x**k/k! underflows; a pass with such
  a term rebuilds it, and the terms whose x**k/k! went subnormal, from
  their log-magnitudes instead of returning NaN.
* The Weibull-expectation routes (density._weibull_expectation) have
  the same cancellation, an integrand peaking near e^M for an O(1)
  result; they raise NonConvergent once e^M * 1e-16 > tol.
* errors.check_params does every range check and rejects NaN and +-inf,
  so a non-finite parameter raises DomainError rather than give NaN.
* Outside the series range the kernel and its tail integral come from
  _quad.chirp_integral, one contour rule batched over points: the
  defining integral is taken along a path on which |e^{i phi}| falls
  from 1 along every leg (a ray at arg s = pi/(2a) for x >= 0 or a
  shallow well, three legs through the real saddle otherwise), with a
  tanh-sinh rule per leg.  Its error estimate is the difference from
  the embedded half-step sum, plus a bound for the float64 rounding of
  the phase; where the two exceed tol after one step halving it raises
  NonConvergent.  Its cost does not grow with |x|.
* Tail integrals int_c^inf Ai_a(y) dy are evaluated through the
  regularized Fubini identity  int_c^inf Ai_a = 1/2 - S(c),
  S(c) = (1/pi) int_0^inf sin(s**a/a + c*s)/s ds, which reproduces the
  classical facts int_0^inf Ai = 1/3 (a=3) and 1/4 (a=2); S(c) runs on
  the same contour, with the pole at s = 0 taken round analytically.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from scipy import special as sp

from ._quad import chirp_integral
from .errors import DomainError, NonConvergent, check_params

_SERIES_CAP = 10000  # iteration cap shared by all series in this module
_MP_DPS_CAP = 200  # refuse beyond this working precision


@dataclass(frozen=True)
class AiryOrder:
    """Order of the generalized Airy function; alpha > 1."""

    alpha: float

    def __post_init__(self):
        check_params(alpha=self.alpha)


@dataclass(frozen=True)
class WeibullParams:
    """Weibull shape gamma > 0 and scale tau > 0 (units of y**gamma)."""

    gamma: float
    tau: float

    def __post_init__(self):
        if not (self.gamma > 0.0 and self.tau > 0.0):
            raise DomainError(
                f"Weibull needs gamma > 0 and tau > 0, got "
                f"gamma={self.gamma}, tau={self.tau}"
            )


@dataclass(frozen=True)
class WrightArgs:
    """Wright function W_{-theta, 1-theta} at real z <= 0; theta in (0,1)."""

    theta: float
    z: float

    def __post_init__(self):
        check_params(theta=self.theta)
        if not -math.inf < self.z <= 0.0:
            raise DomainError(f"Wright branch evaluated at finite z <= 0 only, got {self.z}")


# ---------------------------------------------------------------------------
# generalized Airy: series route
# ---------------------------------------------------------------------------


def _airy_prefactor(alpha):
    pref = 1.0 / (math.pi * alpha ** ((alpha - 1.0) / alpha))
    if pref < sys.float_info.min:
        # alpha beyond ~1.4e307: the series cannot be scaled in float64
        raise DomainError(f"Airy order alpha={alpha} is too large for the series prefactor")
    return pref


def _term_prefixes(logmag):
    """logmag(k) on k = 0..n-1 for n = 64, 512, 4096, then the cap."""
    n = 64
    while n < _SERIES_CAP + 1:
        yield logmag(np.arange(n, dtype=float))
        n *= 8
    yield logmag(np.arange(_SERIES_CAP + 1, dtype=float))


def _scan_peak(logmag, cutoff_log):
    """Truncation scan of a series from its term log-magnitudes.

    logmag maps an index array k to log|term_k| elementwise.  Returns
    (K, peak, peak_log): K is the first index past the peak where
    log|term| < cutoff_log, peak the index of the peak log magnitude
    peak_log; None when no such K lies within _SERIES_CAP (the caller
    raises NonConvergent).  The scan grows its prefix lazily; every
    logmag of this module is strictly concave in k, so once a value
    past the prefix's peak is below the cutoff the sequence keeps
    falling and the answer is the one a scan out to the cap would give.
    """
    for vals in _term_prefixes(logmag):
        peak = int(np.argmax(vals))
        below = np.flatnonzero(vals[peak + 1 :] < cutoff_log)
        if below.size:
            return peak + 1 + int(below[0]), peak, float(vals[peak])
    return None


def _scan_terms(logmag, cutoff_log):
    """(K, peak_log) of _scan_peak, or None."""
    found = _scan_peak(logmag, cutoff_log)
    return found and (found[0], found[2])


def _f64_relerr(peak):
    """Relative float64 rounding assumed for the terms around index peak;
    a float64 pass is accepted when the peak term times this stays below
    tol/2 (the summation itself is exact, math.fsum).  The products and
    powers of a term carry a few ulps, and a term built from its
    log-magnitude (the grid series, or an overflow rebuild) a few ulps
    of that log, which grows like lgamma(peak + 2)."""
    return max(5e-14, 8.0 * 2.0**-52 * math.lgamma(peak + 2.0))


def _rebuild_overflowed(terms, small, logmag, signed_unit):
    """Float64 terms of a series, with any overflow rebuilt in log space.

    terms is the product of Gamma factors with the power-over-factorial
    factor small; past ~171 Gamma overflows while small underflows, so
    a term comes out NaN or infinite.  When that happens, every term
    that is not finite or whose small factor left the normal float64
    range (and with it its digits) is rebuilt as
    exp(logmag(k)) * signed_unit[k].  A pass with no overflowed term is
    returned as it is: its subnormal factors meet Gamma values far from
    overflow, and there the float64 product is the more accurate one.
    """
    bad = ~np.isfinite(terms)
    if bad.any():
        idx = np.flatnonzero(bad | (np.abs(small) < np.finfo(float).tiny))
        terms[idx] = np.exp(logmag(idx.astype(float))) * signed_unit[idx]
    return terms


def _airy_term_logs(k, x, alpha):
    return (
        k * math.log(abs(x))
        + k * (math.log(alpha) / alpha)
        + sp.gammaln((k + 1.0) / alpha)
        - sp.gammaln(k + 1.0)
    )


def _certified_sum(logmag, cutoff_log, log_pref, tol, f64_terms, mp_terms, what):
    """Sum of a series (to be scaled by exp(log_pref)), certified to tol.

    Truncates by _scan_peak(logmag, cutoff_log).  If the peak term's
    float64 rounding (_f64_relerr) times the prefactor stays below
    tol/2, sums f64_terms(k) -> (terms, small, signed_unit) on
    k = 0..K with math.fsum after _rebuild_overflowed; else sums the
    terms k = 0..K that the generator mp_terms(K) yields (it converts
    its float arguments to mpf once per sum, not per term) in mpmath at
    digits sized from the peak-to-tol ratio.  Raises NonConvergent,
    naming the series by what() (formatted only then), at the term cap
    or past _MP_DPS_CAP.
    """
    found = _scan_peak(logmag, cutoff_log)
    if found is None:
        raise NonConvergent(f"{what()}: terms fail to decay within {_SERIES_CAP} terms")
    K, peak, peak_log = found
    if log_pref + peak_log + math.log(_f64_relerr(peak)) <= math.log(tol / 2.0):
        with np.errstate(over="ignore", invalid="ignore"):
            terms, small, signed_unit = f64_terms(np.arange(K + 1, dtype=float))
        return math.fsum(_rebuild_overflowed(terms, small, logmag, signed_unit).tolist())
    dps = 15 + max(0, int(math.ceil((peak_log - math.log(tol)) / math.log(10.0))))
    if dps > _MP_DPS_CAP:
        raise NonConvergent(f"{what()}: cancellation needs ~{dps} digits (cap {_MP_DPS_CAP})")
    with mp.workdps(dps):
        total = mp.mpf(0)
        for term in mp_terms(K):
            total += term
        return float(total)


def airy_series(x, order, tol=1e-10):
    """Power-series value of the generalized Airy function.

    Args:
        x: real argument.
        order: AiryOrder (alpha > 1).
        tol: absolute truncation/rounding tolerance (> 0).

    Raises:
        NonConvergent: term magnitudes fail to decay within the
            iteration cap, or the cancellation exceeds the supported
            working precision (use airy_quadrature there).
        DomainError: alpha <= 1 or tol <= 0.
    """
    order = order if isinstance(order, AiryOrder) else AiryOrder(float(order))
    alpha = order.alpha
    check_params(tol=tol)
    x = float(x)
    pref = _airy_prefactor(alpha)
    if x == 0.0:
        return pref * math.gamma(1.0 / alpha) * math.sin(
            math.pi * (alpha + 1.0) / (2.0 * alpha)
        )

    def f64_terms(k):
        # exactly-representable pieces: cumprod for x**k/k!, vectorized gamma
        xk_over_fact = np.cumprod(np.concatenate(([1.0], x / k[1:])))
        apow = np.exp(k * (math.log(alpha) / alpha))
        sines = np.sin(np.pi * (k + 1.0) * (alpha + 1.0) / (2.0 * alpha))
        terms = sp.gamma((k + 1.0) / alpha) * xk_over_fact * apow * sines
        return terms, xk_over_fact, sines * np.sign(x) ** k

    def mp_terms(K):
        xm, am = mp.mpf(x), mp.mpf(alpha)
        for k in range(K + 1):
            sine = mp.sin(mp.pi * (k + 1) * (am + 1) / (2 * am))
            yield xm**k * am ** (k / am) * mp.gamma((k + 1) / am) * sine / mp.factorial(k)

    # truncate when |term| (times prefactor) is far below tol; the sine
    # factor is bounded by 1, so the log-magnitudes are conservative
    logmag = lambda k: _airy_term_logs(k, x, alpha)
    cutoff = math.log(tol / pref) + math.log(1e-3)
    what = lambda: f"airy series at x={x}, alpha={alpha}"
    return pref * _certified_sum(logmag, cutoff, math.log(pref), tol, f64_terms, mp_terms, what)


def series_float64_range(alpha, tol=1e-10):
    """Largest |x| the float64 series pass can certify at tolerance tol.

    This is the operational working-range bound: beyond it airy_series
    escalates to extended precision and airy_grid switches to the
    contour rule instead.
    """
    alpha = float(alpha)
    gate = math.log((tol / 2.0) / _airy_prefactor(alpha))

    def rounding_log(x):
        # log of the peak term's rounding; the peak is final once the
        # prefix falls at its end
        for vals in _term_prefixes(lambda k: _airy_term_logs(k, x, alpha)):
            if vals[-1] < np.max(vals):
                break
        peak = int(np.argmax(vals))
        return float(vals[peak]) + math.log(_f64_relerr(peak))

    lo, hi = 0.5, 1.0
    while rounding_log(hi) < gate and hi < 1e3:
        lo, hi = hi, hi * 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if rounding_log(mid) < gate:
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# generalized Airy: quadrature route
# ---------------------------------------------------------------------------


def airy_quadrature(x, order, tol=1e-10):
    """Contour-integral value of the generalized Airy function.

    Agrees with airy_series on the series working range; has no range
    restriction of its own.

    Raises:
        NonConvergent: the contour rule cannot certify tol at x (its
            error estimate plus rounding bound exceeds it).
        DomainError: alpha <= 1, tol <= 0 or a non-finite x.
    """
    order = order if isinstance(order, AiryOrder) else AiryOrder(float(order))
    check_params(tol=tol)
    return chirp_integral(order.alpha, float(x), kind="cos", tol=tol * math.pi) / math.pi


def airy_point(x, alpha, tol=1e-10):
    """Ai_a at one point: the one-point case of airy_grid."""
    return float(airy_grid([float(x)], alpha, tol)[0])


_F64_RANGE_CACHE: dict[tuple[float, float], float] = {}


def _f64_range_cached(alpha, tol):
    key = (float(alpha), float(tol))
    if key not in _F64_RANGE_CACHE:
        _F64_RANGE_CACHE[key] = series_float64_range(*key)
    return _F64_RANGE_CACHE[key]


def airy_grid(xs, alpha, tol=1e-10):
    """Vectorized Ai_a over an array of any shape; float64 series inside
    its certified range, one batched contour-rule call for the points
    beyond."""
    check_params(alpha=alpha, tol=tol)
    xs = np.asarray(xs, dtype=float)
    safe = np.abs(xs) <= _f64_range_cached(alpha, tol)
    if safe.all():
        return _airy_grid_series(xs, alpha)
    out = np.empty_like(xs)
    if safe.any():
        out[safe] = _airy_grid_series(xs[safe], alpha)
    out[~safe] = chirp_integral(alpha, xs[~safe], kind="cos", tol=tol * math.pi) / math.pi
    return out


def _airy_grid_series(xs, alpha):
    # shared truncation for the whole batch, sized at the largest |x|
    xa = float(np.max(np.abs(xs))) if xs.size else 1.0
    pref = _airy_prefactor(alpha)
    found = _scan_terms(lambda k: _airy_term_logs(k, max(xa, 1e-12), alpha), math.log(1e-16))
    if found is None:
        raise NonConvergent(f"airy grid series terms fail to decay within {_SERIES_CAP} terms")
    k = np.arange(found[0] + 1, dtype=float)
    coef = np.exp(_airy_term_logs(k, 1.0, alpha)) * np.sin(
        np.pi * (k + 1.0) * (alpha + 1.0) / (2.0 * alpha)
    )
    powers = np.power.outer(xs, k)  # (n, K+1)
    return pref * (powers @ coef)


def airy_cdf_tail(c, alpha, tol=1e-10):
    """int_c^inf Ai_a(y) dy via the regularized identity 1/2 - S(c)."""
    s_val = chirp_integral(float(alpha), float(c), kind="sin_over_s", tol=tol * math.pi)
    return 0.5 - s_val / math.pi


# ---------------------------------------------------------------------------
# Weibull density
# ---------------------------------------------------------------------------


def weibull_pdf(y, params):
    """Weibull density gamma*y**(gamma-1)/tau * exp(-y**gamma/tau).

    Raises DomainError for y <= 0 (support is the open half line).
    """
    params = (
        params
        if isinstance(params, WeibullParams)
        else WeibullParams(*params)
    )
    y_arr = np.asarray(y, dtype=float)
    if np.any(y_arr <= 0.0):
        raise DomainError("Weibull density defined for y > 0 only")
    g, tau = params.gamma, params.tau
    out = g * y_arr ** (g - 1.0) / tau * np.exp(-(y_arr**g) / tau)
    return float(out) if np.isscalar(y) or y_arr.ndim == 0 else out


# ---------------------------------------------------------------------------
# Wright function branch and the one-sided stable density
# ---------------------------------------------------------------------------


def _wright_term_logs(k, absz, theta):
    with np.errstate(divide="ignore", invalid="ignore"):
        logz = k * (math.log(absz) if absz > 0 else -math.inf)
        logz[k == 0] = 0.0
    return logz + sp.gammaln(theta * (k + 1.0)) - sp.gammaln(k + 1.0) - math.log(math.pi)


def wright_series(args, tol=1e-12):
    """Wright function W_{-theta,1-theta}(z) for z <= 0, theta in (0,1).

    The reciprocal gamma at the negative arguments -theta*k + 1 - theta
    is computed through reflection, 1/Gamma(w) = sin(pi w) Gamma(1-w)/pi,
    which is entire; indices where the argument hits a nonpositive
    integer contribute exactly 0 through the sine.

    Raises NonConvergent beyond the iteration cap or when the
    alternating cancellation exceeds the supported working precision.
    """
    args = args if isinstance(args, WrightArgs) else WrightArgs(*args)
    check_params(tol=tol)
    theta, z = args.theta, args.z
    if z == 0.0:
        return math.sin(math.pi * theta) * math.gamma(theta) / math.pi

    def f64_terms(k):
        sines = np.sin(np.pi * theta * (k + 1.0))
        zk_over_fact = np.cumprod(np.concatenate(([1.0], z / k[1:])))
        terms = sp.gamma(theta * (k + 1.0)) * sines * zk_over_fact / math.pi
        return terms, zk_over_fact, sines * (-1.0) ** k

    def mp_terms(K):
        zm, tm = mp.mpf(z), mp.mpf(theta)
        for k in range(K + 1):
            sine = mp.sin(mp.pi * tm * (k + 1))
            yield zm**k * sine * mp.gamma(tm * (k + 1)) / (mp.pi * mp.factorial(k))

    logmag = lambda k: _wright_term_logs(k, abs(z), theta)
    cutoff = math.log(tol) - 3.0 * math.log(10.0)
    what = lambda: f"wright series at z={z}, theta={theta}"
    return _certified_sum(logmag, cutoff, 0.0, tol, f64_terms, mp_terms, what)


# series -> saddle switch for the subordinator density: use the saddle
# branch once the saddle exponent B exceeds this (keeps the Wright pass
# below ~35 digits for every theta while the saddle error ~e^-B/B is
# far below any tolerance used here).
_SADDLE_MIN_B = 25.0


def _saddle_exponent(y, theta):
    return (1.0 - theta) * theta ** (theta / (1.0 - theta)) * y ** (1.0 / (1.0 - theta))


def stable_subordinator_pdf(x, t, theta):
    """Density h_theta(x, t) of a one-sided stable subordinator.

    h_theta(x,t) = theta*t/x**(theta+1) * W_{-theta,1-theta}(-t/x**theta).

    For very small x (saddle exponent B > 25, where h < ~1e-11 relative
    to scale) the Wright series is replaced by the saddle-point form
    lam**((2-theta)/2) exp(-B)/sqrt(2 pi t theta (1-theta)),
    lam = (t*theta/x)**(1/(1-theta)); exact at theta = 1/2, relative
    error O(1/B) elsewhere -- a stated limitation, negligible at that
    magnitude.

    Raises DomainError unless x > 0, t > 0 is finite and theta lies in
    (0,1).
    """
    check_params(t=t, theta=theta)
    if not x > 0.0:
        raise DomainError(f"subordinator density defined for x > 0, got {x}")
    y = t / x**theta
    b_exp = _saddle_exponent(y, theta)
    if b_exp > _SADDLE_MIN_B:
        lam = (t * theta / x) ** (1.0 / (1.0 - theta))
        return (
            lam ** ((2.0 - theta) / 2.0)
            * math.exp(-b_exp)
            / math.sqrt(2.0 * math.pi * t * theta * (1.0 - theta))
        )
    # the Wright value is ~e^{-B}; scale the absolute tolerance so the
    # result keeps relative accuracy even where cancellation is severe
    w = wright_series(WrightArgs(theta, -y), tol=min(1e-12, math.exp(-b_exp) * 1e-11))
    return theta * t / x ** (theta + 1.0) * w
