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
* The three series here are one Wright-type family (Gorenflo, Luchko &
  Mainardi, Fract. Calc. Appl. Anal. 2, 1999),
      pref * sum_n z**n Gamma(a (n+1)) / n! * sin(pi omega (n+1)),
  summed by one engine, _certified_sum, to which each series supplies
  only (z, a, omega): Airy (x alpha**(1/alpha), 1/alpha,
  (alpha+1)/(2 alpha)), Wright W_{-theta,1-theta} (z, theta, theta),
  and the p = 1/2 subordinated density (|x| t**(-1/nu), 1/nu,
  (alpha+1)/(2 alpha)) over even n only.  The series are entire but
  alternate with huge terms once |z| grows (at a = 1.5, x = 4 the
  largest Airy term is ~1e8 while the sum is O(1)), so the float64
  fsum is accepted only when the largest term's rounding stays below
  the tolerance; otherwise the sum is redone in mpmath at digits sized
  from that term.  That rounding is taken as
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
  log-magnitude (_term_logs) is linear in k plus gammaln(c (k+1)) -
  gammaln(k+1) (or the 2k+1 analogue) with c < 1, strictly concave as
  c**2 psi'(c w) = sum_n 1/(w + n/c)**2 < psi'(w).  Past the peak the
  sequence keeps falling, so the prefix's peak and first-below index
  are those of a scan out to the cap, and the elementwise ufuncs give
  the same bits on a prefix.  The series need 30-300 terms, so the
  scan usually stops at the 64- or 512-index prefix.
* airy_grid's float64 series is cached per (alpha, tol) with the range
  R = series_float64_range: one coefficient vector, prefactor folded
  in, truncated where the terms at |x| = R fall below 1e-16 / pref (81
  terms at order 3, 146 at 1.5, 814 at 1.05).  Each call forms x**k
  as a running product along k (np.multiply.accumulate) in blocks of at
  most _GRID_TABLE_ENTRIES doubles, one matrix-vector product per
  block; Horner's rule is faster on large grids but slower on the
  one-point calls that dominate direct integrals.  The running product
  rounds each power up to k times (Higham, Accuracy and Stability of
  Numerical Algorithms, 2nd ed., 2002, ch. 3), against once for pow;
  the values move by at most 7e-13 from pow's at tol 1e-10.
* Near order 1 (and Wright index near 1) the float64 pass meets
  Gamma(k/alpha) overflowing while x**k/k! underflows; a pass with such
  a term rebuilds it, and the terms whose x**k/k! went subnormal, from
  their log-magnitudes instead of returning NaN.
* The Weibull-expectation routes (density._weibull_expectation) have
  the same cancellation, an integrand peaking near e^M for an O(1)
  result; they raise NonConvergent once e^M * 1e-16 > tol.
* errors.check_params does every range check and rejects NaN and +-inf,
  so a non-finite parameter raises DomainError rather than give NaN, as
  does a non-finite series or Weibull-expectation argument.
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

from ._quad import chirp_integral, tanh_sinh_rule
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


def _f64_relerr(peak):
    """Relative float64 rounding assumed for the terms around index peak;
    a float64 pass is accepted when the peak term times this stays below
    tol/2.  The products and powers of a term carry a few ulps, and a
    term built from its log-magnitude (a grid-series coefficient, or an
    overflow rebuild) a few ulps of that log, which grows like
    lgamma(peak + 2).  _certified_sum adds its terms exactly (math.fsum);
    the grid series is a dot product of running-product powers, whose
    k-th power carries up to k roundings, and is not covered by this
    bound alone: against 80-digit sums at 12 points per side in
    [0.95 R, R] its error peaks at 0.52 tol at order 1.05 (x = R) and
    stays below 0.16 tol from order 1.2 to 4."""
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


def _term_logs(k, z, a, even=False):
    """log|z**n Gamma(a (n+1)) / n!|, n = k (2k when even), which bounds
    log|term_k| as |sine| <= 1; log Gamma(a) at k = 0, even at z = 0."""
    n = 2.0 * k if even else k
    return sp.xlogy(n, abs(z)) + sp.gammaln(a * (n + 1.0)) - sp.gammaln(n + 1.0)


def _certified_sum(params, pref, tol, what, even=False):
    """pref * sum_n z**n Gamma(a (n+1)) / n! * sin(pi omega (n+1)) over
    n = 0, 1, 2, ... (n = 0, 2, 4, ... when even), certified to tol.

    params(m) gives (z, a, omega) from the caller's inputs converted by
    m: float for the float64 pass, mp.mpf for the mpmath pass, which so
    sees them exactly.  Truncates by _scan_peak on _term_logs, its index
    k standing for n = k or 2k.  Sums in float64 (math.fsum after
    _rebuild_overflowed) when the peak term's rounding (_f64_relerr)
    times pref stays below tol/2, else in mpmath at digits sized from
    the peak-to-tol ratio.  Raises DomainError at a non-finite z or
    tol, and NonConvergent, naming the series by what() (formatted only then),
    at the term cap or past _MP_DPS_CAP.
    """
    check_params(tol=tol)
    z, a, omega = params(float)
    if not math.isfinite(z):
        raise DomainError(f"{what()}: series argument {z} is not finite")
    if z == 0.0:
        return pref * math.gamma(a) * math.sin(math.pi * omega)
    logmag = lambda k: _term_logs(k, z, a, even)
    found = _scan_peak(logmag, math.log(tol / pref) + math.log(1e-3))
    if found is None:
        raise NonConvergent(f"{what()}: terms fail to decay within {_SERIES_CAP} terms")
    K, peak, peak_log = found
    step = 2 if even else 1
    if math.log(pref) + peak_log + math.log(_f64_relerr(peak)) <= math.log(tol / 2.0):
        n = np.arange(0.0, step * K + 1.0, step)
        # z**n / n! as a running product
        small = np.cumprod(np.concatenate(([1.0], z / np.arange(1.0, step * K + 1.0))))[::step]
        sines = np.sin(np.pi * omega * (n + 1.0))
        with np.errstate(over="ignore", invalid="ignore"):
            terms = sp.gamma(a * (n + 1.0)) * small * sines
        signed_unit = sines * np.sign(z) ** n
        return pref * math.fsum(_rebuild_overflowed(terms, small, logmag, signed_unit).tolist())
    dps = 15 + max(0, int(math.ceil((peak_log - math.log(tol)) / math.log(10.0))))
    if dps > _MP_DPS_CAP:
        raise NonConvergent(f"{what()}: cancellation needs ~{dps} digits (cap {_MP_DPS_CAP})")
    with mp.workdps(dps):
        z, a, omega = params(mp.mpf)
        total = mp.fsum(
            z**n * mp.gamma(a * (n + 1)) * mp.sin(mp.pi * omega * (n + 1)) / mp.factorial(n)
            for n in range(0, step * K + 1, step)
        )
        return pref * float(total)


def _airy_params(x, alpha):
    """_certified_sum's params of Ai_a(x) (see the module notes)."""

    def params(m):
        xm, am = m(x), m(alpha)
        return xm * am ** (1 / am), 1 / am, (am + 1) / (2 * am)

    return params


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
        DomainError: alpha <= 1, tol <= 0 or a non-finite x.
    """
    order = order if isinstance(order, AiryOrder) else AiryOrder(float(order))
    alpha, x = order.alpha, float(x)
    what = lambda: f"airy series at x={x}, alpha={alpha}"
    return _certified_sum(_airy_params(x, alpha), _airy_prefactor(alpha), tol, what)


def series_float64_range(alpha, tol=1e-10):
    """Largest |x| the float64 series pass can certify at tolerance tol.

    This is the operational working-range bound: beyond it airy_series
    escalates to extended precision and airy_grid switches to the
    contour rule instead.
    """
    alpha = float(alpha)
    gate = math.log((tol / 2.0) / _airy_prefactor(alpha))

    def rounding_log(x):
        # log of the peak term's rounding
        z, a, _ = _airy_params(x, alpha)(float)
        found = _scan_peak(lambda k: _term_logs(k, z, a), math.inf)
        return math.inf if found is None else found[2] + math.log(_f64_relerr(found[1]))

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


# (alpha, tol) -> (R, coef): the float64 range R = series_float64_range and
# the grid series' coefficients, truncated at |x| = R, prefactor folded in
_GRID_SERIES_CACHE: dict[tuple[float, float], tuple[float, np.ndarray]] = {}
_GRID_TABLE_ENTRIES = 2**17  # doubles per block of powers, about 1 MB


def _grid_series_cached(alpha, tol):
    key = (float(alpha), float(tol))
    if key not in _GRID_SERIES_CACHE:
        r = series_float64_range(*key)
        z, a, omega = _airy_params(1.0, key[0])(float)
        # terms fall below 1e-16 / pref at |x| = R, so at every |x| <= R
        found = _scan_peak(lambda k: _term_logs(k, r * z, a), math.log(1e-16))
        if found is None:
            raise NonConvergent(f"airy grid series terms fail to decay within {_SERIES_CAP} terms")
        k = np.arange(found[0] + 1, dtype=float)
        coef = np.exp(_term_logs(k, z, a)) * np.sin(np.pi * omega * (k + 1.0))
        _GRID_SERIES_CACHE[key] = (r, _airy_prefactor(key[0]) * coef)
    return _GRID_SERIES_CACHE[key]


def airy_grid(xs, alpha, tol=1e-10):
    """Vectorized Ai_a over an array of any shape; float64 series inside
    its certified range, one batched contour-rule call for the points
    beyond."""
    check_params(alpha=alpha, tol=tol)
    xs = np.asarray(xs, dtype=float)
    r, coef = _grid_series_cached(alpha, tol)
    safe = np.abs(xs) <= r
    if safe.all():
        return _airy_grid_series(xs, coef)
    out = np.empty_like(xs)
    if safe.any():
        out[safe] = _airy_grid_series(xs[safe], coef)
    out[~safe] = chirp_integral(alpha, xs[~safe], kind="cos", tol=tol * math.pi) / math.pi
    return out


def _airy_grid_series(xs, coef):
    """sum_k coef[k] x**k at every x of xs, in xs's shape.  The powers
    x**k are a running product along k, one table per block of points
    of at most _GRID_TABLE_ENTRIES entries, and each block's sum is one
    matrix-vector product."""
    flat = xs.ravel()
    out = np.empty(flat.shape)
    rows = max(1, _GRID_TABLE_ENTRIES // coef.size)
    for lo in range(0, flat.size, rows):
        x = flat[lo : lo + rows]
        powers = np.empty((x.size, coef.size))
        powers[:, 0] = 1.0
        powers[:, 1:] = x[:, None]
        np.multiply.accumulate(powers, axis=1, out=powers)
        out[lo : lo + rows] = powers @ coef
    return out.reshape(xs.shape)


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
    theta, z = args.theta, args.z
    what = lambda: f"wright series at z={z}, theta={theta}"
    return _certified_sum(lambda m: (m(z), m(theta), m(theta)), 1.0 / math.pi, tol, what)


# Kanter's integral runs on the step-1/48 tanh-sinh rule, t in [-3.15, 3.15]
# (303 nodes); below step 1/40 the gap to an mpmath quadrature of the same
# integral stays within 1e-12 up to theta = 0.99.
_KANTER_U, _KANTER_W = tanh_sinh_rule(151, 1.0 / 48.0)
_KANTER_U_BACK = _KANTER_U[::-1].copy()  # node distances to the far end
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _kanter_peak(log_u, log_b, theta):
    """(phi*, pi - phi*) with A(phi*) u = 1, given log(A(0+) u) = log_b < 0.

    Safeguarded Newton steps on log(A u) in z, phi = pi / (1 + e^-z), a
    variable that keeps both phi and pi - phi to full relative precision
    (phi* lies within u**(1 - theta) of pi for large y).  The start is
    the expansion at the nearer end: log A ~ log A(0+) + theta phi**2 / 2
    at 0, A ~ (sin(pi theta) / (pi - phi))**(1/(1-theta)) at pi.
    """
    q, p = theta / (1.0 - theta), 1.0 / (1.0 - theta)
    lo, hi = -40.0, 745.0  # log(A u) < 0 at lo, > 0 at hi
    log_d0 = math.log(math.sin(math.pi * theta)) + (1.0 - theta) * log_u
    if log_d0 < math.log(math.pi / 2.0):
        z = math.log(math.pi) - log_d0 + math.log1p(-math.exp(log_d0) / math.pi)
    else:
        phi0 = min(math.sqrt(-2.0 * log_b / theta), math.pi / 2.0)
        z = math.log(phi0 / (math.pi - phi0))
    z = min(max(z, lo), hi)
    for _ in range(100):
        e = math.exp(-abs(z))
        near, far = math.pi * e / (1.0 + e), math.pi / (1.0 + e)
        phi, delta = (far, near) if z >= 0.0 else (near, far)
        s_th, s_rest = math.sin(theta * phi), math.sin((1.0 - theta) * phi)
        g = log_u + q * math.log(s_th / math.sin(near)) + math.log(s_rest / math.sin(near))
        if g < 0.0:
            lo = z
        else:
            hi = z
        cot_phi = -1.0 / math.tan(delta) if z >= 0.0 else 1.0 / math.tan(phi)
        dlog_a = (
            q * theta * math.cos(theta * phi) / s_th
            + (1.0 - theta) * math.cos((1.0 - theta) * phi) / s_rest
            - p * cot_phi
        )
        step = g / (dlog_a * phi * delta / math.pi) if dlog_a > 0.0 else math.inf
        if abs(step) < 1e-9:
            break
        z = z - step if lo < z - step < hi else 0.5 * (lo + hi)
    return phi, delta


def stable_subordinator_pdf(x, t, theta):
    """Density h_theta(x, t) of a one-sided stable subordinator,
    E exp(-s X_t) = exp(-t s**theta), from Kanter's integral.

    With y = x t**(-1/theta) and u = y**(-theta/(1-theta)),

        h = theta / ((1-theta) pi x) int_0^pi A(phi) u exp(-A(phi) u) dphi,
        A(phi) = sin(theta phi)**(theta/(1-theta)) sin((1-theta) phi)
                 / sin(phi)**(1/(1-theta))

    (Kanter, Ann. Probab. 3, 1975; Zolotarev, One-dimensional Stable
    Distributions, 1986).  The integrand is positive, so there is no
    cancellation and no extended precision, and the same rule holds
    from the far left tail to the power tail.  A increases from
    A(0+) = (1-theta) theta**(theta/(1-theta)), so the integrand peaks
    at the phi* where A u = 1, or at phi = 0 when A(0+) u >= 1.
    [phi*, pi] gets a tanh-sinh rule in pi - phi, each node's sin(phi)
    taken as the sine of its distance to the nearer end; [0, phi*] gets
    one in log(pi - phi), over which the power tail of the integrand
    decays geometrically.  The sum is scaled by the peak value and the
    result assembled in logs, so it is 0.0 where h underflows and never
    overflows before h does.  The gap to an mpmath quadrature of the
    same integral is within about 1e-13 relative up to theta = 0.99.

    Raises DomainError unless x > 0, t > 0 is finite and theta lies in
    (0,1).
    """
    check_params(t=t, theta=theta)
    if not x > 0.0:
        raise DomainError(f"subordinator density defined for x > 0, got {x}")
    if x == math.inf:
        return 0.0
    q = theta / (1.0 - theta)
    log_x = math.log(x)
    log_u = (math.log(t) - theta * log_x) / (1.0 - theta)
    log_b = log_u + q * math.log(theta) + math.log1p(-theta)  # log(A(0+) u)
    if log_b >= 0.0:
        log_peak = log_b - math.exp(min(log_b, 700.0))
        if log_peak + math.log(q) - log_x < -750.0:
            return 0.0  # h <= q e^log_peak / x underflows
        phi_s, delta_s = 0.0, math.pi
    else:
        log_peak = -1.0
        phi_s, delta_s = _kanter_peak(log_u, log_b, theta)
    delta = delta_s * _KANTER_U
    phi = phi_s + delta_s * _KANTER_U_BACK
    weight = delta_s * _KANTER_W
    if phi_s > 0.0:
        big_r = math.log1p(phi_s / delta_s)  # log(pi / delta*)
        log_d = -big_r * _KANTER_U_BACK  # log(delta / pi)
        delta_l = math.pi * np.exp(log_d)
        delta = np.concatenate((delta, delta_l))
        phi = np.concatenate((phi, -math.pi * np.expm1(log_d)))
        weight = np.concatenate((weight, big_r * _KANTER_W * delta_l))
    s = np.sin(np.minimum(phi, delta))
    with np.errstate(over="ignore", divide="ignore"):
        log_a = q * np.log(np.sin(theta * phi) / s) + np.log(np.sin((1.0 - theta) * phi) / s)
    log_v = np.minimum(log_u + log_a, 700.0)
    total = float(weight @ np.exp(log_v - np.exp(log_v) - log_peak))
    log_h = math.log(q / math.pi * total) + log_peak - log_x
    return math.exp(log_h) if log_h < _LOG_FLOAT_MAX else math.inf
