"""Contour quadrature for chirp-phase integrals on [0, inf).

Evaluates, for an array of real points c,

    int_0^inf g(s) * trig(phi(s)) ds,    phi(s) = s**alpha/alpha + c*s,

with alpha > 1, for the two weights the generalized Airy machinery
needs:

    kind="cos":        g(s) = 1,   trig = cos    (point evaluation)
    kind="sin_over_s": g(s) = 1/s, trig = sin    (tail integrals)

Both are taken from int e^{i phi} g ds along a contour in the right
half plane (numerical steepest descent: Huybrechs & Vandewalle, SIAM
J. Numer. Anal. 44, 2006), on which |e^{i phi}| falls from 1 along
every leg, so the integral converges absolutely and no phase panels
are needed:

* c >= 0, or a shallow well ((1 - 1/alpha)|c|**(alpha/(alpha-1)) < 2):
  the ray s = r e^{i pi/(2 alpha)}, on which the s**alpha/alpha part of
  phi is purely imaginary;
* otherwise, with the saddle s* = |c|**(1/(alpha-1)): the legs
  0 -> -i s* tan(pi/6), -i s* tan(pi/6) -> s* and s* -> s* + r e^{i beta},
  beta = min(pi/4, pi/(2 alpha)).  The last two are evaluated from s*
  outwards, with the phase taken relative to phi(s*).

Each leg is cut where Im phi has risen by about _RISE from its start,
which leaves e^{-_RISE} of the integrand; the cut lengths come from a
closed-form start and a few Newton steps in log-log coordinates.  The
two legs that meet at -i s* tan(pi/6) run their full length when the
rise there is smaller.

For the tail weight the pole at s = 0 is taken round analytically: the
path leaves 0 at the angle theta0 (-pi/2 on the saddle path,
pi/(2 alpha) on the ray), so int_0^inf sin(phi)/s ds =
theta0 + Im int_path e^{i phi}/s ds, where the integrand of the leg
from 0 has a removable singularity once its imaginary part is taken.

Each leg gets a tanh-sinh rule on [0, 1] (Takahasi & Mori, 1974) with
step 1/32 and t in [-3.16, 3.16] (203 nodes); it clusters nodes at the
origin's s**alpha branch point.  The error estimate is the difference
from the embedded step-1/16 sum.  Where estimate plus rounding bound
exceed tol the points are redone with step 1/64 (the odd nodes only),
estimated against the step-1/32 sum, and NonConvergent is raised where
that still fails.  The rounding bound is the integrand mass times the
float64 error of the phase at each node; the phase at the saddle,
phi(s*) = -(1 - 1/alpha) s*^alpha, is reduced mod 2 pi in mpmath where
its float64 rounding alone would exceed tol.  Points are evaluated in
blocks so that no points x nodes temporary exceeds about 1 MB.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp
import numpy as np

from .errors import DomainError, NonConvergent, check_params

_RISE = 50.0  # cut a leg where |e^{i phi}| has fallen to e^-_RISE
_EPS = 2.0**-52
_POINTS_PER_BLOCK = 320  # 320 x 203 complex values is about 1 MB
_NEWTON_STEPS = 40
# saddle legs no longer than this sum the phase offset as a binomial
# series of this many terms (for alpha <= 4 the omitted ones are below
# 1e-18 of the sum; the bound below counts them anyway)
_SERIES_W = 0.4
_SERIES_TERMS = 40


def _tanh_sinh():
    """Nodes u in (0, 1) and weights of the step-1/64 tanh-sinh rule,
    k = -202..202, with the weight columns of the embedded rules."""
    h = 1.0 / 64.0
    k = np.arange(-202, 203)
    t = h * k
    e = np.exp(-math.pi * np.sinh(t))
    u = 1.0 / (1.0 + e)
    w = h * math.pi * np.cosh(t) * e / (1.0 + e) ** 2
    even = k % 2 == 0
    # step 1/32 on the even nodes, with the step-1/16 sum as second column
    coarse = np.stack([2.0 * w[even], np.where(k[even] % 4 == 0, 4.0 * w[even], 0.0)], axis=1)
    return u[even], coarse, u[~even], w[~even][:, None]


_U_EVEN, _W_EVEN, _U_ODD, _W_ODD = _tanh_sinh()


def _cut(rise_slope, rho, rho_max):
    """Leg lengths where the rise of Im phi reaches about _RISE.

    rise_slope(rho) gives the rise and its derivative in rho.  Newton
    steps on log(rise) against log(rho), each bounded to a factor of 4;
    a length is accepted once its rise lies in [0.9, 2.5] * _RISE
    (overshoot only costs nodes at the far end, where the integrand is
    negligible) or it has reached rho_max with a smaller rise.
    """
    for _ in range(_NEWTON_STEPS):
        f, df = rise_slope(rho)
        done = ((f >= 0.9 * _RISE) & (f <= 2.5 * _RISE)) | ((rho >= rho_max) & (f < _RISE))
        if done.all():
            return rho
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.log(_RISE / f) * f / (rho * df)
        step = np.where((f > 0.0) & (df > 0.0), np.clip(step, -math.log(4.0), math.log(4.0)), math.log(2.0))
        rho = np.where(done, rho, np.minimum(rho * np.exp(step), rho_max))
    raise NonConvergent("contour leg length did not settle")


def _zero_leg(c, length, angle, alpha, tail, u, wcols):
    """Sums of one leg s = rho e^{i angle}, rho in [0, length], from the
    origin: the real part of e^{i phi} ds (kind cos) or the imaginary
    part of e^{i phi} ds/s (tail), under each weight column, and the
    rounding bound."""
    rho = length[:, None] * u
    pa = rho**alpha
    phi = pa * (cmath.exp(1j * alpha * angle) / alpha) + (c[:, None] * cmath.exp(1j * angle)) * rho
    e = np.exp(1j * phi)
    if tail:
        g = e.imag / u  # ds/s = du/u along a ray from the origin
        mag = np.abs(e) / u
    else:
        g = (e * (cmath.exp(1j * angle) * length)[:, None]).real
        mag = np.abs(e) * length[:, None]
    phase_err = 4.0 * _EPS * (pa / alpha + np.abs(c)[:, None] * rho)
    return g @ wcols, (mag * (8.0 * _EPS + phase_err)) @ wcols[:, 0]


def _binomial_coefficients(alpha):
    """binom(alpha, j) for j = 2.._SERIES_TERMS + 2: the summed terms
    and the first omitted one."""
    coef = [alpha * (alpha - 1.0) / 2.0]
    for j in range(3, _SERIES_TERMS + 3):
        coef.append(coef[-1] * (alpha - j + 1.0) / j)
    return np.array(coef)


def _saddle_offset(w, k, r, alpha, short):
    """phi(s*(1+w)) - phi(s*) = k((1+w)^a - 1 - a w)/a + r w, with
    r = s*(s*^(a-1) + c), at the nodes of one saddle leg, and its
    float64 error bound per node.

    On a long leg the bracket (1+w)^a - 1 - a w comes from expm1 and
    log1p, with an error of a few ulps of a|w|.  On a short leg
    (|w| <= _SERIES_W, deep wells, where k is large) that error times k
    would cost digits, so the bracket is summed as its binomial series,
    with an error of a few ulps of the bracket itself.
    """
    if short:
        coef = _binomial_coefficients(alpha)
        acc = coef[-2]
        for cj in coef[-3::-1]:
            acc = acc * w + cj
        aw = np.abs(w)
        bracket = acc * (w * w)
        # rounding, plus the first omitted term's bound
        size = aw**2 * (np.abs(coef[:-1]) @ _SERIES_W ** np.arange(_SERIES_TERMS))
        size = size + abs(coef[-1]) * aw ** (_SERIES_TERMS + 2) / (_EPS * (1.0 - _SERIES_W))
    else:
        lw = np.log1p(w)
        em = np.expm1(alpha * lw)
        bracket = em - alpha * w
        aw = np.abs(w)
        size = np.abs(em) + alpha * aw
    dphi = (k / alpha) * bracket + r * w
    return dphi, 4.0 * _EPS * ((k / alpha) * size + np.abs(r) * aw)


def _saddle_leg(sstar, k, r, length, angle, alpha, tail, u, wcols):
    """Complex sums of one leg s = s*(1 + rho e^{i angle}) from the
    saddle, of e^{i(phi - phi(s*))} ds (kind cos) or .. ds/s (tail),
    under each weight column; its mass (sum of |integrand| times
    weight) and its rounding bound without the phase at s*."""
    d = cmath.exp(1j * angle)
    w = (length[:, None] * u) * d
    dphi = np.empty_like(w)
    phase_err = np.empty(w.shape)
    short = length <= _SERIES_W
    for rows, is_short in ((short, True), (~short, False)):
        if rows.any():
            dphi[rows], phase_err[rows] = _saddle_offset(w[rows], k[rows, None], r[rows, None], alpha, is_short)
    e = np.exp(1j * dphi)
    if tail:
        f = e * (d * length)[:, None] / (1.0 + w)
    else:
        f = e * (d * sstar * length)[:, None]
    mag = np.abs(f)
    return f @ wcols, mag @ wcols[:, 0], (mag * (8.0 * _EPS + phase_err)) @ wcols[:, 0]


class _Ray:
    """Points on the single-ray path s = r e^{i pi/(2 alpha)}."""

    def __init__(self, alpha, c):
        self.alpha, self.c = alpha, c
        self.angle = math.pi / (2.0 * alpha)
        self.theta0 = self.angle
        b = c * math.sin(self.angle)
        r1 = (alpha * _RISE) ** (1.0 / alpha)
        start = np.where(b > 0.0, np.minimum(r1, _RISE / np.maximum(b, 1e-300)), r1)
        # Im phi = rho^a/a + c rho sin(angle) on the ray
        self.length = _cut(lambda x: (x**alpha / alpha + b * x, x ** (alpha - 1.0) + b), start, math.inf)

    def sums(self, tail, u, wcols):
        real, bound = _zero_leg(self.c, self.length, self.angle, self.alpha, tail, u, wcols)
        return real, np.zeros_like(real, dtype=complex), bound, np.zeros_like(bound)

    def saddle_phase(self, mass, tol):
        return 1.0, 0.0


class _SaddlePath:
    """Points on the three-leg path through the saddle s*."""

    _TAN = math.tan(math.pi / 6.0)
    _TO_CORNER = -5.0 * math.pi / 6.0  # direction from s* to -i s* tan(pi/6)

    def __init__(self, alpha, c):
        self.alpha, self.c = alpha, c
        self.theta0 = -math.pi / 2.0
        self.beta = min(math.pi / 4.0, math.pi / (2.0 * alpha))
        with np.errstate(over="ignore"):
            sstar = np.abs(c) ** (1.0 / (alpha - 1.0))
            k = sstar**alpha
        if not np.all(np.isfinite(k)):
            bad = c[~np.isfinite(k)][0]
            raise NonConvergent(f"chirp integral at c={bad}, alpha={alpha}: phase well exceeds float64")
        self.sstar, self.k, self.r = sstar, k, k + c * sstar
        # leg from 0 down the imaginary axis: Im phi = |c| y - y^a sin(a pi/2)/a
        amp = -math.sin(alpha * math.pi / 2.0) / alpha
        corner = sstar * self._TAN
        self.l_down = _cut(
            lambda y: (amp * y**alpha - c * y, alpha * amp * y ** (alpha - 1.0) - c),
            np.minimum(_RISE / np.abs(c), corner),
            corner,
        )
        self.l_back = self._saddle_cut(self._TO_CORNER, 1.0 / math.cos(math.pi / 6.0))
        self.l_out = self._saddle_cut(self.beta, math.inf)

    def _saddle_cut(self, angle, rho_max):
        alpha, k, r = self.alpha, self.k, self.r
        d = cmath.exp(1j * angle)

        def rise_slope(rho):
            w = rho * d
            slope = k * np.expm1((alpha - 1.0) * np.log1p(w)) + r
            return _saddle_offset(w, k, r, alpha, False)[0].imag, (slope * d).imag

        start = np.sqrt(2.0 * _RISE / (k * (alpha - 1.0) * math.sin(2.0 * angle)))
        return _cut(rise_slope, np.minimum(start, rho_max), rho_max)

    def sums(self, tail, u, wcols):
        alpha = self.alpha
        real, b_down = _zero_leg(self.c, self.l_down, -math.pi / 2.0, alpha, tail, u, wcols)
        out, m_out, b_out = _saddle_leg(self.sstar, self.k, self.r, self.l_out, self.beta, alpha, tail, u, wcols)
        back, m_back, b_back = _saddle_leg(
            self.sstar, self.k, self.r, self.l_back, self._TO_CORNER, alpha, tail, u, wcols
        )
        # the path runs from the corner to s*: the back leg counts negatively
        return real, out - back, b_down + b_out + b_back, m_out + m_back

    def saddle_phase(self, mass, tol):
        """e^{i phi(s*)} and its rounding bound per unit mass; phi(s*) is
        reduced mod 2 pi in mpmath where float64 would cost over tol/16."""
        f64_err = 4.0 * _EPS * self.k
        rot = np.exp(1j * (self.k / self.alpha + self.c * self.sstar))
        err = f64_err.copy()
        for i in np.flatnonzero(f64_err * mass > tol / 16.0):
            digits = 20 + int(math.log10(self.k[i]))
            with mp.workdps(digits):
                s = mp.mpf(float(self.sstar[i]))
                ph = mp.fmod(s ** mp.mpf(self.alpha) / self.alpha + mp.mpf(float(self.c[i])) * s, 2 * mp.pi)
                rot[i] = complex(mp.cos(ph), mp.sin(ph))
            err[i] = _EPS
        return rot, err


def _block(alpha, c, tail, tol):
    """chirp_integral on one block of finite points."""
    out = np.empty_like(c)
    with np.errstate(over="ignore"):
        deep = (c < 0.0) & ((1.0 - 1.0 / alpha) * np.abs(c) ** (alpha / (alpha - 1.0)) >= 2.0)
    for mask, path_type in ((~deep, _Ray), (deep, _SaddlePath)):
        if mask.any():
            out[mask] = _path_values(path_type(alpha, c[mask]), tail, tol)
    return out


def _path_values(path, tail, tol):
    """Values of one path's points: the step-1/32 sums, redone at step
    1/64 where the error estimate plus rounding bound exceeds tol."""
    real, cplx, bound, mass = path.sums(tail, _U_EVEN, _W_EVEN)
    rot, rot_err = path.saddle_phase(mass, tol)
    bound = bound + rot_err * mass
    err = np.abs(real[:, 0] - real[:, 1]) + np.abs(cplx[:, 0] - cplx[:, 1]) + bound
    real, cplx = real[:, 0], cplx[:, 0]
    redo = np.flatnonzero(err > tol)
    if redo.size:
        # the same legs again: their lengths depend on each point alone
        r_odd, c_odd, *_ = type(path)(path.alpha, path.c[redo]).sums(tail, _U_ODD, _W_ODD)
        fine_r = 0.5 * real[redo] + r_odd[:, 0]
        fine_c = 0.5 * cplx[redo] + c_odd[:, 0]
        err[redo] = np.abs(fine_r - real[redo]) + np.abs(fine_c - cplx[redo]) + bound[redo]
        real[redo], cplx[redo] = fine_r, fine_c
    if not np.all(err <= tol):
        i = int(np.flatnonzero(~(err <= tol))[0])
        raise NonConvergent(
            f"chirp integral at c={path.c[i]}, alpha={path.alpha}: contour rule error "
            f"estimate {err[i]:.2e} exceeds tol {tol:.2e}"
        )
    total = rot * cplx
    if tail:
        return path.theta0 + real + total.imag
    return real + total.real


def chirp_integral(alpha, c, kind="cos", tol=1e-10):
    """int_0^inf g(s)*trig(s**alpha/alpha + c*s) ds at each point of c
    (scalar or array), see module docstring; tol is absolute.

    Raises:
        DomainError: alpha <= 1, tol <= 0 or a non-finite point.
        NonConvergent: the contour rule's error estimate plus rounding
            bound exceeds tol at some point, or its phase well is too
            deep for float64.
    """
    check_params(alpha=alpha, tol=tol)
    if kind not in ("cos", "sin_over_s"):
        raise ValueError(f"unknown kind {kind!r}")
    alpha = float(alpha)
    cs = np.asarray(c, dtype=float)
    flat = cs.reshape(-1)
    finite = np.isfinite(flat)
    if not finite.all():
        raise DomainError(f"chirp integral needs finite points, got {flat[~finite][0]}")
    out = np.empty_like(flat)
    for lo in range(0, flat.size, _POINTS_PER_BLOCK):
        out[lo : lo + _POINTS_PER_BLOCK] = _block(alpha, flat[lo : lo + _POINTS_PER_BLOCK], kind == "sin_over_s", tol)
    return float(out[0]) if cs.ndim == 0 else out.reshape(cs.shape)
