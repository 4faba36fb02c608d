"""Independent routes that the benchmark checks each job's output against.

Every check compares a job's output with a second route to the same
object that does not share the formula under test:

* kernel values: the float64 series against the oscillatory quadrature
  and back, the order-3 kernel against ``scipy.special.airy``, and the
  order-2 density's even part against its elementary closed form;
* cylinder measures: ``line_total`` against 1, finite boxes against the
  tail identity, and nested boxes against a Gauss-Legendre (Nystrom)
  product rule in place of the package's panels and spline table; a
  semi-infinite innermost box goes through the exact tail identity;
* subordinated densities: the p = 1/2 series against the direct
  subordination integral and back;
* draws: the empirical transform against the transform composed from
  the base ``char_fn`` and the subordinator's Laplace transform
  exp(-t lambda**theta), within a Monte Carlo band of 4/sqrt(n);
* modality: the classifier's maxima against a finite-difference scan of
  ``cauchy_mixture_pdf`` on a fine grid.

A check returns ``(ok, error, tol, note)``.  Checks run untimed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp

GL_X, GL_W = np.polynomial.legendre.leggauss(32)


def result(error, tol, note=""):
    error = float(error)
    return (bool(error <= tol), error, tol, note)


# -- kernel -------------------------------------------------------------------


def airy_other_route(fp, y, alpha, f64_range):
    """Ai_alpha(y) by the route ``airy_grid`` did *not* take at y:
    quadrature inside the float64 series range, the (possibly
    multiprecision) series outside it."""
    if abs(y) <= f64_range:
        return fp.airy_quadrature(y, alpha, 1e-11)
    return fp.airy_series(y, alpha, 1e-11)


def kernel_values(fp, ys, alpha, values, f64_range, tol):
    errs = [abs(airy_other_route(fp, y, alpha, f64_range) - v) for y, v in zip(ys, values)]
    return result(max(errs), tol, f"{len(errs)} points vs the other kernel route")


def classical_airy(ys, values, tol):
    return result(np.max(np.abs(sp.airy(ys)[0] - values)), tol, f"{len(ys)} points vs scipy airy")


def order2_even_part(xs, values, t, tol):
    """Even part of the order-2 density equals the closed form
    cos(x^2/4t - pi/4)/(2 sqrt(pi t)) for every weight p (the grid must
    be symmetric about 0)."""
    even = 0.5 * (values + values[::-1])
    closed = np.cos(xs * xs / (4.0 * t) - math.pi / 4.0) / (2.0 * math.sqrt(math.pi * t))
    return result(np.max(np.abs(even - closed)), tol, f"{len(xs)} points vs order-2 closed form")


# -- cylinder measures -------------------------------------------------------


def _gl(a, b, n_panels=1):
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * GL_X[None, :]).reshape(-1)
    weights = (half[:, None] * GL_W[None, :]).reshape(-1)
    return nodes, weights


def kernel(fp, y, alpha, p, t):
    lam = (alpha * t) ** (1.0 / alpha)
    y = np.asarray(y, dtype=float)
    flat = y.reshape(-1)
    vals = fp.airy_grid(np.concatenate([-flat, flat]) / lam, alpha)
    return ((p * vals[: flat.size] + (1.0 - p) * vals[flat.size :]) / lam).reshape(y.shape)


def nystrom_measure(fp, times, boxes, alpha, p):
    """Signed cylinder measure by a Gauss-Legendre product rule over
    every finite box.  A semi-infinite innermost box is integrated
    exactly through ``box_kernel_integral`` at the nodes of the level
    above it."""
    dts = np.diff(np.concatenate([[0.0], np.asarray(times, dtype=float)]))
    a_in, b_in = boxes[-1]
    semi = not (math.isfinite(a_in) and math.isfinite(b_in))
    rules = [_gl(a, b, max(1, int(math.ceil((b - a) / 2.0)))) for a, b in (boxes[:-1] if semi else boxes)]
    nodes, weights = rules[-1]
    if semi:
        vec = weights * np.array(
            [fp.box_kernel_integral(a_in - x, b_in - x, alpha, p, dts[-1]) for x in nodes]
        )
    else:
        vec = weights
    for level in range(len(rules) - 1, 0, -1):
        prev_nodes, prev_w = rules[level - 1]
        k = kernel(fp, nodes[None, :] - prev_nodes[:, None], alpha, p, dts[level])
        vec = prev_w * (k @ vec)
        nodes = prev_nodes
    return float(np.dot(kernel(fp, nodes, alpha, p, dts[0]), vec))


# -- subordination -----------------------------------------------------------


def composed_transform(fp, g, alpha, theta, p, t):
    """E[char_fn(g; alpha, p, S_t)] for a theta-stable subordinator S_t.

    ``char_fn`` is p exp(r s) + (1-p) exp(conj(r) s) with the rate
    r = i |g|^alpha sgn g (confirmed against ``char_fn`` itself below),
    and E exp(-lambda S_t) = exp(-t lambda**theta) for Re(lambda) >= 0,
    so the p-branch contributes p exp(-t (-r)**theta).  Returns the
    transform and the largest gap between the assumed rate and
    ``char_fn``."""
    g = np.asarray(g, dtype=float)
    rate = 1j * np.abs(g) ** alpha * np.sign(g)
    gap = float(np.max(np.abs(fp.char_fn(g, fp.PseudoParams(alpha, 1.0, 0.5)) - np.exp(0.5 * rate))))
    out = p * np.exp(-t * (-rate) ** theta) + (1.0 - p) * np.exp(-t * (-np.conj(rate)) ** theta)
    return out, gap


def fourier_density(x, alpha, theta, p, t):
    """Subordinated density by Fourier inversion of the composed
    transform: (1/pi) int_0^inf Re[phi(g) e^{-igx}] dg with
    phi(g) = p exp(-t (-i g^alpha)^theta) + (1-p) exp(-t (i g^alpha)^theta)."""
    from scipy import integrate

    nu = alpha * theta
    c, s = math.cos(math.pi * theta / 2.0), math.sin(math.pi * theta / 2.0)

    def re_phi(g):
        return math.exp(-t * g**nu * c) * math.cos(t * g**nu * s)

    def im_phi(g):
        # p-branch has phase +t g^nu s, the other -t g^nu s
        return (2.0 * p - 1.0) * math.exp(-t * g**nu * c) * math.sin(t * g**nu * s)

    if x == 0.0:
        val, _ = integrate.quad(re_phi, 0.0, math.inf, epsabs=1e-12, limit=400)
        return val / math.pi
    re, _ = integrate.quad(re_phi, 0.0, math.inf, weight="cos", wvar=abs(x))
    im, _ = integrate.quad(im_phi, 0.0, math.inf, weight="sin", wvar=abs(x))
    # Re[phi e^{-igx}] = Re(phi) cos(gx) + Im(phi) sin(gx)
    return (re + math.copysign(1.0, x) * im) / math.pi


def cf_band(n):
    return 4.0 / math.sqrt(n)


# -- modality ---------------------------------------------------------------


def scan_maxima(fp, alpha, p, t, n=40001):
    """Local maxima of the closed-form Cauchy-regime density found by a
    sign scan of its finite differences over [-8t, 8t]."""
    xs = np.linspace(-8.0 * t, 8.0 * t, n)
    f = fp.cauchy_mixture_pdf(xs, alpha, p, t)
    d = np.diff(f)
    sign = np.sign(d)
    sign[np.abs(d) <= 1e-12 * np.max(np.abs(d))] = 0
    nz = np.nonzero(sign)[0]
    turns = np.nonzero((sign[nz[:-1]] > 0) & (sign[nz[1:]] < 0))[0]
    peaks = 0.5 * (xs[nz[turns] + 1] + xs[nz[turns + 1]])
    return list(peaks), xs[1] - xs[0]
