"""Oscillatory quadrature for chirp-phase integrals on [0, inf).

Evaluates integrals of the form

    I = int_0^inf g(s) * trig(phi(s)) ds,    phi(s) = s**alpha/alpha + c*s

with alpha > 1 and real c, for the two weights the generalized Airy
machinery needs:

    kind="cos":        g(s) = 1,   trig = cos    (point evaluation)
    kind="sin_over_s": g(s) = 1/s, trig = sin    (tail integrals)

The integrand decays only through oscillation, so truncation plus plain
adaptive quadrature cannot reach tight tolerances.  Instead the phase
line is split at its single interior minimum (present when c < 0): the
few-oscillation neighbourhood of the minimum goes to adaptive
quadrature, while on the monotone branches the panel integrals between
consecutive crossings phi = k*pi form an alternating, eventually
decaying sequence that is summed with iterated averaging of partial
sums (Euler transform).  That converts conditional convergence into
fast numerical convergence.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import integrate

from .errors import NonConvergent, check_params

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)

# Panels added per acceleration round, and how many trailing partial
# sums the averaging triangle keeps (older panels are summed exactly).
_BLOCK = 16
_KEEP = 48


def _panel_integrals(f, edges):
    """16-point Gauss-Legendre integral of f over each edges[i]..edges[i+1]."""
    lo = edges[:-1]
    hi = edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _GL_X[None, :]
    return half * (f(nodes) @ _GL_W)


def _iterated_average(partial_sums):
    """Euler-transform limit estimate for a sequence of partial sums.

    Returns (estimate, error_estimate); the error estimate is the change
    in the averaging diagonal at the last contraction step.
    """
    t = np.asarray(partial_sums, dtype=float)
    if t.size < 2:
        return (t[-1] if t.size else 0.0), math.inf
    prev = t[-1]
    est = prev
    err = math.inf
    while t.size > 1:
        t = 0.5 * (t[1:] + t[:-1])
        est = t[-1]
        err = abs(est - prev)
        prev = est
    return est, err


def _solve_phase(alpha, c, targets, lo, hi, increasing, rtol=1e-13, iters=120):
    """Roots of phi(s) = target on a bracket where phi is monotone.

    Vectorized bisection-safeguarded Newton; `targets` may be an array,
    `lo`/`hi` are shared scalar bracket endpoints.
    """
    t = np.atleast_1d(np.asarray(targets, dtype=float))
    lo = np.full_like(t, float(lo))
    hi = np.full_like(t, float(hi))
    s = 0.5 * (lo + hi)
    for _ in range(iters):
        resid = s**alpha / alpha + c * s - t
        if np.all(np.abs(resid) <= rtol * (1.0 + np.abs(t))):
            break
        above = resid > 0
        if increasing:
            hi = np.where(above, s, hi)
            lo = np.where(above, lo, s)
        else:
            lo = np.where(above, s, lo)
            hi = np.where(above, hi, s)
        dphi = s ** (alpha - 1.0) + c
        with np.errstate(divide="ignore", invalid="ignore"):
            s_new = s - resid / dphi
        bad = ~np.isfinite(s_new) | (s_new <= lo) | (s_new >= hi)
        s = np.where(bad, 0.5 * (lo + hi), s_new)
    return s


def _ascending_upper_bound(alpha, c, target_max, lo):
    """A point h > lo with phi(h) >= target_max on the increasing branch."""
    h = max((alpha * (abs(target_max) + 1.0)) ** (1.0 / alpha), lo + 1.0)
    while h**alpha / alpha + c * h < target_max:
        h *= 2.0
    return h


def _adaptive(f, a, b, tol, points=None, limit=400):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, abserr = integrate.quad(
            f, a, b, epsabs=tol, epsrel=1e-12, limit=limit, points=points
        )
    if not math.isfinite(val) or abserr > max(10 * tol, 1e-11):
        raise NonConvergent(
            f"adaptive head quadrature did not reach tolerance "
            f"(abserr={abserr:.2e}, target={tol:.2e})"
        )
    return val


def chirp_integral(alpha, c, kind="cos", tol=1e-10, max_panels=10000):
    """int_0^inf g(s)*trig(s**alpha/alpha + c*s) ds, see module docstring.

    Raises NonConvergent if the accelerated tail does not stabilize
    within `max_panels` panels or the phase budget exceeds the cap.
    """
    check_params(alpha=alpha, tol=tol)
    alpha = float(alpha)
    c = float(c)

    def phase(s):
        return s**alpha / alpha + c * s

    if kind == "cos":

        def f(s):
            return np.cos(phase(s))

    elif kind == "sin_over_s":

        def f(s):
            s = np.asarray(s, dtype=float)
            out = np.empty_like(s)
            zero = s == 0.0
            out[~zero] = np.sin(phase(s[~zero])) / s[~zero]
            out[zero] = c  # removable: sin(phi)/s -> c as s -> 0
            return out

    else:
        raise ValueError(f"unknown kind {kind!r}")

    if c < 0.0:
        s_star = (-c) ** (1.0 / (alpha - 1.0))
        phase_min = phase(s_star)
        depth = -phase_min
    else:
        s_star = 0.0
        depth = 0.0

    # Near s = 0 the phase has a branch point: phi'' ~ s**(alpha-2)
    # diverges for alpha < 2, which silently degrades both fixed-order
    # panels and QAGS error estimates.  The substitution s = v**2
    # regularizes it, so every integral that touches 0 runs in v.
    def f_sub(v):
        v = np.asarray(v, dtype=float)
        return 2.0 * v * f(v * v)

    pieces = 0.0
    if depth <= 6.0 * math.pi:
        # Few head oscillations: one adaptive panel up to phase = +pi.
        hi = _ascending_upper_bound(alpha, c, math.pi, s_star)
        s_tail0 = float(_solve_phase(alpha, c, math.pi, s_star, hi, True)[0])
        pts = [math.sqrt(s_star)] if 0.0 < s_star < s_tail0 else None
        pieces += _adaptive(f_sub, 0.0, math.sqrt(s_tail0), tol / 4.0, points=pts)
    else:
        # Deep phase well: panel sums on both monotone branches, adaptive
        # quadrature across the stationary point and on the first
        # half-cycle at the origin.
        k1 = int((depth - 2.0 * math.pi) // math.pi)
        if k1 > max_panels:
            raise NonConvergent(
                f"phase well needs {k1} panels, exceeds cap {max_panels}"
            )
        desc_targets = -math.pi * np.arange(1, k1 + 1)
        r_desc = _solve_phase(alpha, c, desc_targets, 1e-300, s_star, False)
        pieces += _adaptive(f_sub, 0.0, math.sqrt(float(r_desc[0])), tol / 8.0)
        pieces += math.fsum(_panel_integrals(f, r_desc))

        hi = _ascending_upper_bound(alpha, c, math.pi, s_star)
        s_mid_hi = float(
            _solve_phase(alpha, c, -math.pi * k1, s_star, hi, True)[0]
        )
        pieces += _adaptive(
            f, float(r_desc[-1]), s_mid_hi, tol / 4.0, points=[s_star]
        )

        asc_targets = math.pi * np.arange(-k1 + 1, 2)  # up to +pi inclusive
        r_asc = _solve_phase(alpha, c, asc_targets, s_mid_hi, hi, True)
        edges = np.concatenate([[s_mid_hi], r_asc])
        pieces += math.fsum(_panel_integrals(f, edges))
        s_tail0 = float(r_asc[-1])

    # Accelerated alternating tail from phase = +pi onward.
    panels: list[float] = []
    prev_edge = s_tail0
    k_next = 2
    tail_prev = None
    while len(panels) < max_panels:
        ks = np.arange(k_next, k_next + _BLOCK)
        hi = _ascending_upper_bound(alpha, c, math.pi * ks[-1], prev_edge)
        roots = _solve_phase(alpha, c, math.pi * ks, prev_edge, hi, True)
        edges = np.concatenate([[prev_edge], roots])
        panels.extend(_panel_integrals(f, edges).tolist())
        prev_edge = float(roots[-1])
        k_next += _BLOCK

        keep = min(len(panels), _KEEP)
        bulk = math.fsum(panels[: len(panels) - keep])
        partial = bulk + np.cumsum(panels[len(panels) - keep :])
        tail_est, err = _iterated_average(partial)
        if (
            err < tol / 4.0
            and tail_prev is not None
            and abs(tail_est - tail_prev) < tol / 2.0
        ):
            return pieces + tail_est
        tail_prev = tail_est
    raise NonConvergent(
        f"oscillatory tail did not stabilize within {max_panels} panels "
        f"(alpha={alpha}, c={c}, kind={kind})"
    )
