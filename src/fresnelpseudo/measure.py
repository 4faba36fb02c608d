"""Signed measure of cylinder events through kernel composition.

A cylinder event fixes times 0 < t_1 < ... < t_m and boxes
B_1, ..., B_m; its signed measure is the iterated integral

    mu = int_{B_1} u(x_1, t_1) int_{B_2} u(x_2 - x_1, t_2 - t_1) ...
            int_{B_m} u(x_m - x_{m-1}, t_m - t_{m-1}) dx_m ... dx_1

with u the signed kernel of density.py at weight p and order alpha.
The object is a genuinely signed set function: boxes of negative
measure exist already at order 2, while the full line always carries
total mass 1 at every level.

Evaluation strategy
-------------------
* The kernel is not absolutely integrable (its oscillating side decays
  too slowly), so unbounded boxes cannot be thrown at a generic
  quadrature.  Infinite endpoints are integrated through the kernel's
  tail-integral identity, which is only available at the innermost
  level; an unbounded box anywhere else raises QuadratureFailure.
* Trailing full-line boxes are stripped first; each contributes the
  numerically computed total mass of its increment (close to 1, never
  assumed to be 1).
* Finite levels use phase-resolving Gauss-Legendre panels, vectorized
  through the kernel's grid evaluator; the innermost integral is
  tabulated on a dense grid of the previous level's box and
  interpolated with a cubic spline before the outer tensor sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DimensionCap, DomainError, QuadratureFailure, check_params
from .special import airy_cdf_tail, airy_grid

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_MAX_PANELS_PER_LEVEL = 4000
_SPLINE_POINTS = 481


@dataclass(frozen=True)
class CylinderEvent:
    """Strictly increasing positive times with one box per time.

    Boxes are (low, high) pairs with low < high; either end may be
    infinite (math.inf / -math.inf).
    """

    times: tuple
    boxes: tuple

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        boxes = tuple((float(a), float(b)) for a, b in self.boxes)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "boxes", boxes)
        if len(times) == 0:
            raise DomainError("event needs at least one time")
        if len(times) != len(boxes):
            raise DomainError(
                f"{len(times)} times but {len(boxes)} boxes"
            )
        if times[0] <= 0.0 or any(
            t2 <= t1 for t1, t2 in zip(times, times[1:])
        ):
            raise DomainError("times must be strictly increasing and positive")
        for a, b in boxes:
            if math.isnan(a) or math.isnan(b) or not a < b:
                raise DomainError(f"box ({a}, {b}) must satisfy low < high")


def _lam(alpha, t):
    return (alpha * t) ** (1.0 / alpha)


def _kernel_grid(y, alpha, p, t, tol):
    """Vectorized kernel u(y, t) over an array of displacements."""
    lam = _lam(alpha, t)
    y = np.asarray(y, dtype=float)
    flat = y.reshape(-1)
    stacked = np.concatenate([-flat, flat]) / lam
    vals = airy_grid(stacked, alpha, tol)
    neg, pos = vals[: flat.size], vals[flat.size :]
    return ((p * neg + (1.0 - p) * pos) / lam).reshape(y.shape)


def _panel_nodes(a, b, alpha, lam):
    """Gauss-Legendre nodes/weights on phase-resolving panels of [a, b]."""
    edges = [a]
    x = a
    while x < b:
        speed = (abs(x) / lam) ** (1.0 / (alpha - 1.0)) / lam
        h = math.pi / (speed + 1.0 / lam)
        x = min(x + max(h, 1e-3 * lam), b)
        edges.append(x)
        if len(edges) > _MAX_PANELS_PER_LEVEL:
            raise QuadratureFailure(
                f"box ({a}, {b}) needs more than {_MAX_PANELS_PER_LEVEL} "
                "panels at this order"
            )
    edges = np.asarray(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_X[None, :]).reshape(-1)
    weights = (half[:, None] * _GL_W[None, :]).reshape(-1)
    return nodes, weights


def box_kernel_integral(a, b, alpha, p, t, tol=1e-10):
    """int_a^b u(y, t) dy through the kernel tail identity; either
    endpoint may be infinite, neither may be NaN."""
    check_params(alpha=alpha, p=p, t=t, tol=tol)
    if math.isnan(a) or math.isnan(b):
        raise DomainError(f"box edges must not be NaN, got ({a}, {b})")
    lam = _lam(alpha, t)

    def tail(c):
        # int_c^inf Ai_alpha, with the infinite-endpoint conventions
        if c == math.inf:
            return 0.0
        if c == -math.inf:
            return 1.0
        return airy_cdf_tail(c, alpha, tol)

    up_a = a / lam if math.isfinite(a) else math.copysign(math.inf, a)
    up_b = b / lam if math.isfinite(b) else math.copysign(math.inf, b)
    return p * (tail(-up_b) - tail(-up_a)) + (1.0 - p) * (tail(up_a) - tail(up_b))


def line_total(alpha, p, t, tol=1e-9):
    """Total mass int_R u(y, t) dy, computed (not assumed): panelized
    quadrature on the central eight scale lengths plus tail integrals."""
    check_params(alpha=alpha, p=p, t=t, tol=tol)
    lam = _lam(alpha, t)
    cut = 8.0 * lam
    nodes, weights = _panel_nodes(-cut, cut, alpha, lam)
    core = float(np.dot(weights, _kernel_grid(nodes, alpha, p, t, tol)))
    tail_neg = airy_cdf_tail(-cut / lam, alpha, tol)
    tail_pos = airy_cdf_tail(cut / lam, alpha, tol)
    upper = p * (1.0 - tail_neg) + (1.0 - p) * tail_pos
    lower = p * tail_pos + (1.0 - p) * (1.0 - tail_neg)
    return core + upper + lower


def _is_full_line(box):
    return box[0] == -math.inf and box[1] == math.inf


def _has_infinite_end(box):
    return not (math.isfinite(box[0]) and math.isfinite(box[1]))


def cylinder_measure(event, alpha, p, tol=1e-9):
    """Signed measure of a cylinder event at order alpha, weight p.

    Args:
        event: CylinderEvent (up to three times).
        alpha: kernel order, > 1.
        p: branch weight in [0, 1].
        tol: kernel evaluation tolerance.

    Raises:
        DimensionCap: more than three times.
        QuadratureFailure: an unbounded box anywhere except the
            innermost level (or a box too wide to panelize).
    """
    check_params(alpha=alpha, p=p, tol=tol)
    if len(event.times) > 3:
        raise DimensionCap(
            f"cylinder measures support at most 3 times, got {len(event.times)}"
        )

    increments = [
        t2 - t1 for t1, t2 in zip((0.0,) + event.times[:-1], event.times)
    ]
    boxes = list(event.boxes)

    # Trailing full lines factor out as numerically-computed totals.
    factor = 1.0
    while boxes and _is_full_line(boxes[-1]):
        factor *= line_total(alpha, p, increments[len(boxes) - 1], tol)
        boxes.pop()
    if not boxes:
        return factor

    for level, box in enumerate(boxes[:-1]):
        if _has_infinite_end(box):
            raise QuadratureFailure(
                f"unbounded box at level {level + 1} of {len(boxes)}: the "
                "kernel is not absolutely integrable, only the innermost "
                "level supports infinite endpoints"
            )

    r = len(boxes)
    dts = increments[:r]

    if r == 1:
        a, b = boxes[0]
        if _has_infinite_end(boxes[0]):
            return factor * box_kernel_integral(a, b, alpha, p, dts[0], tol)
        lam = _lam(alpha, dts[0])
        nodes, weights = _panel_nodes(a, b, alpha, lam)
        return factor * float(np.dot(weights, _kernel_grid(nodes, alpha, p, dts[0], tol)))

    # innermost integral tabulated over the previous level's box
    prev_a, prev_b = boxes[r - 2]
    grid = np.linspace(prev_a, prev_b, _SPLINE_POINTS)
    inner_a, inner_b = boxes[r - 1]
    if _has_infinite_end(boxes[r - 1]):
        inner_vals = np.array(
            [
                box_kernel_integral(inner_a - x, inner_b - x, alpha, p, dts[r - 1], tol)
                for x in grid
            ]
        )
    else:
        lam_in = _lam(alpha, dts[r - 1])
        nodes_in, weights_in = _panel_nodes(inner_a, inner_b, alpha, lam_in)
        disp = nodes_in[None, :] - grid[:, None]
        inner_vals = _kernel_grid(disp, alpha, p, dts[r - 1], tol) @ weights_in
    inner_fn = CubicSpline(grid, inner_vals)

    if r == 2:
        lam1 = _lam(alpha, dts[0])
        nodes1, weights1 = _panel_nodes(*boxes[0], alpha, lam1)
        vals1 = _kernel_grid(nodes1, alpha, p, dts[0], tol)
        return factor * float(np.dot(weights1, vals1 * inner_fn(nodes1)))

    # r == 3
    lam1 = _lam(alpha, dts[0])
    lam2 = _lam(alpha, dts[1])
    nodes1, weights1 = _panel_nodes(*boxes[0], alpha, lam1)
    nodes2, weights2 = _panel_nodes(*boxes[1], alpha, lam2)
    vals1 = _kernel_grid(nodes1, alpha, p, dts[0], tol)
    disp12 = nodes2[None, :] - nodes1[:, None]
    vals12 = _kernel_grid(disp12, alpha, p, dts[1], tol)
    inner2 = inner_fn(nodes2)
    middle = vals12 @ (weights2 * inner2)
    return factor * float(np.dot(weights1, vals1 * middle))
