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
* One loop handles any number of levels (the Nystrom view of the
  iterated integral as a chain of integral operators).  Each outer
  level uses phase-resolving Gauss-Legendre panels; a vector of
  weighted kernel values is carried from level to level through the
  matrices u(nodes_i - nodes_{i-1}, t_i - t_{i-1}), each from one call
  of the kernel evaluator of density.py.
* The innermost integral is taken at the origin for a one-level event;
  for a deeper one it is tabulated on a dense grid of the previous
  level's box and interpolated with a cubic spline at that level's
  nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .density import PseudoParams, _signed_kernel
from .errors import DomainError, QuadratureFailure, check_params
from .special import airy_cdf_tail

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
    check_params(tol=tol)
    if math.isnan(a) or math.isnan(b):
        raise DomainError(f"box edges must not be NaN, got ({a}, {b})")
    lam = PseudoParams(alpha, p, t).lam

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
    check_params(tol=tol)
    params = PseudoParams(alpha, p, t)
    lam = params.lam
    cut = 8.0 * lam
    nodes, weights = _panel_nodes(-cut, cut, alpha, lam)
    core = float(np.dot(weights, _signed_kernel(nodes, params, tol)))
    tail_neg = airy_cdf_tail(-cut / lam, alpha, tol)
    tail_pos = airy_cdf_tail(cut / lam, alpha, tol)
    upper = p * (1.0 - tail_neg) + (1.0 - p) * tail_pos
    lower = p * tail_pos + (1.0 - p) * (1.0 - tail_neg)
    return core + upper + lower


def _is_full_line(box):
    return box[0] == -math.inf and box[1] == math.inf


def _has_infinite_end(box):
    return not (math.isfinite(box[0]) and math.isfinite(box[1]))


def _box_integrals(box, params, origins, tol):
    """int_box u(x - o, t) dx for each origin o: the tail identity per
    origin when an end is infinite, else the panel rule times the kernel
    matrix."""
    a, b = box
    if _has_infinite_end(box):
        return np.array(
            [box_kernel_integral(a - o, b - o, params.alpha, params.p, params.t, tol) for o in origins]
        )
    nodes, weights = _panel_nodes(a, b, params.alpha, params.lam)
    return _signed_kernel(nodes[None, :] - origins[:, None], params, tol) @ weights


def cylinder_measure(event, alpha, p, tol=1e-9):
    """Signed measure of a cylinder event at order alpha, weight p.

    Args:
        event: CylinderEvent (any number of times).
        alpha: kernel order, > 1.
        p: branch weight in [0, 1].
        tol: kernel evaluation tolerance.

    Raises:
        QuadratureFailure: an unbounded box anywhere except the
            innermost level (or a box too wide to panelize).
    """
    check_params(alpha=alpha, p=p, tol=tol)
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

    levels = [PseudoParams(alpha, p, dt) for dt in increments[: len(boxes)]]
    # weighted[j]: the outer levels' integral up to the node prev[j],
    # times its quadrature weight, carried through kernel matrices
    weighted, prev = np.ones(1), np.zeros(1)
    for box, params in zip(boxes[:-1], levels):
        nodes, weights = _panel_nodes(*box, alpha, params.lam)
        weighted = (weighted @ _signed_kernel(nodes[None, :] - prev[:, None], params, tol)) * weights
        prev = nodes
    if len(boxes) == 1:
        inner = _box_integrals(boxes[-1], levels[-1], prev, tol)
    else:
        # innermost integral tabulated over the previous level's box
        grid = np.linspace(*boxes[-2], _SPLINE_POINTS)
        inner = CubicSpline(grid, _box_integrals(boxes[-1], levels[-1], grid, tol))(prev)
    return factor * float(weighted @ inner)
