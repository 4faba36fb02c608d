"""The four seeded workloads.

Each workload is a closed loop with one client: the harness issues a
job, waits for it to return, and only then issues the next.  Jobs come
in *rounds*; a round holds a fixed mix of job classes whose parameters
are drawn from the workload's seeded generator, so the mix is the same
on every seed and only the inputs change.  The library sees only the
generated inputs.  ``round_s`` is the job time of one round on the
reference host (2 vCPUs, x86_64, Python 3.11, numpy 2.4, at the commit
that defined the benchmark); the harness turns ``--seconds`` into a
number of rounds with it, never fewer than ``min_rounds``.

A job is one user-level request: one grid evaluation, one measure, one
CLI command.  ``outputs`` counts the numbers it returns (grid values,
measures, density points, draws, classifications or checks).  Every
job carries an untimed check against an independent route (see
``checks``), and each workload has probes that try the known defects
listed in ROADMAP.md so that they show as failures.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import checks as ck


@dataclass
class Job:
    kind: str
    params: dict
    outputs: int
    run: Callable[[], object]
    check: Callable[[object], tuple]
    known_defect: Callable[[object], str | None] = field(default=lambda out: None)
    # a CLI job's output is a file: ``read`` loads it untimed (harness
    # work), then ``finish`` runs the timed rest of the job on it
    read: Callable[[object], object] | None = None
    finish: Callable[[object], object] | None = None
    # the kind of work the job's time goes to, which decides how the
    # host's slow state slows it: "scalar" or "array" (harness.CALIBRATIONS)
    profile: str = "scalar"


class Context:
    """What jobs need besides their inputs: the package, its CLI module,
    a temporary directory inside the checkout, and the float64 series
    range per order (the harness's own copy, for sizing grids and
    checks)."""

    def __init__(self, fp, tmp):
        self.fp = fp
        self.cli = sys.modules["fresnelpseudo.cli"]
        self.tmp = tmp
        self.f64 = {}
        self._n = 0

    def out_path(self, stem):
        self._n += 1
        return os.path.join(self.tmp, f"{stem}-{self._n}.csv")

    def f64_range(self, alpha):
        if alpha not in self.f64:
            self.f64[alpha] = self.fp.special.series_float64_range(alpha, 1e-10)
        return self.f64[alpha]


def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def _t(rng):
    return float(rng.choice([0.5, 1.0, 2.0])) * _u(rng, 0.9, 1.1)


def _shuffled(rng, jobs):
    return [jobs[i] for i in rng.permutation(len(jobs))]


def _read_csv_values(path, column):
    """One column of a CSV written by the CLI (metadata lines start with
    '#', then a header row)."""
    with open(path, encoding="utf-8") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    return np.loadtxt(rows[1:], delimiter=",", ndmin=2)[:, column]


# ---------------------------------------------------------------------------
# kernel_grid
# ---------------------------------------------------------------------------

# orders spread over the documented range (1, 4]; one band per round slot
KERNEL_BANDS = ((1.25, 1.35), (1.5, 1.75, 2.0), (2.25, 2.5, 2.75), (3.25, 3.5, 4.0))


def _kernel_check_points(ys, f64_range, signs):
    """Grid indices nearest to 0.6 R (series route; 0.9 of the grid edge
    on narrower grids) and 1.3 R (the quadrature fallback), R the float64
    series range, on each side in ``signs``."""
    edge = float(np.max(np.abs(ys)))
    targets = [min(0.6 * f64_range, 0.9 * edge)]
    if 1.3 * f64_range <= edge:
        targets.append(1.3 * f64_range)
    return sorted({int(np.argmin(np.abs(ys - s * y))) for y in targets for s in signs})


def _density_job(ctx, alpha, p, t, m, n, kind):
    fp = ctx.fp
    lam = (alpha * t) ** (1.0 / alpha)
    r = ctx.f64_range(alpha)
    xs = np.linspace(-m * r * lam, m * r * lam, n)
    params = fp.PseudoParams(alpha, p, t)

    def run():
        return fp.density(xs, params)

    def check(vals):
        if alpha == 2.0:
            return ck.order2_even_part(xs, vals, t, 5e-8)
        errs = []
        # u(x) needs the kernel at -x/lam and x/lam: one side suffices
        for i in _kernel_check_points(xs / lam, r, (1.0,)):
            y = xs[i] / lam
            want = (p * ck.airy_other_route(fp, -y, alpha, r) + (1.0 - p) * ck.airy_other_route(fp, y, alpha, r)) / lam
            errs.append(abs(want - vals[i]))
        return ck.result(max(errs), 5e-8, f"{len(errs)} points vs the other kernel route")

    return Job(kind, dict(alpha=alpha, p=p, t=t, half_width=m * r * lam, n=n), n, run, check)


def _airy_job(ctx, alpha, m, n, kind):
    fp = ctx.fp
    r = ctx.f64_range(alpha)
    ys = np.linspace(-m * r, m * r, n)

    def run():
        return fp.airy_grid(ys, alpha)

    def check(vals):
        if alpha == 3.0:
            return ck.classical_airy(ys, vals, 1e-8)
        idx = _kernel_check_points(ys, r, (-1.0, 1.0))
        return ck.kernel_values(fp, ys[idx], alpha, vals[idx], r, 1e-8)

    return Job(kind, dict(alpha=alpha, half_width=m * r, n=n), n, run, check)


class KernelGrid:
    name = "kernel_grid"
    round_s = 3.8
    min_rounds = 1
    orders = tuple(sorted({a for band in KERNEL_BANDS for a in band} | {2.0, 3.0}))

    def warm_up(self, ctx):
        # fills the package's lazy float64 series-range table
        for alpha in self.orders:
            ctx.fp.airy_grid(np.array([0.0]), alpha)
        ctx.fp.airy_grid(np.array([-8.0, 8.0]), 2.5)

    def round(self, rng, ctx, index):
        # every order of every band, each with one density grid inside
        # the series range, one density grid and one kernel grid reaching
        # past it; the seed draws p, t and a +-10% jitter of the widths
        jobs = []
        for band in KERNEL_BANDS:
            low = band[0] < 1.4  # the chirp scheme is slow and capped there
            n_out = 61 if low else 121
            far = 1.85 if low else 2.25
            for alpha in band:
                jobs.append(_density_job(ctx, alpha, _u(rng, 0, 1), _t(rng), 0.75 * _u(rng, 0.9, 1.1), 201, "density_inside"))
                jobs.append(_density_job(ctx, alpha, _u(rng, 0, 1), _t(rng), far * _u(rng, 0.9, 1.1), n_out, "density_beyond"))
                jobs.append(_airy_job(ctx, alpha, far * _u(rng, 0.9, 1.1), n_out, "airy_beyond"))
        jobs.append(_airy_job(ctx, 3.0, 1.75 * _u(rng, 0.9, 1.1), 201, "airy_order3"))
        jobs.append(_density_job(ctx, 2.0, _u(rng, 0, 1), _t(rng), 1.75 * _u(rng, 0.9, 1.1), 201, "density_order2"))
        return _shuffled(rng, jobs)

    def probes(self, ctx):
        # ROADMAP defect 2: the chirp panel cap refuses x < ~-7.6 at order 1.2
        try:
            ctx.fp.airy_grid(np.array([-8.0]), 1.2)
        except ctx.fp.NonConvergent as exc:
            return [("chirp panel cap at order 1.2, x=-8", True, str(exc))]
        return [("chirp panel cap at order 1.2, x=-8", False, "evaluated without error")]


# ---------------------------------------------------------------------------
# cylinder
# ---------------------------------------------------------------------------

CYL_ORDERS = (2.0, 2.5, 3.0, 3.5, 4.0)
# Full-line jobs (line_total, trailing full lines) and the semi-infinite
# two-level measure run at order 3: line_total costs ~6 s at order 1.5,
# and one order keeps the four full-line jobs of a round alike in cost,
# so the tail percentile (the 11th-largest latency) lands inside that
# class.
FULL_LINE_ORDER = 3.0


def _box(rng, lo=-2.0, hi=1.0, wmin=0.5, wmax=2.0):
    a = _u(rng, lo, hi)
    return (a, a + _u(rng, wmin, wmax))


def _times(rng, m, lo=0.6, hi=1.4):
    out, t = [], 0.0
    for _ in range(m):
        t += _u(rng, lo, hi)
        out.append(t)
    return tuple(out)


# Box widths of the finite multi-level measures, walked by slot.  Their
# cost grows with each box's width and distance from the origin over the
# scale of its time step: with boxes and steps drawn as for the other
# jobs it varied with a CV of 0.33, and the run's median (one of these
# jobs) moved by 0.10 from seed to seed.  The seed draws one centre in
# [-0.5, 0.5] for all boxes of a job, a +-10% jitter of each box's width
# and of each time step, and the weight.
FINITE_WIDTHS = (0.8, 1.1, 1.4, 1.7, 2.0)


def _ladder_box(rng, centre, width):
    w = width * _u(rng, 0.9, 1.1)
    return (centre - 0.5 * w, centre + 0.5 * w)


class Cylinder:
    name = "cylinder"
    round_s = 1.25
    min_rounds = 1
    orders = CYL_ORDERS

    def warm_up(self, ctx):
        fp = ctx.fp
        for alpha in self.orders:
            fp.cylinder_measure(fp.CylinderEvent((1.0,), ((-0.5, 0.5),)), alpha, 0.5)
        fp.box_kernel_integral(0.0, math.inf, 3.0, 0.5, 1.0)

    def _measure_job(self, ctx, kind, times, boxes, alpha, p, expect, profile="scalar"):
        fp = ctx.fp
        event = fp.CylinderEvent(times, boxes)

        def run():
            return fp.cylinder_measure(event, alpha, p)

        def check(val):
            return ck.result(abs(val - expect()), 1e-6, "vs independent route")

        return Job(kind, dict(alpha=alpha, p=p, times=times, boxes=boxes), 1, run, check, profile=profile)

    def round(self, rng, ctx, index):
        # two of each cheap job (orders spread over CYL_ORDERS); the first
        # round adds one semi-infinite two-level measure, which makes 481
        # box integrals (962 tail integrals) and takes about 4 s.  Only
        # one per run: the host's speed is sampled between jobs (see
        # harness.CAL_EVERY_S), so a run made mostly of short jobs is
        # sampled evenly.  The seed draws boxes, times and weights.
        fp = ctx.fp
        jobs = self._cheap_jobs(rng, ctx, 2 * index) + self._cheap_jobs(rng, ctx, 2 * index + 1)
        if index == 0:
            # its 962 tail integrals cost more the further their arguments
            # reach, so its boxes and steps are jittered like the finite
            # measures': it is a third of the run's job time
            alpha, p = FULL_LINE_ORDER, _u(rng, 0.0, 1.0)
            times, centre = _times(rng, 2, 0.9, 1.1), _u(rng, -0.5, 0.5)
            boxes = (_ladder_box(rng, centre, 1.4), (centre + _u(rng, -0.1, 0.1), math.inf))
            jobs.append(self._measure_job(ctx, "cyl2_semi", times, boxes, alpha, p,
                                          lambda t=times, b=boxes, a=alpha, q=p: ck.nystrom_measure(fp, t, b, a, q)))
        return _shuffled(rng, jobs)

    def _cheap_jobs(self, rng, ctx, k):
        fp = ctx.fp
        inf = math.inf
        jobs = []

        def order(shift):
            return CYL_ORDERS[(k + shift) % len(CYL_ORDERS)]

        alpha, p = order(0), _u(rng, 0.0, 1.0)
        times, box = _times(rng, 1), _box(rng)
        jobs.append(self._measure_job(ctx, "cyl1_finite", times, (box,), alpha, p,
                                      lambda b=box, a=alpha, q=p, t=times: fp.box_kernel_integral(b[0], b[1], a, q, t[0])))

        alpha, p = order(1), _u(rng, 0.0, 1.0)
        times, a0 = _times(rng, 1), _u(rng, -2.0, 1.0)
        jobs.append(self._measure_job(ctx, "cyl1_semi", times, ((a0, inf),), alpha, p,
                                      lambda a0=a0, a=alpha, q=p, t=times: ck.nystrom_measure(fp, t, ((a0, a0 + 3.0),), a, q)
                                      + fp.box_kernel_integral(a0 + 3.0, inf, a, q, t[0])))

        # finite multi-level measures spend their time in the batched
        # kernel over displacement matrices of 10^4-10^5 entries: array work
        for shift, (kind, m) in enumerate((("cyl2_finite", 2), ("cyl3_finite", 3)), start=2):
            alpha, p = order(shift), _u(rng, 0.0, 1.0)
            times, centre = _times(rng, m, 0.9, 1.1), _u(rng, -0.5, 0.5)
            boxes = tuple(_ladder_box(rng, centre, FINITE_WIDTHS[(k + shift + level) % len(FINITE_WIDTHS)])
                          for level in range(m))
            jobs.append(self._measure_job(ctx, kind, times, boxes, alpha, p,
                                          lambda t=times, b=boxes, a=alpha, q=p: ck.nystrom_measure(fp, t, b, a, q),
                                          profile="array"))

        alpha, p = FULL_LINE_ORDER, _u(rng, 0.0, 1.0)
        times = _times(rng, 2)
        boxes = (_box(rng), (-inf, inf))
        jobs.append(self._measure_job(ctx, "cyl_fullline", times, boxes, alpha, p,
                                      lambda t=times, b=boxes, a=alpha, q=p: ck.nystrom_measure(fp, t[:1], b[:1], a, q)))

        alpha, p, t = FULL_LINE_ORDER, _u(rng, 0.0, 1.0), _u(rng, 0.5, 2.0)
        jobs.append(Job("line_total", dict(alpha=alpha, p=p, t=t), 1,
                        lambda a=alpha, q=p, s=t: fp.line_total(a, q, s),
                        lambda v: ck.result(abs(v - 1.0), 1e-6, "total mass vs 1")))

        alpha, p, t = order(4), _u(rng, 0.0, 1.0), _u(rng, 0.5, 2.0)
        box = _box(rng)
        jobs.append(Job("box_integral", dict(alpha=alpha, p=p, t=t, box=box), 1,
                        lambda a=alpha, q=p, s=t, b=box: fp.box_kernel_integral(b[0], b[1], a, q, s),
                        lambda v, a=alpha, q=p, s=t, b=box: ck.result(abs(v - ck.nystrom_measure(fp, (s,), (b,), a, q)), 1e-7,
                                                                      "tail identity vs Gauss-Legendre")))
        return jobs

    def probes(self, ctx):
        return []


# ---------------------------------------------------------------------------
# subordinated
# ---------------------------------------------------------------------------

# (alpha, theta range, p range) of the direct-integral classes: p != 1/2
# at nu > 1, and nu <= 1 at p = 1/2
QUAD_CLASSES = (
    (3.0, (0.45, 0.5), (0.2, 0.4)),
    (2.5, (0.37, 0.4), (0.5, 0.5)),
)


# Grid points per series request, one request of each size per round:
# spread for the same reason as DRAW_LADDER.
SERIES_POINTS = tuple(round(60 * 1.2**k) for k in range(12))


class Subordinated:
    name = "subordinated"
    orders = (3.0, 3.5, 4.0)
    round_s = 5.0
    min_rounds = 3

    def warm_up(self, ctx):
        fp = ctx.fp
        spec = fp.SubordinationSpec(3.0, 0.5, 0.5)
        fp.subordinated_density_series(0.5, spec, 1.0)
        fp.stable_subordinator_pdf(1.0, 1.0, 0.5)

    def _eval_job(self, ctx, kind, alpha, theta, p, t, lo, hi, n):
        fp, cli = ctx.fp, ctx.cli
        path = ctx.out_path(kind)
        argv = ["eval", "--fn", "subordinated", "--alpha", repr(alpha), "--theta", repr(theta),
                "--p", repr(p), "--t", repr(t), "--grid", f"{lo!r}:{hi!r}:{n}", "--out", path]
        spec = fp.SubordinationSpec(alpha, theta, p)
        series = p == 0.5 and alpha * theta > 1.0

        def run():
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"exit {code}: fresnelpseudo {' '.join(argv)}")

        def check(vals):
            xs = np.linspace(lo, hi, n)
            os.remove(path)
            if series:
                # the series against the Weibull-expectation form
                idx = [n // 10, 3 * n // 10, 7 * n // 10]
                err = max(abs(fp.subordinated_weibull_repr(xs[i], spec, t) - vals[i]) for i in idx)
                return ck.result(err, 1e-8, "series vs expectation form at 3 points")
            err = max(abs(ck.fourier_density(x, alpha, theta, p, t) - v) for x, v in zip(xs, vals))
            return ck.result(err, 1e-6, "direct integral vs Fourier inversion of the composed transform")

        return Job(kind, dict(alpha=alpha, theta=theta, p=p, t=t, grid=(lo, hi, n)), n, run, check,
                   read=lambda _: _read_csv_values(path, 1))

    def _validate_job(self, ctx):
        cli = ctx.cli

        def run():
            code = cli.main(["validate", "--suite", "subordination"])
            if code != 0:
                raise RuntimeError(f"validate --suite subordination exited {code}")
            return code

        return Job("validate_subordination", {}, 4, run, lambda code: ck.result(0.0, 0.0, "suite passed"))

    def _point_job(self, ctx, alpha, theta, p, x):
        """A one-point request to the direct integral, in-process: the
        CLI grid needs two points, and a run needs more direct-integral
        jobs than two-point requests leave room for."""
        fp = ctx.fp
        spec = fp.SubordinationSpec(alpha, theta, p)

        def check(val):
            err = abs(ck.fourier_density(x, alpha, theta, p, 1.0) - val)
            return ck.result(err, 1e-6, "direct integral vs Fourier inversion of the composed transform")

        return Job("quadrature_point", dict(alpha=alpha, theta=theta, p=p, t=1.0, x=x), 1,
                   lambda: fp.subordinated_density_quadrature(x, spec, 1.0), check)

    def round(self, rng, ctx, index):
        # one two-point direct-integral CLI request (the class alternating
        # from round to round), three one-point direct-integral requests
        # (p != 1/2, one class so that their costs are alike) and a CLI
        # series request of each size in SERIES_POINTS; the
        # first round also runs the subordination suite.  The series grids
        # stay where float64 suffices (|x| / t**(1/nu) <= 2.2 at
        # nu >= 1.4), so their cost is steady.  With three rounds a run
        # has twelve direct-integral jobs and the suite above the series
        # jobs, so job_tail_s (the 11th-largest latency) is a one-point
        # direct integral and job_p50_s a series request.
        jobs = [self._validate_job(ctx)] if index == 0 else []
        for i, n in enumerate(SERIES_POINTS):
            alpha = self.orders[(i + index) % len(self.orders)]
            nu = _u(rng, 1.4, 1.7)
            t = _u(rng, 0.8, 1.3)
            half = _u(rng, 1.8, 2.2) * t ** (1.0 / nu)
            jobs.append(self._eval_job(ctx, "series_eval", alpha, nu / alpha, 0.5, t, -half, half, n))
        alpha, th, pr = QUAD_CLASSES[index % 2]
        half = _u(rng, 0.35, 0.45)
        jobs.append(self._eval_job(ctx, "quadrature_eval", alpha, _u(rng, *th), _u(rng, *pr), 1.0, -half, half, 2))
        alpha, th, pr = QUAD_CLASSES[0]
        for _ in range(3):
            jobs.append(self._point_job(ctx, alpha, _u(rng, *th), _u(rng, *pr), _u(rng, -0.15, 0.15)))
        return _shuffled(rng, jobs)

    def probes(self, ctx):
        # the p = 1/2 series refuses at |x| >= ~15 for (3, .5) and the CLI
        # has no fallback: exit 3
        path = ctx.out_path("probe")
        code = ctx.cli.main(["eval", "--fn", "subordinated", "--alpha", "3", "--theta", "0.5",
                             "--p", "0.5", "--grid", "15:17:3", "--out", path])
        if os.path.exists(path):
            os.remove(path)
        return [("series refusal at x=16, (3, .5, .5), CLI exit 3", code == 3, f"exit {code}")]


# ---------------------------------------------------------------------------
# sample_classify
# ---------------------------------------------------------------------------

CF_PROBES = np.linspace(-4.0, 4.0, 20)
# Draws per sample request: a ladder from 5e4 to 2e5 that the sample
# jobs walk through, 4 per round, so the latencies of the class span a
# range rather than sit at one value; a median over a class of
# equal-cost jobs jumps between the host's speed states, over a spread
# class it moves with them smoothly.  Every 4 rounds use each size once.
DRAW_LADDER = tuple(round(50_000 * 4.0 ** (k / 15)) for k in range(16))


class SampleClassify:
    name = "sample_classify"
    round_s = 1.27
    min_rounds = 1

    def warm_up(self, ctx):
        fp = ctx.fp
        fp.sample_mixture(fp.MixtureSpec(fp.parameter_map(fp.SubordinationSpec(3.0, 0.5, 0.5)), 0.5, 1.0),
                          100, fp.SeededStream(0))
        fp.classify(2.0, 0.3, 1.0)

    def _sample_job(self, ctx, kind, alpha, theta, p, t, seed, n):
        fp, cli = ctx.fp, ctx.cli
        path = ctx.out_path(kind)
        argv = ["sample", "--mixture", "--alpha", repr(alpha), "--theta", repr(theta), "--p", repr(p),
                "--t", repr(t), "--n", str(n), "--seed", str(seed), "--out", path]

        def run():
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"exit {code}: fresnelpseudo {' '.join(argv)}")

        def composed(g):
            return ck.composed_transform(fp, g, alpha, theta, p, t)

        def check(ecf):
            os.remove(path)
            want, gap = composed(CF_PROBES)
            err = max(float(np.max(np.abs(ecf - want))), gap)
            return ck.result(err, ck.cf_band(n), "empirical transform vs char_fn composed with the Laplace transform")

        def known_defect(ecf):
            # ROADMAP defect 1: the draws follow the mirror image w(-x)
            mirror, _ = composed(-CF_PROBES)
            if np.max(np.abs(ecf - mirror)) <= ck.cf_band(n):
                return "ROADMAP defect 1: draws match the mirror image w(-x) when p != 1/2"
            return None

        return Job(kind, dict(alpha=alpha, theta=theta, p=p, t=t, n=n, seed=seed), n,
                   run, check, known_defect, read=lambda _: _read_csv_values(path, 0),
                   finish=lambda draws: fp.empirical_char_fn(draws, CF_PROBES))

    def _classify_job(self, ctx, rng):
        fp = ctx.fp
        pairs = [(_u(rng, 1.2, 3.8), _u(rng, 0.02, 0.98)) for _ in range(40)]

        def run():
            return [fp.classify(a, p, 1.0) for a, p in pairs]

        def check(reports):
            worst = 0.0
            for (a, p), rep in zip(pairs, reports):
                peaks, h = ck.scan_maxima(fp, a, p, 1.0)
                maxima = [s.location for s in rep.stationary_points if s.kind == "maximum"]
                if len(maxima) != len(peaks):
                    worst = max(worst, 1.0)
                    continue
                for m, q in zip(sorted(maxima), peaks):
                    worst = max(worst, abs(m - q) / (2.0 * h))
            return ck.result(worst, 1.0, "maxima vs finite-difference scan (error in grid steps / 2)")

        return Job("classify_sweep", dict(pairs=len(pairs)), len(pairs), run, check)

    def round(self, rng, ctx, index):
        cli = ctx.cli
        jobs = []
        theta3 = _u(rng, 0.36, 0.5)  # nu in (1.08, 1.5], asymmetry within [-1, 1]
        theta4 = _u(rng, 0.27, 0.4)
        half = (3.0, 4.0)[index % 2]
        cauchy = (2.0, 3.0, 4.0)[index % 3]
        specs = (
            ("sample_stable_p_low", 3.0, theta3, _u(rng, 0.15, 0.35)),
            ("sample_stable_p_high", 4.0, theta4, _u(rng, 0.65, 0.85)),
            ("sample_stable_p_half", half, _u(rng, 1.05, 2.0 / (1.0 + half) * half) / half, 0.5),
            ("sample_cauchy", cauchy, 1.0 / cauchy, _u(rng, 0.0, 1.0)),
        )
        for j, (kind, alpha, theta, p) in enumerate(specs):
            jobs.append(self._sample_job(ctx, kind, alpha, theta, p, _u(rng, 0.5, 1.0), int(rng.integers(1 << 31)),
                                         DRAW_LADDER[(4 * index + j) % len(DRAW_LADDER)]))
        seed = int(rng.integers(1 << 31))

        def run_cfmc(seed=seed):
            code = cli.main(["validate", "--suite", "cf-mc", "--seed", str(seed)])
            if code != 0:
                raise RuntimeError(f"validate --suite cf-mc exited {code}")
            return code

        jobs.append(Job("validate_cf_mc", dict(seed=seed), 3, run_cfmc, lambda code: ck.result(0.0, 0.0, "suite passed")))
        jobs.append(self._classify_job(ctx, rng))
        return _shuffled(rng, jobs)

    def probes(self, ctx):
        return []


WORKLOADS = {w.name: w for w in (KernelGrid(), Cylinder(), Subordinated(), SampleClassify())}
