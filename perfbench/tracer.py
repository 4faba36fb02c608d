"""Outside-in span tracer for the fresnelpseudo package.

The package has no instrumentation of its own, so the tracer wraps the
public functions of each module from outside: every module attribute
that *is* one of those functions (in the defining module, in every
module that imported it by name, in the package namespace and in
``validation.SUITES``) is replaced by a wrapper that records a span.
Module-internal calls go through module globals, so they are caught
too.  ``uninstall`` puts every original back.

A span is ``[function, start, end, parent span, job id, points,
failed, extra]``; spans live in one list in memory and are written out
as JSON lines at the end of a run.  ``summary`` turns them into the
per-layer metrics ``<module>.<function>.<counter>`` with the counters
``calls``, ``points`` (array size of the first argument), ``self_s``
(span time minus the time of its child spans) and ``fails`` (calls that
left by an exception).  The package is single-threaded and has no
queues, so spans nest strictly and there is no wait time to report.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np

PKG = "fresnelpseudo"

# module -> public functions that the tracer wraps
LAYERS = {
    "special": (
        "airy_series",
        "airy_quadrature",
        "airy_point",
        "airy_grid",
        "airy_cdf_tail",
        "series_float64_range",
        "stable_subordinator_pdf",
        "wright_series",
        "weibull_pdf",
    ),
    "_quad": ("chirp_integral",),
    "density": ("density", "char_fn", "weibull_representation"),
    "measure": ("cylinder_measure", "line_total", "box_kernel_integral"),
    "subordination": (
        "parameter_map",
        "subordinated_char_fn",
        "subordinated_density_series",
        "subordinated_density_quadrature",
        "subordinated_weibull_repr",
    ),
    "sampling": (
        "sample_stable",
        "sample_mixture",
        "sample_cauchy_mixture",
        "empirical_char_fn",
    ),
    "mixture": ("cauchy_mixture_pdf", "pdf_derivative", "classify", "mode_analysis"),
    "validation": ("run_suite",),  # the SUITES entries are added at install
    "cli": ("main",),
}

# metric prefix per module: metric names must start with a letter
_PREFIX = {"_quad": "quad"}

# span fields
FN, START, END, PARENT, JOB, POINTS, FAILED, EXTRA = range(8)


def _points(args):
    if args and isinstance(args[0], (np.ndarray, list, tuple)):
        return int(np.size(args[0]))
    return 1


def _extra(name, result):
    """A per-call integer read from the return value: the exit code of
    ``cli.main`` and the failed-check count of a validation suite."""
    if name == "cli.main":
        return 0 if result == 0 else 1
    if name.startswith("validation.") and isinstance(result, list):
        return sum(1 for check in result if not check.passed)
    return 0


class Tracer:
    """Wraps the package's public functions and records spans."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.job = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._wrappers: dict[int, tuple] = {}

    # -- installation -----------------------------------------------------

    def _targets(self):
        validation = sys.modules[f"{PKG}.validation"]
        out = []
        for mod_name, fn_names in LAYERS.items():
            mod = sys.modules[f"{PKG}.{mod_name}"]
            for fn_name in fn_names:
                out.append((f"{_PREFIX.get(mod_name, mod_name)}.{fn_name}", getattr(mod, fn_name)))
        for suite in validation.SUITES.values():
            out.append((f"validation.{suite.__name__}", suite))
        return out

    def install(self):
        """Patch every import site; may be called again after
        ``uninstall`` and keeps adding to the same spans."""
        wrappers = self._wrappers
        if not wrappers:
            for name, fn in self._targets():
                if id(fn) not in wrappers:
                    self.names.append(name)
                    wrappers[id(fn)] = (fn, self._wrap(len(self.names) - 1, name, fn))
        modules = [m for key, m in list(sys.modules.items()) if key == PKG or key.startswith(PKG + ".")]
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, val))
        suites = sys.modules[f"{PKG}.validation"].SUITES
        for key, val in list(suites.items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                suites[key] = hit[1]
                self._restore.append((suites, key, val))
        return self

    def uninstall(self):
        for owner, key, val in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = val
            else:
                setattr(owner, key, val)
        self._restore.clear()

    def _wrap(self, idx, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [idx, 0.0, 0.0, stack[-1] if stack else -1, self.job, _points(args), False, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            rec[EXTRA] = _extra(name, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis ---------------------------------------------------------

    def self_times(self):
        child = np.zeros(len(self.spans))
        dur = np.array([s[END] - s[START] for s in self.spans])
        for i, s in enumerate(self.spans):
            if s[PARENT] >= 0:
                child[s[PARENT]] += dur[i]
        return dur - child

    def count_under(self, fn_name, ancestor_name, job=None):
        """Calls of ``fn_name`` that have a span of ``ancestor_name``
        above them (optionally within one job)."""
        fn_idx = self.names.index(fn_name)
        anc_idx = self.names.index(ancestor_name)
        under = np.zeros(len(self.spans), dtype=bool)
        n = 0
        for i, s in enumerate(self.spans):
            par = s[PARENT]
            under[i] = par >= 0 and (under[par] or self.spans[par][FN] == anc_idx)
            if s[FN] == fn_idx and under[i] and (job is None or s[JOB] == job):
                n += 1
        return n

    def summary(self):
        """Per-layer metrics as ``{name: (value, unit)}``."""
        selfs = self.self_times()
        stats = {n: {"calls": 0, "points": 0, "self_s": 0.0, "fails": 0, "extra": 0} for n in self.names}
        parent_fn = {}
        for i, s in enumerate(self.spans):
            st = stats[self.names[s[FN]]]
            st["calls"] += 1
            st["points"] += s[POINTS]
            st["self_s"] += float(selfs[i])
            st["fails"] += int(s[FAILED])
            st["extra"] += s[EXTRA]
            if s[PARENT] >= 0:
                key = (self.names[s[FN]], self.names[self.spans[s[PARENT]][FN]])
                parent_fn[key] = parent_fn.get(key, 0) + 1

        out = {}
        for name, st in stats.items():
            out[f"{name}.calls"] = (st["calls"], "count")
            out[f"{name}.points"] = (st["points"], "count")
            out[f"{name}.self_s"] = (st["self_s"], "s")
            out[f"{name}.fails"] = (st["fails"], "count")

        def ratio(num, den):
            return num / den if den else 0.0

        quad_pts = stats["special.airy_quadrature"]["calls"]
        grid_quad = parent_fn.get(("special.airy_quadrature", "special.airy_grid"), 0)
        series_pts = stats["special.airy_series"]["calls"] + stats["special.airy_grid"]["points"] - grid_quad
        out["special.series_share"] = (ratio(series_pts, series_pts + quad_pts), "ratio")

        measure_fns = [n for n in self.names if n.startswith("measure.")]
        tails, measures = self._tails_per_measure(measure_fns)
        out["measure.tails_per_measure"] = (ratio(tails, measures), "ratio")

        dens = stats["density.density"]
        out["density.points_per_call"] = (ratio(dens["points"], dens["calls"]), "ratio")
        sdq = stats["subordination.subordinated_density_quadrature"]["calls"]
        dens_in_sdq = self.count_under("density.density", "subordination.subordinated_density_quadrature")
        out["subordination.density_calls_per_point"] = (ratio(dens_in_sdq, sdq), "ratio")

        suite_names = [n for n in self.names if n.startswith("validation.") and n.endswith("_suite")]
        out["validation.suite.calls"] = (sum(stats[n]["calls"] for n in suite_names), "count")
        out["validation.suite.self_s"] = (sum(stats[n]["self_s"] for n in suite_names), "s")
        out["validation.checks_failed"] = (sum(stats[n]["extra"] for n in suite_names), "count")
        out["cli.exit_nonzero"] = (stats["cli.main"]["extra"] + stats["cli.main"]["fails"], "count")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def _tails_per_measure(self, measure_fns):
        """airy_cdf_tail calls beneath a measure-layer span, and the
        number of outermost measure-layer calls."""
        m_idx = {self.names.index(n) for n in measure_fns}
        tail_idx = self.names.index("special.airy_cdf_tail")
        inside = np.zeros(len(self.spans), dtype=bool)
        tails = measures = 0
        for i, s in enumerate(self.spans):
            par = s[PARENT]
            par_inside = par >= 0 and inside[par]
            inside[i] = par_inside or s[FN] in m_idx
            if s[FN] in m_idx and not par_inside:
                measures += 1
            if s[FN] == tail_idx and par_inside:
                tails += 1
        return tails, measures

    def write(self, path):
        """Write the spans as JSON lines (one per span)."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": self.names[s[FN]],
                            "start": s[START],
                            "end": s[END],
                            "parent": s[PARENT],
                            "job": s[JOB],
                            "points": s[POINTS],
                            "failed": s[FAILED],
                        }
                    )
                    + "\n"
                )
