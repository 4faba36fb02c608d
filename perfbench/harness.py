"""Closed-loop runner, metrics and report for ``run.py``."""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np
from scipy import integrate

from tracer import Tracer

# jobs beyond the tail percentile: job_tail_s is the 11th-largest latency
TAIL_BEYOND = 10
# tracer self-check: exact call counts of known inputs
SEMI_2LEVEL_BOX_INTEGRALS = 481
SEMI_2LEVEL_TAILS = 962
DIRECT_POINT_DENSITY_CALLS = 474  # (3, .5, .3) at x = 1, t = 1

# Host speed.  A calibration task is a fixed piece of work that calls
# nothing of the package; there is one per kind of work a job does (its
# ``profile``), because the host's slow state slows them by different
# amounts: "scalar" (pure-Python float arithmetic, scipy quad over a Python
# integrand, small numpy array operations) slows by up to about 1.9x,
# "array" (an elementwise power table of 12000 x 48 doubles and its
# matrix-vector product, the shape of the batched kernel over a
# displacement matrix) by about 1.2x, and a job tracks the task of its
# profile.  The state changes within a second, so a run times the task of
# a job's profile right before the job and once per CAL_EVERY_S of its
# latency right after it; the mean of the times near the job (see
# timed_run) over the task's time on the reference host is the job's
# slowness, and the job's latency is divided by it, so the timing metrics
# read in about seconds of the reference host whatever state the host is
# in.
CAL_EVERY_S = 0.1
CAL_TRIM = 0.05  # share of samples dropped at each end of the mean
_CAL_X = np.linspace(-3.0, 3.0, 513)
_CAL_ARRAY_X = np.linspace(-2.0, 2.0, 12000)
_CAL_ARRAY_K = np.arange(48.0)
_CAL_ARRAY_C = np.exp(-np.cumsum(np.log(np.maximum(_CAL_ARRAY_K, 1.0))))  # 1/k!


def _cal_integrand(u):
    return math.cos(3.0 * u) * math.exp(-u * u)


def _scalar_task():
    s = 0.0
    for i in range(6000):
        s += math.sin(i * 1e-3) * math.exp(-i * 1e-3)
    for k in range(4):
        s += integrate.quad(_cal_integrand, 0.0, 4.0 + k, limit=200)[0]
    for _ in range(60):
        s += float(np.sum(np.exp(-_CAL_X * _CAL_X) * np.cos(3.0 * _CAL_X)))
    return s


def _array_task():
    return float(np.sum(np.power.outer(_CAL_ARRAY_X, _CAL_ARRAY_K) @ _CAL_ARRAY_C))


# profile -> (task, its time on the reference host in its fast state, s)
CALIBRATIONS = {"scalar": (_scalar_task, 2.0e-3), "array": (_array_task, 39.0e-3)}


def calibration_sample(profile):
    """Time of one run of the calibration task of ``profile`` (s)."""
    task = CALIBRATIONS[profile][0]
    t0 = time.perf_counter()
    task()
    return time.perf_counter() - t0


def slowness(samples, profile):
    """Trimmed mean of the calibration times over the reference time."""
    ordered = sorted(samples)
    cut = int(CAL_TRIM * len(ordered))
    kept = ordered[cut: len(ordered) - cut] or ordered
    return statistics.fmean(kept) / CALIBRATIONS[profile][1]


def environment(root, thread_vars):
    import mpmath
    import scipy

    src = os.path.join(root, "src", "fresnelpseudo")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True, check=False)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in thread_vars},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "loadavg_at_start": os.getloadavg(),
        "machine": platform.machine(),
    }


def same_output(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b, equal_nan=True)
    return a == b


def _timed(fn, args, tracer, spent):
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        return fn(*args)
    finally:
        spent.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()


def run_job(job, keep_output=False, tracer=None):
    """Run one job (timed, under ``tracer`` if given), then its check
    (untimed, untraced).  The latency is the time of ``job.run`` plus
    ``job.finish``; ``job.read`` (loading a CLI output file) is harness
    work and is not timed."""
    sink = io.StringIO()  # what the CLI prints for a terminal
    spent = []
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            out = _timed(job.run, (), tracer, spent)
            if job.read is not None:
                out = job.read(out)
            if job.finish is not None:
                out = _timed(job.finish, (out,), tracer, spent)
        error = None
    except Exception as exc:  # a failed job is recorded, the loop goes on
        out, error = None, f"{type(exc).__name__}: {exc}"
    latency = sum(spent)
    rec = {"kind": job.kind, "profile": job.profile, "params": job.params, "latency_s": latency, "outputs": 0,
           "error": error, "check": None, "passed": False, "known_defect": None}
    if error is None:
        rec["outputs"] = job.outputs
        t1 = time.perf_counter()
        try:
            ok, err, tol, note = job.check(out)
            rec.update(check={"error": err, "tol": tol, "note": note}, passed=ok)
        except Exception as exc:
            rec["check"] = {"error": math.inf, "tol": 0.0, "note": f"check raised {type(exc).__name__}: {exc}"}
        if not rec["passed"]:
            rec["known_defect"] = job.known_defect(out)
        rec["check_s"] = time.perf_counter() - t1
    if keep_output:
        rec["_output"] = out
    return rec


def tail(latencies):
    """The highest percentile with at least TAIL_BEYOND jobs beyond it:
    (value, percentile)."""
    n = len(latencies)
    ordered = sorted(latencies)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def summarize_jobs(records):
    failed = [r for r in records if not r["passed"]]
    explained = all(r["known_defect"] for r in failed)
    return len(records), len(failed), explained


def rounds_for(workload, seconds):
    """Whole rounds that take about ``seconds`` of job time on the
    reference host (``workload.round_s`` per round), at least
    ``workload.min_rounds``.  The count depends on ``seconds`` only, not
    on the speed of the code or the host, so a parent and a change run
    the same jobs and every quantile rests on the same job mix."""
    return max(workload.min_rounds, round(seconds / workload.round_s))


def timed_run(workload, ctx, seed, seconds, setup_probe, n_setups, end_to_end):
    """``rounds_for(workload, seconds)`` rounds of jobs.  The ``n_setups``
    set-up probes (``setup_probe()`` times one in a fresh process) run
    between rounds, spread over the run so that they meet the host in
    the same mix of speed states as the jobs.  The calibration task of
    a job's profile runs once right before the job and once per
    CAL_EVERY_S of its latency right after it; each job's latency is
    divided by the slowness of those runs and of every other run of its
    profile's task that lies within the job's wall time (the job and its
    check) of it: the host's state changes within a second, and a long
    job needs a long stretch of samples.  The set-up times are divided by the
    run-wide slowness of the scalar task: no calibration run next to a
    set-up probe tracks it.  The measured values are kept as ``raw``,
    the run-wide slowness of each profile as ``slowness``."""
    rng = np.random.default_rng(seed)
    rounds = rounds_for(workload, seconds)
    probe_before = [i * rounds // n_setups for i in range(n_setups)]
    records = []
    setups = []
    cal = {}  # profile -> [(midpoint, duration)] of its calibration runs
    spans = []  # (profile, start, end, indices of the bracketing runs, job record)

    def calibrate(profile, n):
        if profile not in cal:
            calibration_sample(profile)  # the first run warms the task up
            cal[profile] = []
        first = len(cal[profile])
        for _ in range(n):
            t = time.perf_counter()
            dt = calibration_sample(profile)
            cal[profile].append((t + 0.5 * dt, dt))
        return list(range(first, len(cal[profile])))

    for index in range(rounds):
        setups += [setup_probe() for _ in range(probe_before.count(index))]
        for job in workload.round(rng, ctx, index):
            own = calibrate(job.profile, 1)
            t0 = time.perf_counter()
            rec = run_job(job)
            t1 = time.perf_counter()
            own += calibrate(job.profile, max(1, round(rec["latency_s"] / CAL_EVERY_S)))
            spans.append((job.profile, t0, t1, own, rec))
            records.append(rec)
    for profile, t0, t1, own, rec in spans:
        samples = cal[profile]
        reach = t1 - t0
        near = set(own) | {i for i, (mid, _) in enumerate(samples) if t0 - reach <= mid <= t1 + reach}
        rec["slowness"] = slowness([samples[i][1] for i in near], profile)
        rec["latency_ref_s"] = rec["latency_s"] / rec["slowness"]
    slow = {profile: slowness([dt for _, dt in samples], profile) for profile, samples in cal.items()}
    setups_ref = [s / slow["scalar"] for s in setups]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = [r["latency_s"] for r in records]
    ref = [r["latency_ref_s"] for r in records]
    tail_s, tail_pct = tail(ref)
    tail_kind = records[ref.index(tail_s)]["kind"]
    attempted, failed, explained = summarize_jobs(records)
    outputs = sum(r["outputs"] for r in records)
    busy = sum(lat)
    raw = {
        "setup_s": statistics.median(setups),
        "job_p50_s": statistics.median(lat),
        "job_tail_s": tail(lat)[0],
        "outputs_per_s": outputs / busy,
    }
    values = {
        "setup_s": statistics.median(setups_ref),
        "job_p50_s": statistics.median(ref),
        "job_tail_s": tail_s,
        "outputs_per_s": outputs / sum(ref),
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    units = {m["name"]: m["unit"] for m in end_to_end}
    return {
        "correct": explained,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
        "raw": raw,
        "slowness": slow,
        "calibration_s": {profile: [dt for _, dt in samples] for profile, samples in cal.items()},
        "fail_frac": failed / attempted,
        "tail_percentile": tail_pct,
        "tail_kind": tail_kind,
        "rounds": rounds,
        "busy_s": busy,
        "outputs": outputs,
        "setup_runs_s": setups,
        "setup_runs_ref_s": setups_ref,
        "jobs": records,
    }


def traced_run(workload, ctx, seed, per_layer, fp):
    """One round of jobs, each run untraced and traced back to back (the
    order alternating from job to job, so slow drift of the host cancels
    in the overhead); per-layer metrics from the traced runs."""
    rng = np.random.default_rng(seed)
    jobs = workload.round(rng, ctx, 0)
    tracer = Tracer()
    plain, traced = [], []
    for i, job in enumerate(jobs):
        for traced_now in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_now:
                tracer.job = i
                traced.append(run_job(job, keep_output=True, tracer=tracer))
            else:
                plain.append(run_job(job, keep_output=True))
    untraced_s = sum(r["latency_s"] for r in plain)
    traced_s = sum(r["latency_s"] for r in traced)
    mismatched = [r["kind"] for r, s in zip(plain, traced) if not same_output(r.pop("_output"), s.pop("_output"))]

    self_checks = tracer_self_checks(tracer, jobs, fp)
    layer = tracer.summary()
    for name in list(layer):
        if name.endswith(".self_s"):
            layer[name[: -len("self_s")] + "self_share"] = (layer[name][0] / traced_s, "ratio")
    layer["trace.overhead_s"] = (traced_s - untraced_s, "s")
    layer["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    attempted, failed, explained = summarize_jobs(traced)
    correct = explained and not mismatched and all(c["passed"] for c in self_checks)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": layer[m["name"]][0], "unit": m["unit"]} for m in per_layer},
        "all_layer_metrics": {k: v[0] for k, v in layer.items()},
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "outputs_changed_by_tracing": mismatched,
        "tracer_self_checks": self_checks,
        "jobs": plain,
        "traced_jobs": traced,
        "tracer": tracer,
    }


def tracer_self_checks(tracer, jobs, fp):
    """Exact call counts the tracer must reproduce."""
    out = []
    for i, job in enumerate(jobs):
        if job.kind == "cyl2_semi":
            bki = tracer.count_under("measure.box_kernel_integral", "measure.cylinder_measure", job=i)
            tails = tracer.count_under("special.airy_cdf_tail", "measure.cylinder_measure", job=i)
            out.append({"name": f"semi-infinite 2-level measure (job {i}): box integrals, tails",
                        "got": [bki, tails], "want": [SEMI_2LEVEL_BOX_INTEGRALS, SEMI_2LEVEL_TAILS],
                        "passed": [bki, tails] == [SEMI_2LEVEL_BOX_INTEGRALS, SEMI_2LEVEL_TAILS]})
    if any(job.kind.startswith("quadrature_") for job in jobs):
        probe = Tracer().install()
        try:
            fp.subordinated_density_quadrature(1.0, fp.SubordinationSpec(3.0, 0.5, 0.3), 1.0)
        finally:
            probe.uninstall()
        n = probe.count_under("density.density", "subordination.subordinated_density_quadrature")
        out.append({"name": "direct-integral point (3, .5, .3), x=1: density calls",
                    "got": n, "want": DIRECT_POINT_DENSITY_CALLS, "passed": n == DIRECT_POINT_DENSITY_CALLS})
    return out


def report(run):
    """Human-readable report (everything above the JSON line)."""
    w = print
    env = run["environment"]
    w(f"# perfbench workload={run['workload']} seed={run['seed']} trace={run['trace']} "
      "(closed loop: 1 client, 1 process, next job issued when the previous returns)")
    w(f"# env: nproc={env['nproc']} threads={env['threads']} python={env['python']} numpy={env['numpy']} "
      f"scipy={env['scipy']} mpmath={env['mpmath']} commit={env['commit']} src={env['src_sha256']} "
      f"loadavg={tuple(round(x, 2) for x in env['loadavg_at_start'])}")
    if run["trace"]:
        w(f"# traced {run['attempted']} jobs: untraced {run['untraced_s']:.4f} s, traced {run['traced_s']:.4f} s, "
          f"overhead {run['traced_s'] - run['untraced_s']:+.4f} s")
        w("# wait time: not applicable (single-threaded, no queues)")
        seconds = run["all_layer_metrics"]
        for name, m in run["metrics"].items():
            line = f"{name:58s} {m['value']:.6g} {m['unit']}"
            if name.endswith(".self_share"):
                line += f"  (self_s {seconds[name[: -len('self_share')] + 'self_s']:.6g} s)"
            w(line)
        for c in run["tracer_self_checks"]:
            w(f"# tracer self-check: {c['name']}: got {c['got']} want {c['want']} "
              f"{'PASS' if c['passed'] else 'FAIL'}")
        if run["outputs_changed_by_tracing"]:
            w(f"# FAIL: tracing changed the outputs of {run['outputs_changed_by_tracing']}")
    else:
        m, raw = run["metrics"], run["raw"]
        for profile, slow in run["slowness"].items():
            w(f"# host slowness ({profile} work) over the run {slow:.4f}: trimmed mean of "
              f"{len(run['calibration_s'][profile])} calibration runs over {CALIBRATIONS[profile][1] * 1e3:.1f} ms")
        w("# each job's latency and each set-up run is divided by the slowness measured right around it; "
          "the measured values follow in []")
        w(f"# set-up runs (s, in run order): {', '.join(f'{s:.4f}' for s in run['setup_runs_ref_s'])}; "
          f"measured: {', '.join(f'{s:.4f}' for s in run['setup_runs_s'])}")
        w(f"setup_s        {m['setup_s']['value']:.4f} s [{raw['setup_s']:.4f}] (median of "
          f"{len(run['setup_runs_s'])} fresh-process import + warm-up)")
        w(f"job_p50_s      {m['job_p50_s']['value']:.6f} s [{raw['job_p50_s']:.6f}]")
        w(f"job_tail_s     {m['job_tail_s']['value']:.6f} s [{raw['job_tail_s']:.6f}] (p{run['tail_percentile']:.2f}: "
          f"{TAIL_BEYOND} of {run['attempted']} jobs beyond it; a {run['tail_kind']} job)")
        w(f"outputs_per_s  {m['outputs_per_s']['value']:.6g} 1/s [{raw['outputs_per_s']:.6g}] ({run['outputs']} "
          f"outputs in {run['busy_s']:.3f} s of jobs, {run['rounds']} rounds)")
        w(f"fail_frac      {run['fail_frac']:.4f} ({run['failed']} of {run['attempted']} jobs; "
          f"ok_frac = {m['ok_frac']['value']:.4f})")
        w(f"peak_rss_mb    {m['peak_rss_mb']['value']:.2f} MB")
    by_kind = {}
    for r in run["jobs"]:
        k = by_kind.setdefault(r["kind"], {"n": 0, "passed": 0, "worst": 0.0, "tol": None, "lat": []})
        k["n"] += 1
        k["passed"] += r["passed"]
        k["lat"].append(r["latency_s"])
        if r["check"]:
            ratio = r["check"]["error"] / r["check"]["tol"] if r["check"]["tol"] else r["check"]["error"]
            k["worst"] = max(k["worst"], ratio)
    for kind, k in by_kind.items():
        w(f"# check {kind:24s} {k['passed']}/{k['n']} passed, worst error/tol {k['worst']:.3g}, "
          f"median latency {statistics.median(k['lat']):.4f} s")
    for r in run["jobs"]:
        if not r["passed"]:
            why = r["error"] or (f"error {r['check']['error']:.3g} > tol {r['check']['tol']:.3g} "
                                 f"({r['check']['note']})")
            label = r["known_defect"] or "UNEXPECTED"
            w(f"# FAIL {r['kind']} {r['params']}: {why} [{label}]")
    for p in run["probes"]:
        w(f"# known-defect probe: {p['name']}: {'reproduced' if p['reproduced'] else 'NOT reproduced'} "
          f"({p['detail'][:120]})")
    w(f"# correct={run['correct']} (false only for a failure that no known defect explains)")
    sys.stdout.flush()
