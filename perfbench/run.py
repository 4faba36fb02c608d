"""Benchmark harness for fresnelpseudo.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kernel_grid --seed 1 --trace 0

With ``--trace 0`` one client in one process runs the workload's jobs in
a closed loop, untraced, for the number of whole rounds that take about
``--seconds`` (default: ``run_seconds`` of ``BENCHMARK.json``) on the
reference host (see ``workloads.py``), checks every job's output untimed
against an independent route, and prints the end-to-end metrics.  With
``--trace 1`` it runs one round of the same seeded jobs untraced, then
again under the outside-in tracer (``tracer.py``), and prints the
per-layer metrics and the tracing overhead (traced minus untraced wall
time of the same jobs).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it are the human-readable report.  A fuller record of the run (the
environment, every job with its latency and check, the known-defect
probes) is written to ``perfbench/out/``, and the spans of a traced run
to a ``.spans.jsonl`` file beside it.

``--root DIR`` points the harness at another source tree (the package
is imported from ``DIR/src``); ``compare.py`` uses it to run the same
harness against a parent and a change.  The harness pins the BLAS and
OpenMP thread counts to 1 so both sides run with equal settings.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 9


def parse_args(argv):
    ap = argparse.ArgumentParser(description="fresnelpseudo benchmark harness")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", default=".", help="source tree whose src/ is benchmarked")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def package_init(root):
    init = os.path.join(root, "src", "fresnelpseudo", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: {init} not found; run from the root of a fresnelpseudo checkout")
    return init


def import_package(root):
    init = package_init(root)
    sys.path.insert(0, os.path.join(root, "src"))
    import fresnelpseudo
    import fresnelpseudo.cli  # noqa: F401  (not imported by the package itself)

    if os.path.realpath(fresnelpseudo.__file__) != os.path.realpath(init):
        raise SystemExit(f"error: imported fresnelpseudo from {fresnelpseudo.__file__}, not {init}")
    return fresnelpseudo


def setup_probe(args):
    """Child process: time the package import plus the workload's
    warm-up; the harness's own imports are not timed."""
    t0 = time.perf_counter()
    fp = import_package(os.path.abspath(args.root))
    import_s = time.perf_counter() - t0
    import workloads

    tmp = make_tmp()
    try:
        ctx = workloads.Context(fp, tmp)
        t1 = time.perf_counter()
        workloads.WORKLOADS[args.workload].warm_up(ctx)
        print(repr(import_s + time.perf_counter() - t1))
    finally:
        remove_tree(tmp)
    return 0


def make_tmp():
    path = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def remove_tree(path):
    import shutil

    shutil.rmtree(path, ignore_errors=True)


def measure_setup(args, root):
    """Set-up time of one fresh process."""
    import subprocess

    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", args.workload,
         "--seed", str(args.seed), "--root", root],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = os.path.abspath(args.root)
    package_init(root)
    if args.setup_probe:
        return setup_probe(args)

    import contextlib
    import io
    import json

    import harness

    bench_file = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
    with open(bench_file, encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    env = harness.environment(root, THREAD_VARS)
    t0 = time.perf_counter()
    fp = import_package(root)
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = make_tmp()
    try:
        workload = workloads.WORKLOADS[args.workload]
        ctx = workloads.Context(fp, tmp)
        workload.warm_up(ctx)
        main_setup = time.perf_counter() - t0
        if args.trace:
            run = harness.traced_run(workload, ctx, args.seed, spec["per_layer"], fp)
        else:
            run = harness.timed_run(workload, ctx, args.seed, args.seconds, lambda: measure_setup(args, root),
                                    SETUP_PROBES, spec["end_to_end"])
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            probes = workload.probes(ctx)
        run["probes"] = [dict(name=n, reproduced=r, detail=d) for n, r, d in probes]
    finally:
        remove_tree(tmp)
    run.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
               environment=env, main_process_setup_s=main_setup)
    stem = os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-t{args.trace}")
    spans = run.pop("tracer", None)
    if spans is not None:
        spans.write(stem + ".spans.jsonl")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(run, fh, indent=1, default=str)
    harness.report(run)
    print(json.dumps({k: run[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
