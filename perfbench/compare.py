"""Record a baseline, or compare a parent tree with a change.

    python3 perfbench/compare.py record --out perfbench/baseline/BENCH_<commit>.json
    python3 perfbench/compare.py compare --parent ../parent --change .

Both run this checkout's ``run.py`` (the same benchmark code and
settings for both sides) with ``--root`` pointing at the tree under
test (for ``record``, this checkout), for ``run_seconds`` of
``BENCHMARK.json`` per run.

``record`` runs every workload on two sets of ten seeds (1-10 and
11-20), prints each end-to-end metric's median and spread per set
(interquartile range over median, quartiles as
``statistics.quantiles(values, n=4)`` gives them) against its bound,
and how far the second set's median is from the first's, adds one
traced run per workload for the per-layer numbers, and writes
everything to ``--out``.

``compare`` applies the rule for claiming a change (choosing-metrics
guide, section 8).  It runs ten pairs of parent and change per
workload, each pair on its own seed, alternating which side runs
first, and for every end-to-end metric reports each side's median and
quartiles and one verdict:

* ``gain``: the change wins at least 9 of the 10 pairs (ties count for
  neither side) and the medians differ by more than the parent's
  interquartile range;
* ``no gain (more failures)``: as ``gain``, but a larger share of the
  change's jobs fail than of the parent's, so the gain does not count;
* ``worse than bound``: the change's median is worse than the parent's
  by more than the metric's bound;
* ``unresolved``: the parent's own spread exceeds the bound and not
  every change run beats every parent run;
* ``no worse than bound`` otherwise.

The failed share is printed with its base (failed/attempted) for both
sides.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
ROOT = os.path.dirname(HERE)
RUNS = 10  # runs per set, and parent/change pairs per workload
SETS = (range(1, RUNS + 1), range(RUNS + 1, 2 * RUNS + 1))  # seeds of the two recorded sets


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(root, workload, seed, seconds, trace):
    """One run; its JSON line plus the environment from its result file."""
    cmd = [sys.executable, RUN, "--root", root, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, "out", f"{workload}-s{seed}-t{trace}.json"), encoding="utf-8") as fh:
        result["environment"] = json.load(fh)["environment"]
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("nan")


def summarize(spec, runs):
    summary = {}
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = quartiles(vals)
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread(vals), "bound": m["bound"],
                              "unit": m["unit"]}
        print(f"  {m['name']:14s} median {med:.6g} {m['unit']:6s} spread {spread(vals):.4f} "
              f"(bound {m['bound']}, a third {m['bound'] / 3:.4f})", flush=True)
    summary["failed/attempted"] = f"{sum(r['failed'] for r in runs)}/{sum(r['attempted'] for r in runs)}"
    summary["correct"] = all(r["correct"] for r in runs)
    return summary


def record(args):
    spec = load_spec()
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    out = {"seconds": seconds, "sets": [{"seeds": list(seeds), "runs": {}, "summary": {}} for seeds in SETS],
           "agreement": {}, "traced": {}}
    for w in workloads:
        for k, seeds in enumerate(SETS):
            runs = []
            for seed in seeds:
                t0 = time.time()
                res = run_once(ROOT, w, seed, seconds, 0)
                res["wall_s"] = time.time() - t0
                runs.append(res)
                print(f"{w} seed {seed}: wall {res['wall_s']:.1f} s correct={res['correct']} "
                      f"failed {res['failed']}/{res['attempted']} "
                      + " ".join(f"{n}={v['value']:.5g}" for n, v in res["metrics"].items()), flush=True)
            print(f"  {w}, set {k + 1} (seeds {seeds.start}-{seeds.stop - 1}):")
            out["sets"][k]["runs"][w] = runs
            out["sets"][k]["summary"][w] = summarize(spec, runs)
        agreement = {}
        for m in spec["end_to_end"]:
            first, second = (s["summary"][w][m["name"]]["median"] for s in out["sets"])
            sign = 1.0 if m["better"] == "higher" else -1.0
            worse = sign * (first - second) / first if first else 0.0
            agreement[m["name"]] = {"second_worse_by": worse, "bound": m["bound"], "within": worse <= m["bound"]}
            print(f"  {m['name']:14s} second set's median worse than the first's by {worse:+.4f} "
                  f"(bound {m['bound']})", flush=True)
        out["agreement"][w] = agreement
        traced = run_once(ROOT, w, SETS[0].start, seconds, 1)
        out["traced"][w] = traced
        print(f"  traced: correct={traced['correct']} overhead "
              f"{traced['metrics']['trace.overhead_s']['value']:+.4f} s", flush=True)
        if args.out:  # written after every workload, so a cut run keeps what it has
            os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump(out, fh, indent=1)
    return 0


def verdict(metric, parent, change, more_failures):
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    worse = -sign * (cm - pm) / pm if pm else 0.0
    if wins >= 0.9 * len(parent) and sign * (cm - pm) > p3 - p1:
        return ("no gain (more failures)" if more_failures else "gain"), wins
    if worse > metric["bound"]:
        return "worse than bound", wins
    if (p3 - p1) / pm > metric["bound"] and not all(sign * (c - p) > 0 for c in change for p in parent):
        return "unresolved", wins
    return "no worse than bound", wins


def compare(args):
    spec = load_spec()
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    report = {}
    for w in workloads:
        sides = {"parent": [], "change": []}
        for i, seed in enumerate(SETS[0]):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                root = args.parent if side == "parent" else args.change
                sides[side].append(run_once(root, w, seed, seconds, 0))
        fails = {s: (sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)) for s, rs in sides.items()}
        more_failures = fails["change"][0] / fails["change"][1] > fails["parent"][0] / fails["parent"][1]
        rows = {}
        print(f"== {w}: {RUNS} pairs, alternating order")
        for m in spec["end_to_end"]:
            par = [r["metrics"][m["name"]]["value"] for r in sides["parent"]]
            chg = [r["metrics"][m["name"]]["value"] for r in sides["change"]]
            v, wins = verdict(m, par, chg, more_failures)
            pq, cq = quartiles(par), quartiles(chg)
            rows[m["name"]] = {"parent": par, "change": chg, "verdict": v, "change_wins": wins}
            print(f"  {m['name']:14s} parent {pq[1]:.5g} [{pq[0]:.5g}, {pq[2]:.5g}]  change {cq[1]:.5g} "
                  f"[{cq[0]:.5g}, {cq[2]:.5g}] {m['unit']}  wins {wins}/{RUNS}  {v}")
        print(f"  failed jobs: parent {fails['parent'][0]}/{fails['parent'][1]}, "
              f"change {fails['change'][0]}/{fails['change'][1]}")
        if more_failures:
            print("  more jobs fail than at the parent: no gain counts on this workload")
        rows["failed"] = fails
        report[w] = rows
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    rec = sub.add_parser("record", help="run every workload on two sets of ten seeds and record the numbers")
    cmp_ = sub.add_parser("compare", help="ten alternating pairs of parent and change per workload")
    cmp_.add_argument("--parent", required=True)
    cmp_.add_argument("--change", required=True)
    for p in (rec, cmp_):
        p.add_argument("--out")
    args = ap.parse_args(argv)
    return record(args) if args.cmd == "record" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
