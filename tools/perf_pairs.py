#!/usr/bin/env python3
"""Paired end-to-end comparison of two checkouts with perfbench.

    python3 tools/perf_pairs.py --base ../parent --change . \\
        --pairs 10 --workload fleet_sweep

Runs the benchmark command of the change's BENCHMARK.json (python3
perfbench/run.py) for its run_seconds with --trace 0 in each checkout,
K pairs per workload, alternating which side runs first so host drift
hits both alike. For every end-to-end metric of BENCHMARK.json it
prints each side's [q1, median, q3], the ratio of the medians (change
over base), how many pairs the change won, and whether the median moved
by more than the base's interquartile range. A metric whose median got worse than its bound is flagged, and
so is a run whose output checks failed; either makes the exit status 1.

Both checkouts must be complete source trees; perfbench builds each
into its own .bench_build/. This script only runs perfbench and reads
BENCHMARK.json; it writes nothing into either checkout except what
perfbench itself builds, plus the --json record if asked.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def load_benchmark(path):
    with open(path) as f:
        return json.load(f)


def run_once(checkout, command, workload, seed, seconds, timeout):
    """One perfbench run; returns its final JSON record (or a failure)."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=checkout, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"correct": False, "attempted": 0, "failed": 0,
                "metrics": {}, "error": "timed out"}
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    try:
        record = json.loads(last[0])
    except json.JSONDecodeError:
        record = {"correct": False, "attempted": 0, "failed": 0,
                  "metrics": {},
                  "error": f"no result (exit {proc.returncode}): "
                           f"{proc.stderr.strip()[-300:]}"}
    if proc.returncode != 0:
        record["correct"] = False
    record["elapsed_s"] = time.monotonic() - started
    return record


def quartiles(values):
    if len(values) == 1:
        return [values[0]] * 3
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, med, q3]


def summarize(metric, base_vals, change_vals):
    """Medians, quartiles, pair wins and the bound verdict of one metric."""
    lower = metric["better"] == "lower"
    bq = quartiles(base_vals)
    cq = quartiles(change_vals)
    wins = sum(1 for b, c in zip(base_vals, change_vals)
               if (c < b if lower else c > b))
    ratio = cq[1] / bq[1] if bq[1] else float("nan")
    # How much worse the change's median is, as a share of the base's.
    worse_by = (ratio - 1.0) if lower else (1.0 - ratio)
    moved = abs(cq[1] - bq[1])
    return {
        "base_q1_med_q3": bq,
        "change_q1_med_q3": cq,
        "change_over_base": ratio,
        "change_better_pairs": wins,
        "pairs": len(base_vals),
        "median_moved_more_than_base_iqr": moved > (bq[2] - bq[0]),
        "worse_than_bound": worse_by > metric["bound"],
        "bound": metric["bound"],
    }


def fmt(v):
    return f"{v:.4g}"


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--base", required=True,
                    help="checkout to compare against")
    ap.add_argument("--change", default=".", help="checkout under test")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--json", default=None,
                    help="write every run and the summary here")
    args = ap.parse_args()

    bench = load_benchmark(os.path.join(args.change, "BENCHMARK.json"))
    command = bench["command"]
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    workloads = args.workload or names
    for w in workloads:
        if w not in names:
            sys.exit(f"unknown workload {w!r}; BENCHMARK.json has {names}")
    metrics = bench["end_to_end"]
    # Generous: a run's set-up, checks and teardown come on top.
    timeout = seconds + 600

    sides = {"base": os.path.abspath(args.base),
             "change": os.path.abspath(args.change)}
    record = {"seed": args.seed, "seconds": seconds, "pairs": args.pairs,
              "runs": {}, "summary": {}}
    bad = False
    for w in workloads:
        runs = {"base": [], "change": []}
        for i in range(args.pairs):
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            for side in order:
                r = run_once(sides[side], command, w, args.seed, seconds,
                             timeout)
                runs[side].append(r)
                walls = r["metrics"].get("wall_s", {}).get("value")
                print(f"# {w} pair {i + 1}/{args.pairs} {side}: "
                      f"wall_s={walls} correct={r['correct']}"
                      + (f" ({r['error']})" if "error" in r else ""),
                      file=sys.stderr, flush=True)
        record["runs"][w] = runs

        print(f"\n{w}: {args.pairs} pairs, seed {args.seed}, "
              f"{seconds} s runs, alternating order")
        for side in ("base", "change"):
            failed = [r for r in runs[side] if not r["correct"]]
            att = sum(r["attempted"] for r in runs[side])
            fl = sum(r["failed"] for r in runs[side])
            share = fl / att if att else 0.0
            print(f"  {side:6s} output checks: "
                  f"{len(runs[side]) - len(failed)}/{len(runs[side])} runs "
                  f"correct, fail_ratio {share:.4f}")
            if failed:
                bad = True
        print(f"  {'metric':12s} {'base q1 / med / q3':30s} "
              f"{'change q1 / med / q3':30s} {'ratio':>6s} {'won':>6s}  "
              "verdict")
        summary = {}
        for m in metrics:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in runs["base"]
                  if name in r["metrics"]]
            cv = [r["metrics"][name]["value"] for r in runs["change"]
                  if name in r["metrics"]]
            if len(bv) != args.pairs or len(cv) != args.pairs:
                print(f"  {name:12s} missing in some runs")
                bad = True
                continue
            s = summarize(m, bv, cv)
            summary[name] = s
            verdict = []
            if s["worse_than_bound"]:
                verdict.append(f"WORSE THAN BOUND {m['bound']:g}")
                bad = True
            else:
                verdict.append("within bound")
            if s["median_moved_more_than_base_iqr"]:
                verdict.append("moved > base IQR")
            b = " / ".join(fmt(v) for v in s["base_q1_med_q3"])
            c = " / ".join(fmt(v) for v in s["change_q1_med_q3"])
            print(f"  {name:12s} {b + ' ' + m['unit']:30s} "
                  f"{c + ' ' + m['unit']:30s} "
                  f"{s['change_over_base']:6.3f} "
                  f"{s['change_better_pairs']:>2d}/{args.pairs:<3d}  "
                  + ", ".join(verdict))
        record["summary"][w] = summary

    if args.json:
        with open(args.json, "w") as f:
            json.dump(record, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
