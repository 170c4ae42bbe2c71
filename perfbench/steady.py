#!/usr/bin/env python3
"""Steadiness tool: runs every workload N times per side and reports how
much each end-to-end metric spreads.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--other PATH]

Run from the root of a checkout. Two sides are measured, alternating
which runs first in each round:

  * without --other, "one build twice": set A and set B both run this
    checkout, each run with its own seed (A: 1000+i, B: 1000+runs+i);
  * with --other PATH, a parent/change pair: A runs this checkout, B runs
    the checkout at PATH, both with seed 1000+i in round i.

Every run lasts BENCHMARK.json's run_seconds.

For each side, workload and metric it prints the median, the quartiles
(statistics.quantiles(n=4)), the quartile spread as a share of the
median, and the min-max spread. It flags a quartile spread above the
metric's bound in BENCHMARK.json and a median of B worse than A's by more
than the bound; "~" marks a spread above a third of the bound. Raw
results go to .bench_out/steady-<time>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SEED_BASE = 1000


def run_once(root, workload, seed, seconds, trace="0"):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", trace]
    t0 = time.time()
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return {"workload": workload, "seed": seed, "exit": done.returncode,
            "wall_s": time.time() - t0, "result": result}


def summarize(values):
    values = sorted(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else float("inf"),
            "min": values[0], "max": values[-1],
            "range_share": (values[-1] - values[0]) / median
            if median else float("inf")}


def worse_by(metric, a_median, b_median):
    """Share by which B's median is worse than A's (negative = better)."""
    if not a_median:
        return 0.0
    delta = (b_median - a_median) / a_median
    return delta if metric["better"] == "lower" else -delta


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--other", default="")
    args = parser.parse_args()

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]
    other = os.path.abspath(args.other) if args.other else root
    sides = ["A", "B"]

    runs = []
    for i in range(args.runs):
        order = sides if i % 2 == 0 else list(reversed(sides))
        for workload in workloads:
            for side in order:
                if args.other:
                    seed = SEED_BASE + i
                else:
                    seed = SEED_BASE + i + (args.runs if side == "B" else 0)
                r = run_once(root if side == "A" else other, workload, seed,
                             seconds)
                r["side"] = side
                runs.append(r)
                res = r["result"] or {}
                print("round %d side %s %-14s seed %d: exit %d, correct %s, "
                      "%.0f s" % (i, side, workload, seed, r["exit"],
                                  res.get("correct"), r["wall_s"]),
                      flush=True)

    os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
    raw = os.path.join(root, ".bench_out",
                       "steady-%d.json" % int(time.time()))
    with open(raw, "w") as f:
        json.dump(runs, f, indent=1)

    flagged = 0
    print("\n%-14s %-22s %4s %12s %12s %12s %7s %7s %6s" %
          ("workload", "metric", "side", "median", "q1", "q3", "iqr%",
           "range%", "bound"))
    for workload in workloads:
        for metric in metrics:
            name = metric["name"]
            medians = {}
            for side in sides:
                values = [r["result"]["metrics"][name]["value"]
                          for r in runs
                          if r["workload"] == workload and r["side"] == side
                          and r["result"] and name in r["result"]["metrics"]]
                if not values:
                    continue
                s = summarize(values)
                medians[side] = s["median"]
                flag = ""
                if s["iqr_share"] > metric["bound"]:
                    flag = "  SPREAD > BOUND"
                    flagged += 1
                elif s["iqr_share"] > metric["bound"] / 3:
                    flag = "  ~"
                print("%-14s %-22s %4s %12.4g %12.4g %12.4g %6.1f%% %6.1f%% "
                      "%5.0f%%%s" % (workload, name, side, s["median"],
                                     s["q1"], s["q3"], 100 * s["iqr_share"],
                                     100 * s["range_share"],
                                     100 * metric["bound"], flag))
            if len(medians) == 2:
                shift = worse_by(metric, medians["A"], medians["B"])
                if shift > metric["bound"]:
                    flagged += 1
                    print("%-14s %-22s  B median worse than A by %.1f%% > "
                          "bound" % (workload, name, 100 * shift))
    bad = [r for r in runs if not r["result"] or not r["result"]["correct"]]
    print("\n%d runs, %d incorrect or without a result, %d flags; raw: %s" %
          (len(runs), len(bad), flagged, raw))
    return 1 if flagged or bad else 0


if __name__ == "__main__":
    sys.exit(main())
