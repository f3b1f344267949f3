#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, calibrated and raw.

    python3 perfbench/spread.py --runs 10 --seconds 15 [--workloads compute]

Runs ``run.py`` once per seed (``--first-seed`` onwards) for each
workload, one run at a time, then prints for every end-to-end metric
the median and the interquartile range as a share of the median
(``statistics.quantiles(values, n=4)``), for the calibrated value that
the benchmark reports and for the raw host value beside it, and whether
the calibrated spread is below a third of the metric's bound.  With
``--traced`` it also makes one ``--trace 1`` run per workload and
prints its ``trace.overhead``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    raw = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and parts[0].startswith("raw."):
            raw[parts[0][4:]] = float(parts[1])
    return result, raw


def spread(values):
    q1, __, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        definition = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"]
                                         for w in definition["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=definition["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    steady = True
    for workload in args.workloads.split(","):
        calibrated, raw = {}, {}
        failed = attempted = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, raws = run_once(workload, seed, args.seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                calibrated.setdefault(name, []).append(metric["value"])
            for name, value in raws.items():
                raw.setdefault(name, []).append(value)
        print(f"\n{workload}: {args.runs} runs x {args.seconds:g} s, "
              f"operations {attempted} attempted, {failed} failed")
        print(f"  {'metric':22s} {'median':>11s} {'IQR/med':>8s} "
              f"{'raw median':>11s} {'raw IQR/med':>11s} {'bound':>6s}")
        for metric in definition["end_to_end"]:
            name = metric["name"]
            median, share = spread(calibrated[name])
            raw_median, raw_share = spread(raw[name])
            ok = share < metric["bound"] / 3 or name == "setup_s"
            steady &= ok
            print(f"  {name:22s} {median:11.5g} {share:8.3f} "
                  f"{raw_median:11.5g} {raw_share:11.3f} "
                  f"{metric['bound']:6.2f}{'' if ok else '  WIDE'}")
        if args.traced:
            result, __ = run_once(workload, args.first_seed, args.seconds, 1)
            overhead = result["metrics"]["trace.overhead"]["value"]
            print(f"  trace.overhead {overhead:.3f}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
