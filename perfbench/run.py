#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload compute --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The metric names, units and workloads
are defined in the checkout's ``BENCHMARK.json``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  Everything the run writes goes
to a scratch directory inside the checkout that is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def load_definition() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    definition = load_definition()
    workloads = [w["name"] for w in definition["workloads"]]
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads)}")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import suite

    workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(workdir)
    tempfile.tempdir = workdir
    try:
        run = suite.execute(suite.SPECS[args.workload], args.seed,
                            args.seconds, bool(args.trace), workdir)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass   # another run is still using it

    wanted = definition["per_layer" if args.trace else "end_to_end"]
    produced = run.layers if args.trace else run.metrics
    names = {metric["name"] for metric in wanted}
    if set(produced) != names:
        print(f"perfbench: metrics produced and defined differ: "
              f"missing {sorted(names - set(produced))}, "
              f"undefined {sorted(set(produced) - names)}", file=sys.stderr)
        return 3

    for note in run.notes:
        print(note)
    for error in run.ops.errors[:20]:
        print(f"FAILED: {error}")
    metrics = {metric["name"]: {"value": produced[metric["name"]],
                                "unit": metric["unit"]}
               for metric in wanted}
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:>14.6g} {metric['unit']}")
    if not args.trace:
        # the layer figures this run has without tracing: raw host values
        # next to the calibrated ones, per-job times, campaign counts
        units = {metric["name"]: metric["unit"]
                 for metric in definition["per_layer"]}
        for name, value in sorted(run.layers.items()):
            print(f"{name:34s} {value:>14.6g} {units[name]}")
    print(f"operations attempted {run.ops.attempted}, "
          f"failed {run.ops.failed}")
    print(json.dumps({"correct": run.ops.failed == 0,
                      "attempted": run.ops.attempted,
                      "failed": run.ops.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
