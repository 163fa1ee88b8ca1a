#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload W [--seeds 1,2,3] [--seconds S] [--trace 0|1]

For every metric: the median, the quartiles (statistics.quantiles, n=4) and
the interquartile distance as a share of the median, the figure the
benchmark's bounds are checked against. Extra environment (for example
QSNC_SERVE_MAX_DELAY_US=0) passes through to the runs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds.split(","):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", seed,
               "--seconds", str(seconds), "--trace", args.trace]
        out = subprocess.run(cmd, cwd=os.path.dirname(HERE), stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
        if out.returncode != 0:
            sys.exit("seed %s failed with exit code %d:\n%s"
                     % (seed, out.returncode, "\n".join(out.stderr.splitlines()[-5:])))
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print("seed %s: correct=%s failed=%s" % (seed, result["correct"], result["failed"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %s: %s" % (seed, " ".join("%s=%.4g" % (k, v["value"]) for k, v in result["metrics"].items())),
              flush=True)
    print("%-44s %12s %12s %12s %8s %6s" % ("metric", "median", "q1", "q3", "iqr/med", "bound"))
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print("%-44s %12.4f %12.4f %12.4f %8.3f %6s" % (name, med, q1, q3, share, bound if bound else "-"))


if __name__ == "__main__":
    main()
