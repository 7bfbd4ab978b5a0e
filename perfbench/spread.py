#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py [--workloads lookup,scan,live] [--seeds 1-10]
                                [--seconds S] [--trace 0]

For every workload it runs `bash perfbench/run.sh` once per seed and
prints, per metric, the median and the interquartile range as a share
of the median (statistics.quantiles(values, n=4)), next to the bound
BENCHMARK.json fixes for it.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="lookup,scan,live")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", help="window length (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or str(bench["run_seconds"])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    for w in args.workloads.split(","):
        values = {}
        for seed in seeds(args.seeds):
            out = subprocess.run(
                ["bash", "perfbench/run.sh", "--workload", w, "--seed", str(seed),
                 "--seconds", seconds, "--trace", args.trace],
                capture_output=True, text=True)
            if out.returncode != 0:
                print(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
                continue
            res = json.loads(out.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']}", file=sys.stderr)
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        print(f"== {w}")
        for k in sorted(values):
            vs = values[k]
            med = statistics.median(vs)
            spread = float("nan")
            if len(vs) >= 2 and med:
                q = statistics.quantiles(vs, n=4)
                spread = (q[2] - q[0]) / abs(med)
            print(f"  {k:32s} n={len(vs):2d} median={med:12.4f} spread={spread:6.3f} bound={bounds.get(k)}")
            print("      " + " ".join(f"{x:.4g}" for x in vs))
        sys.stdout.flush()


if __name__ == "__main__":
    main()
