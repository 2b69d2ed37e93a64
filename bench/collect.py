"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 bench/collect.py --seeds 1-10 --seconds 20 [--workloads a,b] [--trace]

Runs bench/run.py once per (workload, seed), one run at a time, and prints
per metric the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median.  With --trace it also makes one traced run per
seed and reports the tracing overhead on jobs_per_s.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError("run failed: %s" % done.stderr[-500:])
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    traced = [line for line in lines if line.startswith("traced jobs_per_s")]
    return result, float(traced[0].split()[-1]) if traced else None


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--workloads", default="structures,sequences,twisted_plane")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    out = {}
    for workload in args.workloads.split(","):
        metrics = {}
        overhead = []
        for seed in seeds_of(args.seeds):
            result, _ = run_once(workload, seed, args.seconds, 0)
            if not result["correct"]:
                print("incorrect result: %s seed %d" % (workload, seed), file=sys.stderr)
            for name, metric in result["metrics"].items():
                metrics.setdefault(name, []).append(metric["value"])
            if args.trace:
                traced, traced_rate = run_once(workload, seed, args.seconds, 1)
                untraced = result["metrics"]["jobs_per_s"]["value"]
                overhead.append((untraced - traced_rate) / untraced)
            print("%s seed %d: %s" % (workload, seed, json.dumps(
                {k: round(v["value"], 5) for k, v in result["metrics"].items()})), file=sys.stderr)
        out[workload] = {name: summary(values) for name, values in metrics.items()}
        if overhead:
            out[workload]["tracing_overhead_share"] = summary(overhead)
    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
