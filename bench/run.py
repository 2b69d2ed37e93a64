"""homdual benchmark: one seeded workload, measured end to end or traced per layer.

    python3 bench/run.py --workload structures --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports homdual from its src/.
A closed loop, single process and single thread: one caller runs the
workload's jobs back to back, round after round, each round drawn afresh
from (workload, seed, round).  With --trace 0 the loop runs until the jobs
have used --seconds and the end-to-end metrics are reported; with --trace 1
a fixed number of rounds runs under span tracing and the per-layer metrics
are reported.  The last line of stdout is one JSON object.
"""

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# Rounds of the traced run: fixed, so every count repeats exactly for a seed.
TRACE_ROUNDS = {"structures": 20, "sequences": 32, "twisted_plane": 160}
SETUP_RUNS = 9
SETUP_ARGV = ["expand", "--op", "normal-order", "--word", "yx", "--q", "2"]


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "homdual", "__init__.py")):
        raise SystemExit("error: no homdual sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import homdual

    if not os.path.abspath(homdual.__file__).startswith(SRC + os.sep):
        raise SystemExit("error: homdual was imported from outside %s" % SRC)


def measure_setup(runs=SETUP_RUNS):
    """Median wall time of a fresh interpreter running one trivial CLI command."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [sys.executable, "-m", "homdual"] + SETUP_ARGV
    times = []
    for attempt in range(runs + 1):  # the first run only compiles bytecode
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60)
        elapsed = time.perf_counter() - start
        report = json.loads(done.stdout)
        if done.returncode != 0 or report["result"]["poly"] != "2*x*y":
            raise RuntimeError("set-up command failed: %r" % done.stderr[-300:])
        if attempt:
            times.append(elapsed)
    return statistics.median(times)


def tail(latencies):
    """(value, percentile) at the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(n - 11, 0)
    return ordered[index], 100.0 * (index + 1) / n


def run_workload(workload, seed, seconds, trace, size="full", rounds=None):
    """Run rounds of one workload; returns (jobs, busy seconds, rounds, tracer or None).

    Untraced, rounds run until the jobs have used `seconds`; traced, exactly
    `rounds` (default TRACE_ROUNDS) run.  size picks a row of workloads.SIZES.
    """
    from harness import run_round
    from tracing import Tracer
    from workloads import SIZES, WORKLOADS, WorkDir

    generate = WORKLOADS[workload]
    if rounds is None and trace:
        rounds = TRACE_ROUNDS[workload]
    tracer = Tracer() if trace else None
    workdir = os.path.join(BENCH_DIR, ".work", "%s-%d-%d" % (workload, seed, os.getpid()))
    work = WorkDir(workdir)
    here = os.getcwd()
    os.chdir(workdir)  # documents are named relative to it, so reports do not depend on paths
    done = []
    busy = 0.0
    try:
        if tracer:
            tracer.install()
        number = 0
        while (number < rounds) if rounds is not None else (busy < seconds or not done):
            rng = random.Random("%s:%d:%d" % (workload, seed, number))
            jobs = generate(rng, SIZES[size], work, seed + number)
            busy += run_round(jobs, tracer)
            work.clear()
            done.extend(jobs)
            number += 1
    finally:
        if tracer:
            tracer.uninstall()
        os.chdir(here)
        shutil.rmtree(workdir, ignore_errors=True)
    return done, busy, number, tracer


def summarize(done, busy, number, tracer, setup_s):
    """Human-readable lines and the result object for one run."""
    failed = [job for job in done if not job.ok]
    correct = all(job.known for job in failed)
    ok = len(done) - len(failed)
    latencies = [job.seconds * 1000.0 for job in done]
    tail_ms, tail_pct = tail(latencies)
    lines = ["rounds %d, jobs %d, failed %d (%d known big-output), busy %.3f s"
             % (number, len(done), len(failed), sum(job.known for job in failed), busy),
             "job_ms_tail is p%.2f of %d jobs, with %d beyond it"
             % (tail_pct, len(latencies), min(10, len(latencies) - 1))]
    kinds = {}
    for job in done:
        entry = kinds.setdefault(job.kind, [0, 0, 0.0])
        entry[0] += 1
        entry[1] += not job.ok
        entry[2] += job.seconds
    for kind, (count, bad, spent) in sorted(kinds.items()):
        lines.append("  %-34s %5d jobs %4d failed %9.3f s" % (kind, count, bad, spent))
    for job in failed:
        if not job.known:
            lines.append("  FAILED %s: %s" % (job.kind, job.error))
    if tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "jobs_per_s": {"value": ok / busy, "unit": "1/s"},
            "job_ms_p50": {"value": statistics.median(latencies), "unit": "ms"},
            "job_ms_tail": {"value": tail_ms, "unit": "ms"},
            "ok_ratio": {"value": ok / len(done), "unit": "ratio"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    else:
        metrics = tracer.metrics()
        lines.append("traced jobs_per_s %.6f" % (ok / busy))
    result = {"correct": correct, "attempted": len(done), "failed": len(failed),
              "metrics": metrics}
    return lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(
        ("structures", "sequences", "twisted_plane")))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    sys.path.insert(0, BENCH_DIR)
    setup_s = None if args.trace else measure_setup()
    done, busy, number, tracer = run_workload(args.workload, args.seed, args.seconds, args.trace)
    lines, result = summarize(done, busy, number, tracer, setup_s)
    if tracer is not None:
        out = os.path.join(BENCH_DIR, ".out")
        os.makedirs(out, exist_ok=True)
        tracer.write(os.path.join(out, "spans-%s-%d.jsonl.gz" % (args.workload, args.seed)))
    print("\n".join(lines))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
