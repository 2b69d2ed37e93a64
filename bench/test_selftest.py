"""Self-test of the benchmark at a tiny size.

    python3 -m pytest -q bench/test_selftest.py

Each workload runs twice under tracing; every per-layer count must repeat
exactly and every oracle must pass, apart from the known big-output jobs.
"""

import os
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import run  # noqa: E402
from harness import find_float  # noqa: E402
from tracing import METRICS  # noqa: E402

WORKLOADS = ("structures", "sequences", "twisted_plane")
COUNTS = [name for name, unit in METRICS if unit != "s"]


def _traced(workload):
    done, busy, number, tracer = run.run_workload(workload, 7, 0, 1, size="tiny", rounds=2)
    return done, tracer.metrics()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_and_oracles_pass(workload):
    first_jobs, first = _traced(workload)
    second_jobs, second = _traced(workload)
    assert {n: first[n]["value"] for n in COUNTS} == {n: second[n]["value"] for n in COUNTS}
    for jobs in (first_jobs, second_jobs):
        wrong = [(job.kind, job.error) for job in jobs if not job.ok and not job.known]
        assert wrong == []
        known = [job for job in jobs if job.known]
        assert all(job.kind == "expand-normal-order-big" for job in known)
        if workload == "twisted_plane":
            assert len(known) == 2  # one big-output job per round, failing today


def test_layers_are_traced_where_expected():
    _, structures = _traced("structures")
    _, sequences = _traced("sequences")
    assert structures["homalg_core.verify.calls"]["value"] > 0
    assert structures["exact_math.rref.calls"]["value"] == 0
    assert sequences["exact_math.rref.calls"]["value"] > 0
    assert sequences["homalg_core.verify.calls"]["value"] == 0


def test_untraced_run_reports_end_to_end_metrics():
    done, busy, number, tracer = run.run_workload("sequences", 3, 0, 0, size="tiny", rounds=1)
    lines, result = run.summarize(done, busy, number, tracer, 0.1)
    assert set(result["metrics"]) == {"setup_s", "jobs_per_s", "job_ms_p50", "job_ms_tail",
                                      "ok_ratio", "peak_rss_mb"}
    assert result["correct"] and result["failed"] == 0


def test_float_guard():
    class Box:
        __slots__ = ("value",)

        def __init__(self, value):
            self.value = value

    assert not find_float({"a": [Fraction(1, 3), (2, "x")], "b": Box(Fraction(1))})
    assert find_float({"a": [Box((1, 0.5))]})


def test_tail_has_ten_samples_beyond():
    value, percentile = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and percentile == 90.0
