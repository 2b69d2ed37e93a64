"""Jobs, the closed loop that runs them, and the checks every job shares.

A job is one thing a user does: one CLI subcommand through
homdual.cli.dispatch on generated documents, or one public library call.
Jobs run back to back in a single thread.  Only the call itself is timed;
documents are written before it and the oracle runs after the whole round,
with tracing paused, so neither counts as the program's work.
"""

import contextlib
import io
import json
import sys
import time
import types
from fractions import Fraction

# Exact outputs may exceed CPython's int->str digit limit; oracles lift the
# limit while they parse, the program runs under the interpreter default.
_DEFAULT_DIGITS = sys.get_int_max_str_digits()


class Job:
    """One timed call plus the oracle for its output.

    call(prepared) runs inside the timed region; prepare() (optional) runs
    just before it, untimed, and may read outputs of earlier jobs.  check
    receives the output and returns None when it is right, else a reason.
    big_output marks jobs whose exact answer is longer than the int->str
    digit limit; a ValueError from them is a known failure, not a wrong one.
    """

    __slots__ = ("kind", "call", "check", "prepare", "big_output", "output",
                 "exc", "seconds", "error", "known")

    def __init__(self, kind, call, check, prepare=None, big_output=False):
        self.kind = kind
        self.call = call
        self.check = check
        self.prepare = prepare
        self.big_output = big_output
        self.output = None
        self.exc = None
        self.seconds = 0.0
        self.error = None
        self.known = False

    @property
    def ok(self):
        return self.error is None


class CliResult:
    __slots__ = ("code", "stdout", "stderr")

    def __init__(self, code, stdout, stderr):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr


def run_cli(argv):
    from homdual import cli  # attribute looked up per call, so tracing sees it

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


_STATUS = {0: "pass", 1: "fail", 2: "error"}


def cli_job(kind, argv, expect_code, check_report, prepare=None, big_output=False):
    """Job for one CLI subcommand: exit code, one canonical JSON report, then check_report."""

    def check(result):
        if result.code != expect_code:
            return "exit code %r, expected %d (%s)" % (result.code, expect_code, result.stderr.strip()[:200])
        try:
            report = json.loads(result.stdout)
        except ValueError:
            return "stdout is not exactly one JSON document"
        if json.dumps(report, sort_keys=True, indent=2) + "\n" != result.stdout:
            return "stdout is not the canonical rendering of its JSON document"
        if find_float(report):
            return "float in report"
        if report.get("status") != _STATUS[expect_code]:
            return "status %r does not match exit code %d" % (report.get("status"), expect_code)
        return check_report(report)

    return Job(kind, lambda _prepared: run_cli(argv), check, prepare, big_output)


def lib_job(kind, call, check):
    """Job for one public library call; check sees the returned object."""

    def full_check(output):
        if find_float(output):
            return "float in returned object"
        return check(output)

    return Job(kind, call, full_check)


_ATOMS = (int, Fraction, str, bytes, bool, type(None))
_SKIP = (types.FunctionType, types.MethodType, types.BuiltinFunctionType, type, types.ModuleType)


def find_float(obj):
    """True when a float sits anywhere inside obj (containers and object attributes)."""
    stack = [obj]
    seen = set()
    while stack:
        item = stack.pop()
        if isinstance(item, float):
            return True
        if isinstance(item, _ATOMS) or isinstance(item, _SKIP):
            continue
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, dict):
            stack.extend(item.keys())
            stack.extend(item.values())
        elif isinstance(item, (list, tuple, set, frozenset)):
            stack.extend(item)
        else:
            if hasattr(item, "__dict__"):
                stack.extend(vars(item).values())
            for klass in type(item).__mro__:
                for slot in getattr(klass, "__slots__", ()):
                    if hasattr(item, slot):
                        stack.append(getattr(item, slot))
    return False


@contextlib.contextmanager
def unlimited_digits():
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(_DEFAULT_DIGITS)


def _is_digit_limit(exc):
    return isinstance(exc, ValueError) and "integer string conversion" in str(exc)


def run_round(jobs, tracer=None):
    """Run jobs back to back, then check them; returns the summed job time."""
    busy = 0.0
    for job in jobs:
        try:
            prepared = job.prepare() if job.prepare else None
        except Exception as exc:  # an input it depends on is missing
            job.error = "cannot prepare input: %s: %s" % (type(exc).__name__, exc)
            continue
        if tracer is not None:
            tracer.begin_job()
        start = time.perf_counter()
        try:
            job.output = job.call(prepared)
        except Exception as exc:  # recorded; judged below
            job.exc = exc
        job.seconds = time.perf_counter() - start
        busy += job.seconds
        if tracer is not None:
            tracer.end_job()
            if isinstance(job.output, CliResult):
                tracer.add("cli.report_bytes", len(job.output.stdout.encode("utf-8")))
    with unlimited_digits():
        for job in jobs:
            if job.error is not None:
                continue
            if job.exc is not None:
                job.known = job.big_output and _is_digit_limit(job.exc)
                job.error = "%s: %s" % (type(job.exc).__name__, str(job.exc)[:200])
                continue
            try:
                job.error = job.check(job.output)
            except Exception as exc:  # a malformed output can break the oracle
                job.error = "oracle raised %s: %s" % (type(exc).__name__, exc)
    for job in jobs:  # keep only the outcome, so memory does not grow with the rounds
        job.output = job.exc = job.call = job.check = job.prepare = None
    return busy
