"""Workload child: one single-threaded process per benchmark run, started by run.py.

Imports ``bellsim.cli`` first of all and reports the monotonic clock when the
import has finished, so run.py can time set-up from process start.  With
``--probe`` it stops there.  Otherwise it builds the workload's inputs
(untimed), runs rounds of calls through ``bellsim.cli.main`` until
``--seconds`` have passed and at least two rounds are done, and with
``--trace 1`` then installs the tracer and runs as many traced rounds.
The result goes to ``--result`` as JSON.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src")

_modules_before = len(sys.modules)
_import_start = time.perf_counter()
sys.path.insert(0, SOURCE)
import bellsim.cli  # noqa: E402  (set-up is timed up to the end of this import)

READY = time.clock_gettime(time.CLOCK_MONOTONIC)
IMPORT_S = time.perf_counter() - _import_start
IMPORTED_MODULES = len(sys.modules) - _modules_before

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = 2  # the output-digest check compares each round with the first
_RAISED = object()


def _digest(op: workloads.Op, outcome: Any) -> str:
    h = hashlib.sha256()
    if op.argv is None:
        h.update(repr(outcome).encode())
        return h.hexdigest()
    for path in sorted(op.out.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(op.out)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _output_bytes(op: workloads.Op) -> int:
    return sum(p.stat().st_size for p in op.out.rglob("*") if p.is_file())


def _invoke(op: workloads.Op) -> Any:
    if op.argv is None:
        return op.call()
    try:
        return bellsim.cli.main(op.argv)
    except SystemExit as exc:  # argparse rejects an argv with exit code 2
        return exc.code


class Runner:
    """Runs rounds of a workload's calls, timing each call and checking its outputs."""

    def __init__(self, ops: list[workloads.Op]) -> None:
        self.ops = ops
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)
        print(f"benchmark check failed: {message}", file=sys.stderr)

    def round(self, index: int, tracer: tracing.Tracer | None = None) -> tuple[float, dict[str, list[float]]]:
        """One pass over the ops; returns the summed call time and the call times per command.

        Times are in nominal seconds: each call's wall time is scaled by the
        reference computations timed just before and just after it.
        """
        total = 0.0
        times: dict[str, list[float]] = {}
        before = reference.reference_s()
        for op in self.ops:
            shutil.rmtree(op.out, ignore_errors=True)
            if tracer is not None:
                tracer.request = self.attempted
                tracer.round_of[self.attempted] = index
            self.attempted += 1
            start = time.perf_counter()
            try:
                outcome = _invoke(op)
            except Exception:  # the loop must go on; the failure is counted and shown
                traceback.print_exc()
                outcome = _RAISED
            elapsed = time.perf_counter() - start
            after = reference.reference_s()
            factor = reference.scale(before, after)
            before = after
            if tracer is not None:
                tracer.scale_of[tracer.request] = factor
            if outcome is _RAISED:
                self.fail(f"{op.label}: raised")
                continue
            total += elapsed * factor
            times.setdefault(op.command, []).append(elapsed * factor)
            try:
                problems = op.check(outcome, op.out)
            except (OSError, KeyError, ValueError, TypeError) as exc:
                problems = [f"output unreadable: {exc!r}"]
            digest = _digest(op, outcome)
            if self.digests.setdefault(op.label, digest) != digest:
                problems.append("outputs differ from the first round at the same seed")
            if problems:
                self.fail(f"{op.label}: {'; '.join(problems)}")
            if tracer is not None and op.argv is not None:
                tracer.add("cli.output_bytes", _output_bytes(op))
        return total, times

    def phase(self, seconds: float, tracer: tracing.Tracer | None = None) -> tuple[list[float], dict[str, list[float]]]:
        """Rounds until ``seconds`` have passed and at least MIN_ROUNDS are done.

        Returns each round's summed call time and, per command, each round's
        mean call time.
        """
        start = time.perf_counter()
        totals: list[float] = []
        means: dict[str, list[float]] = {}
        while len(totals) < MIN_ROUNDS or time.perf_counter() - start < seconds:
            total, round_times = self.round(len(totals), tracer)
            totals.append(total)
            for command, values in round_times.items():
                means.setdefault(command, []).append(statistics.fmean(values))
        return totals, means


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--probe", action="store_true", help="report the import time and exit")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(workloads.SCALES), default="full")
    parser.add_argument("--work", help="directory for inputs and outputs")
    parser.add_argument("--result", help="file the result JSON is written to")
    args = parser.parse_args()
    if not os.path.abspath(bellsim.cli.__file__).startswith(SOURCE + os.sep):
        print(f"bellsim was imported from {bellsim.cli.__file__}, not {SOURCE}", file=sys.stderr)
        return 2
    if args.probe:
        print(repr(READY))
        return 0

    work = Path(args.work)
    ops = workloads.WORKLOADS[args.workload](args.seed, workloads.SCALES[args.scale], work)
    runner = Runner(ops)
    totals, times = runner.phase(args.seconds)
    result: dict[str, Any] = {
        "rounds": len(totals),
        "total_s": statistics.median(totals),
        "command_s": {command: statistics.median(values) for command, values in times.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_totals, _ = runner.phase(args.seconds, tracer)
        finally:
            tracer.uninstall()
        layers, mismatched = tracing.layer_metrics(tracer.per_round())
        for message in mismatched:
            runner.fail(message)
        layers["import.bellsim_cli_s"] = IMPORT_S
        layers["import.modules"] = IMPORTED_MODULES
        layers["trace.overhead_s"] = statistics.median(traced_totals) - result["total_s"]
        result["per_layer"] = layers
        result["traced_rounds"] = len(traced_totals)
    result.update(attempted=runner.attempted, failed=runner.failed, problems=runner.problems)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
