"""bellsim benchmark: drives the real CLI in process, one single-threaded child per run.

    python3 benchmarks/run.py --workload bundle-files --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --list-metrics

Run from the repository root.  With ``--trace 0`` the last line of standard
output is a JSON object holding every end-to-end metric of BENCHMARK.json;
with ``--trace 1`` it holds every per-layer metric instead.  A human-readable
copy goes to standard error.  The run exits non-zero, printing no result, if
the program cannot be imported or a child fails.  See README.md beside this
file for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any

import reference

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD = os.path.join(BENCH, "child.py")
SETUP_PROBES = 4  # import-only processes timed for setup_s, before and again after the workload
DEADLINE_S = 175.0  # a run must end within 180 s

# What each per-layer metric should move, and on which workload, matched by
# the longest name prefix.  Printed by --list-metrics; README.md has the table.
LAYER_EFFECTS = {
    "import.": ("setup_s", "all three; simulate_lhv_s on small-sweep if scipy.integrate is deferred"),
    "rng.": ("violation_curve_s", "violation-study (no change on bundle-files)"),
    "core.": ("violation_curve_s; feasibility_s", "violation-study; bundle-files"),
    "lhv.sample_": ("violation_curve_s", "violation-study"),
    "lhv.": ("simulate_lhv_s, weak_bvalues_s", "small-sweep"),
    "quantum.optimize_angles": ("simulate_quantum_s, total_s", "small-sweep"),
    "quantum.": ("violation_curve_s; simulate_quantum_s", "violation-study; small-sweep"),
    "behaviors.": ("feasibility_s", "bundle-files"),
    "stats.": ("violation_curve_s; simulate_lhv_s", "violation-study; bundle-files"),
    "feasibility.": ("feasibility_s", "small-sweep (no change on bundle-files, where the read dominates)"),
    "simplex.": ("feasibility_s", "small-sweep (no change on bundle-files, where the read dominates)"),
    "weak.": ("weak_bvalues_s", "bundle-files; small-sweep"),
    "fileio.": ("simulate_lhv_s, feasibility_s, peak_rss_mb", "bundle-files (no change on violation-study)"),
    "cli.": ("weak_bvalues_s, violation_curve_s", "bundle-files; small-sweep"),
    "trace.": ("none", "all"),
}


def load_spec() -> dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def layer_effect(name: str) -> tuple[str, str]:
    prefix = max((p for p in LAYER_EFFECTS if name.startswith(p)), key=len)
    return LAYER_EFFECTS[prefix]


def list_metrics(spec: dict[str, Any]) -> None:
    for metric in spec["end_to_end"]:
        print(f"{metric['name']}\t{metric['unit']}\tend-to-end\tbound {metric['bound']}")
    for metric in spec["per_layer"]:
        moves, on = layer_effect(metric["name"])
        print(f"{metric['name']}\t{metric['unit']}\tper-layer\tmoves {moves}\ton {on}")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONDONTWRITEBYTECODE="1",  # same import cost in every run; nothing written to src/
    )
    return env


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_child(argv: list[str], deadline: float, **kwargs: Any) -> tuple[float, subprocess.CompletedProcess]:
    """Start a child and wait for it; returns its start time on the monotonic clock."""
    started = clock()
    done = subprocess.run(argv, env=child_env(), timeout=max(1.0, deadline - clock()), **kwargs)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[:4])} ... exited with code {done.returncode}")
    return started, done


def scipy_integrate_s(importtime_log: str) -> float:
    """Import time of scipy.integrate from ``-X importtime`` lines; 0 if it was never imported.

    scipy loads ``scipy.integrate`` itself through importlib, which the log
    does not list, so this sums the cumulative times of the outermost logged
    ``scipy.integrate.*`` modules.  The log is in post-order (children before
    their parent), so it is read backwards with a stack of open ancestors.
    """
    total_us = 0
    ancestors: list[tuple[int, bool]] = []  # (indent, inside scipy.integrate)
    for line in reversed(importtime_log.splitlines()):
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, field = line.split("|")
        name = field.strip()
        indent = len(field) - len(field.lstrip())
        while ancestors and ancestors[-1][0] >= indent:
            ancestors.pop()
        inside = bool(ancestors) and ancestors[-1][1]
        family = name == "scipy.integrate" or name.startswith("scipy.integrate.")
        if family and not inside:
            total_us += int(cumulative)
        ancestors.append((indent, inside or family))
    return total_us / 1e6


def measure(args: argparse.Namespace, work: str, deadline: float) -> dict[str, Any]:
    """Run the workload child, and without tracing set-up probes before and after it."""
    python = [sys.executable]
    setups: list[float] = []

    def probe_setups() -> None:
        for _ in range(SETUP_PROBES):
            before = reference.reference_s()
            started, done = run_child([*python, CHILD, "--probe"], deadline, stdout=subprocess.PIPE, text=True)
            after = reference.reference_s()
            setups.append((float(done.stdout) - started) * reference.scale(before, after))

    result_path = os.path.join(work, "result.json")
    argv = [
        CHILD, "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--scale", args.scale, "--work", work, "--result", result_path,
    ]
    if args.trace:
        log_path = os.path.join(work, "importtime.log")
        with open(log_path, "w") as log:
            run_child([*python, "-X", "importtime", *argv], deadline, stdout=sys.stderr, stderr=log)
        with open(log_path) as log:
            text = log.read()
        sys.stderr.write("".join(ln + "\n" for ln in text.splitlines() if not ln.startswith("import time:")))
    else:
        reference.reference_s()  # the first call pays one-off costs
        probe_setups()  # the machine's speed drifts: probing on both sides of the run averages it
        run_child([*python, *argv], deadline, stdout=sys.stderr)
        probe_setups()
    with open(result_path) as f:
        result = json.load(f)
    if args.trace:
        result["per_layer"]["import.scipy_integrate_s"] = scipy_integrate_s(text)
    else:
        result["setup_s"] = statistics.median(setups)
    return result


def metrics_of(result: dict[str, Any], spec: dict[str, Any], trace: bool) -> dict[str, dict[str, Any]]:
    if trace:
        return {
            m["name"]: {"value": result["per_layer"].get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    values = {
        "setup_s": result["setup_s"],
        "total_s": result["total_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    for command, seconds in result["command_s"].items():
        values[command.replace("-", "_") + "_s"] = seconds
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the benchmark's self-test")
    parser.add_argument("--list-metrics", action="store_true", help="print every metric with its unit")
    args = parser.parse_args()
    deadline = clock() + DEADLINE_S
    spec = load_spec()
    if args.list_metrics:
        list_metrics(spec)
        return 0
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"--workload must be one of {[w['name'] for w in spec['workloads']]}")
    if not os.path.isfile(os.path.join(ROOT, "src", "bellsim", "cli.py")):
        print("bellsim benchmark: src/bellsim is missing; run from a full checkout", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        result = measure(args, work, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as exc:
        print(f"bellsim benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run's directory is still there

    metrics = metrics_of(result, spec, bool(args.trace))
    for name, metric in metrics.items():
        print(f"{name:45s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    for problem in result["problems"]:
        print(f"failed check: {problem}", file=sys.stderr)
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
