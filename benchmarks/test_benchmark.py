"""Tiny-scale self-test of the benchmark.

    python3 -m pytest benchmarks/test_benchmark.py -q

Runs every workload at ``--scale tiny`` and checks that each metric named in
BENCHMARK.json is emitted with its unit, that every check passes, that the
traced counts repeat exactly across runs of one seed, and that the
benchmark fails without printing a result when the program is absent.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
COUNT_UNITS = {"count", "bytes"}


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=180
    )


def result(workload: str, trace: int, seed: int = 3) -> dict:
    done = run("--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, done.stderr
    return line["metrics"]


def test_spec_names_are_valid_and_unique() -> None:
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in SPEC[key]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted(workload: str) -> None:
    metrics = result(workload, trace=0)
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_layer_metric_is_emitted_and_counts_repeat(workload: str) -> None:
    first, second = result(workload, trace=1), result(workload, trace=1)
    assert list(first) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert first[m["name"]]["unit"] == m["unit"]
        if m["unit"] in COUNT_UNITS:
            assert first[m["name"]]["value"] == second[m["name"]]["value"], m["name"]
    assert first["cli.calls"]["value"] > 0


def test_scipy_integrate_time_sums_its_outermost_logged_modules() -> None:
    sys.path.insert(0, str(BENCH))
    from run import scipy_integrate_s

    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy.integrate._quadpack",
        "import time:        20 |         30 |     scipy.integrate._quadrature",
        "import time:         5 |          5 |     scipy.integrate._odepack",
        "import time:       100 |        200 |   bellsim.lhv",
        "import time:         7 |          7 | json",
    ])
    assert scipy_integrate_s(log) == pytest.approx(35e-6)
    assert scipy_integrate_s("import time:  7 |  7 | json") == 0.0


def test_list_metrics_prints_every_metric_with_its_unit() -> None:
    done = run("--list-metrics")
    assert done.returncode == 0
    listed = [line.split("\t")[:2] for line in done.stdout.splitlines()]
    assert listed == [[m["name"], m["unit"]] for key in ("end_to_end", "per_layer") for m in SPEC[key]]


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    done = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
