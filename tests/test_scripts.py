"""The demo scripts run to completion at small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["boundary_violation_demo.py", "--trials", "20", "--n", "50", "100"],
        ["bvalue_demo.py", "--n", "200"],
        ["tsirelson_demo.py", "--n", "200"],
    ],
    ids=lambda argv: argv[0],
)
def test_demo_script_exits_0(argv):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    script, *args = argv
    completed = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--seed", "1", *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout
