"""The golden digests hold on the generic OpenBLAS kernel with numpy's dispatched SIMD loops switched off.

OpenBLAS picks a kernel per CPU at load time, and numpy picks its SIMD loops
the same way, so a sum whose order either of them chooses can round
differently on another host.  A fresh interpreter runs both golden test
files with ``OPENBLAS_CORETYPE=Prescott`` (OpenBLAS's generic x86-64 kernel)
and ``NPY_DISABLE_CPU_FEATURES`` naming numpy's dispatched features.  Only
the child gets these variables: both libraries read them once, when loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import bellsim

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__  # numpy 2
except ImportError:
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__  # numpy 1.24

TESTS = Path(__file__).resolve().parent
GOLDEN = [str(TESTS / "test_cli_golden.py"), str(TESTS / "test_cli_golden_feasibility.py")]


def test_golden_digests_hold_on_generic_kernels(tmp_path):
    # numpy may warn on a dispatched feature this CPU lacks; disabling it would change nothing anyway
    disabled = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    env = {
        **os.environ,
        "OPENBLAS_CORETYPE": "Prescott",
        "NPY_DISABLE_CPU_FEATURES": " ".join(disabled),
        "PYTHONPATH": os.path.dirname(bellsim.__path__[0]),
    }
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *GOLDEN],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert " passed" in done.stdout, done.stdout
