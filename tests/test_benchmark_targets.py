"""Every function the traced benchmark wraps still exists under its name.

``benchmarks/tracing.py`` looks each target up with ``sys.modules`` and
``getattr`` only when a ``--trace 1`` run starts, so a refactor that drops or
renames a traced function would otherwise fail only there.  The module is
loaded by path and only read.
"""

import importlib.util
import sys
from pathlib import Path

import bellsim.cli  # noqa: F401  (loads every module the targets name)

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bellsim_benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_traced_target_resolves():
    targets = load_targets()
    assert targets
    for name, module, attribute, _ in targets:
        owner = sys.modules[module]
        for part in attribute.split("."):
            owner = getattr(owner, part)
        assert callable(owner), name
