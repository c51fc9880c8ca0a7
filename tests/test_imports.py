"""Every import in a package module is used, so a deletion cannot leave a dead import behind.

``__init__.py`` is exempt: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

import bellsim

SOURCES = sorted(p for p in Path(bellsim.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module binds by import but never reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in read)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_finds_an_unused_import():
    tree = ast.parse("import math\nfrom typing import Any, Mapping\nx: Any = math.pi\n")
    assert unused_imports(tree) == ["Mapping"]


@pytest.mark.parametrize(
    ("source", "unused"),
    [
        ("import math\n", ["math"]),
        ("import os.path\n", ["os"]),
        ("import numpy as np\nimport numpy\nnumpy.pi\n", ["np"]),
        ("from typing import Any as A, Mapping as M\nx: A = 1\n", ["M"]),
        ("from . import core\n", ["core"]),
        ("import os.path\nos.path.join('a')\n", []),
        ("from typing import Any\ndef f(x: Any) -> None: ...\n", []),
        ("from functools import cache\n@cache\ndef f(): ...\n", []),
        ("from __future__ import annotations\n", []),
    ],
    ids=["plain", "dotted", "alias", "from-alias", "relative", "used-dotted", "used-in-annotation",
         "used-as-decorator", "future"],
)
def test_unused_imports_cases(source, unused):
    assert unused_imports(ast.parse(source)) == unused
