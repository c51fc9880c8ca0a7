"""Every import in a package module is used, and every private module-level name is read.

So a deletion cannot leave a dead import or a dead private helper behind.
``__init__.py`` is exempt from the import check: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

import bellsim

PACKAGE = sorted(Path(bellsim.__file__).parent.glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]


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


def private_names(tree: ast.Module) -> set[str]:
    """Names with one leading underscore that a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def read_names(tree: ast.Module) -> set[str]:
    """Names a module reads: loaded names and attributes, and the names it imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_private_names(tree: ast.Module, package: list[ast.Module]) -> list[str]:
    """The module's private top-level names that no module of the package reads."""
    return sorted(private_names(tree) - set().union(*map(read_names, package)))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_private_name_is_read(path):
    package = [ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE]
    assert unread_private_names(package[PACKAGE.index(path)], package) == []


@pytest.mark.parametrize(
    ("sources", "unread"),
    [
        (["def _f(): ...\n"], ["_f"]),
        (["async def _f(): ...\nclass _C: ...\n"], ["_C", "_f"]),
        (["_X = 1\n_Y: int = 2\n_X = 3\n"], ["_X", "_Y"]),
        (["_X = 1\n", "obj._X = 2\n"], ["_X"]),
        (["def _f(): ...\n_f()\n"], []),
        (["_X = 1\ndef g():\n    return _X\n"], []),
        (["_X = 1\n", "from .a import _X\n"], []),
        (["_X = 1\n", "from . import a\na._X\n"], []),
        (["__all__ = []\nPUBLIC = 1\ndef f():\n    _local = 1\n"], []),
    ],
    ids=["function", "async-function-and-class", "assigned-only", "attribute-stored-only", "called",
         "read-in-function", "imported", "attribute-read", "dunder-public-and-local"],
)
def test_unread_private_names_cases(sources, unread):
    package = [ast.parse(source) for source in sources]
    assert unread_private_names(package[0], package) == unread
