"""Every import in a package module is used, and every private or constant module-level name is read.

So a deletion cannot leave a dead import, a dead private helper or a dead
constant behind.  A constant (an UPPER_CASE name) listed in ``__all__`` is
public and exempt; reads in tests do not count.  ``__init__.py`` is exempt
from the import check: its imports are the package's re-exports.  And
``import bellsim.cli`` loads no ``numpy`` module that ``import numpy`` does not.

Every dataclass field is read as well: its name is loaded as an attribute, or
its class is named in a ``fields(...)`` call.
"""

import ast
import os
import subprocess
import sys
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


def bound_names(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level: functions, classes and assignment targets."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            nodes = [n for t in targets for n in ast.walk(t)]
            names.update(n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return names


def private_names(tree: ast.Module) -> set[str]:
    """Names with one leading underscore that a module binds at its top level."""
    return {name for name in bound_names(tree) if name.startswith("_") and not name.startswith("__")}


def constant_names(tree: ast.Module) -> set[str]:
    """UPPER_CASE names that a module binds at its top level and does not list in ``__all__``."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return {name for name in bound_names(tree) if name.isupper() and name not in exported}


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


def unread_constants(tree: ast.Module, package: list[ast.Module]) -> list[str]:
    """The module's UPPER_CASE top-level names outside ``__all__`` that no module of the package reads.

    A constant only tests read is a setting nothing uses: reads outside the package do not count.
    """
    return sorted(constant_names(tree) - set().union(*map(read_names, package)))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_constant_is_read(path):
    package = [ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE]
    assert unread_constants(package[PACKAGE.index(path)], package) == []


@pytest.mark.parametrize(
    ("sources", "unread"),
    [
        (["ROWS = 8192\n"], ["ROWS"]),
        (["LOW, HIGH = 1, 2\nx = LOW\n"], ["HIGH"]),
        (["TABLE: dict = {}\n_PRIVATE = 1\n"], ["TABLE", "_PRIVATE"]),
        (["__all__ = ['PUBLIC']\nPUBLIC = 1\n"], []),
        (["ROWS = 1\nWRITE = ROWS // 2\n", "from .a import WRITE\nWRITE\n"], []),
        (["ROWS = 1\n", "from . import a\na.ROWS\n"], []),
        (["Rows = 1\ndef f():\n    LOCAL = 1\n"], []),
    ],
    ids=["unread", "tuple-target", "annotated-and-private", "exported", "imported", "attribute-read",
         "not-upper-case-or-not-top-level"],
)
def test_unread_constants_cases(sources, unread):
    package = [ast.parse(source) for source in sources]
    assert unread_constants(package[0], package) == unread


def _is_named(node: ast.expr, name: str) -> bool:
    """Whether an expression is ``name`` or an attribute ``name`` of anything."""
    return isinstance(node, ast.Name) and node.id == name or isinstance(node, ast.Attribute) and node.attr == name


def dataclass_fields(tree: ast.Module) -> set[tuple[str, str]]:
    """(class, field) for each annotated field of each top-level class decorated with ``dataclass``."""
    return {(node.name, item.target.id) for node in tree.body if isinstance(node, ast.ClassDef)
            and any(_is_named(d.func if isinstance(d, ast.Call) else d, "dataclass") for d in node.decorator_list)
            for item in node.body if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}


def unread_fields(tree: ast.Module, package: list[ast.Module]) -> list[str]:
    """The module's dataclass fields, as ``Class.field``, that no module of the package reads.

    A field is read when its name is loaded as an attribute, or when its class
    is named in a ``fields(...)`` call; reads outside the package do not count.
    """
    nodes = [node for module in package for node in ast.walk(module)]
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    classes = {node.args[0].id for node in nodes if isinstance(node, ast.Call) and _is_named(node.func, "fields")
               and node.args and isinstance(node.args[0], ast.Name)}
    return sorted(f"{cls}.{field}" for cls, field in dataclass_fields(tree)
                  if field not in attributes and cls not in classes)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_every_field_is_read(path):
    package = [ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE]
    assert unread_fields(package[PACKAGE.index(path)], package) == []


DATACLASS = "from dataclasses import dataclass\n@dataclass(frozen=True)\nclass Row:\n    n: int\n    z: float = 0.0\n"


@pytest.mark.parametrize(
    ("sources", "unread"),
    [
        ([DATACLASS], ["Row.n", "Row.z"]),
        (["import dataclasses\n@dataclasses.dataclass\nclass Row:\n    n: int\n"], ["Row.n"]),
        ([DATACLASS, "row.n = 1\nz = 2\nprint(z)\n"], ["Row.n", "Row.z"]),
        ([DATACLASS, "def f(row):\n    return row.n\n"], ["Row.z"]),
        ([DATACLASS + "    def g(self):\n        return self.z\n", "from . import a\na.Row(1).n\n"], []),
        ([DATACLASS, "from dataclasses import fields\nfields(Row)\n"], []),
        ([DATACLASS, "import dataclasses\ndataclasses.fields(Row)\n"], []),
        ([DATACLASS, "from dataclasses import fields\nfields(row)\n"], ["Row.n", "Row.z"]),
        (["class Plain:\n    n: int\ndef f():\n    @dataclass\n    class Local:\n        n: int\n"], []),
    ],
    ids=["unread", "module-attribute-decorator", "stored-or-name-only", "one-read", "read-in-method-and-module",
         "fields-call", "dataclasses-fields-call", "fields-of-another-name", "not-a-top-level-dataclass"],
)
def test_unread_fields_cases(sources, unread):
    package = [ast.parse(source) for source in sources]
    assert unread_fields(package[0], package) == unread


def loaded_numpy_modules(statement: str) -> set[str]:
    """The ``numpy`` modules a fresh interpreter has loaded after running ``statement``."""
    script = f"import sys\n{statement}\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    src = str(Path(bellsim.__file__).parent.parent)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    return set(out.split())


def test_cli_import_loads_no_more_of_numpy_than_numpy_does():
    # numpy 2 loads numpy.random and the rest on first use; import bellsim.cli
    # is the set-up of every run, so it defers them too
    assert loaded_numpy_modules("import bellsim.cli") - loaded_numpy_modules("import numpy") == set()
