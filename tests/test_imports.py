"""Every import in a package module is used, and every private or constant module-level name is read.

So a deletion cannot leave a dead import, a dead private helper or a dead
constant behind.  A constant (an UPPER_CASE name) listed in ``__all__`` is
public and exempt; reads in tests do not count.  ``__init__.py`` is exempt
from the import check: its imports are the package's re-exports.  And
``import bellsim.cli`` loads no ``numpy`` module that ``import numpy`` does not.

Every dataclass field is read as well: its name is loaded as an attribute, or
its class is named in a ``fields(...)`` call.  Every public method or property
of a package class is called: its name is loaded as an attribute in the
package, ``scripts/`` or ``benchmarks/``, or it is on the ``UNCALLED`` list.
Every name in a module's ``__all__`` is called in the same files, or it is on
the ``UNCALLED_NAMES`` list.
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
ROOT = Path(__file__).resolve().parent.parent


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


def exported_names(tree: ast.Module) -> set[str]:
    """The names a module lists in ``__all__``."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return exported


def constant_names(tree: ast.Module) -> set[str]:
    """UPPER_CASE names that a module binds at its top level and does not list in ``__all__``."""
    exported = exported_names(tree)
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


# Modules whose attribute loads count as calls of a package class's public members.
CALLERS = [*PACKAGE, *sorted((ROOT / "scripts").glob("*.py")), *sorted((ROOT / "benchmarks").glob("*.py"))]
# Public members that only tests call, each with why it stays.
UNCALLED = {
    "CounterfactualTable.from_rows": "the maintainer decides (ROADMAP)",
    "DensityMatrix.purity": "the maintainer decides (ROADMAP)",
    "JointDistribution.context_marginal": "the maintainer decides (ROADMAP)",
    "SignalingReport.max_deficit": "the maintainer decides (ROADMAP)",
}


def public_members(tree: ast.Module) -> set[tuple[str, str]]:
    """(class, name) for each public method or property of each top-level class."""
    return {(node.name, item.name) for node in tree.body if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not item.name.startswith("_")}


def uncalled_members(package: list[ast.Module], callers: list[ast.Module]) -> list[str]:
    """The package classes' public members, as ``Class.member``, whose name no caller loads as an attribute."""
    loaded = {node.attr for module in callers for node in ast.walk(module)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{cls}.{name}" for module in package for cls, name in public_members(module) if name not in loaded)


def test_every_public_member_is_called_or_allowed():
    package = [ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE]
    callers = [ast.parse(p.read_text(), filename=str(p)) for p in CALLERS]
    assert uncalled_members(package, callers) == sorted(UNCALLED)


CLASS = "class Table:\n    def rows(self): ...\n    @property\n    def n(self): ...\n    def _cells(self): ...\n"


@pytest.mark.parametrize(
    ("sources", "uncalled"),
    [
        ([CLASS], ["Table.n", "Table.rows"]),
        ([CLASS, "table.rows()\n"], ["Table.n"]),
        ([CLASS, "print(table.n)\ntable.rows = None\n"], ["Table.rows"]),
        ([CLASS, "rows = n = 1\nprint(rows, n)\n"], ["Table.n", "Table.rows"]),
        ([CLASS + "    @classmethod\n    async def build(cls): ...\n", "Table.build(); x.n; x.rows\n"], []),
        (["def rows(): ...\nclass Plain:\n    __slots__ = ()\n    def __len__(self): ...\n"], []),
    ],
    ids=["uncalled", "one-called", "stored-only", "name-only", "classmethod-and-attribute-loads",
         "functions-and-dunders"],
)
def test_uncalled_members_cases(sources, uncalled):
    modules = [ast.parse(source) for source in sources]
    assert uncalled_members(modules[:1], modules) == uncalled


# Names in a package module's ``__all__`` that only tests call, as ``module.name``, each with why it stays.
UNCALLED_NAMES = {
    "behaviors.no_signaling": "the maintainer decides (ROADMAP)",
    "behaviors.random_no_signaling_behavior": "the maintainer decides (ROADMAP)",
    "behaviors.sample_bundle_from_behavior": "the behavior source's bundle sampler, kept beside the LHV and Born ones",
    "feasibility.chsh_certificate": "the maintainer decides (ROADMAP)",
    "feasibility.reshuffle_problem_from_table": "the maintainer decides (ROADMAP)",
    "fileio.write_behavior": "the maintainer decides (ROADMAP)",
    "quantum.born_probabilities": "the benchmark tracer targets it by name (ROADMAP items 9 and 17)",
    "quantum.expectation": "the maintainer decides (ROADMAP)",
    "rng.categorical": "the reference draw; the benchmark tracer targets it by name (ROADMAP items 9 and 17)",
}


def uncalled_public_names(package: dict[str, ast.Module], callers: list[ast.Module]) -> list[str]:
    """``module.name`` for each name in a package module's ``__all__`` that no caller loads.

    A caller loads a name as a name or an attribute, or by importing it from another module.
    """
    loaded = set()
    for node in (node for module in callers for node in ast.walk(module)):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id if isinstance(node, ast.Name) else node.attr)
        elif isinstance(node, ast.ImportFrom):
            loaded.update(alias.name for alias in node.names)
    return sorted(f"{module}.{name}" for module, tree in package.items() for name in exported_names(tree) - loaded)


def test_every_public_name_is_called_or_allowed():
    package = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE}
    callers = [ast.parse(p.read_text(), filename=str(p)) for p in CALLERS]
    assert uncalled_public_names(package, callers) == sorted(UNCALLED_NAMES)


EXPORTS = "__all__ = ['draw', 'count', 'LIMIT']\ndef draw(): ...\ndef count(): ...\nLIMIT = 1\n"


@pytest.mark.parametrize(
    ("sources", "uncalled"),
    [
        ([EXPORTS], ["a.LIMIT", "a.count", "a.draw"]),
        ([EXPORTS, "draw()\nprint(LIMIT)\n"], ["a.count"]),
        ([EXPORTS, "from . import a\na.draw()\n"], ["a.LIMIT", "a.count"]),
        ([EXPORTS, "from .a import count as c, draw\n"], ["a.LIMIT"]),
        ([EXPORTS, "draw = count = 1\nobj.LIMIT = 2\n"], ["a.LIMIT", "a.count", "a.draw"]),
        ([EXPORTS + "count()\nLIMIT + 1\ndraw\n"], []),
        (["def draw(): ...\n", "x = 1\n"], []),
    ],
    ids=["uncalled", "name-loads", "attribute-load", "imported", "stored-only", "loaded-in-its-own-module",
         "no-all"],
)
def test_uncalled_public_names_cases(sources, uncalled):
    modules = [ast.parse(source) for source in sources]
    assert uncalled_public_names({"a": modules[0]}, modules) == uncalled


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
