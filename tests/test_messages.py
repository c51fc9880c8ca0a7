"""No message formats a numpy reduction with ``!r``, so a message reads the same on every numpy.

numpy 2 gives a scalar the repr ``np.float64(0.75)`` where numpy 1.24 gives
``0.75``.  A reduction here is a method call such as ``w.sum()`` or a numpy
function such as ``np.max(w)``, and a name assigned from one in the same
function counts too.  ``float(...)`` of it prints one text on every numpy.
"""

import ast
from pathlib import Path

import pytest

import bellsim

SOURCES = sorted(Path(bellsim.__file__).parent.glob("*.py"))
REDUCTIONS = {"sum", "min", "max", "mean", "prod", "std", "var", "trace", "dot", "norm", "amin", "amax"}


def _is_reduction(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in REDUCTIONS


def _holds_reduction(node: ast.AST, reduced: set[str]) -> bool:
    """Whether an expression holds a reduction, or a name bound to one, not passed through float() or int()."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in ("float", "int"):
        return False
    if _is_reduction(node) or isinstance(node, ast.Name) and node.id in reduced:
        return True
    return any(_holds_reduction(child, reduced) for child in ast.iter_child_nodes(node))


def reduced_reprs(tree: ast.Module) -> list[str]:
    """The source of each ``!r`` field, in each function, that holds a numpy reduction."""
    found = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(ast.walk(function))
        reduced = {target.id for node in nodes if isinstance(node, ast.Assign) and _is_reduction(node.value)
                   for target in node.targets if isinstance(target, ast.Name)}
        found += [ast.unparse(node.value) for node in nodes
                  if isinstance(node, ast.FormattedValue) and node.conversion == ord("r")
                  and _holds_reduction(node.value, reduced)]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_message_formats_a_numpy_reduction_with_repr(path):
    assert reduced_reprs(ast.parse(path.read_text(), filename=str(path))) == []

