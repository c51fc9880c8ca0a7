"""Every parameter of a package function is read in its body, so a dead knob cannot come back.

A parameter no body reads is a setting that changes nothing; a caller who
passes it is misled.  ``ALLOWED`` names the exceptions, each with its reason.
"""

import ast
from pathlib import Path

import pytest

import bellsim

SOURCES = sorted(Path(bellsim.__file__).parent.glob("*.py"))

ALLOWED = {
    # acceptance criterion 2 passes it, and that test must pass unedited; the
    # closed-form optimizer has no iterations, so it is accepted and ignored
    "optimize_angles.refine_iters",
}


def unread_parameters(tree: ast.Module) -> list[str]:
    """``qualname.parameter`` for each function parameter its body never reads."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    args = child.args
                    params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
                    read = {
                        n.id
                        for statement in child.body
                        for n in ast.walk(statement)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                    }
                    found.extend(f"{name}.{p.arg}" for p in params if p is not None and p.arg not in read)
                visit(child, f"{name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    unread = unread_parameters(ast.parse(path.read_text(), filename=str(path)))
    assert [name for name in unread if name not in ALLOWED] == []


def test_every_allowed_entry_is_still_unread():
    unread = {name for path in SOURCES for name in unread_parameters(ast.parse(path.read_text()))}
    assert ALLOWED <= unread


@pytest.mark.parametrize(
    ("source", "unread"),
    [
        ("def f(x):\n    return 1\n", ["f.x"]),
        ("def f(x, y=2):\n    return x\n", ["f.y"]),
        ("def f(*args, **kwargs):\n    return args\n", ["f.kwargs"]),
        ("def f(x, *, z):\n    return x + z\n", []),
        ("def f(x):\n    def g():\n        return x\n    return g\n", []),
        ("def f(x: int = 0) -> int:\n    return 0\n", ["f.x"]),
        ("class C:\n    def m(self, v):\n        return self\n", ["C.m.v"]),
        ("def f(x):\n    def g(y):\n        return x\n    return g\n", ["f.g.y"]),
    ],
    ids=["unread", "default", "kwargs", "kw-only", "read-by-closure",
         "annotation-is-not-a-read", "method", "nested"],
)
def test_unread_parameters_cases(source, unread):
    assert unread_parameters(ast.parse(source)) == unread
