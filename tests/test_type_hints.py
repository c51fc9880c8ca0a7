"""Every annotation in the package resolves, so an import dropped from a module cannot hide in a string."""

import importlib
import inspect
import pkgutil
import typing

import pytest

import bellsim

MODULES = ["bellsim"] + [
    f"bellsim.{info.name}" for info in pkgutil.iter_modules(bellsim.__path__)
]


def public_callables(module):
    """(name, object) for each public function and class the module defines, and each class's public methods."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                if isinstance(member, property):
                    member = member.fget
                elif isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", member


@pytest.mark.parametrize("name", MODULES)
def test_type_hints_resolve(name):
    module = importlib.import_module(name)
    failures = []
    for qualname, obj in public_callables(module):
        try:
            typing.get_type_hints(obj)
        except (NameError, TypeError, AttributeError) as exc:
            failures.append(f"{qualname}: {exc!r}")
    assert failures == []
