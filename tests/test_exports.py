"""Every public name a module exports must exist, so a deletion cannot leave a dangling export."""

import importlib
import pkgutil

import pytest

import bellsim

MODULES = ["bellsim"] + [
    f"bellsim.{info.name}" for info in pkgutil.iter_modules(bellsim.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []
