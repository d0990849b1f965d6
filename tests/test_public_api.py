"""The public API: every name a module exports exists, and the package re-exports each module's `__all__`."""

import ast
import importlib
from pathlib import Path

import pytest

import jpta

PACKAGE = Path(jpta.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_a_modules_all_exists(name):
    module = importlib.import_module(f"jpta.{name}")
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


def test_the_package_reexports_the_all_of_each_module_it_star_imports():
    imports = [node for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
               if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert [alias.name for alias in node.names] == ["*"], f"jpta.{node.module}"
        module = importlib.import_module(f"jpta.{node.module}")
        assert module.__all__, f"jpta.{node.module}"
        for name in module.__all__:
            assert getattr(jpta, name) is getattr(module, name), f"jpta.{node.module}.{name}"
