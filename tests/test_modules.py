"""Module hygiene of the `ppt` package: public names resolve, and no
module reaches into a sibling's private names."""

import ast
import importlib
from pathlib import Path

import pytest

import ppt

PACKAGE = Path(ppt.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _sibling_imports(path):
    """(module, name) for every name imported from within the package."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("ppt"):
            continue
        module = (node.module or "").removeprefix("ppt.").lstrip(".")
        for alias in node.names:
            yield module, alias.name


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"ppt.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_reexports_exist():
    pairs = list(_sibling_imports(PACKAGE / "__init__.py"))
    assert pairs
    for module, name in pairs:
        assert hasattr(importlib.import_module(f"ppt.{module}"), name), (module, name)
        assert hasattr(ppt, name), name


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_no_private_sibling_imports(name):
    private = [(module, n) for module, n in _sibling_imports(PACKAGE / f"{name}.py")
               if n.startswith("_")]
    assert private == []
