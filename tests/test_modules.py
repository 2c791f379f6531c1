"""Module hygiene of the `ppt` package: public names resolve, no module
reaches into a sibling's private names, and every private module-level
name and every imported name is read in its own module."""

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


def _private_definitions(tree):
    """Private names bound at module level by a def, class or assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def _names_read(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("name", MODULES)
def test_private_names_are_read(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    read = _names_read(tree)
    assert [n for n in _private_definitions(tree) if n not in read] == []


def _imported_names(tree):
    """The names bound by the module's imports, `__future__` left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((a.asname or a.name).partition(".")[0]
                        for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


@pytest.mark.parametrize("name", MODULES)
def test_imported_names_are_read(name):
    # `__init__` imports only to re-export, so it is left out.
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    read = _names_read(tree)
    assert [n for n in _imported_names(tree) if n not in read] == []


@pytest.mark.parametrize("name", MODULES + ["__init__"])
def test_no_private_sibling_imports(name):
    private = [(module, n) for module, n in _sibling_imports(PACKAGE / f"{name}.py")
               if n.startswith("_")]
    assert private == []


@pytest.mark.parametrize("name, layer", [
    ("PptError", "syntax"), ("ParseError", "parser"),
    ("RestrictionError", "parser"), ("BudgetExceeded", "progression"),
    ("SccTooLarge", "transform")])
def test_each_exception_is_declared_by_the_layer_that_raises_it(name, layer):
    module = importlib.import_module(f"ppt.{layer}")
    cls = getattr(module, name)
    assert getattr(ppt, name) is cls and name in module.__all__
    assert cls.__module__ == module.__name__
    assert issubclass(cls, ppt.PptError)


def test_no_module_of_declarations_only():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("ppt.errors")


# The sibling modules each module imports from: `syntax` at the bottom,
# the compiler (`transform`) and the search (`progression`) side by side
# on it, the here-and-there checks on the search alone, then `verify`
# and `cli` on top.
LAYERS = {
    "syntax": set(),
    "parser": {"syntax"},
    "transform": {"syntax"},
    "progression": {"syntax"},
    "tht": {"syntax", "progression"},
    "verify": {"syntax", "progression", "tht", "transform"},
    "cli": {"syntax", "parser", "progression", "tht", "transform", "verify"},
}


def test_layering():
    found = {name: {module for module, _ in _sibling_imports(PACKAGE / f"{name}.py")}
             for name in MODULES}
    assert found == LAYERS
    assert sum(map(len, found.values())) == 15


def test_graphs_and_loops_live_in_transform():
    # Loops exist for the loop formulas, so the compiler owns them.
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("ppt.depgraph")
    for name in ("DepGraph", "SccTooLarge", "dependency_graph",
                 "section_graphs", "enumerate_loops", "is_tight"):
        assert getattr(ppt, name) is getattr(ppt.transform, name)
