"""Every name a program module imports is used there, and every underscore
name it imports from another module of the package is listed here.

No linter is part of the toolchain, so this walks each module's syntax
tree with the standard library. A name is exempt from the first check
when the module's ``__all__`` lists it, when its import line carries
``# noqa: F401``, or when it is ``from __future__ import annotations``. The
second keeps a module's private decisions from leaking out of it unnoticed.
A third keeps the model file's binary and JSON handling in one module. A
fourth keeps reference forms that only tests use in the tests: every
underscore name a test takes from the package is used by the package.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rpointhop"
MODULES = sorted(PACKAGE.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))

# (importing module, home module, name): the private names that a module
# of the package may import from another one
PRIVATE_IMPORTS = {
    ("config", "cloud", "_content_lines"),
    ("registration", "cloud", "_transform_lines"),
    ("registration", "pipeline", "_two_lanes"),
}


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    imported = []  # (bound name, line number)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((name, alias.lineno))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"line {lineno}: {name}"
        for name, lineno in imported
        if name not in used and name not in exported and "# noqa: F401" not in lines[lineno - 1]
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_checker_flags_and_exempts():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from json import dumps, loads  # noqa: F401 - kept for a hook\n"
        "from math import pi as tau\n"
        "from re import compile\n"
        "__all__ = ['compile']\n"
        "print(sys.argv)\n"
    )
    assert _unused_imports(source) == ["line 2: os", "line 4: tau"]


def _private_imports(source: str, module: str) -> list[tuple[str, str, str]]:
    """(module, home module, name) for each underscore name that ``source``
    imports from a module of the package, relatively or as ``rpointhop.…``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("rpointhop")):
            home = (node.module or "").rpartition(".")[2]
            found += [(module, home, alias.name) for alias in node.names if alias.name.startswith("_")]
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_private_imports_are_listed(path):
    assert set(_private_imports(path.read_text(), path.stem)) <= PRIVATE_IMPORTS


def test_listed_private_imports_are_made():
    # a listed import that no module makes any more leaves the list
    made = {entry for path in MODULES for entry in _private_imports(path.read_text(), path.stem)}
    assert made == PRIVATE_IMPORTS


def test_private_import_checker_flags_and_exempts():
    source = (
        "from __future__ import annotations\n"
        "from numpy import _globals\n"
        "from .pipeline import _two_lanes, extract_pair\n"
        "from .cloud import _secret as hidden\n"
        "from rpointhop.saab import _live\n"
        "from . import spatial\n"
    )
    found = _private_imports(source, "registration")
    assert found == [
        ("registration", "pipeline", "_two_lanes"),
        ("registration", "cloud", "_secret"),
        ("registration", "saab", "_live"),
    ]
    assert set(found) - PRIVATE_IMPORTS == {("registration", "cloud", "_secret"), ("registration", "saab", "_live")}


def _top_modules(source: str) -> set[str]:
    """The top-level names of the modules ``source`` imports, absolutely."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add((node.module or "").partition(".")[0])
    return found


def test_only_the_model_file_module_reads_binary_and_json():
    # the model file format lives in one module; nothing else packs bytes or JSON
    users = {path.stem for path in MODULES if _top_modules(path.read_text()) & {"struct", "json"}}
    assert users == {"modelfile"}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_takes(source: str) -> set[tuple[str, str]]:
    """(home module, name) for each underscore name that ``source`` takes
    from a module of the package: imported by ``from rpointhop.<m> import
    _x``, or read as ``<m>._x`` off a module bound by ``from rpointhop
    import <m>`` or ``import rpointhop.<m> as <m>``."""
    tree = ast.parse(source)
    modules: dict[str, str] = {}  # bound name -> the package module it is
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rpointhop":
            home = node.module.partition(".")[2]
            for alias in node.names:
                if home and _private(alias.name):
                    taken.add((home, alias.name))
                elif not home and (PACKAGE / f"{alias.name}.py").exists():
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("rpointhop.") and alias.asname:
                    modules[alias.asname] = alias.name.partition(".")[2]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                taken.add((modules[node.value.id], node.attr))
    return taken


def _package_uses(name: str, sources: list[str]) -> int:
    """How often ``sources`` read ``name``, as a name or an attribute,
    outside a definition of it (a ``def``, ``class`` or assignment)."""
    count = 0

    def visit(node: ast.AST) -> None:
        nonlocal count
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name == name:
            return  # its own body: recursion is not a use
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
            count += 1
        elif isinstance(node, ast.Attribute) and node.attr == name and isinstance(node.ctx, ast.Load):
            count += 1
        for child in ast.iter_child_nodes(node):
            visit(child)

    for source in sources:
        visit(ast.parse(source))
    return count


def test_private_names_tests_take_are_used_by_the_package():
    # a reference form that only tests use belongs in the tests
    sources = [path.read_text() for path in MODULES]
    taken = {entry for path in TESTS for entry in _private_takes(path.read_text())}
    assert taken  # the walk finds what the tests take
    assert sorted(entry for entry in taken if not _package_uses(entry[1], sources)) == []


def test_private_take_checker_flags_and_exempts():
    tests = (
        "from rpointhop.pipeline import _moments, extract_pair\n"
        "from rpointhop import pipeline, save_model\n"
        "import rpointhop.saab as sb\n"
        "from conftest import _dense_inputs\n"
        "pipeline._HopRun.cut_to, sb._live(), save_model._x, pipeline.__name__\n"
    )
    assert _private_takes(tests) == {("pipeline", "_moments"), ("pipeline", "_HopRun"), ("saab", "_live")}
    package = (
        "_LIMIT = 3\n"
        "def _moments(x):\n"
        "    return _moments(x - 1) if x else _LIMIT\n"
        "class _HopRun:\n"
        "    def cut_to(self):\n"
        "        return _HopRun\n"
        "def train(runs):\n"
        "    return [r._live for r in runs]\n"
    )
    assert [_package_uses(name, [package]) for name in ("_LIMIT", "_moments", "_HopRun", "_live")] == [1, 0, 0, 1]
