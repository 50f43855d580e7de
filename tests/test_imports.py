"""Every name a program module imports is used there.

No linter is part of the toolchain, so this walks each module's syntax
tree with the standard library. A name is exempt when the module's
``__all__`` lists it, when its import line carries ``# noqa: F401``, or when
it is ``from __future__ import annotations``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rpointhop"
MODULES = sorted(PACKAGE.glob("*.py"))


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
