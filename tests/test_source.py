"""Static checks on the package source, with the standard library only."""

import ast

import pytest

from _support import ROOT

MODULES = sorted((ROOT / "src" / "fleetsim").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports but neither uses nor lists in ``__all__``.

    A name counts as used wherever it appears as an ``ast.Name``, which
    includes the root of an attribute chain such as ``np`` in ``np.sqrt``.
    """
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    exported: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used and name not in exported
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


class TestUnusedImports:
    def test_flags_an_unused_name(self):
        source = "from typing import Iterable, Iterator\nx: Iterator = iter(())\n"
        assert unused_imports(source) == ["line 1: Iterable"]

    def test_attribute_root_and_alias_count_as_used(self):
        source = "import numpy as np\nimport os.path\nnp.sqrt(os.path.sep)\n"
        assert unused_imports(source) == []

    def test_all_exports_and_future_are_exempt(self):
        source = (
            "from __future__ import annotations\n"
            "from .engine import run\n"
            "__all__ = ['run']\n"
        )
        assert unused_imports(source) == []
