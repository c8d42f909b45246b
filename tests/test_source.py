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


WALL_CLOCKS = {
    name + suffix
    for name in ("perf_counter", "time", "monotonic", "process_time")
    for suffix in ("", "_ns")
}


def wall_clock_reads(source: str) -> list[str]:
    """Each wall-clock function of ``time`` a module imports by name or
    reads as an attribute of the ``time`` module, under any alias."""
    tree = ast.parse(source)
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "time"
    }
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            reads += [(node.lineno, a.name) for a in node.names if a.name in WALL_CLOCKS]
        elif (isinstance(node, ast.Attribute) and node.attr in WALL_CLOCKS
              and isinstance(node.value, ast.Name) and node.value.id in aliases):
            reads.append((node.lineno, node.attr))
    return [f"line {line}: time.{name}" for line, name in sorted(reads)]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "engine.py"], ids=lambda p: p.name)
def test_only_the_engine_reads_a_wall_clock(path):
    """Run timing has one source: the engine's readings, carried in the trace."""
    assert wall_clock_reads(path.read_text()) == []


class TestWallClockReads:
    def test_flags_a_planted_read(self):
        source = (
            "import time as clock\n"
            "from time import monotonic_ns, sleep\n"
            "def f():\n"
            "    sleep(0)\n"
            "    return clock.perf_counter() - monotonic_ns()\n"
        )
        assert wall_clock_reads(source) == [
            "line 2: time.monotonic_ns", "line 5: time.perf_counter",
        ]

    def test_other_names_pass(self):
        source = (
            "import time\n"
            "time.sleep(0.0)\n"
            "stamp = record.time\n"
            "clock.perf_counter()\n"
        )
        assert wall_clock_reads(source) == []

    def test_the_engine_is_the_reader(self):
        engine = ROOT / "src" / "fleetsim" / "engine.py"
        assert wall_clock_reads(engine.read_text())
