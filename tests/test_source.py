"""Static checks on the package source and the tests, with the standard
library only."""

import ast

import pytest

from _support import ROOT

MODULES = sorted((ROOT / "src" / "fleetsim").glob("*.py"))
TEST_FILES = sorted((ROOT / "tests").glob("*.py"))


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


@pytest.mark.parametrize("path", MODULES + TEST_FILES, ids=lambda p: p.name)
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


def numpy_imports(source: str) -> list[tuple[int, str]]:
    """(line, what) for each import of numpy or of a numpy submodule."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, "import " + a.name) for a in node.names
                      if a.name.split(".")[0] == "numpy"]
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "numpy"):
            found.append((node.lineno, "from " + node.module))
    return found


def numpy_or_math_hypot(source: str) -> list[str]:
    """Each import of numpy, and each read of ``math.hypot`` by attribute of
    the ``math`` module under any alias or by name."""
    tree = ast.parse(source)
    maths = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "math"
    }
    found = numpy_imports(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            if any(a.name == "hypot" for a in node.names):
                found.append((node.lineno, "math.hypot"))
        elif (isinstance(node, ast.Attribute) and node.attr == "hypot"
              and isinstance(node.value, ast.Name) and node.value.id in maths):
            found.append((node.lineno, "math.hypot"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_pedestrian_distances_take_libm_hypot():
    """dynamics.py takes distances by C's hypot through complex abs, the
    function np.hypot calls. math.hypot rounds differently on rare inputs,
    so swapping either in would move pedestrian bytes only there."""
    assert numpy_or_math_hypot((ROOT / "src" / "fleetsim" / "dynamics.py").read_text()) == []


def test_flags_numpy_and_math_hypot():
    source = (
        "import math as m\n"
        "import numpy.linalg\n"
        "from math import hypot, exp\n"
        "from numpy import hypot as h\n"
        "d = m.hypot(1, 2) + math.hypot(3, 4) + m.exp(0)\n"
    )
    assert numpy_or_math_hypot(source) == [
        "line 2: import numpy.linalg", "line 3: math.hypot",
        "line 4: from numpy", "line 5: math.hypot",
    ]


def test_report_distances_take_libm_hypot():
    """metrics.py takes robot-robot and robot-wall distances by
    dynamics._hypot, C's hypot as np.hypot calls it, so a report equals the
    one numpy arrays gave; math.hypot could move its last bit."""
    assert numpy_or_math_hypot((ROOT / "src" / "fleetsim" / "metrics.py").read_text()) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in ("world.py", "tasking.py")],
                         ids=lambda p: p.name)
def test_the_qp_imports_no_numpy(path):
    """The CBF-QP runs in plain floats, so its bytes follow IEEE-754
    arithmetic and libm, not the BLAS kernel numpy would call. The engine
    around it needs no numpy either, nor does planning on the flat costmap,
    writing, reading, reporting on or rendering a trace. Only world.py (the
    distance transform and the inflation decay) and tasking.py (the travel
    table's array, which the benchmark indexes as ``weights[i, j]``) keep it."""
    assert numpy_imports(path.read_text()) == []


def array_names_outside(source: str, allowed: set[str]) -> list[str]:
    """Each use of the names ``np`` or ``ndimage`` outside the functions whose
    qualified name (``Class.method`` or ``function``) is in ``allowed``."""
    found = []

    def visit(node, scope: str, inside: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{scope}.{child.name}" if scope else child.name
                visit(child, name, inside or name in allowed)
                continue
            if isinstance(child, ast.Name) and child.id in ("np", "ndimage") and not inside:
                found.append(f"line {child.lineno}: {child.id}")
            visit(child, scope, inside)

    visit(ast.parse(source), "", False)
    return found


def test_world_runs_numpy_only_to_build_the_stores():
    """The map's stores are bytes and float lists; numpy and scipy run only
    where they are built: the distance transform behind ``clearance`` and
    the decay inside ``inflate``."""
    source = (ROOT / "src" / "fleetsim" / "world.py").read_text()
    assert array_names_outside(source, {"OccupancyGrid.clearance", "inflate"}) == []


def test_tasking_runs_numpy_only_in_the_travel_table():
    """The allocator reads the travel table's float rows; numpy runs only
    inside ``TravelTimeGraph``, which checks the table, closes it in plain
    floats and keeps the read-only array the benchmark indexes."""
    source = (ROOT / "src" / "fleetsim" / "tasking.py").read_text()
    assert array_names_outside(source, {"TravelTimeGraph"}) == []


def test_flags_array_names_outside_the_allowed_functions():
    source = (
        "import numpy as np\n"
        "from scipy import ndimage\n"
        "class Grid:\n"
        "    occupied: np.ndarray\n"
        "    def clearance(self):\n"
        "        return ndimage.distance_transform_edt(np.ones(2))\n"
        "    def other(self):\n"
        "        return np.zeros(2)\n"
        "def clearance():\n"
        "    return ndimage\n"
        "def inflate():\n"
        "    def inner():\n"
        "        return np.exp(0)\n"
        "    return inner\n"
    )
    assert array_names_outside(source, {"Grid.clearance", "inflate"}) == [
        "line 4: np", "line 8: np", "line 10: ndimage",
    ]


def scipy_imports(source: str) -> list[str]:
    """Each scipy module or name a module imports, as its dotted path."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "scipy"]
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "scipy"):
            found += [f"{node.module}.{a.name}" for a in node.names]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_scipy_is_ndimage_in_world_only(path):
    """Every QP solves on its diagonal, so no module needs scipy.linalg.
    world.py inflates obstacles with ``scipy.ndimage``; that import also
    puts scipy's version in ``sys.modules``, where the benchmark reads it."""
    found = scipy_imports(path.read_text())
    assert [name for name in found if name.startswith("scipy.linalg")] == []
    assert found == (["scipy.ndimage"] if path.name == "world.py" else [])


def test_flags_scipy_imports():
    source = (
        "import scipy.linalg as la\n"
        "from scipy import ndimage, linalg\n"
        "from scipy.linalg.lapack import dpotrs\n"
        "from .qp import solve_qp\n"
        "import numpy\n"
    )
    assert scipy_imports(source) == [
        "scipy.linalg", "scipy.ndimage", "scipy.linalg", "scipy.linalg.lapack.dpotrs",
    ]
