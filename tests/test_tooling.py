"""Checks on the sources and docs themselves: the README's library tour runs,
no library module imports a name it never uses, and every public library
name has a reader outside the tests."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "homology_lab"


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text()
    tour = re.search(r"## Library tour\n\n```python\n(.*?)```", readme, re.S)
    assert tour, "README has no python block under 'Library tour'"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", tour.group(1)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(imported) - used)


def test_unused_import_check_sees_a_stale_name():
    assert unused_imports("from .graph import make_graph, qubit_graph\nmake_graph()\n") == [
        "qubit_graph"
    ]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


# public library names whose only readers are tests, each with the reason it stays
READ_ONLY_BY_TESTS = {
    "cycle_is_boundary": "acceptance criterion 08: a filled cycle is a boundary over Q",
    "pairing_check": "acceptance criterion 06: supersymmetric pairing of up/down spectra",
    "orthogonal_cycle_span": "acceptance criterion 12: harmonic states span the cycle space",
    "embedded_entry": "acceptance criterion 15: the operator embedded on all vertex subsets",
}


def public_definitions() -> dict[str, str]:
    """Public top-level function and class name -> defining module file."""
    out = {}
    for path in PACKAGE.glob("*.py"):
        if path.name in ("__init__.py", "__main__.py"):
            continue
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                out[stmt.name] = path.name
    return out


def names_read(source: str, strings: bool = False) -> set[str]:
    """Names read by the top-level statements of a file: ast.Name ids,
    attribute names, imported names and, with ``strings``, string constants.
    A definition's reads of its own name are not counted."""
    out = set()
    for stmt in ast.parse(source).body:
        reads = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                reads.add(node.id)
            elif isinstance(node, ast.Attribute):
                reads.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                reads.update(a.name for a in node.names)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.add(node.value)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            reads.discard(stmt.name)
        out |= reads
    return out


def test_dead_surface_check_skips_a_definitions_own_reads():
    assert names_read("def f(n):\n    return f(n - 1)\ng(f)\n") == {"n", "g", "f"}
    assert names_read("def f(n):\n    return f(n - 1)\n") == {"n"}
    assert names_read('X = ("m", "f")\n', strings=True) >= {"m", "f"}


def test_every_public_name_has_a_reader_outside_the_tests():
    """The library, scripts/ and bench/ read every public name; string
    constants in bench/ count, because that is how its tracer names what it
    wraps.  READ_ONLY_BY_TESTS lists the exceptions, and the check fails when
    one of them is gone or has gained a reader."""
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name not in ("__init__.py", "__main__.py"):
            read |= names_read(path.read_text())
    for path in (ROOT / "scripts").glob("*.py"):
        read |= names_read(path.read_text())
    for path in (ROOT / "bench").rglob("*.py"):
        read |= names_read(path.read_text(), strings=True)
    unread = {name: module for name, module in public_definitions().items() if name not in read}
    assert sorted(unread) == sorted(READ_ONLY_BY_TESTS), unread
