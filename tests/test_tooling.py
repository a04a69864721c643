"""Checks on the sources and docs themselves: the README's library tour runs,
its CLI block names every option, no module of the library, tests/ or scripts/
imports a name it never uses, every public library name has a reader
outside the tests, and every private helper has a reader in the library."""

import argparse
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from homology_lab.cli import build_parser

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


def parser_options() -> dict[str, set[str]]:
    """Each subcommand's --options as build_parser() defines them."""
    (commands,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: {o for a in sub._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
        for name, sub in commands.choices.items()
    }


def test_readme_cli_block_names_every_option():
    """The ``homology-lab ...`` lines under ``## CLI`` name exactly the
    --options that build_parser() defines, subcommand by subcommand."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## CLI\n\n```\n(.*?)```", readme, re.S)
    assert block, "README has no code block under 'CLI'"
    documented: dict[str, set[str]] = {}
    for line in block.group(1).splitlines():
        command = line.split()[1]
        documented.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    assert documented == parser_options()


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


CHECKED_MODULES = (
    sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    + sorted((ROOT / "tests").glob("*.py"))
    + sorted((ROOT / "scripts").glob("*.py"))
)


@pytest.mark.parametrize(
    "path",
    CHECKED_MODULES,
    # library modules keep their bare names as ids; tests/ and scripts/ are prefixed
    ids=lambda p: p.name if p.parent == PACKAGE else f"{p.parent.name}/{p.name}",
)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


# public library names, and Class.member for methods and properties, whose only
# readers are tests, each with the reason it stays
READ_ONLY_BY_TESTS = {
    "cycle_is_boundary": "acceptance criterion 08: a filled cycle is a boundary over Q",
    "pairing_check": "acceptance criterion 06: supersymmetric pairing of up/down spectra",
    "PairingReport.paired": "acceptance criterion 06: supersymmetric pairing of up/down spectra",
    "orthogonal_cycle_span": "acceptance criterion 12: harmonic states span the cycle space",
    "embedded_entry": "acceptance criterion 15: the operator embedded on all vertex subsets",
}


def public_definitions() -> dict[str, str]:
    """Public top-level function and class names, and ``Class.member`` for
    the public methods and properties of public classes -> defining module."""
    out = {}
    for path in PACKAGE.glob("*.py"):
        if path.name in ("__init__.py", "__main__.py"):
            continue
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                out[stmt.name] = path.name
                for member in stmt.body if isinstance(stmt, ast.ClassDef) else ():
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        out[f"{stmt.name}.{member.name}"] = path.name
    return out


def names_read(source: str, strings: bool = False) -> set[str]:
    """Names read by a file: ast.Name ids, attribute names, imported names
    and, with ``strings``, string constants.  A definition's reads of its own
    name, a method's included, are not counted."""

    def reads(node, own: frozenset) -> set[str]:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            own |= {node.name}
        out = set()
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(a.name for a in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
        for child in ast.iter_child_nodes(node):
            out |= reads(child, own)
        return out - own

    return reads(ast.parse(source), frozenset())


def test_dead_surface_check_skips_a_definitions_own_reads():
    assert names_read("def f(n):\n    return f(n - 1)\ng(f)\n") == {"n", "g", "f"}
    assert names_read("def f(n):\n    return f(n - 1)\n") == {"n"}
    assert names_read('X = ("m", "f")\n', strings=True) >= {"m", "f"}
    method = "class C:\n    def m(self):\n        return self.m()\n"
    assert names_read(method) == {"self"}
    assert "m" in names_read(method + "    def n(self):\n        return self.m()\n")


def test_every_public_name_has_a_reader_outside_the_tests():
    """The library, scripts/ and bench/ read every public name, and every
    public method and property by its attribute name; string
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
    unread = {
        name: module
        for name, module in public_definitions().items()
        if name.rpartition(".")[2] not in read
    }
    assert sorted(unread) == sorted(READ_ONLY_BY_TESTS), unread


def private_definitions(source: str) -> set[str]:
    """Names of the ``_``-prefixed, non-dunder functions, methods and classes
    a file defines, at any depth."""
    return {
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def test_dead_private_check_sees_an_unread_helper():
    source = "class C:\n    def _a(self):\n        return self._b()\n    def _b(self):\n        return 1\n"
    assert private_definitions(source) - names_read(source) == {"_a"}
    assert private_definitions("class C:\n    def __init__(self):\n        pass\n") == set()


def test_every_private_helper_is_read_in_the_library():
    """Every private function, method and class in src/ is read somewhere in
    src/ besides its own definition; one that is not is dead code."""
    sources = [path.read_text() for path in PACKAGE.glob("*.py")]
    read = set().union(*map(names_read, sources))
    defined = set().union(*map(private_definitions, sources))
    assert defined and sorted(defined - read) == []
