"""Checks on the sources and docs themselves: the README's library tour runs,
its CLI block names every option, no module of the library, tests/ or scripts/
imports a name it never uses, every public library name has a reader
outside the tests, every private helper has a reader in the library, every
name a module holds for the benchmark's tracer is one it wraps, and the
exact readers never reach the float-side operators."""

import argparse
import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from homology_lab.cli import build_parser

from test_bench_hooks import load_tracing

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


def test_every_traced_name_is_wrapped_in_its_module(monkeypatch):
    """A module's ``_TRACED`` tuple holds names it keeps only for
    bench/tracing.py; each must be one that ``BOUNDARIES`` wraps in that
    module's namespace, so a tuple cannot outlive the wrapper it serves."""
    wrapped = {(module, attr) for module, owner, attr, _, _ in load_tracing(monkeypatch).BOUNDARIES
               if owner is None}
    held = set()
    for path in PACKAGE.glob("*.py"):
        if path.name in ("__init__.py", "__main__.py"):
            continue
        module = importlib.import_module(f"homology_lab.{path.stem}")
        for fn in getattr(module, "_TRACED", ()):
            assert vars(module)[fn.__name__] is fn
            held.add((module.__name__, fn.__name__))
    assert {name for _, name in held} >= {"betti", "lambda_min", "coboundary"}
    assert held <= wrapped, held - wrapped


def reads_through(sources, roots) -> set[str]:
    """Names read by the top-level functions and classes ``roots`` of the
    sources and, transitively, by every top-level definition of the sources
    that one of them reads by name (a name defined in two sources follows
    both)."""
    defs: dict[str, list[str]] = {}
    for source in sources:
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(stmt.name, []).append(ast.unparse(stmt))
    read, seen, todo = set(), set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            for source in defs.get(name, ()):
                names = names_read(source)
                read |= names
                todo += names
    return read


def test_exact_path_check_follows_helpers():
    source = (
        "def a(K):\n    return b(K)\n"
        "def b(K):\n    return K.coboundary(0)\n"
        "def c():\n    return MonomialMatrix\n"
    )
    assert {"b", "coboundary"} <= reads_through([source], ["a"])
    assert "MonomialMatrix" not in reads_through([source], ["a"])


# the exact readers of d^k at lam := 1, by module
EXACT_READERS = {
    "homology": ("coboundary_pairs", "is_cycle", "cycle_is_boundary"),
    "gadgets": ("fundamental_cycle",),
    "specseq": ("Filtration",),
}


def test_exact_readers_never_reach_the_float_operators():
    """Pairs, ranks, pages and witnesses take d^k's integer columns from the
    facet arrays: none of them, nor any library function they read, reads
    ``coboundary`` or ``MonomialMatrix``, which serve the float Laplacians."""
    sources = [path.read_text() for path in PACKAGE.glob("*.py")]
    for module, names in EXACT_READERS.items():
        defined = {stmt.name for stmt in ast.parse((PACKAGE / f"{module}.py").read_text()).body
                   if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}
        assert set(names) <= defined, (module, set(names) - defined)
    roots = [name for names in EXACT_READERS.values() for name in names]
    assert reads_through(sources, roots).isdisjoint({"coboundary", "MonomialMatrix"})
