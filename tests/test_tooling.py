"""Checks on the sources and docs themselves: the README's library tour runs,
its CLI block names every option, no module of the library, tests/ or scripts/
imports a name it never uses, every public library name has a reader
outside the tests, every private helper has a reader in the library, every
name a module holds for the benchmark's tracer is one it wraps, everything
in the library is reached from the CLI, scripts/ or bench/, the library
imports nothing from tests/, the exact readers never reach the float-side
operators, the pipelines build no label chains, only graph.py maps labels to
vertex ids, and only graph.py writes or reads a qubit-copy label."""

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
# readers are tests, each with the reason it stays; code that only tests read
# belongs in tests/reference.py
READ_ONLY_BY_TESTS: dict[str, str] = {}


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


def bound_names(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement binds by def, class or assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def reads_through(sources, roots) -> set[str]:
    """Names read by the top-level functions, classes and assignments
    ``roots`` of the sources and, transitively, by every top-level definition
    of the sources that one of them reads by name (a name defined in two
    sources follows both)."""
    defs: dict[str, list[str]] = {}
    for source in sources:
        for stmt in ast.parse(source).body:
            for name in bound_names(stmt):
                defs.setdefault(name, []).append(ast.unparse(stmt))
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


def unreached(sources, roots) -> set[str]:
    """The top-level definitions of the sources, and ``Class.method`` for
    each method of a reached class, that ``roots`` does not name and nothing
    they read through (``reads_through``) reads by name."""
    read = set(roots) | reads_through(sources, roots)
    out = set()
    for source in sources:
        for stmt in ast.parse(source).body:
            out.update(name for name in bound_names(stmt) if name not in read)
            if isinstance(stmt, ast.ClassDef) and stmt.name in read:
                out.update(f"{stmt.name}.{m.name}" for m in stmt.body
                           if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")
                           and m.name not in read)
    return out


def test_reachability_check_sees_an_unread_definition():
    source = (
        "def a():\n    return b()\n"
        "def b():\n    return C().m()\n"
        "class C:\n    def m(self):\n        return 1\n    def n(self):\n        return 2\n"
        "def dead():\n    return a()\n"
        "X = 1\n"
        "Y = (a,)\n"
    )
    assert unreached([source], {"a"}) == {"dead", "X", "Y", "C.n"}
    assert unreached([source], {"Y"}) == {"dead", "X", "C.n"}


def test_the_library_is_what_the_pipelines_reach(monkeypatch):
    """Every top-level definition in src/, and every method of a class so
    reached, is read by the CLI, scripts/ or bench/, directly or through
    other definitions.  bench/tests counts with the rest of bench/, which
    changes only with the benchmark.  The only names left over are
    ``__version__``, the ``_TRACED`` tuples and what the functions that
    bench/tracing.py wraps (``BOUNDARIES``) read: when the tracer drops one,
    the code only it reached has to leave the library too."""
    entry = [PACKAGE / "cli.py", PACKAGE / "__main__.py", *(ROOT / "scripts").glob("*.py"),
             *(ROOT / "bench").rglob("*.py")]
    roots = set().union(*(names_read(path.read_text()) for path in entry))
    wrapped = {attr for module, _, attr, _, _ in load_tracing(monkeypatch).BOUNDARIES
               if module.startswith("homology_lab.")}
    sources = [path.read_text() for path in PACKAGE.glob("*.py")]
    assert unreached(sources, roots | wrapped) <= {"__version__", "_TRACED"}


def test_the_library_imports_nothing_from_the_tests():
    """tests/reference.py reads the library; no file under src/ imports a
    module of tests/."""
    test_modules = {"tests"} | {path.stem for path in (ROOT / "tests").glob("*.py")}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            assert test_modules.isdisjoint(m.partition(".")[0] for m in modules), path.name


# the exact readers of d^k at lam := 1, by file: the library's and the
# witnesses that tests/reference.py keeps
EXACT_READERS = {
    PACKAGE / "homology.py": ("coboundary_pairs",),
    PACKAGE / "gadgets.py": ("fundamental_cycle",),
    PACKAGE / "specseq.py": ("Filtration",),
    ROOT / "tests" / "reference.py": ("is_cycle", "cycle_is_boundary"),
}


def test_exact_readers_never_reach_the_float_operators():
    """Pairs, ranks, pages and witnesses take d^k's integer columns from the
    facet arrays: none of them, nor any library or reference function they
    read, reads ``coboundary`` or ``MonomialMatrix``, which serve the float
    Laplacians."""
    sources = [path.read_text() for path in (*PACKAGE.glob("*.py"), ROOT / "tests" / "reference.py")]
    for path, names in EXACT_READERS.items():
        defined = {stmt.name for stmt in ast.parse(path.read_text()).body
                   if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}
        assert set(names) <= defined, (path.name, set(names) - defined)
    roots = [name for names in EXACT_READERS.values() for name in names]
    assert reads_through(sources, roots).isdisjoint({"coboundary", "MonomialMatrix"})


# what tests/reference.py keeps as the label-chain oracle: the algebra, the
# witnesses that take label chains, the aliases that key one, and the label
# view of a complex
LABEL_CHAINS = {"kunneth_embed", "sort_with_sign", "push_chain", "basis_chain", "target_chain",
                "is_cycle", "cycle_is_boundary", "chain_dimension", "Chain", "Simplex",
                "simplices", "locate"}


def test_the_pipelines_build_no_label_chains():
    """``decide``, the reduction, the gadget build with its orientation check
    and the basis-cycle columns run on vertex ids: none of them, nor any
    library function they read, reaches a label chain or lists a complex's
    simplices as labels."""
    sources = [path.read_text() for path in PACKAGE.glob("*.py")]
    roots = ["decide", "reduce_hamiltonian", "gadget", "fill_cycle", "basis_state_matrix"]
    assert reads_through(sources, roots).isdisjoint(LABEL_CHAINS)


def label_position_sites(source: str) -> list[int]:
    """Lines that map labels to vertex positions by hand: a dict
    comprehension or ``dict(...)`` call over ``enumerate(<x>.vertices)``, or
    a ``<x>.vertices.index(...)`` call."""

    def enumerates_vertices(node) -> bool:
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "enumerate" and len(node.args) == 1
                and isinstance(node.args[0], ast.Attribute) and node.args[0].attr == "vertices")

    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.DictComp) or (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "dict"):
            if any(map(enumerates_vertices, ast.walk(node))):
                lines.add(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "index" and isinstance(node.func.value, ast.Attribute)
              and node.func.value.attr == "vertices"):
            lines.add(node.lineno)
    return sorted(lines)


def test_label_position_check_sees_each_form():
    source = (
        "a = {v: i for i, v in enumerate(g.vertices)}\n"
        "b = dict((v, i) for i, v in enumerate(K.graph.vertices))\n"
        "c = K.graph.vertices.index(v)\n"
        "d = [v for i, v in enumerate(g.vertices)]\n"
        "e = {v: i for i, v in enumerate(order)}\n"
        "f = g.ids([v])\n"
        "h = {i: v for i, v in enumerate(vertices)}\n"
    )
    assert label_position_sites(source) == [1, 2, 3]


def test_only_graph_maps_labels_to_ids():
    """``WeightedGraph.ids`` is the one place where labels become vertex
    ids: no other module of the library builds its own label -> position map."""
    sites = {path.name: label_position_sites(path.read_text()) for path in PACKAGE.glob("*.py")}
    assert sites.pop("graph.py")
    assert {name: lines for name, lines in sites.items() if lines} == {}


def edge_id_sites(source: str) -> list[int]:
    """Lines that turn edge labels into vertex ids by hand: an ``.ids(...)``
    call whose argument reads an ``<x>.edges``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "ids"
                and any(isinstance(sub, ast.Attribute) and sub.attr == "edges"
                        for arg in node.args for sub in ast.walk(arg))):
            lines.add(node.lineno)
    return sorted(lines)


def test_edge_id_check_sees_each_form():
    source = (
        "a = g.ids(v for edge in g.edges for v in edge)\n"
        "b = K.graph.ids([u for u, _v in sorted(K.graph.edges)])\n"
        "c = graph.ids(list(chain.from_iterable(graph.edges)))\n"
        "d = g.ids(g.vertices)\n"
        "e = sorted(g.edges)\n"
        "f = g.adjacency[g.ids(sigma)]\n"
    )
    assert edge_id_sites(source) == [1, 2, 3]


def test_only_graph_reads_edges_into_ids():
    """``WeightedGraph.adjacency`` is the one place where edge labels become
    vertex ids: every other module of the library reads the id matrix."""
    sites = {path.name: edge_id_sites(path.read_text()) for path in PACKAGE.glob("*.py")}
    assert sites.pop("graph.py")
    assert {name: lines for name, lines in sites.items() if lines} == {}


def qubit_label_sites(source: str) -> list[int]:
    """Lines that write or read a qubit-copy label ``q{j}.{v}`` by hand: an
    f-string starting ``q{``, a string starting ``q<digits>.`` (an f-string's
    literal head included), or a ``partition``, ``rpartition``, ``split`` or
    ``index`` call on ``"."``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.JoinedStr):
            head = node.values[:2]
            if (len(head) == 2 and isinstance(head[0], ast.Constant) and head[0].value == "q"
                    and isinstance(head[1], ast.FormattedValue)):
                lines.add(node.lineno)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.match(r"q\d+\.", node.value):
                lines.add(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("partition", "rpartition", "split", "index")
              and [ast.unparse(a) for a in node.args] == ["'.'"]):
            lines.add(node.lineno)
    return sorted(lines)


def test_qubit_label_check_sees_each_form():
    source = (
        'a = f"q{j}.{v}"\n'
        'b = "q1.x"\n'
        'c = f"q2.{v}"\n'
        'd = v.partition(".")[0]\n'
        'e = v[1 : v.index(".")]\n'
        'f = f"t{i}." + "g.center" + "q.x"\n'
        'g = v.partition(":")\n'
    )
    assert qubit_label_sites(source) == [1, 2, 3, 4, 5]


def test_only_graph_writes_or_reads_qubit_labels():
    """``graph.qubit_vertex`` and ``graph.qubit_of`` are the one place where
    the label format of a qubit copy's vertex is written or read."""
    sites = {path.name: qubit_label_sites(path.read_text()) for path in PACKAGE.glob("*.py")}
    assert sites.pop("graph.py")
    assert {name: lines for name, lines in sites.items() if lines} == {}
