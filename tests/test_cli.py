import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homology_lab import complexes
from homology_lab.cli import main
from homology_lab.complexes import clique_complex
from homology_lab.fixtures import write_fixtures
from homology_lab.graph import graph_to_json
from homology_lab.homology import euler_characteristic
from homology_lab.reduction import parse_hamiltonian, reduce_hamiltonian

from conftest import complete_graph, graphs
from reference import join
from test_parsers import GRAPH_DOCS, texts
from test_tooling import parser_options


HAMILTONIANS = {
    "h-1q-no": '{"n":1,"terms":[{"support":[0],"amps":{"0":1}},{"support":[0],"amps":{"1":1}}]}',
    "h-2q-yes": '{"n":2,"terms":[{"support":[0,1],"amps":{"00":1,"11":-1}}]}',
    # all four 2-qubit basis projectors: no ground state, E below double precision
    "h-2q-inconclusive": '{"n":2,"terms":[{"support":[0,1],"amps":{"00":1}},'
    '{"support":[0,1],"amps":{"01":1}},{"support":[0,1],"amps":{"10":1}},'
    '{"support":[0,1],"amps":{"11":1}}]}',
    # padded onto two idle qubits: three join factors, the NO from the 17-vertex one
    "h-3q-no": '{"n":3,"terms":[{"support":[0],"amps":{"0":1}},{"support":[0],"amps":{"1":1}}]}',
    # one join factor above DENSE_EIG_CAP: the NO certificate comes from shift-invert
    "h-3q-no-unfactorable": '{"n":3,"terms":[{"support":[0],"amps":{"0":1}},'
    '{"support":[0],"amps":{"1":1}},{"support":[1,2],"amps":{"00":1}}]}',
    # a two-amplitude term placed on qubits 1 and 2, a 1-local term on qubit 0
    "h-3q-mixed-support": '{"n":3,"terms":[{"support":[1,2],"amps":{"00":1,"11":-1}},'
    '{"support":[0],"amps":{"0":1}}]}',
    # q2 idle: join factors of 33 and 7 vertices, the first holding q1 and q3
    "h-3q-yes-padded": '{"n":3,"terms":[{"support":[0,2],"amps":{"00":1,"11":-1}}]}',
    # a two-amplitude term on the non-contiguous q1, q3, a 1-local term on q4, q2 idle
    "h-4q-mixed-idle": '{"n":4,"terms":[{"support":[0,2],"amps":{"01":1,"10":-1}},'
    '{"support":[3],"amps":{"1":1}}]}',
}


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixtures")
    names = ["bowtie", "hexagon", "octahedron-3", "gadget-0", "gadget-00-minus-11"]
    write_fixtures(str(d), names + ["qubit-2", "two-gadgets-1q"])
    for name, text in HAMILTONIANS.items():
        (d / f"{name}.json").write_text(text)
    # padded NO reduction graphs: join factors of 17 vertices and n - 1 bowties
    for n in (3, 5, 10):
        H = parse_hamiltonian(HAMILTONIANS["h-3q-no"].replace('"n":3', f'"n":{n}'))
        (d / f"reduced-{n}q-no.json").write_text(reduce_hamiltonian(H).to_json())
    return d


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def with_files(fixture_dir, argv):
    """Replace each "@name" argument by the fixture file of that name."""
    return [str(fixture_dir / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]


def test_fixtures_command(tmp_path, capsys):
    code, out, _ = run(capsys, "fixtures", "--out", str(tmp_path), "--which", "bowtie")
    assert code == 0
    path = out.strip()
    doc = json.loads(Path(path).read_text())
    assert len(doc["vertices"]) == 7
    assert len(doc["edges"]) == 8


def test_betti_all(fixture_dir, capsys):
    code, out, _ = run(capsys, "betti", str(fixture_dir / "bowtie.json"), "--k", "all")
    assert code == 0
    rows = {
        parts[0]: parts
        for line in out.splitlines()
        if (parts := line.split()) and parts[0].lstrip("-").isdigit()
    }
    assert rows["1"][-1] == "2"
    assert "euler characteristic: -1 (reduced -2)" in out


def test_betti_single_k_octahedron(fixture_dir, capsys):
    code, out, _ = run(capsys, "betti", str(fixture_dir / "octahedron-3.json"), "--k", "2")
    assert code == 0
    assert out.strip() == "1"


def test_betti_on_a_join_builds_only_its_factors(fixture_dir, capsys, monkeypatch):
    """The padded 5q NO graph (45 vertices) has 5,373,952 simplices, above
    the default cap: betti enumerates only its factors, each once per run."""
    built = []
    real = complexes.clique_complex

    def recorded(g, *args, **kwargs):
        built.append(g.n_vertices)
        return real(g, *args, **kwargs)

    monkeypatch.setattr(complexes, "clique_complex", recorded)
    graph = str(fixture_dir / "reduced-5q-no.json")
    assert run(capsys, "betti", graph, "--k", "9") == (0, "0\n", "")
    code, out, err = run(capsys, "betti", graph, "--k", "all")
    rows = [line.split() for line in out.splitlines()[1:-2]]
    assert (code, err) == (0, "")
    assert [int(r[0]) for r in rows] == list(range(-1, 44)) and {r[-1] for r in rows} == {"0"}
    assert built == [17, 7, 7, 7, 7] * 2


def test_the_graph_without_vertices_has_only_the_empty_simplex(tmp_path, capsys):
    """Its complex is C^{-1} alone: reduced beta_{-1} = 1, and a Laplacian
    of dimension 1 with eigenvalue 0 in degree -1 and none in degree 0."""
    path = tmp_path / "empty.json"
    path.write_text('{"vertices": [], "edges": []}')
    assert run(capsys, "betti", str(path), "--k", "all") == (0, (
        "k    dim C^k  rank d^k  betti\n"
        " -1        1         0      1\n"
        "euler characteristic: 0 (reduced -1)\n"
        "witten index |reduced euler|: 1\n"
    ), "")
    assert run(capsys, "spectrum", str(path), "--k", "-1", "--lambda", "0.5") == (
        0, "0\nlambda_min 0  near-zero multiplicity 1\n", ""
    )
    assert run(capsys, "spectrum", str(path), "--k", "0", "--grid", "default") == (
        0, "branch,lam=0.3,lam=0.25,lam=0.2,lam=0.15,lam=0.1,slope,class\n", ""
    )


def complete_graphs(prefix):
    return st.integers(1, 6).map(lambda n: complete_graph([f"{prefix}{i}" for i in range(n)]))


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    complete_graphs("c"),
    graphs(max_vertices=7),
    st.tuples(graphs(max_vertices=4), complete_graphs("c")).map(lambda pair: join(*pair)),
))
def test_betti_all_rows_sum_to_the_euler_characteristic(fixture_dir, g):
    """The alternating sum of the printed dims is the reduced Euler
    characteristic of the whole complex, also when every join factor is a
    complete graph, whose top simplex lies in the join's top degree."""
    path = fixture_dir / "drawn.json"
    path.write_text(graph_to_json(g))
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["betti", str(path), "--k", "all", "--format", "csv"]) == 0
    rows = [line.split(",") for line in out.getvalue().splitlines()[1:]]
    chi = sum((-1) ** (int(k) % 2) * int(dim) for k, dim, _rank, _betti in rows)
    assert chi == euler_characteristic([clique_complex(g, g.n_vertices)]).reduced


@pytest.mark.parametrize("extra", [()], ids=["derived"])
def test_betti_above_the_top_degree_is_zero(fixture_dir, capsys, extra):
    """The bowtie has 7 vertices: its complete complex has no 7-simplex."""
    code, out, err = run(capsys, "betti", str(fixture_dir / "bowtie.json"), "--k", "7", *extra)
    assert (code, out, err) == (0, "0\n", "")


@pytest.mark.parametrize("k", ["-2", "-5"])
def test_degree_below_minus_one_answers_like_one_above_the_top(fixture_dir, capsys, k):
    """C^k is empty below -1 as above the top: betti prints 0, and spectrum
    prints what it prints for --k 40, an empty spectrum."""
    hexagon = str(fixture_dir / "hexagon.json")
    assert run(capsys, "betti", hexagon, "--k", k) == (0, "0\n", "")
    for mode in (("--lambda", "0.5"), ("--grid", "default")):
        below = run(capsys, "spectrum", hexagon, "--k", k, *mode)
        assert below == run(capsys, "spectrum", hexagon, "--k", "40", *mode)
        assert below[0] == 0 and below[2] == ""


def test_betti_missing_file_fails_cleanly(capsys):
    code, _out, err = run(capsys, "betti", "/nonexistent/g.json", "--k", "all")
    assert code == 1
    assert "cannot read" in err


def test_closed_stdin_fails_cleanly(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", None)
    code, out, err = run(capsys, "betti", "-", "--k", "all")
    assert (code, out, err) == (1, "", "usage error: cannot read -: stdin is closed\n")


def test_spectrum_triangle(capsys, tmp_path):
    from homology_lab.graph import graph_to_json

    p = tmp_path / "k3.json"
    p.write_text(graph_to_json(complete_graph(["a", "b", "c"])))
    code, out, _ = run(capsys, "spectrum", str(p), "--k", "1", "--lambda", "1.0")
    assert code == 0
    assert out.splitlines()[0] == "3 3 3"


def test_spectrum_rejects_zero_lambda(fixture_dir, capsys):
    code, _out, err = run(
        capsys, "spectrum", str(fixture_dir / "bowtie.json"), "--k", "1", "--lambda", "0"
    )
    assert code == 1
    assert "usage error" in err


def test_sweep_csv_on_gadget(fixture_dir, capsys):
    code, out, _ = run(
        capsys, "spectrum", str(fixture_dir / "gadget-0.json"), "--k", "1", "--grid",
        "0.3,0.25,0.2,0.15,0.1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("branch,")
    slope6 = [l for l in lines[1:] if l.endswith(",6")]
    assert len(slope6) == 1


def test_sweep_above_the_dense_cap_exits_2(fixture_dir, capsys, monkeypatch):
    from homology_lab import spectra

    monkeypatch.setattr(spectra, "DENSE_EIG_CAP", 10)
    code, out, err = run(
        capsys, "spectrum", str(fixture_dir / "gadget-0.json"), "--k", "1", "--grid", "default"
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "above the dense cap" in err
    assert "Traceback" not in err


def test_specseq_hexagon(fixture_dir, capsys):
    code, out, _ = run(
        capsys, "specseq", str(fixture_dir / "hexagon.json"), "--k", "1", "--j-max", "4",
        "--format", "csv",
    )
    assert code == 0
    assert "stabilizes to betti=0 at page 4" in out


def test_specseq_forman(fixture_dir, capsys, monkeypatch):
    from homology_lab.specseq import Filtration

    builds = []
    init = Filtration.__init__

    def counted(self, K):
        builds.append(K)
        init(self, K)

    monkeypatch.setattr(Filtration, "__init__", counted)
    code, out, _ = run(
        capsys, "specseq", str(fixture_dir / "gadget-0.json"), "--k", "1", "--forman"
    )
    assert code == 0
    assert "forman comparison: PASS" in out
    assert len(builds) == 1


GOLDEN = Path(__file__).parent / "golden"
SPECSEQ_MODES = {
    "text": ("--k", "1", "--j-max", "4"),
    "csv": ("--format", "csv", "--k", "1", "--j-max", "4"),
    "forman": ("--forman", "--k", "1"),
}


@pytest.mark.parametrize("mode", sorted(SPECSEQ_MODES))
@pytest.mark.parametrize("name", ["hexagon", "gadget-0"])
def test_specseq_golden_output(fixture_dir, capsys, name, mode):
    """stdout is byte-identical to the recorded tables."""
    code, out, _ = run(
        capsys, "specseq", str(fixture_dir / f"{name}.json"), *SPECSEQ_MODES[mode]
    )
    assert code == 0
    assert out == (GOLDEN / f"specseq-{name}-{mode}.txt").read_text()


# golden name -> argv; "@name" is the fixture or Hamiltonian file of that name
GOLDEN_RUNS = {
    **{
        f"betti-{name}": ("betti", f"@{name}", "--k", "all")
        for name in ["bowtie", "hexagon", "octahedron-3", "gadget-0", "gadget-00-minus-11"]
    },
    # a join of three factors: every row by Kunneth
    "betti-reduced-3q-no": ("betti", "@reduced-3q-no", "--k", "all"),
    "betti-reduced-3q-no-csv": ("betti", "@reduced-3q-no", "--k", "all", "--format", "csv"),
    "betti-reduced-3q-no-unreduced": ("betti", "@reduced-3q-no", "--k", "all", "--unreduced"),
    # eleven factors, dims up to 1.1e12
    "betti-reduced-10q-no-csv": ("betti", "@reduced-10q-no", "--k", "all", "--format", "csv"),
    "verify-gadget-2x0-minus-1": ("verify-gadget", '{"0": 2, "1": -1}'),
    "verify-gadget-00-minus-11": ("verify-gadget", '{"00": 1, "11": -1}'),
    "verify-gadget-Hclock1": ("verify-gadget", "Hclock1"),
    "decide-1q-no": ("decide", "@h-1q-no"),
    "decide-2q-yes": ("decide", "@h-2q-yes"),
    "spectrum-gadget-0-grid": ("spectrum", "@gadget-0", "--k", "1", "--grid", "default"),
    "spectrum-gadget-0-lambda-text": ("spectrum", "@gadget-0", "--k", "1", "--lambda", "0.5"),
    "spectrum-gadget-0-lambda-csv": (
        "spectrum", "@gadget-0", "--k", "1", "--lambda", "0.5", "--format", "csv"
    ),
    "decide-2q-inconclusive": ("decide", "@h-2q-inconclusive"),
    "decide-3q-no": ("decide", "@h-3q-no"),
    "decide-3q-no-unfactorable": ("decide", "@h-3q-no-unfactorable"),
    # above the dense cap: overlap rows from the least-squares projection
    "decide-3q-yes": ("decide", "@h-3q-mixed-support"),
    # overlap rows from two join factors, one on the non-contiguous qubits q1, q3
    "decide-3q-yes-padded": ("decide", "@h-3q-yes-padded"),
    # Laplacians of several connected blocks, solved block by block
    "spectrum-qubit-2-k2-grid": ("spectrum", "@qubit-2", "--k", "2", "--grid", "default"),
    "spectrum-two-gadgets-1q-k2-lambda-0.1": (
        "spectrum", "@two-gadgets-1q", "--k", "2", "--lambda", "0.1"
    ),
    # the reduced graph's JSON: support placement, term prefixes and padding
    "reduce-2q-yes": ("reduce", "@h-2q-yes"),
    "reduce-3q-mixed-support": ("reduce", "@h-3q-mixed-support"),
    "reduce-2q-four-projectors": ("reduce", "@h-2q-inconclusive"),
    "reduce-4q-mixed-idle": ("reduce", "@h-4q-mixed-idle"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_cli_golden_output(fixture_dir, capsys, name):
    """stdout is byte-identical to the output recorded before each refactor."""
    code, out, _ = run(capsys, *with_files(fixture_dir, GOLDEN_RUNS[name]))
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", ["gadget-00-minus-11", "hexagon", "two-gadgets-1q"])
def test_fixture_golden_json(tmp_path, capsys, name):
    """The file ``fixtures`` writes is byte-identical to the recorded one."""
    code, out, _ = run(capsys, "fixtures", "--out", str(tmp_path), "--which", name)
    assert code == 0
    assert Path(out.strip()).read_text() == (GOLDEN / f"fixture-{name}.json").read_text()


def assert_golden_at_blas_threads(fixture_dir, name, threads):
    """The golden run ``name`` in its own process, as BLAS fixes its thread
    count at import, with that many BLAS threads."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-m", "homology_lab", *with_files(fixture_dir, GOLDEN_RUNS[name])],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(n for n in GOLDEN_RUNS if n.startswith("decide-")))
def test_decide_golden_output_at_blas_threads(fixture_dir, name, threads):
    """The decide goldens hold byte for byte at one and at two BLAS threads."""
    assert_golden_at_blas_threads(fixture_dir, name, threads)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(n for n in GOLDEN_RUNS if n.startswith("spectrum-")))
def test_spectrum_golden_output_at_blas_threads(fixture_dir, name, threads):
    """The spectrum goldens hold byte for byte at one and at two BLAS
    threads: the symmetry blocks change the sizes that LAPACK sees."""
    assert_golden_at_blas_threads(fixture_dir, name, threads)


def test_spectrum_on_the_unfactorable_3q_no_solves_blocks_below_the_cap(tmp_path, capsys):
    """One join factor with dim C^5 = 7,344 above DENSE_EIG_CAP: its symmetry
    blocks, at most 1,220, are below it, so spectrum answers."""
    H = parse_hamiltonian(HAMILTONIANS["h-3q-no-unfactorable"])
    graph = tmp_path / "reduced-3q-no-unfactorable.json"
    graph.write_text(reduce_hamiltonian(H).to_json())
    start = time.perf_counter()
    code, out, err = run(capsys, "spectrum", str(graph), "--k", "5", "--lambda", "0.05")
    assert time.perf_counter() - start < 15
    assert (code, err) == (0, "")
    assert len(out.splitlines()[0].split()) == 7344 and "near-zero multiplicity 0" in out


# runs main on its argv (none: the import alone), then prints main's exit code
# and whether any scipy module is loaded
SCIPY_PROBE = """
import contextlib, io, sys
from homology_lab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
print(code, any(m.split(".")[0] == "scipy" for m in sys.modules))
"""
# argv -> whether the run needs a float solve, and so loads SciPy
SCIPY_RUNS = {
    "import": ((), False),
    "betti": (("betti", "@hexagon", "--k", "all"), False),
    "specseq-text": (("specseq", "@hexagon", "--k", "1"), False),
    "specseq-csv": (("specseq", "@hexagon", "--k", "1", "--format", "csv"), False),
    "reduce": (("reduce", "@h-2q-yes"), False),
    "verify-gadget": (("verify-gadget", "Hclock1"), False),
    "fixtures": (("fixtures", "--out", "@out"), False),
    "decide": (("decide", "@h-1q-no"), True),
    "spectrum-lambda": (("spectrum", "@hexagon", "--k", "1", "--lambda", "0.5"), True),
}


@pytest.mark.parametrize("case", sorted(SCIPY_RUNS))
def test_exact_commands_do_not_import_scipy(fixture_dir, tmp_path, case):
    """The exact commands load numpy only; SciPy comes with the first float
    solve.  Each run is a fresh interpreter: this one has SciPy loaded."""
    argv, loads = SCIPY_RUNS[case]
    argv = [str(tmp_path) if a == "@out" else a for a in with_files(fixture_dir, argv)]
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, *argv],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", str(loads)]


def test_reduce_and_decide(tmp_path, capsys):
    ham = tmp_path / "h.json"
    ham.write_text('{"n":1,"terms":[{"support":[0],"amps":{"0":1}}]}')
    out_graph = tmp_path / "g.json"
    code, _out, err = run(capsys, "reduce", str(ham), "--out", str(out_graph))
    assert code == 0
    doc = json.loads(out_graph.read_text())
    assert len(doc["vertices"]) == 12
    assert doc["reduction"]["k"] == 1

    code, out, _ = run(capsys, "decide", str(ham))
    assert code == 0
    assert out.splitlines()[0] == "YES"

    ham2 = tmp_path / "h2.json"
    ham2.write_text(
        '{"n":1,"terms":[{"support":[0],"amps":{"0":1}},{"support":[0],"amps":{"1":1}}]}'
    )
    code, out, _ = run(capsys, "decide", str(ham2))
    assert code == 0
    assert out.splitlines()[0] == "NO"
    assert any(line.startswith("lambda_min=") for line in out.splitlines())


def test_reduce_unsupported_term(tmp_path, capsys):
    ham = tmp_path / "h3.json"
    ham.write_text('{"n":3,"terms":[{"support":[0,1,2],"amps":{"000":1,"111":1}}]}')
    code, _out, err = run(capsys, "reduce", str(ham))
    assert code == 2
    assert "extension point" in err


MALFORMED_INPUTS = {
    "terms-not-a-list": ("decide", '{"n": 1, "terms": 1}'),
    "term-not-an-object": ("decide", '{"n": 1, "terms": [1]}'),
    "support-not-indices": ("decide", '{"n": 1, "terms": [{"support": ["a"], "amps": {"0": 1}}]}'),
    "qubit-count-bool": ("decide", '{"n": true, "terms": [{"support": [0], "amps": {"0": 1}}]}'),
    "vertices-not-a-list": ("betti", '{"vertices": 5}'),
    "edges-not-a-list": ("betti", '{"vertices": [{"id": "a"}], "edges": 5}'),
    "edge-endpoint-not-a-string": ("betti", '{"vertices": [{"id": "a"}], "edges": [[["x"], "a"]]}'),
    "amplitude-float": ("decide", '{"n": 1, "terms": [{"support": [0], "amps": {"0": 1.5}}]}'),
    "amplitude-string": ("decide", '{"n": 1, "terms": [{"support": [0], "amps": {"0": "3"}}]}'),
    "amplitude-bool": ("decide", '{"n": 1, "terms": [{"support": [0], "amps": {"0": true}}]}'),
    "amplitude-sum-too-large": (
        "decide", '{"n": 1, "terms": [{"support": [0], "amps": {"0": 100000000000000000000000, "1": 1}}]}'
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_is_format_error(tmp_path, capsys, case):
    command, text = MALFORMED_INPUTS[case]
    path = tmp_path / "in.json"
    path.write_text(text)
    code, _out, err = run(capsys, command, str(path))
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("command", ["betti", "decide"])
def test_non_utf8_input_is_malformed_json(tmp_path, capsys, monkeypatch, command, source):
    """A file and stdin with the same bytes end the same way."""
    data = b"\xff\xfe"
    if source == "file":
        path = tmp_path / "in.json"
        path.write_bytes(data)
        arg = str(path)
    else:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        arg = "-"
    code, out, err = run(capsys, command, arg)
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed JSON: not UTF-8 text")


# each overflows the int64 weight levels: one exponent itself, the other an
# edge's sum of two
HUGE_EXPONENTS = {
    "beyond-int64": '{"vertices": [{"id": "a", "w": 100000000000000000000000}]}',
    "edge-level-wraps": '{"vertices": [{"id": "a", "w": 4611686018427387904}, '
    '{"id": "b", "w": 4611686018427387904}], "edges": [["a", "b"]]}',
}


@pytest.mark.parametrize(
    "argv", [("betti",), ("spectrum", "--k", "0", "--lambda", "0.5"), ("specseq",)]
)
@pytest.mark.parametrize("case", sorted(HUGE_EXPONENTS))
def test_exponent_above_the_bound_is_format_error(tmp_path, capsys, case, argv):
    path = tmp_path / "g.json"
    path.write_text(HUGE_EXPONENTS[case])
    code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: vertex 'a' has weight exponent ")
    assert err.rstrip().endswith("above 2147483647")


# an integer literal one digit past Python's int-conversion limit, in each
# JSON input: (command, input in a file, exit code, stderr prefix)
HUGE_LITERAL = "9" * 4301
HUGE_LITERALS = {
    "hamiltonian-qubit-count": (
        "decide", '{"n": %s, "terms": []}' % HUGE_LITERAL, True, 2, "error: malformed JSON: "
    ),
    "graph-weight": (
        "betti", '{"vertices": [{"id": "a", "w": %s}]}' % HUGE_LITERAL, True, 2, "error: malformed JSON: "
    ),
    "inline-amplitude": ("verify-gadget", '{"0": %s}' % HUGE_LITERAL, False, 1, "usage error: "),
}


@pytest.mark.parametrize("case", sorted(HUGE_LITERALS))
def test_huge_integer_literal_ends_in_one_error_line(tmp_path, capsys, case):
    command, text, in_file, want, prefix = HUGE_LITERALS[case]
    if in_file:
        path = tmp_path / "in.json"
        path.write_text(text)
        text = str(path)
    code, out, err = run(capsys, command, text)
    assert (code, out) == (want, "")
    assert err.startswith(prefix) and err.count("\n") == 1


# answers too large to write: (command, qubit count, terms, stderr prefix).  A
# term-less Hamiltonian on n qubits has betti 2^n, past the int-to-str digit
# limit from n = 14,285 on; 10^20 qubit copies do not fit an index
ONE_TERM = [{"support": [0], "amps": {"0": 1}}]
TOO_LARGE = {
    "decide-betti-past-the-digit-limit": ("decide", 14285, [], "error: betti has more than "),
    "decide-qubits-past-an-index": ("decide", 10**20, ONE_TERM, "error: too large: "),
    "reduce-qubits-past-an-index": ("reduce", 10**20, ONE_TERM, "error: too large: "),
}


@pytest.mark.parametrize("case", sorted(TOO_LARGE))
def test_too_large_an_answer_ends_in_one_error_line(tmp_path, capsys, case):
    command, n, terms, prefix = TOO_LARGE[case]
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"n": n, "terms": terms}))
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (2, "")
    assert err.startswith(prefix) and err.count("\n") == 1


# main on argv in a process whose address space is capped at 2 GB
CAPPED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 * 2 ** 30, 2 * 2 ** 30))
from homology_lab.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_a_termless_decide_refuses_2_to_the_n_before_forming_it(tmp_path):
    """betti = 2^n of a Hamiltonian with no terms is refused when it has more
    digits than Python's int-to-str limit, before 2^n is formed: at 10^20
    qubits that ran 16 s into an out-of-memory error under this limit.  The
    limit is set in the child only; n = 14,284 still answers (next test)."""
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"n": 10**20, "terms": []}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", CAPPED_MAIN, "decide", str(path)],
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert time.perf_counter() - start < 2
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: betti has more than 4300 digits, too many to print: 2^")
    assert done.stderr.count("\n") == 1


def test_betti_at_the_digit_limit_still_prints(tmp_path, capsys):
    path = tmp_path / "h.json"
    path.write_text('{"n": 14284, "terms": []}')
    code, out, _ = run(capsys, "decide", str(path))
    answer, numbers = out.splitlines()
    assert (code, answer) == (0, "YES")
    assert numbers.startswith("k=28567 betti=") and numbers.split()[1] == f"betti={2 ** 14284}"


def test_verify_gadget_catalog_name(capsys):
    code, out, _ = run(capsys, "verify-gadget", "Hclock1")
    assert code == 0
    assert "PASS" in out


def test_verify_gadget_inline_singlet(capsys):
    code, out, _ = run(capsys, "verify-gadget", '{"00": 1, "11": -1}')
    assert code == 0
    assert "betti_3 = 3 (expected 3) PASS" in out
    assert out.strip().endswith("PASS")


# case -> (argv, exit code); "@name" is the fixture file of that name
REJECTED_ARGS = {
    "betti-k-not-an-integer": (("betti", "@bowtie", "--k", "x"), 1),
    "specseq-k-below-the-complex": (("specseq", "@hexagon", "--k", "-2"), 2),
    "specseq-negative-j-max": (("specseq", "@hexagon", "--j-max", "-1"), 1),
    # the cap counts the empty simplex: below 1 no graph, not even an empty one, fits
    "betti-zero-cap": (("betti", "@bowtie", "--cap", "0"), 1),
    "spectrum-negative-cap": (("spectrum", "@hexagon", "--k", "1", "--lambda", "1", "--cap", "-3"), 1),
    "specseq-zero-cap": (("specseq", "@hexagon", "--cap", "0"), 1),
    "inline-state-list": (("verify-gadget", "[1]"), 2),
    "inline-state-empty": (("verify-gadget", "{}"), 2),
    "inline-amplitude-word": (("verify-gadget", '{"0": "x"}'), 2),
    "inline-amplitude-float": (("verify-gadget", '{"0": 1.5}'), 2),
    "inline-amplitude-string": (("verify-gadget", '{"0": "3"}'), 2),
    "inline-amplitude-bool": (("verify-gadget", '{"0": true}'), 2),
    "inline-amplitude-sum-too-large": (("verify-gadget", '{"0": 100000000000000000000000, "1": 1}'), 2),
    "inline-state-nested-too-deeply": (("verify-gadget", "[" * 3000), 1),
    # every command builds the depth it reads; m is the bitstring length
    "betti-max-dim": (("betti", "@hexagon", "--k", "all", "--max-dim", "3"), 1),
    "spectrum-max-dim": (("spectrum", "@hexagon", "--k", "1", "--grid", "default", "--max-dim", "2"), 1),
    "specseq-max-dim": (("specseq", "@hexagon", "--max-dim", "5"), 1),
    "verify-gadget-m": (("verify-gadget", '{"00": 1}', "--m", "2"), 1),
    # lambda lies in (0, 1) but the threshold E underflows to 0.0
    "decide-threshold-underflows-c": (("decide", "@h-2q-inconclusive", "--c", "1e-60"), 2),
    "decide-threshold-underflows-g": (("decide", "@h-1q-no", "--g", "1e-300"), 2),
    "reduce-threshold-underflows": (("reduce", "@h-2q-inconclusive", "--c", "1e-60"), 2),
    # an empty grid is a bad grid, not the default one
    "spectrum-empty-grid": (("spectrum", "@hexagon", "--k", "1", "--grid", ""), 1),
    "specseq-forman-empty-grid": (("specseq", "@hexagon", "--k", "1", "--forman", "--grid", ""), 1),
    # a grid sweep would reject is a usage error too, as an out-of-range --lambda is
    **{
        f"{name}-grid-{fault}": ((*argv, "--grid", grid), 1)
        for name, argv in (("spectrum", ("spectrum", "@hexagon", "--k", "1")),
                           ("specseq-forman", ("specseq", "@hexagon", "--k", "1", "--forman")))
        for fault, grid in (("of-three-points", "0.3,0.2,0.1"),
                            ("increasing", "0.1,0.15,0.2,0.25"),
                            ("repeating-a-point", "0.3,0.2,0.2,0.1"),
                            ("above-one-half", "0.6,0.3,0.2,0.1"),
                            ("reaching-zero", "0.3,0.2,0.1,0"),
                            ("holding-nan", "0.3,nan,0.2,0.1"))
    },
}


@pytest.mark.parametrize("case", sorted(REJECTED_ARGS))
def test_bad_arguments_fail_without_traceback(fixture_dir, capsys, case):
    argv, want = REJECTED_ARGS[case]
    code, out, err = run(capsys, *with_files(fixture_dir, argv))
    assert code == want
    assert err.startswith("usage error: " if want == 1 else "error: ")
    assert out == ""


@pytest.mark.parametrize("argv", [("spectrum", "@hexagon", "--k", "1"),
                                  ("specseq", "@hexagon", "--k", "1", "--forman")],
                         ids=["spectrum", "specseq-forman"])
def test_a_bad_grid_is_refused_before_the_complex_is_built(fixture_dir, capsys, monkeypatch,
                                                           argv):
    from homology_lab import cli

    def refuse(*_args, **_kwargs):
        raise AssertionError("complex built for a bad grid")

    monkeypatch.setattr(cli, "clique_complex", refuse)
    code, out, err = run(capsys, *with_files(fixture_dir, [*argv, "--grid", "0.3,0.2,0.1"]))
    assert (code, out) == (1, "")
    assert err == ("usage error: bad grid '0.3,0.2,0.1': "
                   "sweep needs a grid of at least 4 points\n")


def test_out_of_memory_is_a_computation_error(fixture_dir, capsys, monkeypatch):
    """A MemoryError from the library ends in exit 2 and one line, like the
    padded 12q YES under a 700 MB address-space limit; the library call is
    made to raise rather than the host's memory exhausted."""
    from homology_lab import cli

    def exhausted(*_args, **_kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "decide", exhausted)
    assert run(capsys, *with_files(fixture_dir, ["decide", "@h-1q-no"])) == (
        2, "", "error: out of memory\n"
    )


def test_unknown_fixture_is_usage_error(tmp_path, capsys):
    code, _out, err = run(capsys, "fixtures", "--out", str(tmp_path), "--which", "bogus")
    assert code == 1
    assert "unknown fixtures: ['bogus']" in err


def test_unknown_command_is_usage_error(capsys):
    code, _out, err = run(capsys, "frobnicate")
    assert code == 1


# -- fuzz of main: every argv ends in exit 0, 1 or 2, never in a traceback -----

FUZZ_OPTIONS = {
    "--k": ["-2", "-1", "0", "1", "2", "all", "x"],
    "--lambda": ["0", "0.5", "1", "1.5", "nan", "x"],
    "--grid": ["default", "0.3,0.2,0.1,0.05", "0.1,0.2,0.3,0.4", "0.3,0.2", "x"],
    "--max-dim": ["-1", "0", "1", "3", "x"],
    "--cap": ["0", "3", "1000", "x"],
    "--format": ["text", "csv", "json", "xml"],
    "--j-max": ["-1", "0", "2", "x"],
    "--c": ["0.1", "0", "-1", "nan", "x"],
    "--g": ["1", "0", "-2", "inf", "x"],
    "--which": ["bowtie", "hexagon", "bogus"],
    "--out": ["@out"],
    "--unreduced": None,
    "--forman": None,
}
GRAPH_OPTIONS = ["--cap", "--format"]
FUZZ_COMMANDS = {  # command -> its own options
    "betti": ["--k", "--unreduced", *GRAPH_OPTIONS],
    "spectrum": ["--k", "--lambda", "--grid", *GRAPH_OPTIONS],
    "specseq": ["--k", "--j-max", "--forman", "--grid", *GRAPH_OPTIONS],
    "reduce": ["--c", "--g", "--out"],
    "decide": ["--c", "--g"],
    "verify-gadget": [],
    "fixtures": ["--out", "--which"],
    "frobnicate": [],
}
# options a run needs to get past argument checks; left out one time in ten
FUZZ_REQUIRED = {"spectrum": [["--k", "--lambda"], ["--k", "--grid"]], "fixtures": [["--out"]]}


def test_fuzz_lists_name_every_option_of_each_command():
    """Each subcommand's FUZZ_COMMANDS list is exactly its build_parser() --options."""
    defined = parser_options()
    assert {name: set(FUZZ_COMMANDS[name]) for name in defined} == defined


@st.composite
def one_qubit_hamiltonians(draw):
    """Small enough that decide runs in milliseconds."""
    amps = st.dictionaries(st.sampled_from(["0", "1"]), st.integers(-2, 2).filter(bool), min_size=1)
    terms = [{"support": [0], "amps": draw(amps)} for _ in range(draw(st.integers(0, 2)))]
    return {"n": 1, "terms": terms}


@st.composite
def fuzz_argvs(draw):
    """(argv, input text): "@in" names the input file, "@out" a scratch path."""
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    if command in ("reduce", "decide"):
        docs = one_qubit_hamiltonians()
    elif command == "verify-gadget":
        docs = st.sampled_from([{"0": 1}, {"0": 1, "1": -1}])
    else:
        docs = GRAPH_DOCS
    text = draw(st.one_of(docs.map(json.dumps), texts(docs)))
    positional = draw(st.sampled_from(
        [["@in"]] * 6 + [[], ["/nonexistent/in.json"], ["@in", "@in"]]
    ))
    if command == "fixtures":
        positional = []
    elif command == "verify-gadget" and positional == ["@in"]:
        positional = [text]
    argv = [command, *positional]
    own = st.sampled_from(FUZZ_COMMANDS[command] or sorted(FUZZ_OPTIONS))
    flags = st.one_of(own, own, own, own, st.sampled_from(sorted(FUZZ_OPTIONS)))
    required = draw(st.sampled_from(FUZZ_REQUIRED.get(command, [[]])))
    if not draw(st.sampled_from([True] * 9 + [False])):
        required = []
    for flag in required + draw(st.lists(flags, max_size=4)):
        argv.append(flag)
        if FUZZ_OPTIONS[flag] is not None:
            argv.append(draw(st.sampled_from(FUZZ_OPTIONS[flag])))
    return argv, text


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=100, deadline=None)
@given(fuzz_argvs())
def test_main_exits_cleanly_on_any_input(fuzz_dir, case):
    argv, text = case
    (fuzz_dir / "in.json").write_text(text)
    paths = {"@in": str(fuzz_dir / "in.json"), "@out": str(fuzz_dir / "out")}
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([paths.get(a, a) for a in argv])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
