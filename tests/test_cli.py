import json
from pathlib import Path

import pytest

from homology_lab.cli import main
from homology_lab.fixtures import write_fixtures


HAMILTONIANS = {
    "h-1q-no": '{"n":1,"terms":[{"support":[0],"amps":{"0":1}},{"support":[0],"amps":{"1":1}}]}',
    "h-2q-yes": '{"n":2,"terms":[{"support":[0,1],"amps":{"00":1,"11":-1}}]}',
}


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixtures")
    write_fixtures(str(d), ["bowtie", "hexagon", "octahedron-3", "gadget-0", "gadget-00-minus-11"])
    for name, text in HAMILTONIANS.items():
        (d / f"{name}.json").write_text(text)
    return d


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_betti_missing_file_fails_cleanly(capsys):
    code, _out, err = run(capsys, "betti", "/nonexistent/g.json", "--k", "all")
    assert code == 1
    assert "cannot read" in err


def test_spectrum_triangle(capsys, tmp_path):
    from homology_lab.graph import complement, graph_to_json, unweighted

    p = tmp_path / "k3.json"
    p.write_text(graph_to_json(complement(unweighted(["a", "b", "c"]))))
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


def test_specseq_hexagon(fixture_dir, capsys):
    code, out, _ = run(
        capsys, "specseq", str(fixture_dir / "hexagon.json"), "--k", "1", "--j-max", "4",
        "--format", "csv",
    )
    assert code == 0
    assert "stabilizes to betti=0 at page 4" in out


def test_specseq_forman(fixture_dir, capsys):
    code, out, _ = run(
        capsys, "specseq", str(fixture_dir / "gadget-0.json"), "--k", "1", "--forman"
    )
    assert code == 0
    assert "forman comparison: PASS" in out


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
    "verify-gadget-2x0-minus-1": ("verify-gadget", '{"0": 2, "1": -1}'),
    "verify-gadget-00-minus-11": ("verify-gadget", '{"00": 1, "11": -1}'),
    "verify-gadget-Hclock1": ("verify-gadget", "Hclock1"),
    "decide-1q-no": ("decide", "@h-1q-no"),
    "decide-2q-yes": ("decide", "@h-2q-yes"),
    "spectrum-gadget-0-grid": ("spectrum", "@gadget-0", "--k", "1", "--grid", "default"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_cli_golden_output(fixture_dir, capsys, name):
    """stdout is byte-identical to the output recorded before the integer core."""
    argv = [
        str(fixture_dir / f"{a[1:]}.json") if a.startswith("@") else a
        for a in GOLDEN_RUNS[name]
    ]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_text()


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


def test_verify_gadget_catalog_name(capsys):
    code, out, _ = run(capsys, "verify-gadget", "Hclock1")
    assert code == 0
    assert "PASS" in out


def test_verify_gadget_inline_singlet(capsys):
    code, out, _ = run(capsys, "verify-gadget", '{"00": 1, "11": -1}')
    assert code == 0
    assert "betti_3 = 3 (expected 3) PASS" in out
    assert out.strip().endswith("PASS")


def test_unknown_command_is_usage_error(capsys):
    code, _out, err = run(capsys, "frobnicate")
    assert code == 1
