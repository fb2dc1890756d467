import json

import pytest

from lcmlat import properties
from lcmlat.cli import run_cli

FIG3_IDEAL = "ring 6\nx1*x2*x3\nx2*x3*x4\nx4*x5*x6\n"
TETRA_JSON = '{"n": 4, "edges": [[1,2,3],[1,2,4],[1,3,4],[2,3,4]]}'
POLARIZE_IDEAL = "ring 2\nx1^2*x2\nx2^3\n"


@pytest.fixture
def fig3_ideal_file(tmp_path):
    p = tmp_path / "fig3.ideal"
    p.write_text(FIG3_IDEAL)
    return str(p)


@pytest.fixture
def tetra_file(tmp_path):
    p = tmp_path / "tetra.json"
    p.write_text(TETRA_JSON)
    return str(p)


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_dot_fig3(self, capsys, fig3_ideal_file):
        code, out, err = run(capsys, "build", "--ideal", fig3_ideal_file, "--format", "dot")
        assert code == 0
        assert out.count("[label=") == 7
        assert out.count(" -> ") == 9

    def test_json_from_hypergraph(self, capsys, tetra_file):
        code, out, _ = run(capsys, "build", "--hypergraph", tetra_file)
        assert code == 0
        obj = json.loads(out)
        assert len(obj["elements"]) == 6

    def test_out_file(self, tmp_path, capsys, fig3_ideal_file):
        target = tmp_path / "lat.json"
        code, out, _ = run(capsys, "build", "--ideal", fig3_ideal_file, "--out", str(target))
        assert code == 0 and out == ""
        assert len(json.loads(target.read_text())["elements"]) == 7

    def test_missing_input(self, capsys):
        code, out, err = run(capsys, "build")
        assert code == 2
        assert json.loads(err)["error"]

    def test_exclusive_inputs(self, capsys, fig3_ideal_file, tetra_file):
        code, _, err = run(capsys, "build", "--ideal", fig3_ideal_file,
                           "--hypergraph", tetra_file)
        assert code == 2


class TestCheck:
    def test_tetra_modular(self, capsys, tetra_file):
        code, out, _ = run(capsys, "check", "--hypergraph", tetra_file,
                           "--property", "modular")
        assert code == 0
        obj = json.loads(out)
        assert obj == {"property": "modular", "holds": True, "witness": None}

    def test_all_properties_fixed_order(self, capsys, tetra_file):
        code, out, _ = run(capsys, "check", "--hypergraph", tetra_file)
        assert code == 0
        names = [json.loads(line)["property"] for line in out.splitlines()]
        assert names == [
            "boolean", "modular", "distributive",
            "complemented", "relatively-complemented",
        ]

    def test_internal_error_exits_3(self, capsys, monkeypatch, tetra_file):
        def disagree(L):
            raise RuntimeError("boolean routes disagree: planted")

        monkeypatch.setattr(properties, "all_properties", disagree)
        code, out, err = run(capsys, "check", "--hypergraph", tetra_file, "--assert")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err
        assert json.loads(err) == {
            "error": "boolean routes disagree: planted", "internal": "RuntimeError",
        }

    def test_assert_mode(self, capsys, fig3_ideal_file):
        code, out, _ = run(capsys, "check", "--ideal", fig3_ideal_file,
                           "--property", "modular", "--assert")
        assert code == 1
        assert json.loads(out)["holds"] is False

    def test_deterministic_output(self, capsys, fig3_ideal_file):
        _, out1, _ = run(capsys, "check", "--ideal", fig3_ideal_file)
        _, out2, _ = run(capsys, "check", "--ideal", fig3_ideal_file)
        assert out1 == out2


class TestConditions:
    def test_tetra(self, capsys, tetra_file):
        code, out, _ = run(capsys, "conditions", "--hypergraph", tetra_file)
        assert code == 0
        verdicts = {json.loads(l)["condition"]: json.loads(l) for l in out.splitlines()}
        assert verdicts["uniform-n-minus-1"]["holds"] is True
        assert verdicts["predicts-modular"]["holds"] is True

    def test_graph_gets_graph_conditions(self, capsys, tmp_path):
        p = tmp_path / "p4.json"
        p.write_text('{"n": 4, "edges": [[1,2],[2,3],[3,4]]}')
        code, out, _ = run(capsys, "conditions", "--hypergraph", str(p))
        names = [json.loads(l)["condition"] for l in out.splitlines()]
        assert "degree1-path" in names and "induced-p4" in names


class TestPolarize:
    def test_worked_example(self, capsys, tmp_path):
        p = tmp_path / "ideal.txt"
        p.write_text(POLARIZE_IDEAL)
        code, out, _ = run(capsys, "polarize", "--ideal", str(p))
        assert code == 0
        obj = json.loads(out)
        assert obj["polarized"]["ring"] == 5
        assert obj["polarized"]["generators"] == ["x1*x2*x3", "x3*x4*x5"]
        assert obj["variable_names"] == ["x1_1", "x1_2", "x2_1", "x2_2", "x2_3"]


class TestProductIso:
    def test_iso_polarization(self, capsys, tmp_path):
        a = tmp_path / "a.ideal"
        a.write_text(POLARIZE_IDEAL)
        b = tmp_path / "b.ideal"
        b.write_text("ring 5\nx1*x2*x3\nx3*x4*x5\n")
        code, out, _ = run(capsys, "iso", "--ideal", str(a), "--ideal", str(b))
        assert code == 0
        obj = json.loads(out)
        assert obj["isomorphic"] is True

    def test_product(self, capsys, tmp_path):
        a = tmp_path / "a.ideal"
        a.write_text("ring 2\nx1*x2\n")
        code, out, _ = run(capsys, "product", "--ideal", str(a), "--ideal", str(a))
        assert code == 0
        obj = json.loads(out)
        assert len(obj["elements"]) == 4
        assert obj["complemented"] is True

    def test_product_needs_two(self, capsys, tmp_path):
        a = tmp_path / "a.ideal"
        a.write_text("ring 2\nx1*x2\n")
        code, _, err = run(capsys, "product", "--ideal", str(a))
        assert code == 2


class TestAudit:
    def test_polarization_audit(self, capsys):
        code, out, _ = run(
            capsys, "audit", "--theorem", "polarization-iso",
            "--count", "20", "--seed", "7", "--n", "2..3", "--m", "1..3",
        )
        assert code == 0
        lines = out.splitlines()
        summary = json.loads(lines[-1])["summary"]
        assert summary["total"] == 20
        assert summary["agree"] == 20
        assert all(json.loads(l)["agree"] for l in lines[:-1])

    def test_byte_identical_reruns(self, capsys):
        args = ("audit", "--theorem", "birkhoff-crosscheck",
                "--count", "10", "--seed", "3", "--n", "2..3", "--m", "1..3")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "audit", "--theorem", "boolean", "--n", "5..2")
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "build", "--nope")
        assert code == 2
