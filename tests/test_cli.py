import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lcmlat
from lcmlat import cli, properties
from lcmlat.cli import run_cli
from lcmlat.monomials import MAX_RING_DIMENSION, monomial_str

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


def run_subprocess(*argv):
    """The CLI in a child process; the timeout turns a hang into a failure."""
    src = str(Path(lcmlat.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "lcmlat.cli", *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )


def assert_one_error_line(done, message):
    assert (done.returncode, done.stdout) == (2, "")
    lines = done.stderr.splitlines()
    assert len(lines) == 1
    assert message in json.loads(lines[0])["error"]


class TestNoCapFlags:
    # every cap is a module constant, so no subcommand takes a cap flag
    @pytest.mark.parametrize("subcommand", ["build", "check", "conditions", "polarize",
                                            "product", "iso", "audit"])
    def test_max_lattice_is_refused(self, capsys, tmp_path, tetra_file, subcommand):
        ideal = tmp_path / "b2.ideal"
        ideal.write_text("ring 2\nx1\nx2\n")  # 4 elements, inside a cap of 5
        inputs = {
            "conditions": ["--hypergraph", tetra_file],
            "product": ["--ideal", str(ideal), "--ideal", str(ideal)],
            "iso": ["--ideal", str(ideal), "--ideal", str(ideal)],
            "audit": ["--theorem", "boolean", "--n", "2..2", "--k", "2..2", "--m", "1..1"],
        }.get(subcommand, ["--ideal", str(ideal)])
        assert run(capsys, subcommand, *inputs)[0] == 0
        code, out, err = run(capsys, subcommand, *inputs, "--max-lattice", "5")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --max-lattice 5" in err


def _cli_reads() -> dict:
    """cli function name -> (the args.<name> attributes it reads, the cli
    functions it passes args to), from the source of cli."""
    table = {}
    for node in ast.parse(Path(cli.__file__).read_text()).body:
        if not isinstance(node, ast.FunctionDef):
            continue
        attrs, callees = set(), set()
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                    and sub.value.id == "args"):
                attrs.add(sub.attr)
            elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                  and any(isinstance(a, ast.Name) and a.id == "args" for a in sub.args)):
                callees.add(sub.func.id)
        table[node.name] = attrs, callees
    return table


def _args_read(table: dict, name: str) -> set:
    """The args.<name> attributes that cli function `name` reads, itself or
    through the cli functions it passes args to."""
    attrs, callees = table[name]
    return attrs.union(*(_args_read(table, callee) for callee in callees))


class TestParserTable:
    """Each subcommand takes exactly the flags its _cmd_* reads."""

    def test_flags_are_the_reads(self):
        table = _cli_reads()
        parser = cli._build_parser()
        (subparsers,) = [a for a in parser._actions if a.choices and a.dest == "subcommand"]
        assert set(subparsers.choices) == set(cli._COMMANDS)
        for name, sub in subparsers.choices.items():
            flags = {a.dest for a in sub._actions if a.option_strings and a.dest != "help"}
            assert flags == _args_read(table, cli._COMMANDS[name].__name__), name

    def test_conditions_refuses_ideal(self, capsys, tmp_path, tetra_file):
        missing = str(tmp_path / "missing.txt")
        code, out, err = run(capsys, "conditions", "--hypergraph", tetra_file,
                             "--ideal", missing)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": f"lcmlat: unrecognized arguments: --ideal {missing}"}

    def test_polarize_refuses_hypergraph(self, capsys, tmp_path, fig3_ideal_file):
        missing = str(tmp_path / "missing.json")
        code, out, err = run(capsys, "polarize", "--ideal", fig3_ideal_file,
                             "--hypergraph", missing)
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": f"lcmlat: unrecognized arguments: --hypergraph {missing}"}


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

    def test_boolean_near_cap_fills_no_table(self, capsys, monkeypatch, tmp_path):
        # the 12-edge matching has 4096 elements; its leq table alone would
        # take 4096^2 bytes = 16 MB
        p = tmp_path / "matching.json"
        p.write_text(json.dumps({"n": 24, "edges": [[2 * i + 1, 2 * i + 2] for i in range(12)]}))
        built = []

        def recording(I, *args, **kwargs):
            built.append(lcmlat.build_lcm_lattice(I, *args, **kwargs))
            return built[-1]

        monkeypatch.setattr(cli, "build_lcm_lattice", recording)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "check", "--hypergraph", str(p), "--property", "boolean")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        assert json.loads(out) == {"property": "boolean", "holds": True, "witness": None}
        assert built[0].size == 4096 and "lattice" not in vars(built[0])
        assert peak < 4096**2 // 2

    def test_relatively_complemented_near_cap(self, tmp_path):
        # the 12-edge matching is Boolean with 4096 elements, close to the
        # default cap
        p = tmp_path / "matching.json"
        p.write_text(json.dumps({"n": 24, "edges": [[2 * i + 1, 2 * i + 2] for i in range(12)]}))
        done = run_subprocess("check", "--hypergraph", str(p),
                              "--property", "relatively-complemented")
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout) == {
            "property": "relatively-complemented", "holds": True, "witness": None,
        }


def _staircase_file(tmp_path, g):
    """x1^i*x2^(g-1-i), i < g: g generators, 1 + g(g+1)/2 elements."""
    p = tmp_path / f"staircase{g}.ideal"
    p.write_text("ring 2\n" + "".join(f"x1^{i}*x2^{g - 1 - i}\n" for i in range(g)))
    return str(p)


class TestGeneratorLimit:
    """MAX_KEY_BITS = 24 is the only generator limit; there is no flag for it."""

    # sha256 of the stdout these commands printed when 17 or 24 generators
    # needed a flag to pass a generator cap of 16: the bytes are unchanged
    DIGESTS = {
        (17, "build"): "0e7eff58a0fd9cb18af2ac6186ba7775b848f77d0749a5f0e56ade2e57918136",
        (17, "boolean"): "958699f997210e898b9131bc4c3abea2f6a32ae1b6a153e8271c7a4cddac516d",
        (24, "build"): "c50f5d8f8b60288b5ba17d5170aef324758f6d7a16b2f22453df83524d0ed06c",
        (24, "boolean"): "ca4641be23bcc44310e7f38b403577a88edde9001077ed1629a32398b1c14e14",
        (24, "all"): "1fbe24997b36ede2a58670d67851e506b18bb62539795177cd5549148d6fbbd3",
    }

    @pytest.mark.parametrize("g,command", DIGESTS)
    def test_staircase_builds_by_default(self, capsys, tmp_path, g, command):
        argv = ["build"] if command == "build" else ["check", "--property", command]
        code, out, err = run(capsys, *argv, "--ideal", _staircase_file(tmp_path, g))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[g, command]

    @pytest.mark.parametrize("command", ["build", "check"])
    def test_past_key_width_exits_2(self, capsys, tmp_path, command):
        code, out, err = run(capsys, command, "--ideal", _staircase_file(tmp_path, 25))
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "ideal has 25 generators; the subset table "
                                            "of the lattice fill holds at most 24"}

    def test_wide_hypergraph_refused_before_its_rows(self, tmp_path):
        # one-vertex edges in a 2^20-vertex ring: 33 of them pass the cell
        # cap in edge_ideal; 26 stay under it and meet the generator limit
        for edges, message in (
                (33, "edge ideal exceeds the cell cap 33554432: "
                     "33 edges x 1048576 ring variables"),
                (26, "ideal has 26 generators; the subset table "
                     "of the lattice fill holds at most 24")):
            p = tmp_path / f"wide{edges}.json"
            p.write_text(json.dumps({"n": MAX_RING_DIMENSION,
                                     "edges": [[v] for v in range(1, edges + 1)]}))
            done = run_subprocess("check", "--hypergraph", str(p), "--property", "boolean")
            assert_one_error_line(done, message)

    def test_no_generator_flag(self, capsys, fig3_ideal_file):
        code, out, err = run(capsys, "check", "--ideal", fig3_ideal_file,
                             "--max-generators", "24")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --max-generators 24" in err

    def test_cell_cap_exits_2(self, capsys, monkeypatch, tmp_path):
        # a 12-edge star x_i*x_13 holds 2^k rows after round k: a cap of
        # 32 * 13 cells is passed in round 6
        p = tmp_path / "star.json"
        p.write_text(json.dumps({"n": 13, "edges": [[i, 13] for i in range(1, 13)]}))
        monkeypatch.setattr(lcmlat.lattice, "MAX_CELLS", 32 * 13)
        code, out, err = run(capsys, "check", "--hypergraph", str(p), "--property", "boolean")
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "lattice exceeds the cell cap 416: 64 elements x 13 ring variables"}


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


MALFORMED_HYPERGRAPHS = {
    "string vertices": '{"n": 3, "edges": [["1", "2"]]}',
    "edges an object": '{"n": 3, "edges": {"a": 1}}',
    "list vertex": '{"n": 3, "edges": [[[1], 2]]}',
    "infinite n": '{"n": Infinity, "edges": [[1, 2]]}',
    "fractional n": '{"n": 2.7, "edges": [[1, 2]]}',
    "boolean n": '{"n": true, "edges": [[1]]}',
    "boolean vertex": '{"n": 2, "edges": [[true, 2]]}',
    "deep nesting": '{"n": 3, "edges": ' + "[" * 5000 + "]" * 5000 + "}",
    "repeated vertex": '{"n": 3, "edges": [[1, 1, 2], [2, 3]]}',
    "vertex count over the cap": f'{{"n": {MAX_RING_DIMENSION + 1}, "edges": [[1, 2]]}}',
    "vertex count 10^8": '{"n": 100000000, "edges": [[1, 2]]}',
}
MALFORMED_IDEALS = {
    "underscore in ring": "ring 1_0\nx1*x2\n",
    "non-ASCII ring": "ring \uff13\nx1\n",
    "signed ring": "ring +3\nx1\n",
    "non-ASCII variable": "ring 2\nx\uff11*x2\n",
    "non-ASCII exponent": "ring 2\nx1^\uff12\n",
    "ring over the cap": f"ring {MAX_RING_DIMENSION + 1}\nx1\n",
    "ring 10^8": "ring 100000000\nx1*x2\n",
}


class TestMalformedFiles:
    """Every malformed input file ends in exit 2 and one JSON line naming it."""

    @staticmethod
    def assert_refused(capsys, path, *argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert set(error) == {"error"} and path in error["error"]

    @pytest.mark.parametrize("name", sorted(MALFORMED_HYPERGRAPHS))
    @pytest.mark.parametrize("command", ["check", "conditions"])
    def test_hypergraph(self, capsys, tmp_path, name, command):
        p = tmp_path / "h.json"
        p.write_text(MALFORMED_HYPERGRAPHS[name])
        self.assert_refused(capsys, str(p), command, "--hypergraph", str(p))

    @pytest.mark.parametrize("name", sorted(MALFORMED_IDEALS))
    @pytest.mark.parametrize("command", ["build", "polarize"])
    def test_ideal(self, capsys, tmp_path, name, command):
        p = tmp_path / "i.ideal"
        p.write_text(MALFORMED_IDEALS[name], encoding="utf-8")
        self.assert_refused(capsys, str(p), command, "--ideal", str(p))


# generated file contents for both formats: tiny well-formed files, files
# built from bad tokens and header values over the cap, arbitrary text, and
# every malformed file above
OVER_CAP = st.sampled_from([MAX_RING_DIMENSION + 1, 10**8])
FACTORS = st.sampled_from(["1", "x1", "x2", "x3^2", "x1^3", "x0", "x4", "x2^0", "x1^65537",
                           "y1", "x\uff11", "x1^", "", "*", " x2 "])
IDEAL_TEXTS = st.one_of(
    st.integers(1, 3).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=4,
    ).map(lambda gens: f"ring {n}\n" + "".join(monomial_str(g) + "\n" for g in gens))),
    st.builds(
        lambda header, lines: "\n".join([header] + lines) + "\n",
        st.one_of(st.integers(0, 4), OVER_CAP).map("ring {}".format)
        | st.sampled_from(["ring", "ring x", "# only a comment", "ring 2 3"]),
        st.lists(st.lists(FACTORS, min_size=1, max_size=3).map("*".join), max_size=4),
    ),
    st.sampled_from(sorted(MALFORMED_IDEALS.values())),
    st.text(max_size=30),
)
VERTICES = st.integers(-1, 5) | st.booleans() | st.sampled_from(["1", 1.5, None, [1]])
HYPERGRAPH_TEXTS = st.one_of(
    st.integers(1, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(1, n), min_size=1, max_size=3), max_size=4,
    ).map(lambda edges: json.dumps({"n": n, "edges": edges}))),
    st.builds(
        lambda n, edges: json.dumps({"n": n, "edges": edges}),
        st.integers(-1, 5) | OVER_CAP | st.sampled_from([True, 2.0, "3", None]),
        st.lists(st.lists(VERTICES, max_size=4), max_size=4) | st.sampled_from([{}, 3, None]),
    ),
    st.sampled_from(sorted(MALFORMED_HYPERGRAPHS.values())),
    st.text(max_size=30),
)


def run_captured(argv):
    """run_cli with stdout and stderr captured, for tests that take no capsys."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return code, out.getvalue(), err.getvalue()


class TestFileFuzz:
    """Any file contents end in exit 0 or 2; on 2, stderr is one JSON line."""

    @staticmethod
    def assert_contract(argv):
        code, out, err = run_captured([str(a) for a in argv])
        assert code in (0, 2), (argv, err)
        if code == 2:
            assert out == "" and err.endswith("\n") and err.count("\n") == 1
            assert set(json.loads(err)) == {"error"}

    @settings(max_examples=60, deadline=None)
    @given(ideal=IDEAL_TEXTS, other=IDEAL_TEXTS, hypergraph=HYPERGRAPH_TEXTS)
    def test_generated_files(self, tmp_path_factory, ideal, other, hypergraph):
        d = tmp_path_factory.mktemp("fuzz")
        i, j, h = d / "i.ideal", d / "j.ideal", d / "h.json"
        i.write_text(ideal, encoding="utf-8")
        j.write_text(other, encoding="utf-8")
        h.write_text(hypergraph, encoding="utf-8")
        for command in ("build", "check"):
            self.assert_contract([command, "--ideal", i])
            self.assert_contract([command, "--hypergraph", h])
        self.assert_contract(["conditions", "--hypergraph", h])
        self.assert_contract(["polarize", "--ideal", i])
        for command in ("product", "iso"):
            self.assert_contract([command, "--ideal", i, "--ideal", j])


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

    @pytest.mark.parametrize("text, message", [
        # 17 * 65536 slots: a ring no file reader accepts
        ("ring 17\n" + "".join(f"x{i}^65536\n" for i in range(1, 18)),
         "polarized ring dimension 1114112 exceeds the cap 1048576"),
        # 33 generators in the 2^20 slots of 16 variables at the exponent cap
        ("ring 16\n" + "".join(f"x{i}^65536\n" for i in range(1, 17))
         + "".join(f"x1^{a}*x2^{65536 - a}\n" for a in range(1, 18)),
         "exceeds the cell cap 33554432: 33 generators x 1048576 ring variables"),
    ], ids=["ring", "cells"])
    def test_over_cap_exits_2(self, tmp_path, text, message):
        p = tmp_path / "ideal.txt"
        p.write_text(text)
        assert_one_error_line(run_subprocess("polarize", "--ideal", str(p)), message)


class TestArgumentErrors:
    """A bad flag or value exits 2 with one JSON line on stderr, like any
    other input error; --help still exits 0."""

    @pytest.mark.parametrize("argv, message", [
        (("check", "--property", "bogus"),
         "lcmlat check: argument --property: invalid choice: 'bogus'"),
        (("audit", "--theorem", "bogus"),
         "lcmlat audit: argument --theorem: invalid choice: 'bogus'"),
        (("audit",), "lcmlat audit: the following arguments are required: --theorem"),
        (("build", "--ideal", "I.txt", "--nope"), "lcmlat: unrecognized arguments: --nope"),
        (("audit", "--theorem", "boolean", "--count", "x"),
         "lcmlat audit: argument --count: invalid int value: 'x'"),
        ((), "lcmlat: the following arguments are required: subcommand"),
        (("build",), "lcmlat build: one of the arguments --ideal --hypergraph is required"),
        (("build", "--ideal", "I.txt", "--hypergraph", "H.json"),
         "lcmlat build: argument --hypergraph: not allowed with argument --ideal"),
        (("conditions",),
         "lcmlat conditions: the following arguments are required: --hypergraph"),
        (("polarize",), "lcmlat polarize: the following arguments are required: --ideal"),
        (("audit", "--theorem", "boolean", "--n", "2..x"),
         "lcmlat audit: argument --n: bad range '2..x'; expected 'a..b'"),
        (("audit", "--theorem", "boolean", "--n", "5..2"),
         "lcmlat audit: argument --n: empty range '5..2'"),
    ])
    def test_one_json_line(self, argv, message):
        assert_one_error_line(run_subprocess(*argv), message)

    @pytest.mark.parametrize("argv", [("--help",), ("audit", "--help")])
    def test_help_exits_0(self, argv):
        done = run_subprocess(*argv)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.startswith("usage: lcmlat")


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

    @pytest.mark.parametrize("subcommand", ["iso", "product"])
    def test_repeated_in_process_runs(self, capsys, tmp_path, subcommand):
        # the parser is built once per process; reusing it leaks nothing
        a = tmp_path / "a.ideal"
        a.write_text(POLARIZE_IDEAL)
        b = tmp_path / "b.ideal"
        b.write_text("ring 5\nx1*x2*x3\nx3*x4*x5\n")
        argv = (subcommand, "--ideal", str(a), "--ideal", str(b))
        first = run(capsys, *argv)
        assert first[0] == 0
        assert run(capsys, *argv) == first
        assert run(capsys, subcommand, "--ideal", str(a))[0] == 2
        assert run(capsys, *argv) == first

    def test_product_refused_past_cap(self, capsys, tmp_path):
        # a 7-edge and a 6-edge matching: 128 * 64 elements, past the product cap
        a = tmp_path / "a.ideal"
        a.write_text("ring 14\n" + "".join(f"x{2 * i + 1}*x{2 * i + 2}\n" for i in range(7)))
        b = tmp_path / "b.ideal"
        b.write_text("ring 12\n" + "".join(f"x{2 * i + 1}*x{2 * i + 2}\n" for i in range(6)))
        code, out, err = run(capsys, "product", "--ideal", str(a), "--ideal", str(b))
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "product size 8192 exceeds the cap 6400"}

    def test_product_needs_two(self, capsys, tmp_path):
        a = tmp_path / "a.ideal"
        a.write_text("ring 2\nx1*x2\n")
        code, _, err = run(capsys, "product", "--ideal", str(a))
        assert code == 2


class TestUnwritableOutput:
    """An output path that cannot be written is an input error: exit 2 with
    one JSON line naming the path, as for a file that cannot be read."""

    @pytest.fixture
    def blocked(self, tmp_path):
        # a path under a regular file, so no directory can be made there
        parent = tmp_path / "plain"
        parent.write_text("")
        return str(parent / "x")

    def assert_refused(self, capsys, path, *argv):
        code, out, err = run(capsys, *argv)
        assert (code, out, err.count("\n")) == (2, "", 1)
        [(key, message)] = json.loads(err).items()
        assert key == "error" and message.startswith(f"cannot write {path}: ")

    def test_build_out_under_a_file(self, capsys, blocked, fig3_ideal_file):
        self.assert_refused(capsys, blocked, "build", "--ideal", fig3_ideal_file,
                            "--out", blocked)

    def test_check_out_is_a_directory(self, capsys, tmp_path, fig3_ideal_file):
        self.assert_refused(capsys, tmp_path, "check", "--ideal", fig3_ideal_file,
                            "--out", str(tmp_path))

    def test_audit_counterexamples_under_a_file(self, capsys, blocked):
        # the default modular audit has disagreements, so it writes some
        self.assert_refused(capsys, blocked, "audit", "--theorem", "modular",
                            "--counterexamples", blocked)

    @pytest.mark.parametrize("theorem", ["boolean", "hypergraph-complemented"])
    def test_audit_counterexamples_refused_with_or_without_disagreement(
            self, capsys, blocked, theorem, monkeypatch):
        # the default boolean stream agrees everywhere and the
        # hypergraph-complemented one does not; the directory is made before
        # the first instance, so both exit 2 without auditing one
        audited = []
        monkeypatch.setattr(lcmlat.audit, "audit_instance",
                            lambda *args: audited.append(args))
        self.assert_refused(capsys, blocked, "audit", "--theorem", theorem,
                            "--counterexamples", blocked)
        assert audited == []

    def test_audit_bad_config_makes_no_counterexample_directory(self, capsys, tmp_path):
        out = tmp_path / "new"
        code, stdout, err = run(capsys, "audit", "--theorem", "boolean", "--m", "0..0",
                                "--counterexamples", str(out))
        assert (code, stdout) == (2, "") and "audit needs m >= 1" in err
        assert not out.exists()


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

    @pytest.mark.parametrize("argv", [
        ("--theorem", "birkhoff-crosscheck", "--max-exponent", "0"),
        ("--theorem", "polarization-iso", "--max-exponent", "0"),
        ("--theorem", "birkhoff-crosscheck", "--n", "0..2"),
    ])
    def test_unit_only_sampler_exits_2(self, argv):
        # every draw would be the unit monomial, which the sampler redrew
        # forever
        done = run_subprocess("audit", *argv)
        assert_one_error_line(done, "max_exponent >= 1 and n >= 1")

    @pytest.mark.parametrize("theorem,m", [
        ("boolean", "0..0"),
        ("modular", "0..0"),
        ("birkhoff-crosscheck", "0..0"),
        ("polarization-iso", "0..0"),
        ("graph-complemented", "0..2"),
    ])
    def test_m_below_1_exits_2(self, theorem, m):
        # m = 0 asks for ideals with no generators, which a sampler redrew
        # forever
        done = run_subprocess("audit", "--theorem", theorem, "--m", m)
        assert_one_error_line(done, "audit needs m >= 1")

    @pytest.mark.parametrize("theorem", ["boolean", "modular", "hypergraph-complemented"])
    def test_k_below_1_exits_2(self, theorem):
        # k = 0 draws the empty edge
        done = run_subprocess("audit", "--theorem", theorem, "--k", "0..1")
        assert_one_error_line(done, "audit needs k >= 1; got k range (0, 1)")

    @pytest.mark.parametrize("argv", [
        ("--theorem", "birkhoff-crosscheck", "--count", "0"),
        ("--theorem", "polarization-iso", "--count", "-1"),
        ("--theorem", "hypergraph-complemented", "--n", "6..9", "--count", "0"),
    ])
    def test_count_below_1_on_sampled_stream_exits_2(self, argv):
        done = run_subprocess("audit", *argv)
        assert_one_error_line(done, "needs count >= 1; got count")

    def test_count_ignored_by_exhaustive_stream(self):
        done = run_subprocess("audit", "--theorem", "boolean", "--n", "2..3", "--count", "0")
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout.splitlines()[-1])["summary"]["total"] == 9

    @pytest.mark.parametrize("theorem", ["birkhoff-crosscheck", "polarization-iso"])
    @pytest.mark.parametrize("exponent", ["65537", "70000", "100000000"])
    def test_max_exponent_over_cap_exits_2(self, theorem, exponent):
        # an over-cap draw fails validation; the sampler used to drop such
        # draws as infeasible, silently or until its retry budget ran out
        done = run_subprocess("audit", "--theorem", theorem, "--max-exponent", exponent)
        assert_one_error_line(done, f"max_exponent <= 65536 (the exponent cap); got max_exponent {exponent}")

    def test_sampler_budget_names_infeasible_draw(self):
        # no 3-generator antichain fits in one variable
        done = run_subprocess("audit", "--theorem", "birkhoff-crosscheck",
                              "--n", "1..1", "--m", "3..3")
        assert_one_error_line(done, "could not reach 3 minimal generators in 1 variables")

    @pytest.mark.parametrize("n", [f"2..{MAX_RING_DIMENSION + 1}", "2..3000000", "3000000"])
    def test_vertex_count_over_the_cap_refused_before_a_draw(self, capsys, monkeypatch, n):
        # the file readers' cap; a sampled draw at n = 10^6 took 0.6 s each
        monkeypatch.setattr(lcmlat.audit, "audit_batch", lambda *args, **kwargs: 1 / 0)
        code, out, err = run(capsys, "audit", "--theorem", "boolean", "--n", n)
        assert (code, out, err.count("\n")) == (2, "", 1)
        hi = n.rsplit(".", 1)[-1]
        assert json.loads(err) == {"error": "lcmlat audit: argument --n: vertex or variable "
                                            f"count {hi} exceeds the cap {MAX_RING_DIMENSION}"}

    def test_vertex_count_at_the_cap_parses(self):
        args = cli._build_parser().parse_args(
            ["audit", "--theorem", "boolean", "--n", f"2..{MAX_RING_DIMENSION}"])
        assert args.n == (2, MAX_RING_DIMENSION)

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "audit", "--theorem", "boolean", "--n", "5..2")
        assert code == 2

    def test_unknown_flag(self, capsys, fig3_ideal_file):
        code, _, err = run(capsys, "build", "--ideal", fig3_ideal_file, "--nope")
        assert code == 2
        assert json.loads(err) == {"error": "lcmlat: unrecognized arguments: --nope"}
