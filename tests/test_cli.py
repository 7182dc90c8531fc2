import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fractalhull import cli
from fractalhull.cli import main

TWINDRAGON_DOC = '{"complex_base": {"z": [1, 1], "n": 2}}'
SEGMENT_DOC = '{"complex_base": {"z": [2, 0], "n": 2}}'
SQUARE_DOC = json.dumps({
    "dim": 2,
    "maps": [
        {"A": [[0.5, 0.0], [0.0, 0.5]], "t": t}
        for t in ([0.0, 0.0], [0.5, 0.0], [0.0, 0.5], [0.5, 0.5])
    ],
})
# two maps with different linear parts: solved by sweeps from a ball bound,
# so the result depends on --tol (a shared similarity starts at the exact
# fixed point and gives the same bytes at every tol)
PAIR_DOC = json.dumps({
    "dim": 2,
    "maps": [
        {"A": [[0.5, 0.0], [0.0, 0.5]], "t": [0.0, 0.0]},
        {"A": [[0.0, -0.6], [0.6, 0.0]], "t": [0.5, 0.0]},
    ],
})


@pytest.fixture
def segment_file(tmp_path):
    path = tmp_path / "segment.json"
    path.write_text(SEGMENT_DOC)
    return str(path)


@pytest.fixture
def twindragon_file(tmp_path):
    path = tmp_path / "twindragon.json"
    path.write_text(TWINDRAGON_DOC)
    return str(path)


# (subcommand, flag, value): each flag the subcommand does not read
DROPPED_FLAGS = [
    ("solve", "--seed", "9"), ("solve", "--points", "100"), ("solve", "--format", "csv"),
    ("hull", "--seed", "9"), ("hull", "--points", "100"), ("hull", "--format", "svg"),
    ("render", "--format", "svg"),
    ("query", "--seed", "9"), ("query", "--points", "100"), ("query", "--out", "q.txt"),
    ("query", "--format", "json"),
    ("exact", "--grid", "7"), ("exact", "--seed", "9"), ("exact", "--points", "100"),
    ("exact", "--format", "csv"),
    ("audit", "--grid", "64"), ("audit", "--tol", "3"), ("audit", "--seed", "9"),
    ("audit", "--points", "100"), ("audit", "--format", "csv"),
    ("verify", "--grid", "64"), ("verify", "--tol", "1e-3"), ("verify", "--seed", "9"),
    ("verify", "--points", "100"), ("verify", "--out", "v.txt"),
    ("verify", "--format", "json"),
]

# a valid command line per subcommand, small enough to run in milliseconds
VALID_COMMANDS = {
    "solve": "solve --input {twindragon} --grid 64",
    "hull": "hull --input {twindragon}",
    "render": "render --input {twindragon} --grid 64 --points 10",
    "query": "query --input {twindragon} --grid 64 --point 0,-0.5 --k 1",
    "exact": "exact --input {twindragon}",
    "audit": "audit --r-steps 2 --phi-steps 3",
    "verify": "verify",
}

# Every value flag a subcommand reads, as a command template and two values
# of the flag (at ``{v}``) that must give different artifact bytes.
KEPT_FLAGS = [
    ("solve --input {v} --grid 64", "{twindragon}", "{square}"),
    ("solve --input {square} --grid {v}", "64", "128"),
    ("solve --input {pair} --grid 64 --tol {v}", "1e-2", "1e-8"),
    ("solve --input {square} --grid 64 --out {v}", "{out}/a.csv", "{out}/b.csv"),
    ("hull --input {v} --grid 64", "{twindragon}", "{square}"),
    ("hull --input {square} --grid {v}", "64", "128"),
    ("hull --input {pair} --grid 64 --tol {v}", "1e-2", "1e-8"),
    ("hull --input {square} --grid 64 --out {v}", "{out}/a.json", "{out}/b.json"),
    ("render --input {v} --grid 64 --points 10", "{twindragon}", "{square}"),
    ("render --input {square} --grid {v} --points 10", "64", "128"),
    ("render --input {pair} --grid 64 --tol {v} --points 10", "1e-2", "1e-8"),
    ("render --input {square} --grid 64 --seed {v} --points 10", "1", "2"),
    ("render --input {square} --grid 64 --points {v}", "10", "11"),
    ("render --input {square} --grid 64 --points 10 --out {v}",
     "{out}/a.svg", "{out}/b.svg"),
    ("query --input {v} --grid 64 --point 0.9,0.9 --k 1", "{twindragon}", "{square}"),
    ("query --input {square} --grid {v} --point 0,0 --k 1", "64", "128"),
    ("query --input {pair} --grid 64 --tol {v} --point 0,0 --k 1", "1e-2", "1e-8"),
    ("query --input {square} --grid 64 --point {v} --k 1", "0.5,0.5", "5,5"),
    ("query --input {square} --grid 64 --point 0.5,0.5 --k {v}", "0", "3"),
    ("query --input {twindragon} --grid 64 --point 0,-0.5 --dist {v}", "0.1", "0.01"),
    ("query --input {twindragon} --grid 64 --point 0,-0.5 --dist 0.01 --c0 {v}",
     "paper", "safe"),
    ("exact --input {v}", "{twindragon}", "{zphi}"),
    ("exact --input {twindragon} --tol {v}", "1e-10", "1e-11"),
    ("exact --input {twindragon} --angles {v}", "0", "1"),
    ("exact --input {twindragon} --out {v}", "{out}/a.txt", "{out}/b.txt"),
    ("audit --r-steps {v} --phi-steps 3", "2", "3"),
    ("audit --r-steps 2 --phi-steps {v}", "3", "4"),
    ("audit --r-steps 2 --phi-steps 3 --out {v}", "{out}/a.csv", "{out}/b.csv"),
]


def _kept_flag_id(case):
    tokens = case[0].split()
    return tokens[0] + tokens[tokens.index("{v}") - 1]


@pytest.fixture
def inputs(tmp_path):
    docs = {
        "twindragon": TWINDRAGON_DOC,
        "square": SQUARE_DOC,
        "pair": PAIR_DOC,
        # |z| = 2 at phi = 1: an irrational angle, so no edge table
        "zphi": json.dumps({"complex_base": {"z": [2 * math.cos(1.0), 2 * math.sin(1.0)],
                                             "n": 2}}),
    }
    paths = {}
    for name, doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(doc)
        paths[name] = str(path)
    return paths


class TestSolve:
    def test_segment_widths(self, segment_file, tmp_path, capsys):
        out = tmp_path / "width.csv"
        code = main(["solve", "--input", segment_file, "--grid", "1024",
                     "--tol", "1e-8", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "angle,h"
        assert len(lines) == 1025
        values = {}
        for line in lines[1:]:
            ang, val = line.split(",")
            values[round(float(ang), 9)] = float(val)
        # attractor [0,1] x {0} seen from the origin
        assert values[0.0] == pytest.approx(1.0, abs=1e-6)
        assert values[round(math.pi / 2, 9)] == pytest.approx(0.0, abs=1e-6)
        assert values[round(math.pi, 9)] == pytest.approx(0.0, abs=1e-6)
        assert "iterations=" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_rejected(self, twindragon_file, capsys, tol):
        assert main(["solve", "--input", twindragon_file, "--grid", "64",
                     "--tol", tol]) == 1
        assert "error: tol must be a positive finite number" in capsys.readouterr().err

    def test_deterministic_bytes(self, twindragon_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["solve", "--input", twindragon_file, "--grid", "512",
                         "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestHull:
    def test_twindragon_exact_route(self, twindragon_file, tmp_path, capsys):
        out = tmp_path / "poly.json"
        assert main(["hull", "--input", twindragon_file, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["vertices"]) == 8
        assert doc["base"] == pytest.approx([0.0, -0.5])
        text = capsys.readouterr().out
        assert "method=exact" in text
        assert "area=1.666666667" in text
        assert "perimeter=4.828427125" in text

    def test_square_numeric_route(self, tmp_path, capsys):
        path = tmp_path / "square.json"
        path.write_text(SQUARE_DOC)
        out = tmp_path / "poly.json"
        assert main(["hull", "--input", str(path), "--grid", "1024",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["vertices"]) == 4
        assert "method=kinks" in capsys.readouterr().out

    def test_hull_away_from_origin(self, tmp_path, capsys):
        # three square maps moved so the hull, the triangle (4, 4), (5, 4),
        # (4, 5), misses the origin the width is solved around
        path = tmp_path / "shifted.json"
        path.write_text(json.dumps({"dim": 2, "maps": [
            {"A": [[0.5, 0.0], [0.0, 0.5]], "t": t}
            for t in ([2.0, 2.0], [2.5, 2.0], [2.0, 2.5])]}))
        out = tmp_path / "poly.json"
        assert main(["hull", "--input", str(path), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert sorted(np.round(doc["vertices"], 6).tolist()) == [[4, 4], [4, 5], [5, 4]]
        assert "method=kinks vertices=3" in capsys.readouterr().out


class TestRender:
    def test_deterministic_svg(self, twindragon_file, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for path in (a, b):
            assert main(["render", "--input", twindragon_file,
                         "--points", "500", "--seed", "3",
                         "--grid", "512", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        assert text.startswith("<svg ")
        assert "<path" in text and "<circle" in text
        assert text.count("<circle") == 500

    def test_seed_changes_cloud(self, twindragon_file, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["render", "--input", twindragon_file, "--points", "200",
                     "--seed", "1", "--grid", "512", "--out", str(a)]) == 0
        assert main(["render", "--input", twindragon_file, "--points", "200",
                     "--seed", "2", "--grid", "512", "--out", str(b)]) == 0
        assert a.read_bytes() != b.read_bytes()


class TestQuery:
    def test_inside_point_near1(self, twindragon_file, capsys):
        code = main(["query", "--input", twindragon_file, "--grid", "1024",
                     "--point", "0,-0.5", "--dist", "0.2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("true ")
        assert "complete=yes" in out

    def test_far_point_near(self, twindragon_file, capsys):
        code = main(["query", "--input", twindragon_file, "--grid", "1024",
                     "--point", "5,5", "--k", "2"])
        assert code == 0
        assert capsys.readouterr().out.startswith("false ")

    def test_needs_exactly_one_mode(self, twindragon_file):
        assert main(["query", "--input", twindragon_file,
                     "--point", "0,0"]) == 1
        assert main(["query", "--input", twindragon_file, "--point", "0,0",
                     "--k", "1", "--dist", "0.1"]) == 1

    def test_bad_point_rejected(self, twindragon_file):
        assert main(["query", "--input", twindragon_file,
                     "--point", "zero", "--k", "1"]) == 1


class TestExact:
    def test_twindragon_report(self, twindragon_file, capsys):
        code = main(["exact", "--input", twindragon_file,
                     "--angles", "0,1.5707963267948966"])
        assert code == 0
        out = capsys.readouterr().out
        assert "center = (0.000000, -0.500000)" in out
        assert "perimeter = 4.828427" in out
        assert "area = 1.666667" in out
        assert "width(0.000000) = 0.666666667" in out
        assert "width(1.570796) = 0.833333333" in out
        assert "triangles (j, angle, a, b, c):" in out

    def test_requires_complex_base(self, tmp_path):
        path = tmp_path / "square.json"
        path.write_text(SQUARE_DOC)
        assert main(["exact", "--input", str(path)]) == 1

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_rejected(self, twindragon_file, capsys, tol):
        assert main(["exact", "--input", twindragon_file, "--tol", tol]) == 1
        assert "error: tol must be a positive finite number" in capsys.readouterr().err


class TestAudit:
    def test_small_grid(self, tmp_path, capsys):
        out = tmp_path / "audit.csv"
        code = main(["audit", "--r-steps", "6", "--phi-steps", "16",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "r,phi,gap"
        assert len(lines) == 1 + 6 * 16
        assert all(float(line.split(",")[2]) >= -1e-12 for line in lines[1:])
        assert "audit ok" in capsys.readouterr().out


class TestErrors:
    def test_missing_file(self):
        assert main(["solve", "--input", "/nonexistent.json"]) == 1

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert main(["solve", "--input", str(path)]) == 1

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    @pytest.mark.parametrize("command,flag,value", DROPPED_FLAGS,
                             ids=[c + f for c, f, _ in DROPPED_FLAGS])
    def test_format_mismatch_rejected(self, inputs, capsys, command, flag, value):
        argv = [t.format(**inputs) for t in VALID_COMMANDS[command].split()]
        assert main(argv + [flag, value]) == 1
        assert "usage error: unrecognized arguments:" in capsys.readouterr().err

    @pytest.mark.parametrize("case", KEPT_FLAGS, ids=[_kept_flag_id(c) for c in KEPT_FLAGS])
    def test_every_flag_changes_output(self, inputs, tmp_path, capsys, case):
        template, *values = case
        outputs = []
        for i, value in enumerate(values):
            out_dir = tmp_path / f"run{i}"
            out_dir.mkdir()
            argv = [t.replace("{v}", value).format(out=out_dir, **inputs)
                    for t in template.split()]
            assert main(argv) == 0
            files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
            outputs.append((capsys.readouterr().out, files))
        assert outputs[0] != outputs[1]

    @pytest.mark.parametrize("name", ["square", "twindragon"])
    def test_shared_similarity_same_bytes_at_every_tol(self, inputs, capsys, name):
        # all maps share one similarity: the solve starts at the exact fixed
        # point of the circulant, and one sweep meets either tol
        outputs = []
        for tol in ("1e-2", "1e-8"):
            for command in ("solve", "hull"):
                assert main([command, "--input", inputs[name], "--grid", "64",
                             "--tol", tol]) == 0
                captured = capsys.readouterr()
                if command == "solve":
                    info = dict(item.split("=") for item in captured.err.split())
                    assert info["iterations"] == "1"
                    assert float(info["iter_error"]) <= 1e-10
                outputs.append((captured.out, captured.err))
        assert outputs[:2] == outputs[2:]

    def test_readme_commands_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
        commands = [shlex.split(line)[1:] for line in section.splitlines()
                    if line.startswith("fractalhull ")]
        for argv in commands:
            cli._build_parser().parse_args(argv)
        assert {argv[0] for argv in commands} == set(VALID_COMMANDS)

    def test_verify_without_scipy(self, monkeypatch, capsys):
        # a None entry in sys.modules makes importing it raise ImportError;
        # the acceptance module is dropped so that verify imports it afresh
        for name in ("scipy", "scipy.spatial"):
            monkeypatch.setitem(sys.modules, name, None)
        monkeypatch.delitem(sys.modules, "fractalhull.acceptance", raising=False)
        assert main(["verify"]) == 1
        assert capsys.readouterr().err.startswith("error: verify needs scipy")

    def test_other_commands_without_scipy(self, twindragon_file):
        # numpy is the only runtime dependency: a fresh interpreter that
        # cannot import scipy still runs the library and every other command
        code = ("import sys; sys.modules['scipy'] = None; "
                "from fractalhull.cli import main; "
                f"sys.exit(main(['hull', '--input', {twindragon_file!r}, '--grid', '64']))")
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr

    def test_noncontracting_input(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"maps": [{"A": [[1.0, 0.0], [0.0, 1.0]], "t": [0.0, 0.0]}]}))
        assert main(["hull", "--input", str(path)]) == 1
