import importlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fractalhull as fh
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
    ("exact --input {twindragon} --tol {v}", "1e-3", "1e-6"),
    ("exact --input {twindragon} --angles {v}", "0", "1"),
    ("exact --input {twindragon} --out {v}", "{out}/a.txt", "{out}/b.txt"),
    ("audit --r-steps {v} --phi-steps 3", "2", "3"),
    ("audit --r-steps 2 --phi-steps {v}", "3", "4"),
    ("audit --r-steps 2 --phi-steps 3 --out {v}", "{out}/a.csv", "{out}/b.csv"),
]


# values that parse but that the command cannot use: each must print
# ``error:`` and exit 1, with no traceback
BAD_VALUES = [
    "audit --phi-steps 0",
    "audit --r-steps 0",
    "audit --r-steps -3",
    # above the caps of 2**22 audit gaps and 2**23 cloud coordinates
    "audit --r-steps 2049 --phi-steps 2048",
    "render --input {twindragon} --points 4194305",
    "render --input {twindragon} --points 1000000000",
    "exact --input {twindragon} --angles abc",
    "exact --input {twindragon} --angles 1,,2",
    "exact --input {twindragon} --angles nan",
    "exact --input {twindragon} --angles 0,inf",
    "query --input {twindragon} --grid 64 --point 0,0 --dist nan",
    "query --input {twindragon} --grid 64 --point=nan,0 --k 1",
    # the exact route for a rational angle checks --grid and --tol too
    "hull --input {twindragon} --tol -1",
    "hull --input {twindragon} --tol nan",
    "hull --input {twindragon} --grid 7",
    "render --input {twindragon} --grid 3",
    "render --input {twindragon} --tol inf",
    "render --input {twindragon} --seed -1",
    # JSON admits Infinity and NaN; |z|^2 overflows for 1e308 + 1e308i
    "hull --input {infbase}",
    "exact --input {infbase}",
    "render --input {nanbase}",
    "exact --input {nanbase}",
    "hull --input {overbase}",
    "exact --input {overbase}",
]


def _kept_flag_ids(cases):
    """``command--flag`` per case; a repeated one also names its values."""
    ids = []
    for template, *values in cases:
        tokens = template.split()
        name = tokens[0] + tokens[tokens.index("{v}") - 1]
        ids.append(name if name not in ids else "-".join([name, *values]))
    return ids


@pytest.fixture
def inputs(tmp_path):
    docs = {
        "twindragon": TWINDRAGON_DOC,
        "square": SQUARE_DOC,
        "pair": PAIR_DOC,
        # |z| = 2 at phi = 1: an irrational angle, so no edge table
        "zphi": json.dumps({"complex_base": {"z": [2 * math.cos(1.0), 2 * math.sin(1.0)],
                                             "n": 2}}),
        "infbase": '{"complex_base": {"z": [Infinity, 0], "n": 2}}',
        "nanbase": '{"complex_base": {"z": [NaN, 0], "n": 2}}',
        "overbase": '{"complex_base": {"z": [1e308, 1e308], "n": 2}}',
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

    @pytest.mark.parametrize("doc", [TWINDRAGON_DOC, SQUARE_DOC])
    def test_error_terms_read_outer_slack(self, tmp_path, capsys, doc):
        # both routes report the dilation their polygon carries
        path = tmp_path / "in.json"
        path.write_text(doc)
        assert main(["hull", "--input", str(path), "--grid", "1024",
                     "--out", str(tmp_path / "poly.json")]) == 0
        parsed = fh.parse_ifs_document(doc)
        if parsed.complex_base is None:
            poly = fh.extract_polygon(fh.solve_width(parsed.ifs, 1024, 1e-6))
        else:
            poly = fh.exact_polygon(fh.complex_base_system(*parsed.complex_base))[0]
        s, perim = poly.outer_slack, fh.polygon_perimeter(poly)
        text = capsys.readouterr().out
        assert f"+- {perim * s + math.pi * s * s:.3g}\n" in text
        assert f"perimeter={perim:.10g} +- {2 * math.pi * s:.3g}\n" in text

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

    def test_viewport_frames_hull_away_from_origin(self, tmp_path):
        # the shifted 3-map square: its triangle (4, 4), (5, 4), (4, 5) lies
        # far from the origin the width is solved around
        path = tmp_path / "shifted.json"
        path.write_text(json.dumps({"dim": 2, "maps": [
            {"A": [[0.5, 0.0], [0.0, 0.5]], "t": t}
            for t in ([2.0, 2.0], [2.5, 2.0], [2.0, 2.5])]}))
        out = tmp_path / "hull.svg"
        assert main(["render", "--input", str(path), "--points", "50",
                     "--out", str(out)]) == 0
        text = out.read_text()
        x0, y0, width, height = map(float, text.split('viewBox="', 1)[1].split('"', 1)[0].split())
        path_d = text.split('<path d="M ', 1)[1].split(' Z"', 1)[0]
        vertices = np.array([[float(v) for v in p.split(",")] for p in path_d.split(" L ")])
        assert len(vertices) == 3
        assert np.all(vertices >= [x0, y0]) and np.all(vertices <= [x0 + width, y0 + height])
        # the hull's diameter (the triangle's hypotenuse) spans the box
        diameter = max(np.linalg.norm(p - q) for p in vertices for q in vertices)
        assert diameter >= 0.8 * width


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

    def test_deep_walk_answers(self, twindragon_file, capsys):
        # 0 is the fixed point of the first map, so every level passes
        assert main(["query", "--input", twindragon_file, "--grid", "64",
                     "--point", "0,0", "--k", "100000"]) == 0
        assert capsys.readouterr().out.startswith("true depth=100000 ")

    def test_needs_exactly_one_mode(self, twindragon_file):
        assert main(["query", "--input", twindragon_file,
                     "--point", "0,0"]) == 1
        assert main(["query", "--input", twindragon_file, "--point", "0,0",
                     "--k", "1", "--dist", "0.1"]) == 1

    def test_bad_point_rejected(self, twindragon_file):
        assert main(["query", "--input", twindragon_file,
                     "--point", "zero", "--k", "1"]) == 1


def _maps_doc(*maps):
    return json.dumps({"dim": 2, "maps": [{"A": a, "t": t} for a, t in maps]})


HALF = [[0.5, 0.0], [0.0, 0.5]]
ZERO = [[0.0, 0.0], [0.0, 0.0]]
# inputs every command must take (ROADMAP aim 3), each small enough for a
# 256-angle grid
AIM_THREE_INPUTS = {
    "far from the origin": _maps_doc(*((HALF, t) for t in
                                       ([100.0, 100.0], [100.5, 100.0], [100.0, 100.5]))),
    "point attractor": _maps_doc((HALF, [1.0, 1.0])),
    "segment": _maps_doc((HALF, [0.0, 0.0]), (HALF, [1.0, 0.0])),
    "singular map": _maps_doc(([[0.5, 0.0], [0.0, 0.0]], [0.0, 0.0]), (HALF, [0.5, 1.0])),
    "c = 0.999, not a similarity": _maps_doc(([[0.999, 0.0], [0.0, 0.5]], [0.0, 0.0]),
                                             (HALF, [0.0, 1.0])),
    "all A = 0": _maps_doc((ZERO, [0.0, 0.0]), (ZERO, [1.0, 0.0]), (ZERO, [0.0, 1.0])),
    # its hull is the triangle (0, 0), (2e-9, 0), (0, 2e-9), of area 2e-18
    "1e-9 triangle": _maps_doc((HALF, [0.0, 0.0]), (HALF, [1e-9, 0.0]), (HALF, [0.0, 1e-9])),
}


class TestAimThreeInputs:
    @pytest.mark.parametrize("name", AIM_THREE_INPUTS)
    def test_every_command_answers(self, tmp_path, capsys, name):
        path = tmp_path / "in.json"
        path.write_text(AIM_THREE_INPUTS[name])
        ifs = fh.load_ifs_file(str(path)).ifs
        x, y = np.mean([fh.map_fixed_point(m) for m in ifs.maps], axis=0).tolist()
        grid = ["--input", str(path), "--grid", "256"]
        for argv in (["hull", *grid], ["solve", *grid],
                     ["render", *grid, "--points", "200"],
                     ["query", *grid, f"--point={x!r},{y!r}", "--dist", "1e-3"]):
            assert main(argv) == 0, argv
            captured = capsys.readouterr()
            text = (captured.out + captured.err).lower()
            assert "nan" not in text and "inf" not in text, argv
            if argv[0] == "hull":
                report = captured.err
        # the report's area and perimeter are the polygon's, to the printed digits
        poly = fh.extract_polygon(fh.solve_width(ifs, 256, 1e-6))
        area, area_err = report.split("area=", 1)[1].split("\n", 1)[0].split(" +- ")
        perim = report.split("perimeter=", 1)[1].split(" +- ", 1)[0]
        assert area == f"{fh.polygon_area(poly):.10g}"
        assert perim == f"{fh.polygon_perimeter(poly):.10g}"
        if name == "1e-9 triangle":
            assert 0.0 < float(area) and abs(float(area) - 2e-18) <= float(area_err)


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

    def test_twindragon_table_bytes(self, twindragon_file, capsys):
        assert main(["exact", "--input", twindragon_file]) == 0
        assert capsys.readouterr().out == (
            "center = (0.000000, -0.500000) (exact)\n"
            "perimeter = 4.828427 (exact)\n"
            "area = 1.666667 +- 1e-09\n"
            "triangles (j, angle, a, b, c):\n"
            "  1  0.785398  0.589255651  0.589255651  0.353553391\n"
            "  2  0.000000  0.666666667  0.166666667  0.500000000\n"
            "  3  5.497787  0.824957911  0.117851130  0.353553391\n"
            "  4  4.712389  0.833333333  0.333333333  0.000000000\n"
        )

    def test_irrational_base_widths(self, inputs, capsys):
        # |z| = 2 at phi = 1: widths come from the series, within the tol
        assert main(["exact", "--input", inputs["zphi"], "--angles", "0,1"]) == 0
        out = capsys.readouterr().out
        sys_ = fh.complex_base_system(2 * complex(math.cos(1.0), math.sin(1.0)), 2)
        for ang in (0.0, 1.0):
            want = fh.centered_width(sys_, ang, 1e-9)
            assert f"width({ang:.6f}) = {want:.9f} +- 1e-09\n" in out
        assert "no finite edge table" in out

    def test_requires_complex_base(self, tmp_path):
        path = tmp_path / "square.json"
        path.write_text(SQUARE_DOC)
        assert main(["exact", "--input", str(path)]) == 1

    def test_huge_base(self, tmp_path, capsys):
        # the series bounds' ratio underflows to 0 here: one term is enough
        path = tmp_path / "huge.json"
        path.write_text('{"complex_base": {"z": [1e150, 1e150], "n": 3}}')
        assert main(["exact", "--input", str(path)]) == 0
        assert "area = 0.000000" in capsys.readouterr().out

    def test_tol_defaults(self):
        # exact's series default is its own; the solver commands keep theirs
        parser = cli._build_parser()
        assert parser.parse_args(["exact", "--input", "x"]).tol == 1e-9
        for command in ("solve", "hull", "render"):
            assert parser.parse_args([command, "--input", "x"]).tol == 1e-6

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_rejected(self, twindragon_file, capsys, tol):
        assert main(["exact", "--input", twindragon_file, "--tol", tol]) == 1
        assert "error: tol must be a positive finite number" in capsys.readouterr().err


class TestAudit:
    def test_negative_gap_fails(self, monkeypatch, tmp_path, capsys):
        rs, phis = np.array([1.5, 2.0]), np.array([0.0, 1.0])
        gaps = np.array([[0.1, 0.2], [-2e-12, 0.3]])
        monkeypatch.setattr(cli, "isodiametric_audit", lambda r, p: (rs, phis, gaps))
        out = tmp_path / "audit.csv"
        assert main(["audit", "--out", str(out)]) == 2
        assert out.read_text().splitlines()[3] == "2,0,-2e-12"
        assert capsys.readouterr().out == "audit FAILED: min gap -2e-12 < -1e-12\n"

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

    @pytest.mark.parametrize("command", BAD_VALUES)
    def test_bad_values_rejected(self, inputs, capsys, command):
        argv = [t.format(**inputs) for t in command.split()]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command,flag,value", DROPPED_FLAGS,
                             ids=[c + f for c, f, _ in DROPPED_FLAGS])
    def test_format_mismatch_rejected(self, inputs, capsys, command, flag, value):
        argv = [t.format(**inputs) for t in VALID_COMMANDS[command].split()]
        assert main(argv + [flag, value]) == 1
        assert "usage error: unrecognized arguments:" in capsys.readouterr().err

    @pytest.mark.parametrize("case", KEPT_FLAGS, ids=_kept_flag_ids(KEPT_FLAGS))
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

    @pytest.mark.parametrize("passed", [(True, True), (True, False)], ids=["pass", "fail"])
    def test_verify_report(self, monkeypatch, capsys, passed):
        acceptance = importlib.import_module("fractalhull.acceptance")
        results = [acceptance.CriterionResult(f"{i} c", ok, f"detail {i}", 0.25 * i)
                   for i, ok in enumerate(passed, start=1)]
        monkeypatch.setattr(acceptance, "run_all", lambda: results)
        assert main(["verify"]) == (0 if all(passed) else 2)
        captured = capsys.readouterr()
        assert captured.out == ("PASS 1 c: detail 1 [0.2s]\n"
                                f"{'PASS' if passed[1] else 'FAIL'} 2 c: detail 2 [0.5s]\n")
        assert captured.err == ("" if all(passed) else "1 criterion(s) failed\n")

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
