import json
import math

import pytest

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

    def test_format_mismatch_rejected(self, twindragon_file):
        assert main(["hull", "--input", twindragon_file, "--format", "svg"]) == 1


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

    def test_noncontracting_input(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"maps": [{"A": [[1.0, 0.0], [0.0, 1.0]], "t": [0.0, 0.0]}]}))
        assert main(["hull", "--input", str(path)]) == 1
