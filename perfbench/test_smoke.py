"""Self-check of the benchmark: every workload end to end at tiny size, plus
the oracles' power to flag wrong outputs.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracles  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    # random systems are timed as drawn, so some ops may raise; none may be wrong
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_refuses_to_run_without_the_package():
    bare = HERE / ".runs" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(bare, "--workload", "query", "--seed", "1", "--seconds", "1",
                   "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _twindragon():
    return dict(kind="complex", r=math.sqrt(2.0), phi=math.pi / 4, n=2)


def _octagon(scale: float = 1.0) -> dict:
    """The twindragon hull from its closed form, optionally shrunk about its centre."""
    sys.path.insert(0, str(ROOT / "src"))
    import fractalhull as fh
    poly, _ = fh.exact_polygon(fh.complex_base_system(1 + 1j, 2))
    centre = poly.base
    verts = centre + scale * (poly.vertices - centre)
    return {"vertices": verts.tolist(), "outer_slack": 0.0, "method": "exact"}


def test_hull_oracle_accepts_the_exact_octagon():
    assert oracles.check_hull(_twindragon(), _octagon(), seed=1) == []


def test_hull_oracle_flags_a_shrunk_polygon():
    found = oracles.check_hull(_twindragon(), _octagon(0.97), seed=1)
    assert any("beyond the dilated polygon" in p for p in found)
    assert any("perimeter" in p for p in found)


def test_distance_oracle_certifies_far_points_only():
    spec = _twindragon()
    maps = inputs.system_maps(spec)
    x0 = np.mean([inputs.fixed_point(a, t) for a, t in maps], axis=0)
    oracle = oracles.DistanceOracle(spec, x0)
    inside = inputs.attractor_points(maps, np.random.default_rng(0))[-1]
    assert oracle.far(inside, 1e-3) is False
    assert oracle.far(x0 + np.array([5.0, 0.0]), 1.0) is True
    ctx = {"slack": 0.0, "c0_bound": 1.0}
    hit = {"hit": True}
    assert oracles.check_query(oracle, ctx, (x0 + [5.0, 0.0], 0, 0.5, 0), hit)
    assert oracles.check_query(oracle, ctx, (inside, 0, 1e-3, 0), hit) is None
