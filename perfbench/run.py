"""fractalhull benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload hull-slow --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The workload runs in fresh interpreters
(``worker.py``): several set-up samples, then one process that warms up and
runs the timed closed loop.  This process then checks every output against
the exact oracles in ``oracles.py``, compares the exact-repeat counters with
the last run of the same seed and source, and prints one line per metric
followed by the result as JSON on the last line.  ``--trace 1`` reports the
per-layer metrics instead of the end-to-end ones; the full record, spans
included, goes to ``perfbench/.runs/<workload>-s<seed>-t<trace>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / ".runs"

SETUP_SAMPLES = 6  # outside the workload process; it takes eight more in its loop
# Tail percentile per workload; each leaves well over ten timed ops beyond it
# at the default run length, and every run prints how many.
TAIL_PERCENTILE = {"hull-slow": 90.0, "render-fine": 90.0, "query": 99.0}
# The calibration kernel's best time (worker.Calibration) on the machine the
# benchmark was built on, in a fast phase.  End-to-end times are reported as
# if each run's machine ran the kernel this fast.
REFERENCE_KERNEL_MS = 1.6
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def worker(args, out_dir: Path, *extra: str, timeout: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out_dir), *extra]
    if args.tiny:
        cmd.append("--tiny")
    env = dict(os.environ, **CHILD_ENV)
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                          env=env, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"workload process exited with {proc.returncode}")
    return proc


def source_digest() -> str:
    """Digest of the package and benchmark sources, to key repeat checks."""
    h = hashlib.sha256()
    for d in (ROOT / "src" / "fractalhull", HERE):
        for p in sorted(d.glob("*.py")):
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def check_outputs(args, inputs_mod, oracles, report):
    """Oracle verdict per input (or probe); problems found, mismatched ops
    included; on ``query``, the hits checked and those left undecided."""
    inp = inputs_mod.make(args.workload, args.seed, args.tiny)
    problems, orc = [], []
    if args.workload == "query":
        ctxs = report["contexts"]
        orc += [oracles.DistanceOracle(s, c["x0"]) for s, c in zip(inp["systems"], ctxs)]
        p = inp["probes"]

        def verdict(j, out):
            probe = (p["x"][j], int(p["kind"][j]), float(p["l"][j]), int(p["k"][j]))
            c = int(p["ctx"][j])
            return oracles.check_query(orc[c], ctxs[c], probe, out)
    else:
        def verdict(i, out):
            found = oracles.check_hull(inp["systems"][i], out, seed=args.seed * 1000 + i)
            return "; ".join(found) or None

    ok = []
    for i, out in enumerate(report["warm"]):
        if "error" in out:
            ok.append(False)  # its timed ops raise too, or are checked one by one
            continue
        v = verdict(i, out)
        ok.append(v is None)
        if v:
            problems.append(f"input {i}: {v}")
    for m in report["mismatched"]:
        v = verdict(m["input"], m["output"])
        if v:
            problems.append(f"input {m['input']} (timed op): {v}")
    hits = {"checked": sum(o.checked for o in orc), "undecided": sum(o.undecided for o in orc)}
    return ok, problems, hits


def counters(args, report) -> dict:
    """Exact-repeat counters from the warm-up pass, plus output hashes."""
    warm = report["warm"]
    if args.workload == "query":
        hits = [w["hit"] for w in warm if "hit" in w]
        depths = [w["depth"] for w in warm if "depth" in w]
        return {
            "width.iterations": sum(c["iterations"] for c in report["contexts"]),
            "query.depth_mean": sum(depths) / max(len(depths), 1),
            "query.depth_max": max(depths, default=0),
            "query.hit_frac": sum(hits) / max(len(hits), 1),
            "hashes": [hashlib.sha256(json.dumps(warm).encode()).hexdigest()],
        }
    total: dict = {}
    for w in warm:
        for k, v in w.get("counters", {}).items():
            total[k] = total.get(k, 0) + v
    total["hashes"] = [[w.get("json_sha256"), w.get("svg_sha256")] for w in warm]
    return total


def repeat_check(args, found: dict) -> list[str]:
    """Compare counters with the last run of the same workload, seed and source."""
    RUNS.mkdir(exist_ok=True)
    path = RUNS / f"repeat-{args.workload}-s{args.seed}{'-tiny' if args.tiny else ''}.json"
    state = {"source": source_digest(), "counters": found}
    if path.exists():
        old = json.loads(path.read_text())
        if old["source"] == state["source"]:
            return [f"{k} changed: {old['counters'].get(k)!r} -> {v!r}"
                    for k, v in found.items() if old["counters"].get(k) != v]
    path.write_text(json.dumps(state))
    return []


def latency_metrics(np, book: dict, ok, tail_pct: float) -> dict:
    """End-to-end figures from one side (plain or traced) of a run.

    Every op is timed whole, from its call to its return or its exception.
    The machine runs in speed phases lasting seconds, so the rate and the
    median are best-case figures: each input's fastest whole op over the
    kept rounds.  ``ops_per_s`` is the completed, correct share of each
    input's ops, summed over inputs, over the sum of every input's fastest
    op, failed and wrong ones included: the rate of one round run at each
    op's best.  ``op_p50_ms`` is the median of the completing inputs' fastest
    ops (the mean of the middle two for an even count, so that one input's
    cost does not decide it alone).  ``op_tail_ms`` is a percentile of the
    plain whole-op latencies of the completed, correct ops of the kept
    rounds, pooled over inputs.
    """
    lat, status, counts = book["lat"], book["status"], book["counts"]
    attempted = int(counts.sum())
    failed = int(counts[1].sum())
    completed = int(counts[0] @ ok)
    busy_s = int(book["busy"][0]) / 1e9
    good = (status == 0) & ok[None, :]
    timed = (status >= 0).any(axis=0)
    best = np.array([lat[status[:, i] >= 0, i].min() for i in np.flatnonzero(timed)]) / 1e9
    share = (counts[0] * ok / np.maximum(counts.sum(axis=0), 1))[timed]
    pooled = lat[good] / 1e9
    out = {"attempted": attempted, "failed": failed, "completed": completed,
           "wrong": attempted - failed - completed, "busy_s": busy_s,
           "wall_ops_per_s": completed / busy_s,
           "rounds_kept": int((status >= 0).any(axis=1).sum()), "samples": len(pooled)}
    if len(pooled) == 0:
        return dict(out, ops_per_s=0.0, op_p50_ms=np.inf, op_tail_ms=np.inf, tail_beyond=0,
                    mean_best_s=np.inf)
    tail = float(np.percentile(pooled, tail_pct, method="inverted_cdf"))
    done = best[share > 0]
    return dict(out, ops_per_s=float(share.sum() / best.sum()),
                mean_best_s=float(best.mean()),
                op_p50_ms=float(np.median(done)) * 1e3,
                op_tail_ms=tail * 1e3, tail_beyond=int((pooled > tail).sum()))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("hull-slow", "render-fine", "query"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small grids and pools, for the smoke test")
    args = ap.parse_args()
    if not (ROOT / "src" / "fractalhull" / "__init__.py").is_file():
        fail(f"no fractalhull package under {ROOT / 'src'}")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())

    import numpy as np

    import inputs as inputs_mod
    import oracles

    out_dir = RUNS / f"{args.workload}-s{args.seed}-t{args.trace}{'-tiny' if args.tiny else ''}"
    out_dir.mkdir(parents=True, exist_ok=True)
    timeout = 60.0 + 2 * args.seconds

    def setup_samples():
        return [json.loads(worker(args, out_dir, "--setup-only", timeout=timeout).stdout)
                for _ in range(SETUP_SAMPLES // 2)]

    # one discarded start so bytecode and file caches are warm for the samples;
    # half the samples come before the workload process and half after
    worker(args, out_dir, "--setup-only", timeout=timeout)
    setups = setup_samples()
    worker(args, out_dir, timeout=timeout + 120.0)
    setups += setup_samples()
    report = json.loads((out_dir / "worker.json").read_text())
    with np.load(out_dir / "ops.npz") as z:
        books = {side: {k: z[f"{side}_{k}"] for k in ("lat", "status", "counts", "busy")}
                 for side in ("plain", "traced")}
    (out_dir / "worker.json").unlink()
    (out_dir / "ops.npz").unlink()

    t0 = time.perf_counter()
    ok, problems, hits = check_outputs(args, inputs_mod, oracles, report)
    oracle_s = time.perf_counter() - t0
    ok = np.array(ok, dtype=bool)
    if report["mismatched"]:
        problems.append(f"{sum(int(b['counts'][2].sum()) for b in books.values())} timed "
                        "ops gave a different output than the warm-up pass")

    found = counters(args, report)
    problems += [f"exact-repeat counter {r}" for r in repeat_check(args, found)]

    tail_pct = TAIL_PERCENTILE[args.workload]
    lm = latency_metrics(np, books["plain"], ok, tail_pct)
    setup_all = [s["setup_s"] for s in setups + report["loop_setups"]] + [report["setup_s"]]
    raw = {
        "ops_per_s": (lm["ops_per_s"], "1/s"),
        "op_p50_ms": (lm["op_p50_ms"], "ms"),
        "op_tail_ms": (lm["op_tail_ms"], "ms"),
        "fail_frac": (lm["failed"] / lm["attempted"], "frac"),
        "wrong_frac": (lm["wrong"] / lm["attempted"], "frac"),
        "setup_s": (min(setup_all), "s"),
        "peak_rss_mb": (report["peak_rss_kb"] / 1024.0, "MB"),
    }
    # >1 when the machine ran slower than the reference over this run
    slowdown = min(report["calibration_ns"]) / 1e6 / REFERENCE_KERNEL_MS
    scale = {"1/s": slowdown, "ms": 1.0 / slowdown, "s": 1.0 / slowdown}
    e2e = {k: (v * scale.get(u, 1.0), u) for k, (v, u) in raw.items()}
    layers = {}
    attempted, failed = lm["attempted"], lm["failed"]
    if args.trace:
        tm = latency_metrics(np, books["traced"], ok, tail_pct)
        attempted, failed = attempted + tm["attempted"], failed + tm["failed"]
        overhead = tm["mean_best_s"] - lm["mean_best_s"]
        layers = {k: (v, "s") for k, v in report["layers"].items()}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for k, v in found.items():
            if k != "hashes":
                layers[k] = (v, units.get(k, "count"))
        layers["bench.oracle_s"] = (oracle_s, "s")
        layers["bench.trace_overhead_ms"] = (overhead * 1e3, "ms")
        layers["bench.trace_overhead_frac"] = (overhead / lm["mean_best_s"], "frac")

    # a layer the workload never calls reads 0 in the per-layer report
    if args.trace:
        metrics = {m["name"]: {"value": layers.get(m["name"], (0.0,))[0], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "raw_end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "calibration": {"best_ms": min(report["calibration_ns"]) / 1e6,
                        "median_ms": float(np.median(report["calibration_ns"])) / 1e6,
                        "samples": len(report["calibration_ns"]),
                        "reference_ms": REFERENCE_KERNEL_MS, "slowdown": slowdown},
        "layers": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "ops": lm,
        "tail": {"percentile": tail_pct, "samples": lm["samples"],
                 "beyond": lm["tail_beyond"]},
        "setup_samples_s": setup_all,
        "oracle_s": oracle_s, "oracle_hits": hits,
        "rounds": report["rounds"], "inputs": report["inputs"],
        "exceptions": report["exceptions"], "warm_exceptions": report["warm_exceptions"],
        "problems": problems, "counters": found,
        "environment": report["environment"],
        "spans": report.get("spans"),
    }
    (out_dir / "result.json").write_text(json.dumps(result, indent=1))

    for k, (v, u) in e2e.items():
        print(f"{k:<22} {v:>14.6g} {u:<6} raw {raw[k][0]:.6g}")
    print(f"calibration kernel best {min(report['calibration_ns']) / 1e6:.4g} ms against "
          f"{REFERENCE_KERNEL_MS:g} ms: times above are scaled by 1/{slowdown:.4g}")
    for k, (v, u) in sorted(layers.items()):
        print(f"{k:<28} {v:>14.6g} {u}")
    print(f"op_tail_ms is p{tail_pct:g}: {lm['tail_beyond']} of {lm['samples']} kept "
          f"op latencies beyond it ({lm['attempted']} ops attempted)")
    if report["exceptions"]:
        print("exceptions in timed ops: " + json.dumps(report["exceptions"]))
    if hits["checked"]:
        flag = "WARNING: " if hits["undecided"] > 0.1 * hits["checked"] else ""
        print(f"{flag}query oracle: {hits['undecided']} of {hits['checked']} hits undecided "
              "within its search limits (not checked)")
    for p in problems[:20]:
        print(f"WRONG: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
