"""The workload process: set up, warm up, then run the timed closed loop.

``run.py`` starts this file in a fresh interpreter, one per workload run
and one per extra set-up sample.  It imports ``fractalhull`` from the
checkout's ``src`` directory, calls only the package's public functions in
the order the CLI does, and writes what it saw to ``--out``:
``worker.json`` (set-up time, warm-up outputs, counters, layer times,
environment) and ``ops.npz`` (op counts per input and the latencies of the
kept rounds).  Checking outputs against the oracles is left to ``run.py``.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracer import Tracer, direct

ROOT = Path(__file__).resolve().parent.parent
_now = time.perf_counter_ns

# exit code for "the package is not in this checkout"
NO_PACKAGE = 3
# outputs kept for checking when a timed op differs from its warm-up output
MAX_MISMATCHED = 200
# set-up samples taken during the timed loop
LOOP_SETUP_SAMPLES = 8
# time between two runs of the calibration kernel in the timed loop
CALIBRATE_EVERY_NS = 250_000_000


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def _build_ifs(fh, spec, call):
    if spec["kind"] == "complex":
        return call("ifs.build", fh.complex_base_ifs,
                    cmath.rect(spec["r"], spec["phi"]), spec["n"])
    return call("ifs.build", fh.validate_ifs, spec["maps"])


def _polygon_dump(fh, poly) -> dict:
    return {
        "vertices": poly.vertices.tolist(),
        "base": poly.base.tolist(),
        "outer_slack": poly.outer_slack,
        "method": poly.method,
        "json_sha256": _digest(fh.polygon_json(poly).encode()),
    }


class Workload:
    """What every workload provides besides ``op``, ``digest`` and ``dump``."""

    def apart(self, i, out, call):
        """Layer calls timed after op ``i`` in traced rounds, outside the op."""

    def apart_round(self, call):
        """Layer calls timed once per traced round, outside any op."""

    def contexts(self):
        return None


class HullSlow(Workload):
    """One op: ``solve_width`` then ``extract_polygon`` (the CLI ``hull`` route)."""

    def __init__(self, fh, inputs, call):
        self.fh = fh
        self.size = inputs["size"]
        self.specs = inputs["systems"]
        self.ifs = [_build_ifs(fh, s, call) for s in self.specs]

    def __len__(self):
        return len(self.ifs)

    def solve(self, ifs, call):
        w = call("width.solve", self.fh.solve_width, ifs, self.size["grid"], self.size["tol"])
        return w, call("hull.extract", self.fh.extract_polygon, w)

    def op(self, i, call):
        return self.solve(self.ifs[i], call)

    def digest(self, out) -> str:
        w, poly = out
        return _digest(poly.vertices.tobytes(), str(w.iterations).encode())

    def dump(self, out) -> dict:
        w, poly = out
        d = _polygon_dump(self.fh, poly)
        d["counters"] = {"width.iterations": w.iterations,
                         "hull.kinks": len(self.fh.detect_kinks(w)),
                         "hull.vertices": len(poly)}
        return d

    def apart(self, i, out, call):
        call("width.apply", self.fh.selfsim_operator, self.ifs[i], out[0])


class RenderFine(HullSlow):
    """One op: the CLI ``render`` route (polygon, chaos game, SVG)."""

    def op(self, i, call):
        fh, spec, ifs = self.fh, self.specs[i], self.ifs[i]
        w = poly = None
        if spec["kind"] == "complex":
            system = call("analytic.system", fh.complex_base_system,
                          cmath.rect(spec["r"], spec["phi"]), spec["n"])
            if system.rational_angle is not None:
                poly, _ = call("analytic.exact", fh.exact_polygon, system)
        if poly is None:
            w, poly = self.solve(ifs, call)
        cloud = call("ifs.chaos", fh.chaos_game_sample, ifs, self.size["points"],
                     spec["chaos_seed"])
        svg = call("render.svg", fh.render_svg, poly, cloud.points)
        return w, poly, svg, len(cloud)

    def digest(self, out) -> str:
        w, poly, svg, _ = out
        return _digest(poly.vertices.tobytes(), svg.encode())

    def dump(self, out) -> dict:
        w, poly, svg, points = out
        d = _polygon_dump(self.fh, poly)
        raw = svg.encode()
        d["svg"] = svg
        d["svg_sha256"] = _digest(raw)
        d["counters"] = {
            "width.iterations": w.iterations if w is not None else 0,
            "hull.kinks": len(self.fh.detect_kinks(w)) if w is not None else 0,
            "hull.vertices": len(poly),
            "analytic.exact_count": int(poly.method == "exact"),
            "ifs.chaos_points": points,
            "render.svg_bytes": len(raw),
        }
        return d

    def apart(self, i, out, call):
        if out[0] is not None:
            call("width.apply", self.fh.selfsim_operator, self.ifs[i], out[0])


class Query(Workload):
    """One op: one ``near1(x, l)`` or ``near(x, k)`` against a prepared context."""

    def __init__(self, fh, inputs, call):
        self.fh = fh
        size = inputs["size"]
        self.ifs, self.widths, self.ctx = [], [], []
        for spec in inputs["systems"]:
            ifs = _build_ifs(fh, spec, call)
            w = call("width.solve", fh.solve_width, ifs, size["grid"], size["tol"])
            self.ifs.append(ifs)
            self.widths.append(w)
            self.ctx.append(call("query.context", fh.build_context, ifs, w))
        p = inputs["probes"]
        self.probes = [
            (int(c), (float(x[0]), float(x[1])), int(kind), float(l), int(k))
            for c, x, kind, l, k in zip(p["ctx"], p["x"], p["kind"], p["l"], p["k"])
        ]

    def __len__(self):
        return len(self.probes)

    def op(self, j, call):
        c, x, kind, l, k = self.probes[j]
        if kind == 0:
            return call("query.near1", self.fh.near1, self.ctx[c], x, l)
        return call("query.near", self.fh.near, self.ctx[c], x, k)

    def digest(self, out) -> str:
        return f"{int(out.hit)}{int(out.complete)}:{out.depth}"

    def dump(self, out) -> dict:
        return {"hit": bool(out.hit), "depth": out.depth, "complete": bool(out.complete)}

    def contexts(self) -> list[dict]:
        return [{"x0": c.x0.tolist(), "radius": c.radius, "c0_bound": c.c0_bound,
                 "slack": c.slack, "complete": c.complete,
                 "iterations": w.iterations}
                for c, w in zip(self.ctx, self.widths)]

    def apart_round(self, call):
        for ifs, w in zip(self.ifs, self.widths):
            call("width.apply", self.fh.selfsim_operator, ifs, w)


WORKLOADS = {"hull-slow": HullSlow, "render-fine": RenderFine, "query": Query}


def set_up(args, call):
    """Import the package, build the inputs and the workload; time all of it."""
    t0 = _now()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import fractalhull as fh
    except ImportError as exc:
        print(f"cannot import fractalhull from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(NO_PACKAGE)
    if not Path(fh.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        print(f"fractalhull was imported from {fh.__file__}, not this checkout",
              file=sys.stderr)
        sys.exit(NO_PACKAGE)
    t_import = _now()
    import inputs
    wl = WORKLOADS[args.workload](fh, inputs.make(args.workload, args.seed, args.tiny), call)
    t1 = _now()
    return fh, wl, (t_import - t0) / 1e9, (t1 - t0) / 1e9


class RoundSamples:
    """Per-input whole-op latencies of an evenly thinned, bounded set of rounds,
    plus the op count by status and the time spent in ops, over all rounds.

    The buffers are allocated and touched up front, so the process's memory
    does not grow with the op rate.  When they fill, every other kept round
    is dropped and from then on only every second round is kept.
    """

    def __init__(self, np, n_inputs: int, rows: int = 64):
        self.lat = np.full((rows, n_inputs), -1, dtype=np.int64)
        self.status = np.full((rows, n_inputs), -1, dtype=np.int8)
        self.counts = np.zeros((3, n_inputs), dtype=np.int64)  # by status
        self.busy = np.zeros(1, dtype=np.int64)  # ns spent in ops, every round
        self.rows, self.stride, self.seen = 0, 1, 0

    def start_round(self):
        """Row to fill for this round, or None when the round is not kept."""
        seen = self.seen
        self.seen += 1
        if seen % self.stride:
            return None
        cap = self.lat.shape[0]
        if self.rows == cap:
            half = cap // 2
            for buf in (self.lat, self.status):
                buf[:half] = buf[0:cap:2]
                buf[half:] = -1
            self.rows, self.stride = half, self.stride * 2
            if seen % self.stride:
                return None
        self.rows += 1
        return self.rows - 1


class Calibration:
    """A fixed kernel that calls no fractalhull code, timed between ops to
    gauge the machine's speed: four numpy sweeps over a 4096-point periodic
    grid (the solver's kind of work) and an interpreted loop (the query
    recursion's kind).  ``run.py`` scales the end-to-end times by its best.
    """

    def __init__(self, np):
        self.np = np
        self.angles = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        self.values = 1.0 + 0.1 * np.cos(3.0 * self.angles)
        self.ns: list[int] = []

    def run(self) -> None:
        np, a = self.np, self.angles
        t0 = _now()
        for _ in range(4):
            np.interp(a * 1.01, a, self.values, period=2.0 * np.pi) * np.hypot(np.cos(a), np.sin(a))
        s = 0
        for i in range(12000):
            s += i * i
        self.ns.append(_now() - t0)


def setup_sample(args) -> dict:
    """One set-up in a fresh interpreter, as ``--setup-only`` measures it."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--out", args.out, "--setup-only"] + ["--tiny"] * args.tiny
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout)


def timed_loop(np, wl, args, tracer, refs):
    """Closed loop, one caller: whole rounds over every input until time is up.

    The loop ends only between two rounds, so every input is attempted
    equally often and the failed share of the ops is that of the inputs.

    With tracing, even rounds run untraced and odd rounds traced, so both
    see the same machine phases and their difference is the tracing cost.
    Status per op: 0 output as in the warm-up pass, 1 raised, 2 differed.
    Every ``seconds / LOOP_SETUP_SAMPLES`` a set-up sample runs between two
    rounds, so the samples span the machine's speed phases; the loop's end
    moves back by the time they take.  The calibration kernel runs between
    two ops every ``CALIBRATE_EVERY_NS``, outside every op's time.
    """
    books = [RoundSamples(np, len(wl)), RoundSamples(np, len(wl))]
    mismatched, exc, setups, cal = [], Counter(), [], Calibration(np)
    next_cal = _now()
    trace, step = args.trace, int(args.seconds * 1e9 / LOOP_SETUP_SAMPLES)
    deadline = _now() + int(args.seconds * 1e9)
    next_sample = _now() + step // 2
    rnd, done = 0, False
    while not done:
        if _now() >= next_sample and len(setups) < LOOP_SETUP_SAMPLES:
            t0 = _now()
            setups.append(setup_sample(args))
            deadline += _now() - t0
            next_sample += step
        on = trace and rnd % 2 == 1
        call = tracer.call if on else direct
        book = books[int(on)]
        row = book.start_round()
        for i in range(len(wl)):
            t0 = _now()
            try:
                out = tracer.op("bench.op", wl.op, i, call) if on else wl.op(i, call)
                st = 0
            except Exception as e:  # a failed op is counted, never fatal
                exc[type(e).__name__] += 1
                st, out = 1, None
            t1 = _now()
            if st == 0:
                if wl.digest(out) != refs[i]:
                    st = 2
                    if len(mismatched) < MAX_MISMATCHED:
                        mismatched.append({"input": i, "output": wl.dump(out)})
                elif on:
                    wl.apart(i, out, tracer.call)
            book.counts[st, i] += 1
            book.busy[0] += t1 - t0
            if row is not None:
                book.lat[row, i] = t1 - t0
                book.status[row, i] = st
            if t1 >= next_cal:
                cal.run()
                next_cal = _now() + CALIBRATE_EVERY_NS
        if on:
            wl.apart_round(tracer.call)
        rnd += 1
        done = _now() >= deadline
    return books, rnd, mismatched, exc, setups, cal.ns


def environment() -> dict:
    import importlib.metadata
    import numpy as np
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 has no dict mode
        pass

    def version(name):
        try:
            return importlib.metadata.version(name)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def layer_metrics(tracer: Tracer, traced_ops: int) -> dict:
    """Median seconds per call for each span name, self seconds per op per layer."""
    import numpy as np
    out = {}
    for name, d in tracer.durations.items():
        if name != "bench.op":
            out[name + "_s"] = float(np.median(np.frombuffer(d, dtype=np.int64))) / 1e9
    for layer, ns in tracer.self_ns.items():
        out[layer + ".self_s"] = ns / 1e9 / max(traced_ops, 1)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    out_dir = Path(args.out)

    tracer = Tracer()
    call = tracer.call if args.trace and not args.setup_only else direct
    fh, wl, import_s, setup_s = set_up(args, call)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
        return 0

    import numpy as np
    refs, warm, warm_exc = [], [], Counter()
    for i in range(len(wl)):
        try:
            out = wl.op(i, direct)
        except Exception as e:  # recorded; timed ops of this input then count as failed
            warm_exc[type(e).__name__] += 1
            refs.append(None)
            warm.append({"error": type(e).__name__, "message": str(e)})
            continue
        refs.append(wl.digest(out))
        warm.append(wl.dump(out))

    books, rounds, mismatched, exc, setups, cal_ns = timed_loop(np, wl, args, tracer, refs)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    traced_ops = int(books[1].counts.sum())
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "setup_s": setup_s, "import_s": import_s, "loop_setups": setups,
        "calibration_ns": cal_ns,
        "peak_rss_kb": rss_kb,
        "inputs": len(wl), "rounds": rounds,
        "warm": warm, "warm_exceptions": dict(warm_exc),
        "exceptions": dict(exc), "mismatched": mismatched,
        "contexts": wl.contexts(),
        "environment": environment(),
    }
    if args.trace:
        report["layers"] = layer_metrics(tracer, traced_ops)
        report["spans"] = tracer.dump()
    with open(out_dir / "worker.json", "w", encoding="utf-8") as fh_out:
        json.dump(report, fh_out)
    np.savez(out_dir / "ops.npz",
             **{f"{side}_{k}": getattr(b, k) for side, b in zip(("plain", "traced"), books)
                for k in ("lat", "status", "counts", "busy")})
    return 0


if __name__ == "__main__":
    sys.exit(main())
