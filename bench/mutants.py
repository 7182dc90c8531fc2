"""Mutation check of the certified error terms against the tier-1 tests.

Each mutant weakens one certified term of ``fractalhull``, a screen
that must leave a certified result as it is (the solver's stopping-test
screen), a rule of the solver's extrapolation, the solver's guards at the
ends of the float range (its starts and the extrapolation's Gram matrix
taken at unit scale, its overflow error), or the chaos game that draws
the test suite's oracle clouds, by textual edits, ``(file, old, new,
label)``; edits sharing a label make one mutant.  A mutant whose solve
runs to the iteration cap fails its test with ``ConvergenceError`` and
counts as killed.
Every ``old`` must occur exactly once in its file, else nothing runs and
the exit code is 2 (``tests/test_mutants.py`` checks this in tier-1, and
is left out of the runs here: a mutated copy fails it by design).  Each
mutant is applied to a copy of the tree in a
temporary directory, where the tier-1 suite runs with ``-x``: a failing
test kills the mutant, a passing suite lets it survive.  The unmutated
copy runs first and must pass (exit code 1 otherwise).  The kill table
gives, per label, ``killed`` or ``survived`` and the first failing test.

    python bench/mutants.py                      # this tree
    python bench/mutants.py --tree ../parent --out mutants.json

A run takes up to one tier-1 run (~25 s on 2 cores) per mutant.  Every
run passes the same ``--hypothesis-seed`` and starts without an example
database, so the property tests draw the same examples each time and the
table repeats from run to run.  The standard library is all this needs.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# one seed for every run, so each mutant meets the same property-test examples
HYPOTHESIS_SEED = 0
WIDTH, HULL = "src/fractalhull/width.py", "src/fractalhull/hull.py"
QUERY, ANALYTIC = "src/fractalhull/query.py", "src/fractalhull/analytic.py"
IFS = "src/fractalhull/ifs.py"

EDITS = [
    (WIDTH, "iter_error, radius * math.pi / n, iterations)",
     "iter_error, radius * math.pi / n / 2.0, iterations)", "interp_slack halved"),
    (WIDTH, "err = step * c / (1.0 - c)", "err = step * c", "iter_error without 1/(1-c)"),
    (WIDTH, "return float(w.values.max()) + w.bound + w.interp_slack",
     "return float(w.values.max()) + w.bound", "circumradius without interp_slack"),
    (WIDTH, "budget = w.values + (w.bound + slack)",
     "budget = w.values + slack", "hull_contains without bound"),
    # the screen reads _stops without new: these drop a condition from that form
    (WIDTH, "or step <= _ROUNDING_FLOOR * top and (",
     "or new is not None and step <= _ROUNDING_FLOOR * top and (",
     "stop screen without its rounding-floor condition"),
    (WIDTH, "or finer and err <= (top + err) * math.pi / finer and (",
     "or new is not None and finer and err <= (top + err) * math.pi / finer and (",
     "stop screen without its finer condition"),
    (WIDTH, "values, probe, bound = new, j, step",
     "values, probe, bound = start if check else new, j, step",
     "extrapolation: go on from s, not T(s)"),
    (WIDTH, "if check and not step <= last:", "if False:", "extrapolation: every jump taken"),
    (WIDTH, "top = _finite(float(np.max(np.abs(new))) if check else top + step)",
     "top = _finite(top + step)", "extrapolation: no screen restart after a jump"),
    (WIDTH, "values, probe, bound = new, j, step",
     "values, probe, bound = new, probe if check else j, step",
     "extrapolation: no screen restart after a jump"),
    (WIDTH, "r0 = float(_scaled(lambda t: max(map(np.linalg.norm, t)), ifs.t, exp))",
     "r0 = float(max(map(np.linalg.norm, ifs.t)))", "ball bound at the input's scale"),
    (WIDTH, "return _scaled(lambda x: np.fft.irfft(np.fft.rfft(x) / (1.0 - lam), n), b, exp)",
     "return np.fft.irfft(np.fft.rfft(b) / (1.0 - lam), n)",
     "circulant start at the input's scale"),
    (WIDTH, "far = abs(exp) > 500", "far = False", "extrapolation Gram at the input's scale"),
    (WIDTH, "if not math.isfinite(top):", "if False:", "overflowing widths not raised"),
    (QUERY, "c0 = radius / math.sqrt(2.0) if", "c0 = radius / 2.0 if", "paper C0 = R/2"),
    (QUERY, "slack = w0.slack", "slack = w0.bound", "query slack without interp_slack"),
    (QUERY, "r_in = max((lo + slack) * (1.0 - 8.0 * _EPS) - _TINY, slack)",
     "r_in = max(lo + slack, slack)", "annulus margins zero"),
    (QUERY, "return r_in, (max(hi, 0.0) + slack) * (1.0 + 8.0 * _EPS) + _TINY",
     "return r_in, max(hi, 0.0) + slack", "annulus margins zero"),
    (QUERY, "budget / ci, depth))", "budget / ci ** 2, depth))", "walk budget over-inflated"),
    (QUERY, "budget /= jc", "budget /= jc * jc", "walk budget over-inflated"),
    (HULL, "outer = max(2.0 * w.slack + merge_tol,",
     "outer = max(w.slack + merge_tol,", "outer_slack first term, one slack"),
    (HULL, "+ w.bound + 2.0 * w.interp_slack)",
     "+ w.bound + w.interp_slack)", "outer_slack shortfall term, one interp_slack"),
    (HULL, "merge_tol = 8.0 * w.slack", "merge_tol = 4.0 * w.slack", "merge_tol halved"),
    (ANALYTIC, "w = (sys.n - 1) / (2.0 * (sys.z - 1.0))",
     "w = sys.n / (2.0 * (sys.z - 1.0))", "zonogon centre off by one digit"),
    (IFS, "while m > 1 and len(x) < chains:", "while False:",
     "chaos game: every chain started at x*"),
    (IFS, "idx = rng.integers(0, m, size=", "idx = 0 * rng.integers(0, m, size=",
     "chaos game: every seeded step letter 0"),
]

# left out of the copy: history, caches and generated output
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                "demo_output", ".runs", "*.egg-info")


def mutants(edits) -> dict[str, list[tuple[str, str, str]]]:
    """The edits grouped by label, in order of first appearance."""
    out: dict[str, list[tuple[str, str, str]]] = {}
    for path, old, new, label in edits:
        out.setdefault(label, []).append((path, old, new))
    return out


def misplaced(tree: Path, edits) -> list[str]:
    """One line per edit whose ``old`` does not occur exactly once."""
    bad = []
    for path, old, _, label in edits:
        count = (tree / path).read_text(encoding="utf-8").count(old)
        if count != 1:
            bad.append(f"{label}: {path} holds {old!r} {count} times")
    return bad


def run_tier1(tree: Path, edits) -> tuple[str, str, float]:
    """Apply ``edits`` to a copy of ``tree``, run tier-1 there with ``-x``;
    return the outcome ("killed", "survived" or "error"), the first failing
    test and the seconds taken."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(tree, copy, ignore=IGNORE)
        for path, old, new in edits:
            target = copy / path
            target.write_text(target.read_text(encoding="utf-8").replace(old, new),
                              encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(copy / "src"), env.get("PYTHONPATH")) if p)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--ignore=tests/test_mutants.py", f"--hypothesis-seed={HYPOTHESIS_SEED}",
             f"--basetemp={Path(tmp) / 'pytest'}"],
            cwd=copy, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
    failed = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", proc.stdout, re.MULTILINE)
    first = failed.group(1) if failed else ""
    outcome = {0: "survived", 1: "killed"}.get(proc.returncode, "error")
    if outcome == "error" and not first:
        first = (proc.stdout.strip().splitlines() or ["(no output)"])[-1]
    return outcome, first, seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", type=Path, default=ROOT,
                    help="the source tree to mutate (default: this one)")
    ap.add_argument("--out", type=Path, help="also write the table as JSON")
    args = ap.parse_args(argv)
    tree = args.tree.resolve()
    bad = misplaced(tree, EDITS)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 2

    outcome, first, seconds = run_tier1(tree, [])
    if outcome != "survived":
        print(f"the unmutated tree fails tier-1: {first}", file=sys.stderr)
        return 1
    print(f"unmutated tree passes tier-1 in {seconds:.1f} s")
    print("| mutant | result | first failing test |")
    print("|---|---|---|")
    rows = []
    for label, group in mutants(EDITS).items():
        outcome, first, seconds = run_tier1(tree, group)
        rows.append({"label": label, "result": outcome, "first_failure": first,
                     "seconds": round(seconds, 1)})
        print(f"| {label} | {outcome} | {first or '-'} |", flush=True)
    killed = sum(r["result"] == "killed" for r in rows)
    print(f"{killed} of {len(rows)} mutants killed")
    if args.out:
        args.out.write_text(json.dumps({"tree": str(tree), "mutants": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
