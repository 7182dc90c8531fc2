"""Run the tier-1 property tests under many Hypothesis seeds.

Tier-1 draws fresh property-test examples on every run, so a rare
failing draw shows up only by chance.  This script runs the property
tests (the tests Hypothesis marks, ``-m hypothesis``) of the given test
files once per ``--hypothesis-seed``, in a copy of the tree without
``.hypothesis/``, whose example database is removed before each seed so
that no seed replays another's failure.  It prints each failing test
with its seed, and exits 1 if any test failed, else 0.

    python bench/seeds.py --seeds 1-20 tests/test_width.py tests/test_scale.py \\
        tests/test_analytic.py
    python bench/seeds.py --seeds 1-40            # every test file

One seed costs one run of the selected property tests (~6 s for the three
files above on 2 cores).  This is not part of tier-1.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from mutants import IGNORE, ROOT  # noqa: E402
from same_bytes import seeds  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("paths", nargs="*", default=["tests"],
                    help="test files or directories, relative to the tree (default: tests)")
    ap.add_argument("--seeds", type=seeds, default=list(range(1, 21)),
                    help="a seed N or a range N-M (default: 1-20)")
    args = ap.parse_args(argv)
    failures = 0
    with tempfile.TemporaryDirectory(prefix="seeds-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(copy / "src"), env.get("PYTHONPATH")) if p)
        for seed in args.seeds:
            shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "-m", "hypothesis", f"--hypothesis-seed={seed}", *args.paths],
                cwd=copy, env=env, capture_output=True, text=True)
            failed = re.findall(r"^(?:FAILED|ERROR) (.+?)(?: - |$)", proc.stdout, re.MULTILINE)
            if proc.returncode not in (0, 1) and not failed:
                failed = [(proc.stdout.strip().splitlines() or ["(no output)"])[-1]]
            for test in failed:
                print(f"seed {seed}: {test}", flush=True)
            summary = (proc.stdout.strip().splitlines() or [""])[-1]
            print(f"seed {seed}: {summary}", flush=True)
            failures += len(failed)
    print(f"{failures} failing test runs over {len(args.seeds)} seeds")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
