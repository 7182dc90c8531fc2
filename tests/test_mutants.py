"""The mutation audit still fits the code: every edit of
``bench/mutants.py`` names text that occurs exactly once in its file, so a
refactor that moves a mutated line fails here, not at the next audit."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_mutant_edit_applies():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "bench" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.misplaced(ROOT, mutants.EDITS) == []
