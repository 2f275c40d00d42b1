"""Tests for the mutation probe's table check (`tools/mutants.py`).

Each mutant's old text must occur exactly once in its file: a text that is
gone, or that occurs twice, makes the check fail, and the shipped table
applies to the current source.
"""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", REPO / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_old_text_must_occur_exactly_once(tmp_path):
    (tmp_path / "m.py").write_text("x = 1\ny = 2\ny = 2\n")
    table = (
        mutants.Mutant("once", "m.py", "x = 1", "x = 2"),
        mutants.Mutant("twice", "m.py", "y = 2", "y = 3"),
        mutants.Mutant("gone", "m.py", "z = 3", "z = 4"),
    )
    assert mutants.check_table(tmp_path, table) == [
        "twice: 'y = 2' occurs 2 times in m.py, not once",
        "gone: 'z = 3' occurs 0 times in m.py, not once",
    ]


def test_shipped_table_applies_to_the_source():
    assert mutants.check_table(REPO, mutants.MUTANTS) == []
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
