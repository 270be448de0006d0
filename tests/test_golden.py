"""Golden CSVs: every recipe at 2 locations x 2 fadings, seed 1.

A refactor must reproduce these files: the ``#`` header, the column row,
labels and counts exactly, and every number to a relative tolerance of
1e-9.  The files are regenerated only when a change is meant to move the
numbers, from the repository root with::

    for i in 2 3 4 5 6 7 8 9; do
        PYTHONPATH=src python -m vccsim --recipe fig$i --locations 2 \\
            --fadings 2 --seed 1 --out tests/golden/fig$i.csv
    done
"""

import math
from pathlib import Path

import pytest

from vccsim.cli import main

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-9
EXACT = ("scheme", "ptot_dbm", "q", "n_locations", "n_fadings", "seed")


def _split(text):
    lines = text.splitlines()
    head = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    columns = body[0].split(",")
    return head, columns, [dict(zip(columns, ln.split(","))) for ln in body[1:]]


@pytest.mark.parametrize("recipe", [f"fig{i}" for i in range(2, 10)])
def test_recipe_matches_golden(recipe, tmp_path, capsys):
    out = tmp_path / f"{recipe}.csv"
    code = main([
        "--recipe", recipe, "--locations", "2", "--fadings", "2",
        "--seed", "1", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    head, columns, rows = _split(out.read_text())
    want_head, want_columns, want_rows = _split((GOLDEN / f"{recipe}.csv").read_text())
    assert head == want_head
    assert columns == want_columns
    assert len(rows) == len(want_rows)
    for i, (row, want) in enumerate(zip(rows, want_rows)):
        for col in columns:
            got, ref = row[col], want[col]
            if col in EXACT or not (got and ref):
                assert got == ref, f"row {i} {col}"
            else:
                assert math.isclose(float(got), float(ref), rel_tol=RTOL, abs_tol=0.0), (
                    f"row {i} {col}: {got} vs {ref}"
                )
