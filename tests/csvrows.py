"""Typed rows of a rendered result CSV, so that tests read what users get.

Tests that read a recipe's rows render its blocks with
:func:`vccsim.experiments.format_csv` and parse the text here, instead of
reading the blocks' columns.
"""

import csv

from vccsim.experiments import format_csv

COUNT_COLUMNS = ("q", "n_locations", "n_fadings", "seed")


def _typed(column: str, cell: str):
    if column == "scheme":
        return cell
    if cell == "":
        return None
    return int(cell) if column in COUNT_COLUMNS else float(cell)


def parse_rows(text: str) -> list[dict]:
    """The rows of CSV ``text``, ``#`` lines skipped, as dicts keyed by
    column: ``scheme`` as written, counts as ints, every other cell as a
    float, and an empty cell as ``None``."""
    body = (line for line in text.splitlines() if not line.startswith("#"))
    return [
        {column: _typed(column, cell) for column, cell in row.items()}
        for row in csv.DictReader(body)
    ]


def rendered_rows(blocks) -> list[dict]:
    """:func:`parse_rows` of the CSV that ``blocks`` render to."""
    return parse_rows(format_csv(blocks))
