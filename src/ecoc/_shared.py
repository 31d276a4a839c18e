"""What the command line needs before it knows its command: the CSV writer
every csv output goes through, and the vocabularies its parser offers as
choices.  Standard library only, so that the parser and a command's output
load no library module the command does not run.  bounds, simulator and
experiment_io import their names from here."""

from __future__ import annotations

import csv
import io

# evaluate_bounds' kz policies: "gated" (kz_bound) or "always" (kz_value).
KZ_POLICIES = ("gated", "always")

# The simulator's two estimators, as SimResult.mode names them.
MODE_THRESHOLD = "threshold"
MODE_FULL_DECODE = "full-decode"


def csv_text(columns, rows) -> str:
    """CSV text of a header of columns and one line per row, written by
    csv.writer with \\n line ends.  Each row is a sequence of cells in
    column order; a caller that holds dicts maps each one through the
    columns once.

    A cell holding a comma, a quote or a line break is quoted (RFC 4180), a
    float is written in full precision (str of a float is its repr) and None
    is an empty cell.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()
