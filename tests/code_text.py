"""The parser of code_matrix.to_text's format, for the tests that read it
back: test_code_matrix's round trips and test_cli's `code --emit`."""

import numpy as np

from ecoc.code_matrix import CodeMatrix


def from_text(text: str) -> CodeMatrix:
    """Parse the to_text format, recomputing and checking d and m.

    Blank lines are skipped.  Every row must hold exactly n characters, each
    0 or 1; the rows are read as one byte buffer.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty code matrix text")
    parts = lines[0].split()
    if len(parts) != 3:
        raise ValueError(f"bad header {lines[0]!r}; expected 'n d m'")
    n, d, m = (int(p) for p in parts)
    rows = lines[1:]
    if any(len(row) != n for row in rows):
        raise ValueError(f"rows must all have length n={n}")
    # Every character other than 0 and 1 maps to a byte value above 1 (one
    # that is not ASCII becomes "?" first), which CodeMatrix rejects.
    raw = "".join(rows).encode("ascii", "replace")
    code = CodeMatrix(np.frombuffer(raw, np.uint8).reshape(len(rows), n) - ord("0"))
    if (code.d, code.m) != (d, m):
        raise ValueError(
            f"header claims d={d} m={m} but matrix has d={code.d} m={code.m}"
        )
    return code
