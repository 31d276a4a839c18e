"""Fold-level experiment ingestion, metrics, bound reports, and aggregation.

Two CSV schemas are understood:

* raw predictions, one file per fold: header ``true_class,bit_1,...,bit_n``,
  one row per sample with the n predicted bits;
* fold summaries, one file per dataset/model: header
  ``fold,mean_bit_error,mean_correlation,ecoc_error`` with optional
  ``*_std`` columns after each statistic.

A raw fold is parsed (load_predictions) and analyzed (analyze_fold) in
blocks of _BLOCK_ROWS rows, so no temporary grows with the file.  Blocking
cannot move a statistic: each is an exact integer count.  A block's joint
error counts are one float32 Gram product of its 0/1 error matrix, and
each entry of it is a sum of one 0/1 term per row.  A block holds at most
code_matrix.EXACT_MAX_N - 1 = 2**24 - 1 rows, so every partial sum, in
whatever order BLAS adds them, is an integer below 2**24 and exact in
float32; the blocks are summed in float64, exactly.  The row counts that
pick the samples to decode are exact the same way, since a row is shorter
than 2**24.

The package bundles summary fixtures for the six public datasets (ten
dataset/model pairs) so the published per-fold tables can be re-analyzed
without retraining anything, together with the published aggregate table the
reproduction is checked against.

The fold-summary half (summary CSVs, fixtures, bound reports, aggregation,
the reference reproduction and both figures) runs on the standard
library: each fold is four floats, each bound a closed form, and a code's m
comes from the closed form of its distance (_shared.sylvester_distance).
Its means and standard deviations take their sums by math.fsum, correctly
rounded, as each tail and exact_decode_error does; analyze_fold's are
numpy's, over arrays (see _sample_std).  numpy and code_matrix are
imported only by the raw-fold functions, where they run: FoldData,
load_predictions, write_predictions and analyze_fold.
The records are NamedTuples, not dataclasses, whose import loads inspect
and whose generated methods are executed at import.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from ._shared import (
    DEFAULT_ORIENTATION,
    _check_integer,
    _check_number,
    csv_text,
    sylvester_distance,
)
from .bounds import BoundReport, chernoff_lambda, evaluate_bounds, gs_bound
from .errors import DomainError, ParseError

if TYPE_CHECKING:
    import numpy as np

    from .code_matrix import CodeMatrix

# Admissible range of each numeric summary column, in file order.
_SUMMARY_RANGES = {
    "mean_bit_error": (0.0, 1.0),
    "mean_bit_error_std": (0.0, math.inf),
    "mean_correlation": (-1.0, 1.0),
    "mean_correlation_std": (0.0, math.inf),
    "ecoc_error": (0.0, 1.0),
}
SUMMARY_COLUMNS_STD = ("fold", *_SUMMARY_RANGES)
SUMMARY_COLUMNS = tuple(c for c in SUMMARY_COLUMNS_STD if not c.endswith("_std"))
# Bytes of the raw-prediction schema, and its two cells as little-endian
# 16-bit pairs.
_CR, _LF, _ZERO = b"\r\n0"
_CELL0, _CELL1 = (int.from_bytes(cell, "little") for cell in (b",0", b",1"))
# Longest class field: 18 decimal digits always fit an int64.
_MAX_CLASS_DIGITS = 18
# Rows per block of a raw fold's parse and analysis: a 127-class block's
# cells are 1 MB.  4,096 ran faster than 1,024 or 2,048.
_BLOCK_ROWS = 4096
# Bytes per step of the line-end scan.
_SCAN_BYTES = 1 << 18
# Mean-bit-error points on each scatter figure's bound curves.
_SCATTER_GRID_POINTS = 101
# Most e points on fig1's grid; its default step gives 249.
_FIG1_MAX_POINTS = 100_000


class _FoldFields(NamedTuple):
    fold_id: str
    n: int
    true_classes: np.ndarray
    bits: np.ndarray


class FoldData(_FoldFields):
    """Raw per-sample predictions for one cross-validation fold.  The checked
    true_classes and bits are stored as read-only copies, so no later write
    to the caller's arrays reaches an analysis unchecked.  _make and _replace
    construct through __new__, so they check and copy the same."""

    __slots__ = ()

    def __new__(cls, fold_id: str, n: int, true_classes: np.ndarray, bits: np.ndarray):
        import ecoc.code_matrix as cm
        import numpy as np

        classes = true_classes
        if not (
            isinstance(classes, np.ndarray)
            and classes.ndim == 1
            and np.issubdtype(classes.dtype, np.integer)
        ):
            raise ValueError("true_classes must be a 1-D integer array")
        if classes.size and classes.min() < 0:
            raise ValueError(f"true_class {int(classes.min())} is negative")
        if n < 1:
            raise ValueError(f"n={n}: a fold needs at least one classifier")
        if not isinstance(bits, np.ndarray) or bits.shape != (len(classes), n):
            raise ValueError(
                f"bits of shape {np.shape(bits)} do not match "
                f"{len(classes)} samples of n={n} bits"
            )
        if not cm._all_bits(bits):
            raise ValueError("bits must be 0 or 1")
        classes, bits = classes.copy(), bits.copy()
        classes.setflags(write=False)
        bits.setflags(write=False)
        return super().__new__(cls, fold_id, n, classes, bits)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def num_samples(self) -> int:
        return len(self.true_classes)


class FoldSummary(NamedTuple):
    """Per-fold statistics; mirrors one row of the published fold tables."""

    fold_id: str
    mean_bit_error: float
    mean_correlation: float
    ecoc_error: float
    per_classifier_errors: tuple[float, ...] | None = None
    mean_bit_error_std: float | None = None
    mean_correlation_std: float | None = None
    correlation_defined: bool = True


class ColumnStats(NamedTuple):
    mean: float
    std: float | None
    count: int


class AggregateReport(NamedTuple):
    """Cross-fold means and sample standard deviations (None for one value)
    per column of _fold_cells.  A column is None when no fold produced a
    value: kz under the gated policy, chernoff for m = n or e > m/n."""

    experimental: ColumnStats
    gs: ColumnStats
    chernoff: ColumnStats | None
    kz: ColumnStats | None


REPORT_COLUMNS = (
    "fold",
    "mean_bit_error",
    "mean_correlation",
    *AggregateReport._fields,
)


# ---------------------------------------------------------------------------
# raw predictions schema


def load_predictions(path) -> FoldData:
    """Read one fold of raw predictions; errors carry the offending line.

    The file is parsed as one byte array.  Each data row is a class of
    decimal digits followed by n ``,0``/``,1`` cells and ends in ``\\n`` or
    ``\\r\\n`` (the final newline may be missing).  The line ends are found
    in one scan; the rows are then checked and parsed in blocks of
    _BLOCK_ROWS rows.  The first row that does not match raises a ParseError
    naming its line.
    """
    import numpy as np

    path = Path(path)
    raw = path.read_bytes()
    if not raw:
        raise ParseError("empty file", line=1)
    # A CR is part of a line end only before a LF.
    head_end = raw.find(b"\n")
    if head_end < 0:
        head_end = len(raw)
    header = _fields(raw[: head_end + 1].removesuffix(b"\r\n").removesuffix(b"\n"), 1)
    n = len(header) - 1
    if n < 1 or header != _prediction_header(n):
        raise ParseError(
            f"bad header {header!r}; expected true_class,bit_1,...,bit_n", line=1
        )

    body = np.frombuffer(raw, np.uint8)[head_end + 1 :]
    ends = _line_ends(body)
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    stops = ends - ((ends > starts) & (ends < body.size) & (body[ends - 1] == _CR))
    # Row i holds its class in body[starts[i]:bit0[i]] and its cells in
    # body[bit0[i]:stops[i]].
    bit0 = stops - 2 * n
    width = bit0 - starts
    misfit = (width < 1) | (width > _MAX_CLASS_DIGITS)
    rows = int(misfit.argmax()) if misfit.any() else len(ends)
    # Rows before the first misfit are checked and parsed block by block.
    bits = np.empty((rows, n), np.uint8)
    classes = np.zeros(rows, np.int64)
    for lo in range(0, rows, _BLOCK_ROWS):
        at = slice(lo, min(lo + _BLOCK_ROWS, rows))
        bad = _parse_block(body, bit0[at], width[at], bits[at], classes[at])
        if bad >= 0:
            rows = lo + bad
            break
    if rows < len(ends):
        raise _row_error(body[starts[rows] : stops[rows]].tobytes(), n, rows + 2)
    if not rows:
        warnings.warn(f"{path}: no data rows", stacklevel=2)
    return FoldData(fold_id=path.stem, n=n, true_classes=classes, bits=bits)


def _line_ends(body: np.ndarray) -> np.ndarray:
    """Offsets of body's LF bytes, then body.size if the last line has no
    LF.  The scan runs over _SCAN_BYTES at a time, so no bool array the
    size of the file is made."""
    import numpy as np

    ends = []
    for lo in range(0, body.size, _SCAN_BYTES):
        at = np.flatnonzero(body[lo : lo + _SCAN_BYTES] == _LF)
        at += lo
        ends.append(at)
    if body.size and body[-1] != _LF:
        ends.append(np.array([body.size]))
    return np.concatenate(ends) if ends else np.empty(0, np.intp)


def _windows(body: np.ndarray, size: int) -> np.ndarray:
    """A 1-D array of size-byte void items over body, item i holding
    body[i : i + size]: gathering whole items copies each row's cells in one
    piece, about 3x as fast at 26 classes as gathering rows of a 2-D
    sliding window."""
    import numpy as np

    item = np.dtype((np.void, size))
    return np.ndarray((body.size - size + 1,), item, body, strides=(1,))


def _parse_block(body, bit0, width, bits, classes) -> int:
    """Check and parse one block of rows, all of whose class fields are 1 to
    _MAX_CLASS_DIGITS bytes wide, into bits and classes (the block's rows of
    the fold's arrays; classes starts at zero).  Returns the index in the
    block of its first bad row, or -1."""
    import numpy as np

    # Each cell is read as one little-endian 16-bit pair: ",0" is _CELL0 and
    # ",1" is _CELL1.  Once the bits are read, bit 8 is set in place: that
    # maps the two, and nothing else, to _CELL1, so the cells are well formed
    # when the smallest and largest pair are _CELL1.
    pairs = _windows(body, 2 * bits.shape[1])[bit0].view("<u2").reshape(bits.shape)
    np.equal(pairs, _CELL1, out=bits.view(bool))
    np.bitwise_or(pairs, _CELL0 ^ _CELL1, out=pairs)
    # Class fields digit by digit, most significant first, one byte gather
    # per digit: the k-th digit from the right is at bit0 - k.  In a row
    # whose field is narrower than k that byte belongs to the line before
    # (the clip keeps the first row's index in range), so it counts as 0.
    digits_bad = np.zeros(len(bit0), bool)
    for k in range(int(width.max()), 0, -1):
        digit = np.take(body, bit0 - k, mode="clip") - _ZERO
        digit *= width >= k
        digits_bad |= digit > 9
        classes *= 10
        classes += digit
    # Per-row reductions cost more than the checks, so they run only to
    # find the first bad row.
    if pairs.min() == pairs.max() == _CELL1 and not digits_bad.any():
        return -1
    return int(((pairs == _CELL1).all(axis=1) & ~digits_bad).argmin())


def write_predictions(data: FoldData, path) -> None:
    """Write one fold in the raw schema with ``\\r\\n`` line ends, in one write."""
    import numpy as np

    header = (",".join(_prediction_header(data.n)) + "\r\n").encode()
    classes, label_of = np.unique(data.true_classes, return_inverse=True)
    labels = [str(c).encode() for c in classes.tolist()]
    w = max(map(len, labels), default=0)
    # Labels right-aligned in w columns; the NUL bytes padding the shorter
    # ones are dropped before the write, and no byte of the output is NUL.
    label_cols = np.zeros((len(labels), w), np.uint8)
    for row, label in zip(label_cols, labels):
        row[w - len(label) :] = np.frombuffer(label, np.uint8)
    row_len = w + 2 * data.n + 2
    buf = np.empty(len(header) + data.num_samples * row_len, np.uint8)
    buf[: len(header)] = np.frombuffer(header, np.uint8)
    rows = buf[len(header) :].reshape(data.num_samples, row_len)
    rows[:, :w] = label_cols[label_of]
    # Each cell stored as one 16-bit pair: _CELL0 with the bit added to its
    # high byte.
    bit_hi = np.left_shift(data.bits, 8, dtype=np.uint16, casting="unsafe")
    np.add(bit_hi, _CELL0, out=rows[:, w:-2].view("<u2"))
    rows[:, -2:] = (_CR, _LF)
    with open(path, "wb") as fh:
        fh.write(buf.tobytes().replace(b"\0", b""))


def _prediction_header(n: int) -> list[str]:
    return ["true_class"] + [f"bit_{i + 1}" for i in range(n)]


def _fields(line: bytes, lineno: int) -> list[str]:
    """The comma-separated fields of one line with its line end removed."""
    try:
        text = line.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"non-ASCII byte 0x{line[exc.start]:02x} at column {exc.start + 1}",
            line=lineno,
        ) from None
    return text.split(",") if text else []


def _row_error(line: bytes, n: int, lineno: int) -> ParseError:
    """Say what is wrong with a data row the bulk check rejected."""
    fields = _fields(line, lineno)
    if len(fields) != n + 1:
        return ParseError(f"expected {n + 1} fields, got {len(fields)}", line=lineno)
    cls = fields[0]
    if cls[:1] == "-" and cls[1:].isdigit():
        return ParseError(f"true_class {cls} is negative", line=lineno)
    if not cls.isdigit():
        return ParseError(f"true_class {cls!r} is not a decimal integer", line=lineno)
    if len(cls) > _MAX_CLASS_DIGITS:
        return ParseError(
            f"true_class {cls} has more than {_MAX_CLASS_DIGITS} digits", line=lineno
        )
    j = next(j for j, b in enumerate(fields[1:], 1) if b not in ("0", "1"))
    return ParseError(f"bit_{j} value {fields[j]!r} is not 0 or 1", line=lineno)


# ---------------------------------------------------------------------------
# summary schema


def _parse_float(value: str, lineno: int, column: str) -> float:
    try:
        x = float(value)
    except ValueError:
        raise ParseError(f"bad {column} value {value!r}", line=lineno) from None
    lo, hi = _SUMMARY_RANGES[column]
    if not (math.isfinite(x) and lo <= x <= hi):
        raise ParseError(
            f"{column} value {value!r} is not a finite number in [{lo}, {hi}]",
            line=lineno,
        )
    return x


def loads_summaries(text: str, source: str = "<string>") -> list[FoldSummary]:
    """Parse a fold-summary CSV (with or without the std columns).

    Rates must be finite and inside [0, 1], correlations inside [-1, 1] and
    standard deviations finite and non-negative; a ParseError names the line
    and the column of the first value that is not.  An empty std cell is an
    absent std (None).
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = tuple(next(reader))
    except StopIteration:
        raise ParseError("empty file", line=1) from None
    if header not in (SUMMARY_COLUMNS, SUMMARY_COLUMNS_STD):
        raise ParseError(f"bad header {header!r}", line=1)
    out: list[FoldSummary] = []
    for lineno, row in enumerate(reader, start=2):
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} fields, got {len(row)}", line=lineno
            )
        # An empty std cell is an absent std: format_summaries writes one for
        # a summary without std in a list where others have it.
        vals = {
            col: _parse_float(value, lineno, col)
            for col, value in zip(header[1:], row[1:])
            if value or not col.endswith("_std")
        }
        out.append(FoldSummary(fold_id=row[0], **vals))
    if not out:
        warnings.warn(f"{source}: no data rows", stacklevel=2)
    return out


def load_summaries(path) -> list[FoldSummary]:
    """Read a fold-summary CSV file; a byte that is not UTF-8 raises a
    ParseError naming its line."""
    path = Path(path)
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = _universal_newlines(raw[: exc.start].decode("utf-8")).split("\n")
        raise ParseError(
            f"non-UTF-8 byte 0x{raw[exc.start]:02x} at column {len(lines[-1]) + 1}",
            line=len(lines),
        ) from None
    return loads_summaries(_universal_newlines(text), source=str(path))


def _universal_newlines(text: str) -> str:
    """Line ends as a text-mode read gives them: \\r\\n and \\r become \\n."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def format_summaries(summaries: list[FoldSummary]) -> str:
    """Render summaries in the canonical CSV form (round-trips load_summaries)."""
    with_std = any(
        s.mean_bit_error_std is not None or s.mean_correlation_std is not None
        for s in summaries
    )
    columns = SUMMARY_COLUMNS_STD if with_std else SUMMARY_COLUMNS
    rows = (dict(s._asdict(), fold=s.fold_id) for s in summaries)
    return csv_text(columns, _cells(columns, rows))


# ---------------------------------------------------------------------------
# fold analysis


def analyze_fold(data: FoldData, code: CodeMatrix) -> FoldSummary:
    """Per-classifier error rates, mean pairwise correlation of the error
    indicators, and the empirical decoding error for one fold.

    A classifier's bit error on a sample is a mismatch between its predicted
    bit and the corresponding bit of the true class's codeword.  Pairs where
    either classifier has a degenerate rate (0 or 1) are excluded from the
    correlation average; if every pair is excluded the correlation is 0 and
    flagged.
    """
    import ecoc.code_matrix as cm
    import numpy as np

    if data.n != code.n:
        raise ValueError(f"fold has n={data.n}, code has n={code.n}")
    if data.num_samples == 0:
        raise ValueError(f"fold {data.fold_id} has no records")
    if int(data.true_classes.max()) >= code.num_classes:
        raise ValueError(
            f"true_class {int(data.true_classes.max())} out of range for "
            f"{code.num_classes} classes"
        )
    num = data.num_samples
    counts, far = _fold_counts(data, code)
    joint = counts / num
    # The diagonal holds each classifier's error count, exact like the rest.
    rates = np.diag(counts) / num

    usable = (rates > 0.0) & (rates < 1.0)
    i, j = np.triu_indices(data.n, k=1)
    keep = usable[i] & usable[j]
    i, j = i[keep], j[keep]
    # Same left-to-right products as the scalar formula, so values match it
    # bit for bit.
    denom = np.sqrt(rates[i] * (1 - rates[i]) * rates[j] * (1 - rates[j]))
    pair_cs = (joint[i, j] - rates[i] * rates[j]) / denom
    correlation_defined = bool(pair_cs.size)
    mean_corr = float(pair_cs.mean()) if pair_cs.size else 0.0

    # A far sample's word is its predicted bits: its codeword with its
    # errors flipped.  Only far samples can decode wrongly; FoldData has
    # checked the bits.
    ecoc_error = cm._misdecoded(data.bits[far], data.true_classes[far], code) / num

    return FoldSummary(
        fold_id=data.fold_id,
        mean_bit_error=float(rates.mean()),
        mean_correlation=mean_corr,
        ecoc_error=ecoc_error,
        per_classifier_errors=tuple(float(e) for e in rates),
        mean_bit_error_std=_sample_std(rates),
        mean_correlation_std=_sample_std(pair_cs),
        correlation_defined=correlation_defined,
    )


def _fold_counts(data: FoldData, code: CodeMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(counts, far) for a fold: the (n, n) float64 Gram matrix of its error
    indicators (how many samples both classifiers get wrong, each
    classifier's error count on the diagonal) and the indices of its
    samples with at least code.far_flips errors.

    The fold is walked once, in blocks of at most _BLOCK_ROWS and
    EXACT_MAX_N - 1 rows (read at call time).  Each block's errors are
    written as float32 once, and give its Gram product and its row counts,
    both exact (see the module docstring)."""
    import ecoc.code_matrix as cm
    import numpy as np

    block_rows = min(_BLOCK_ROWS, cm.EXACT_MAX_N - 1, data.num_samples)
    counts = np.zeros((data.n, data.n))
    ones = np.ones(data.n, np.float32)
    block_errs = np.empty((block_rows, data.n), np.float32)
    far = []
    for lo in range(0, data.num_samples, block_rows):
        bits = data.bits[lo : lo + block_rows]
        truth = data.true_classes[lo : lo + block_rows]
        errs = block_errs[: len(bits)]
        np.not_equal(bits, np.take(code.matrix, truth, axis=0), out=errs)
        counts += errs.T @ errs
        at = np.flatnonzero(errs @ ones >= code.far_flips)
        at += lo
        far.append(at)
    return counts, np.concatenate(far)


def _mean(values: list[float]) -> float:
    """The mean of a list of floats: their math.fsum over the count."""
    return math.fsum(values) / len(values)


def _linspace(lo: float, hi: float, count: int) -> list[float]:
    """np.linspace(lo, hi, count).tolist(), to the bit, for count >= 2 and a
    step (hi - lo) / (count - 1) that is not zero: point i is i * step + lo,
    and the last point is hi itself."""
    step = (hi - lo) / (count - 1)
    return [i * step + lo for i in range(count - 1)] + [hi]


def _sample_std(values) -> float | None:
    """Sample std (ddof 1): None for fewer than two values, exactly 0.0 for
    all-equal ones.  A list's (aggregate's columns) sums its squared
    deviations from _mean by math.fsum, over count - 1, then the root; an
    array's (analyze_fold's rates and pair correlations) is numpy's
    std(ddof=1).  A 127-class fold has 8,001 pair correlations: numpy took
    16 us over them and the fsum form 820 us (2-vCPU Xeon), so arrays keep
    numpy."""
    if len(values) < 2:
        return None
    if isinstance(values, list):
        if max(values) > min(values):
            mean = _mean(values)
            sum_sq = math.fsum((v - mean) * (v - mean) for v in values)
            return math.sqrt(sum_sq / (len(values) - 1))
        return 0.0
    if values.max() > values.min():
        return float(values.std(ddof=1))
    return 0.0


def bound_report(
    summary: FoldSummary, n: int, m: int, *, kz_policy: str = "gated"
) -> BoundReport:
    """Evaluate the bounds for one fold from its summary statistics, at a
    codeword length n and a threshold m (a code's n and m, or another n
    with the code's m).

    The bundled reference aggregates are reproduced with
    kz_policy="always", which evaluates the correlation-corrected expression
    even for folds where its preconditions fail.  Fold reports always carry
    the decay bound, so an n equal to m is rejected.
    """
    report = evaluate_bounds(
        n, m, summary.mean_bit_error, summary.mean_correlation, kz_policy=kz_policy
    )
    if m == n:
        raise DomainError(f"n={n} equals m: the decay bound needs m < n")
    return report


def aggregate(
    summaries: list[FoldSummary], reports: list[BoundReport]
) -> AggregateReport:
    """Cross-fold mean and sample standard deviation per report column."""
    if not summaries:
        raise ValueError("no folds to aggregate")
    if len(summaries) != len(reports):
        raise ValueError("summaries and reports must align")

    def stats(values: list[float]) -> ColumnStats:
        return ColumnStats(mean=_mean(values), std=_sample_std(values), count=len(values))

    cells = [_fold_cells(s, r) for s, r in zip(summaries, reports)]
    columns = {
        name: [c[name] for c in cells if c[name] is not None] for name in cells[0]
    }
    return AggregateReport(
        **{name: stats(vals) if vals else None for name, vals in columns.items()}
    )


def _bound_cells(report: BoundReport) -> dict:
    """The gs, chernoff (lambda^n) and kz cells of a report row."""
    return {"gs": report.gs, "chernoff": report.chernoff_lambda, "kz": report.kz}


def _fold_cells(summary: FoldSummary, report: BoundReport) -> dict:
    """A fold's cells of the AggregateReport columns: its experimental
    (decoding) error, then the bound cells of its report."""
    return {"experimental": summary.ecoc_error, **_bound_cells(report)}


# ---------------------------------------------------------------------------
# report rendering


def _cells(columns, rows):
    """Each dict row's cells in column order: the rows csv_text takes."""
    return ([row[col] for col in columns] for row in rows)


def report_rows(
    summaries: list[FoldSummary],
    reports: list[BoundReport],
    agg: AggregateReport | None = None,
) -> list[dict]:
    """One REPORT_COLUMNS row per fold; with agg, then a "mean" and a "std"
    row of the aggregated columns, whose fold-level columns are None."""
    rows = [
        {
            "fold": s.fold_id,
            "mean_bit_error": s.mean_bit_error,
            "mean_correlation": s.mean_correlation,
            **_fold_cells(s, r),
        }
        for s, r in zip(summaries, reports)
    ]
    if agg is not None:
        columns = agg._asdict()
        rows += [
            {
                **dict.fromkeys(REPORT_COLUMNS),
                "fold": pick,
                **{
                    name: None if col is None else getattr(col, pick)
                    for name, col in columns.items()
                },
            }
            for pick in ("mean", "std")
        ]
    return rows


def format_report_csv(
    summaries: list[FoldSummary],
    reports: list[BoundReport],
    agg: AggregateReport | None = None,
) -> str:
    rows = report_rows(summaries, reports, agg)
    return csv_text(REPORT_COLUMNS, _cells(REPORT_COLUMNS, rows))


def report_json_obj(
    summaries: list[FoldSummary],
    reports: list[BoundReport],
    agg: AggregateReport,
) -> dict:
    columns = {
        name: None if col is None else col._asdict()
        for name, col in agg._asdict().items()
    }
    return {"folds": report_rows(summaries, reports), "aggregate": columns}


# ---------------------------------------------------------------------------
# bundled fixtures and the published aggregate table


class DatasetInfo(NamedTuple):
    """Bound-evaluation conventions for one bundled dataset."""

    classes: int
    models: tuple[str, ...]
    # Alternative codeword length for the bound formulas.  The published
    # aggregates for pendigits and vowel are ambiguous about the length used
    # (their quoted correction ratios disagree with their class counts), so
    # those datasets are evaluated at both lengths and the closer match wins.
    alt_n: int | None = None


DATASETS: dict[str, DatasetInfo] = {
    "pendigits": DatasetInfo(10, ("dt", "svm"), alt_n=11),
    "usps": DatasetInfo(10, ("dt", "svm")),
    "vowel": DatasetInfo(11, ("dt", "svm"), alt_n=10),
    "letters": DatasetInfo(26, ("dt", "svm")),
    "cifar10": DatasetInfo(10, ("cnn",)),
    "svhn": DatasetInfo(10, ("cnn",)),
}


class ReferenceRow(NamedTuple):
    """Published cross-fold aggregate for one dataset/model pair."""

    experimental: float
    experimental_std: float
    gs: float
    gs_std: float
    chernoff: float
    chernoff_std: float
    kz: float
    kz_std: float


REFERENCE_TABLE: dict[tuple[str, str], ReferenceRow] = {
    ("pendigits", "dt"): ReferenceRow(0.034, 0.0034, 0.134, 0.0070, 0.148, 0.0130, 0.192, 0.03450),
    ("pendigits", "svm"): ReferenceRow(0.022, 0.0024, 0.047, 0.0059, 0.023, 0.0054, 0.030, 0.0071),
    ("usps", "dt"): ReferenceRow(0.091, 0.0117, 0.288, 0.0209, 0.466, 0.0431, 0.500, 0.0482),
    ("usps", "svm"): ReferenceRow(0.028, 0.0050, 0.063, 0.0085, 0.040, 0.0100, 0.049, 0.0149),
    ("vowel", "dt"): ReferenceRow(0.144, 0.0397, 0.449, 0.0604, 0.749, 0.0833, 0.746, 0.0626),
    ("vowel", "svm"): ReferenceRow(0.166, 0.0368, 0.422, 0.0553, 0.710, 0.0891, 0.712, 0.0876),
    ("letters", "dt"): ReferenceRow(0.061, 0.0057, 0.274, 0.0114, 0.047, 0.0082, 0.055, 0.0108),
    ("letters", "svm"): ReferenceRow(0.106, 0.0046, 0.302, 0.0086, 0.070, 0.0081, 0.093, 0.0191),
    ("cifar10", "cnn"): ReferenceRow(0.023, 0.0015, 0.065, 0.0042, 0.041, 0.0049, 0.074, 0.0098),
    ("svhn", "cnn"): ReferenceRow(0.011, 0.0010, 0.034, 0.0018, 0.013, 0.0013, 0.021, 0.0025),
}


def fixture_names() -> list[str]:
    return sorted(
        f"{ds}_{model}" for ds, info in DATASETS.items() for model in info.models
    )


def fixture_text(name: str) -> str:
    """A bundled fixture's CSV text.  The name must be one of fixture_names():
    a path that merely leads to a bundled file (such as "./letters_dt") is
    not a fixture name and names no dataset."""
    if name not in fixture_names():
        raise FileNotFoundError(f"no bundled fixture {name!r}; have {fixture_names()}")
    ref = resources.files("ecoc").joinpath(f"fixtures/{name}.csv")
    return ref.read_text(encoding="utf-8")


def load_fixture(name: str) -> list[FoldSummary]:
    """Load a bundled fold-summary fixture, e.g. "letters_dt"."""
    return loads_summaries(fixture_text(name), source=name)


class ReproducedRow(NamedTuple):
    """Fixture-driven reproduction of one published aggregate row."""

    dataset: str
    model: str
    by_n: dict[int, AggregateReport]
    chosen_n: int
    reference: ReferenceRow

    @property
    def aggregate(self) -> AggregateReport:
        return self.by_n[self.chosen_n]


def reproduce_reference_row(dataset: str, model: str) -> ReproducedRow:
    """Recompute one aggregate row from the bundled fold summaries.

    Bounds are evaluated fold-wise, kz as published (kz_policy="always"),
    and then averaged.  Datasets with an ambiguous codeword-length convention
    are evaluated at both lengths and the one whose mean decay bound lands
    closer to the published value is selected.
    """
    info = DATASETS[dataset]
    if model not in info.models:
        raise ValueError(f"{dataset} has models {info.models}, not {model!r}")
    summaries = load_fixture(f"{dataset}_{model}")
    # The m of build_code_matrix(info.classes), with no matrix built.
    m = sylvester_distance(info.classes, DEFAULT_ORIENTATION) // 2
    ref = REFERENCE_TABLE[(dataset, model)]
    lengths = [info.classes] + ([info.alt_n] if info.alt_n else [])
    by_n: dict[int, AggregateReport] = {}
    for n in lengths:
        reports = [bound_report(s, n, m, kz_policy="always") for s in summaries]
        by_n[n] = aggregate(summaries, reports)
    chosen = min(by_n, key=lambda n: abs(by_n[n].chernoff.mean - ref.chernoff))
    return ReproducedRow(
        dataset=dataset, model=model, by_n=by_n, chosen_n=chosen, reference=ref
    )


def reproduce_reference_table() -> list[ReproducedRow]:
    return [
        reproduce_reference_row(ds, model)
        for ds, info in DATASETS.items()
        for model in info.models
    ]


# ---------------------------------------------------------------------------
# plot-data emission


def figure_one_curves(
    ns: tuple[int, ...] = (10, 20, 50), r: float = 0.25, step: float = 0.001
) -> list[dict]:
    """4*e versus decay-bound curves over an e grid inside (0, r).

    One row per (n, e_bar) pair with columns n, e_bar, gs, chernoff.  For
    each n the difference chernoff - gs changes sign exactly once on the
    grid: the decay bound wins at small e_bar and loses near e_bar = r.
    r and step are numbers and each entry of ns an integer, or a ValueError
    names the value.  The grid is numpy's arange(step, r, step), point for
    point: ceil((r - step) / step) points step + i * step (numpy's start + i
    delta, where delta = (start + step) - start is exactly step here); a
    step that would give more than _FIG1_MAX_POINTS is rejected before any
    point is built.
    """
    _check_number("r", r)
    if not 0.0 < r < 1.0:
        raise ValueError(f"r={r} outside (0, 1)")
    _check_number("step", step)
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step={step} must be finite and positive")
    for n in ns:
        _check_integer("n", n)
    if any(n < 1 for n in ns):
        raise ValueError(f"ensemble sizes {ns} must all be at least 1")
    # ceil(x) > N exactly when x > N, and x may be too large for an int.
    span = (r - step) / step
    if span > _FIG1_MAX_POINTS:
        raise ValueError(f"step={step} gives more than {_FIG1_MAX_POINTS} grid points "
                         f"in (0, {r})")
    count = math.ceil(span)
    if count < 1:
        raise ValueError(f"step={step} leaves no grid point in (0, {r})")
    rows = []
    for n in ns:
        for e in (step + i * step for i in range(count)):
            rows.append(
                {
                    "n": n,
                    "e_bar": e,
                    "gs": gs_bound((e,)),
                    "chernoff": chernoff_lambda(r, e) ** n,
                }
            )
    return rows


def scatter_figure_data(
    summaries: list[FoldSummary], n: int, m: int
) -> tuple[list[dict], list[dict]]:
    """Plot data for one dataset/model: bound curves over a mean-bit-error
    grid plus one scatter point per fold.

    Every row's gs, chernoff and kz are those of evaluate_bounds with
    kz_policy="always", which needs m < n.  The curve's correlation-corrected
    bound uses the pooled mean correlation across folds; fold rows carry each
    fold's own bound values.  n and m are integers, or a ValueError names
    the value.
    """
    if not summaries:
        raise ValueError("no fold summaries")
    _check_integer("n", n)
    _check_integer("m", m)
    if n < 1:
        raise ValueError(f"n={n} must be at least 1")
    if not 1 <= m < n:
        raise ValueError(f"m={m} outside 1..{n - 1}: the decay bounds need m < n")
    e_vals = [s.mean_bit_error for s in summaries]
    pooled_c = _mean([s.mean_correlation for s in summaries])
    r = m / n
    lo = max(1e-6, 0.8 * min(e_vals))
    hi = min(r - 1e-6, 1.2 * max(e_vals))
    if hi <= lo:
        raise ValueError("fold mean bit errors leave no curve grid inside (0, m/n)")

    def report_at(e: float, c: float) -> BoundReport:
        return evaluate_bounds(n, m, e, c, kz_policy="always")

    curve_rows = [
        {"e_bar": e, **_bound_cells(report_at(e, pooled_c))}
        for e in _linspace(lo, hi, _SCATTER_GRID_POINTS)
    ]
    fold_rows = [
        {
            "fold": s.fold_id,
            "mean_bit_error": s.mean_bit_error,
            **_fold_cells(s, report_at(s.mean_bit_error, s.mean_correlation)),
        }
        for s in summaries
    ]
    return curve_rows, fold_rows


def format_rows_csv(rows: list[dict]) -> str:
    """Render homogeneous dict rows as CSV with full-precision floats."""
    if not rows:
        raise ValueError("no rows")
    columns = list(rows[0])
    return csv_text(columns, _cells(columns, rows))
