"""Tests for fold ingestion, metrics, bound reports, aggregation, fixtures."""

import contextlib
import csv
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from ecoc import cli
from ecoc.bounds import evaluate_bounds
from ecoc.cli import main
from ecoc import code_matrix
from ecoc import experiment_io as xio
from ecoc.code_matrix import build_code_matrix, nearest_rows
from ecoc.errors import DomainError, ParseError
from ecoc.experiment_io import (
    DATASETS,
    REFERENCE_TABLE,
    FoldData,
    FoldSummary,
    aggregate,
    analyze_fold,
    bound_report,
    csv_text,
    figure_one_curves,
    fixture_names,
    fixture_text,
    format_report_csv,
    format_rows_csv,
    format_summaries,
    load_fixture,
    load_predictions,
    load_summaries,
    loads_summaries,
    report_json_obj,
    reproduce_reference_row,
    scatter_figure_data,
    write_predictions,
)
from ecoc.prob_engine import ErrorProfile, Independent, exact_decode_error
from ecoc.simulator import _chunk_rng


def make_fold(rng, code, n_samples, rate):
    """Synthesize a fold by corrupting true codewords with iid bit errors."""
    classes = rng.integers(0, code.num_classes, size=n_samples)
    noise = (rng.random((n_samples, code.n)) < rate).astype(np.uint8)
    bits = np.bitwise_xor(code.matrix[classes], noise)
    return FoldData(
        fold_id="synthetic", n=code.n, true_classes=classes, bits=bits
    )


def csv_writer_reference(data, path):
    """The csv-module writer that write_predictions replaced: the oracle for
    its bytes."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["true_class"] + [f"bit_{i + 1}" for i in range(data.n)])
        for cls, bits in zip(data.true_classes, data.bits):
            writer.writerow([int(cls)] + [int(b) for b in bits])


def grammar_parse(raw, n):
    """The README grammar of a raw-prediction file with an n-bit header,
    applied line by line: (true_classes, bits) of its rows, or the line
    number of the first line that is not a row.  The oracle for
    load_predictions."""
    lines = raw.split(b"\n")
    # Every line but the last was followed by "\n"; a last line that is
    # empty means the final EOL was present.
    last_ended = lines[-1] == b""
    if last_ended:
        lines.pop()
    assert lines[0].removesuffix(b"\r") == b",".join(
        [b"true_class"] + [b"bit_%d" % (i + 1) for i in range(n)]
    )
    row = re.compile(rb"([0-9]{1,18})((?:,[01]){%d})" % n)
    classes, bits = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if lineno <= len(lines) - 1 or last_ended:
            line = line.removesuffix(b"\r")
        match = row.fullmatch(line)
        if match is None:
            return lineno
        classes.append(int(match[1]))
        bits.append([int(b) for b in match[2][1::2].decode()])
    return classes, bits


@st.composite
def mutated_folds(draw):
    """A valid fold file with one byte after its header overwritten, and
    its n."""
    n = draw(st.integers(1, 130))
    eol = draw(st.sampled_from([b"\n", b"\r\n"]))
    labels = draw(st.lists(st.text("0123456789", min_size=1, max_size=3),
                           min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines = [b",".join([b"true_class"] + [b"bit_%d" % (i + 1) for i in range(n)])]
    lines += [
        ",".join([label, *map(str, rng.integers(0, 2, n))]).encode()
        for label in labels
    ]
    raw = eol.join(lines) + (eol if draw(st.booleans()) else b"")
    start = len(lines[0]) + len(eol)
    # Line-end bytes are drawn often: that is where rows meet.
    line_ends = [i for i in range(start, len(raw)) if raw[i] in b"\r\n"]
    pos = draw(st.one_of(st.integers(start, len(raw) - 1), st.sampled_from(line_ends))
               if line_ends else st.integers(start, len(raw) - 1))
    value = draw(st.one_of(st.sampled_from(b",01\r\n9\0\xff"), st.integers(0, 255)))
    return raw[:pos] + bytes([value]) + raw[pos + 1 :], n


_HEADER = b"true_class,bit_1,bit_2\n"
# File contents and the line their ParseError must name.
MALFORMED = [
    pytest.param(_HEADER + b"0,1,0\n0,1\n", 3, id="short-row"),
    pytest.param(_HEADER + b"0,1,0\n0,1,0,1\n", 3, id="long-row"),
    pytest.param(_HEADER + b"0,1,2\n", 2, id="bit-2"),
    pytest.param(_HEADER + b"0,1,0\n1,0,0\n-1,1,0\n", 4, id="class-minus-1"),
    pytest.param(_HEADER + b"x,1,0\n", 2, id="class-x"),
    pytest.param(_HEADER + b"0,1,0\n\n1,0,1\n", 3, id="interior-blank-line"),
    pytest.param(_HEADER + b"0,1,0\n1,0,1\n\n", 4, id="trailing-blank-line"),
    pytest.param(
        b"true_class,bit_1,bit_2\r\n0,1,0\r\n\r\n", 3, id="trailing-blank-line-crlf"
    ),
    pytest.param(b"true_class,bit_1,bit_3\n0,1,0\n", 1, id="bad-header"),
    pytest.param(b"", 1, id="empty-file"),
    pytest.param(_HEADER + b"0,1,0\n0,\xff,1\n", 3, id="non-utf8-bit"),
    pytest.param(_HEADER + b"0,1,0\n1,1,0\n\xc3\xa9,1,0\n", 4, id="non-utf8-class"),
    pytest.param(b"true_class,bit_\xff\n0,1\n", 1, id="non-utf8-header"),
    pytest.param(_HEADER + b"0, 1,0\n", 2, id="space-before-bit"),
    pytest.param(_HEADER + b"+1,1,0\n", 2, id="plus-sign-class"),
    pytest.param(_HEADER + b'0,"0",1\n', 2, id="quoted-bit"),
    pytest.param(_HEADER + b"1234567890123456789,1,0\n", 2, id="class-19-digits"),
    pytest.param(_HEADER + b"0,1,0\n0,3,0\n0,1\n", 3, id="bad-bits-before-short-row"),
    pytest.param(_HEADER + b"0,1,0\r", 2, id="lone-cr-ends-file"),
    pytest.param(b"true_class,bit_1,bit_2\r", 1, id="lone-cr-ends-header"),
]


class TestPredictionsIO:
    def test_round_trip(self, tmp_path):
        code = build_code_matrix(10)
        fold = make_fold(np.random.default_rng(0), code, 37, 0.1)
        path = tmp_path / "fold1.csv"
        write_predictions(fold, path)
        loaded = load_predictions(path)
        assert loaded.n == fold.n
        assert np.array_equal(loaded.true_classes, fold.true_classes)
        assert np.array_equal(loaded.bits, fold.bits)
        # Byte-for-byte stability of a second write.
        path2 = tmp_path / "fold1b.csv"
        write_predictions(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_empty_data_warns(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("true_class,bit_1,bit_2\n")
        with pytest.warns(UserWarning):
            fold = load_predictions(path)
        assert fold.num_samples == 0

    def test_newline_line_ends_load(self, tmp_path):
        path = tmp_path / "lf.csv"
        path.write_bytes(b"true_class,bit_1,bit_2\n0,1,0\n12,0,1\n")
        fold = load_predictions(path)
        assert fold.true_classes.tolist() == [0, 12]
        assert fold.bits.tolist() == [[1, 0], [0, 1]]

    @pytest.mark.parametrize("end", [b"\n", b"\r\n"])
    def test_missing_final_newline_loads(self, tmp_path, end):
        path = tmp_path / "open.csv"
        path.write_bytes(end.join([b"true_class,bit_1,bit_2", b"3,1,1", b"007,0,1"]))
        fold = load_predictions(path)
        assert fold.true_classes.tolist() == [3, 7]
        assert fold.bits.tolist() == [[1, 1], [0, 1]]

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 130),
        rows=st.integers(0, 300),
        max_digits=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_matches_csv_writer(
        self, tmp_path_factory, n, rows, max_digits, seed
    ):
        rng = np.random.default_rng(seed)
        digits = rng.integers(1, max_digits + 1, size=rows)
        classes = rng.integers(np.where(digits == 1, 0, 10 ** (digits - 1)), 10**digits)
        bits = rng.integers(0, 2, size=(rows, n), dtype=np.uint8)
        fold = FoldData("fold", n, classes, bits)
        tmp = tmp_path_factory.mktemp("fold")
        path, ref = tmp / "fold.csv", tmp / "ref.csv"
        write_predictions(fold, path)
        csv_writer_reference(fold, ref)
        assert path.read_bytes() == ref.read_bytes()
        with pytest.warns(UserWarning) if rows == 0 else contextlib.nullcontext():
            loaded = load_predictions(path)
        assert loaded.n == n
        assert loaded.true_classes.dtype == np.int64
        assert np.array_equal(loaded.true_classes, classes)
        assert loaded.bits.dtype == np.uint8
        assert np.array_equal(loaded.bits, bits)

    @settings(max_examples=300, deadline=None)
    @given(fold=mutated_folds())
    def test_one_byte_overwritten_matches_grammar(self, tmp_path_factory, fold):
        raw, n = fold
        path = tmp_path_factory.mktemp("fold") / "fold.csv"
        path.write_bytes(raw)
        want = grammar_parse(raw, n)
        if isinstance(want, int):
            with pytest.raises(ParseError) as err:
                load_predictions(path)
            assert err.value.line == want
        else:
            loaded = load_predictions(path)
            assert loaded.true_classes.dtype == np.int64
            assert loaded.true_classes.tolist() == want[0]
            assert loaded.bits.dtype == np.uint8
            assert loaded.bits.tolist() == want[1]

    @pytest.mark.parametrize("text, line", MALFORMED)
    def test_rejects_malformed_rows(self, tmp_path, text, line):
        path = tmp_path / "bad.csv"
        path.write_bytes(text)
        with pytest.raises(ParseError) as err:
            load_predictions(path)
        assert err.value.line == line
        assert str(err.value).startswith(f"line {line}: ")

    @pytest.mark.parametrize("text, line", MALFORMED)
    def test_cli_rejects_malformed_rows(self, capsys, tmp_path, text, line):
        path = tmp_path / "bad.csv"
        path.write_bytes(text)
        status = main(["analyze", "--predictions", str(path), "--classes", "4"])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: line {line}: ")
        assert "Traceback" not in captured.err


_SUMMARY_HEAD = b"fold,mean_bit_error,mean_correlation,ecoc_error\n"


def whole_array_parse(raw, n):
    """(true_classes, bits) of a well-formed raw-prediction file, parsed as
    load_predictions parsed it before it worked in row blocks: one LF scan
    over the whole file, every row's cells gathered into one (rows, 2n)
    array and its class digits into one (rows, w) array, the classes taken
    by one integer matrix product.  The oracle for the blocked parse."""
    body = np.frombuffer(raw, np.uint8)[raw.find(b"\n") + 1 :]
    ends = np.flatnonzero(body == ord("\n"))
    if body[-1] != ord("\n"):
        ends = np.append(ends, body.size)
    starts = np.zeros_like(ends)
    starts[1:] = ends[:-1] + 1
    stops = ends - (body[ends - 1] == ord("\r"))
    bit0 = stops - 2 * n
    width = bit0 - starts
    cells = sliding_window_view(body, 2 * n)[bit0]
    bits = (cells.view("<u2") == int.from_bytes(b",1", "little")).view(np.uint8)
    w = int(width.max())
    pos = np.maximum(bit0[:, None] - np.arange(w, 0, -1), 0)
    digits = np.where(np.arange(w, 0, -1) <= width[:, None], body[pos] - ord("0"), 0)
    return digits.astype(np.int64) @ 10 ** np.arange(w - 1, -1, -1), bits


class TestRowBlocks:
    """load_predictions parses a fold in blocks of _BLOCK_ROWS rows; forced
    small here, so that rows meet block edges."""

    BLOCK = 8
    N = 11

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(xio, "_BLOCK_ROWS", self.BLOCK)

    def write(self, path, rows, seed, eol=b"\r\n", final_eol=True):
        rng = np.random.default_rng(seed)
        # Classes of 1 to 4 digits, so blocks differ in their widest field.
        classes = rng.integers(0, 10 ** rng.integers(1, 5, rows))
        bits = rng.integers(0, 2, (rows, self.N), dtype=np.uint8)
        write_predictions(FoldData("f", self.N, classes, bits), path)
        raw = path.read_bytes().replace(b"\r\n", eol)
        path.write_bytes(raw if final_eol else raw.removesuffix(eol))
        return classes, bits

    @pytest.mark.parametrize("rows", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    @pytest.mark.parametrize("scan_bytes", [7, 1 << 18])
    @pytest.mark.parametrize(
        "eol, final_eol", [(b"\r\n", True), (b"\n", True), (b"\r\n", False)]
    )
    def test_matches_whole_array_parse(
        self, tmp_path, monkeypatch, rows, scan_bytes, eol, final_eol
    ):
        # A 7-byte line-end scan splits rows and line ends across steps.
        monkeypatch.setattr(xio, "_SCAN_BYTES", scan_bytes)
        path = tmp_path / "f.csv"
        classes, bits = self.write(path, rows, rows, eol, final_eol)
        want_classes, want_bits = whole_array_parse(path.read_bytes(), self.N)
        loaded = load_predictions(path)
        assert loaded.true_classes.dtype == want_classes.dtype == np.int64
        assert loaded.bits.dtype == want_bits.dtype == np.uint8
        assert np.array_equal(loaded.true_classes, want_classes)
        assert np.array_equal(loaded.bits, want_bits)
        assert np.array_equal(loaded.true_classes, classes)
        assert np.array_equal(loaded.bits, bits)

    @pytest.mark.parametrize("row", [BLOCK, BLOCK + 3, 2 * BLOCK, 2 * BLOCK + 4])
    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda line: line[:-1] + b"2", f"bit_{N} value '2' is not 0 or 1"),
            (lambda line: b"x" + line[1:], "is not a decimal integer"),
            (lambda line: line[:-2], f"expected {N + 1} fields, got {N}"),
        ],
        ids=["bit", "class", "short-row"],
    )
    def test_bad_row_in_a_later_block_names_its_line(
        self, tmp_path, row, damage, message
    ):
        # Row `row` is on line row + 2 and sits in the second or third
        # block; a bad row after it in a later block must not be reported.
        path = tmp_path / "f.csv"
        self.write(path, 3 * self.BLOCK + 2, row)
        lines = path.read_bytes().split(b"\r\n")
        lines[row + 1] = damage(lines[row + 1])
        lines[-2] = b"-" + lines[-2]
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            load_predictions(path)
        assert err.value.line == row + 2


class TestFoldPool:
    """analyze --predictions loads and analyzes its files on a thread pool;
    the output and the error raised do not depend on its size."""

    CLASSES = 8

    def folds(self, tmp_path, count, rows=300):
        code = build_code_matrix(self.CLASSES)
        paths = []
        for i in range(count):
            paths.append(tmp_path / f"fold{i + 1}.csv")
            write_predictions(make_fold(np.random.default_rng(i), code, rows, 0.1), paths[-1])
        return paths

    def analyze(self, capsys, monkeypatch, threads, paths, *flags):
        monkeypatch.setattr(cli, "_fold_threads", lambda: threads)
        status = main(["analyze", "--predictions", *map(str, paths),
                       "--classes", str(self.CLASSES), *flags])
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    @pytest.mark.parametrize("flags", [(), ("--format", "csv"), ("--format", "json")])
    def test_same_output_on_one_and_two_threads(self, capsys, monkeypatch, tmp_path, flags):
        paths = self.folds(tmp_path, 3)
        one = self.analyze(capsys, monkeypatch, 1, paths, *flags)
        two = self.analyze(capsys, monkeypatch, 2, paths, *flags)
        assert one[0] == 0 and one[1].count("fold") >= 3
        assert two == one

    @pytest.mark.parametrize("threads", [1, 2])
    def test_first_bad_file_is_reported(self, capsys, monkeypatch, tmp_path, threads):
        paths = self.folds(tmp_path, 3)
        for path, line in zip(paths[1:], (3, 5)):
            lines = path.read_bytes().split(b"\r\n")
            lines[line - 1] = b"x" + lines[line - 1]
            path.write_bytes(b"\r\n".join(lines))
        status, out, err = self.analyze(capsys, monkeypatch, threads, paths)
        assert (status, out) == (1, "")
        assert err.startswith("error: line 3: true_class 'x")

    @pytest.mark.parametrize("threads", [1, 2])
    def test_load_error_wins_over_an_earlier_analysis_error(
        self, capsys, monkeypatch, tmp_path, threads
    ):
        # Fold 1 loads but holds a class the code does not have; file 2
        # does not load.  As when every file is loaded first, file 2's
        # error is the one reported.
        paths = self.folds(tmp_path, 3)
        text = paths[0].read_bytes().split(b"\r\n")
        text[1] = b"9" + text[1][text[1].index(b",") :]
        paths[0].write_bytes(b"\r\n".join(text))
        text = paths[1].read_bytes().split(b"\r\n")
        text[3] = text[3] + b",1"
        paths[1].write_bytes(b"\r\n".join(text))
        status, out, err = self.analyze(capsys, monkeypatch, threads, paths)
        assert (status, out) == (1, "")
        assert err.startswith(f"error: line 4: expected {self.CLASSES + 1} fields")
        status, _, err = self.analyze(capsys, monkeypatch, threads, paths[:1])
        assert status == 1 and "true_class 9 out of range" in err

    @pytest.mark.parametrize(
        "env, threads",
        [
            ({}, 1),
            ({"OPENBLAS_NUM_THREADS": "1"}, 4),
            ({"OMP_NUM_THREADS": "2"}, 2),
            ({"MKL_NUM_THREADS": "3"}, 1),
            ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 4),
            ({"OPENBLAS_NUM_THREADS": "0"}, 1),
            ({"OPENBLAS_NUM_THREADS": "8"}, 1),
        ],
    )
    def test_threads_leave_each_blas_call_its_threads(self, monkeypatch, env, threads):
        # Four CPUs shared among the BLAS threads of each fold's analysis;
        # BLAS takes every CPU unless one of its variables says otherwise.
        cpus = {0, 1, 2, 3}
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: cpus, raising=False)
        for var in cli._BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert cli._fold_threads() == threads

    @pytest.mark.parametrize("cpus, env, threads", [
        (4, {"OPENBLAS_NUM_THREADS": "1"}, 4),
        (4, {"OMP_NUM_THREADS": "2"}, 2),
        (4, {}, 1),
        (None, {"OPENBLAS_NUM_THREADS": "1"}, 1),
    ])
    def test_threads_without_an_affinity_call(self, monkeypatch, cpus, env, threads):
        # Where os has no sched_getaffinity the CPUs are os.cpu_count(),
        # one when it cannot tell, shared among the BLAS threads alike.
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        for var in cli._BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        assert cli._fold_threads() == threads


class TestSummariesIO:
    def test_fixture_round_trip_byte_exact(self, tmp_path):
        for name in fixture_names():
            text = fixture_text(name)
            summaries = loads_summaries(text, source=name)
            assert format_summaries(summaries) == text

    def test_plain_schema_round_trip(self, tmp_path):
        rows = [
            FoldSummary("1", 0.1, 0.02, 0.05),
            FoldSummary("2", 0.12, -0.01, 0.07),
        ]
        path = tmp_path / "summary.csv"
        path.write_text(format_summaries(rows), encoding="utf-8")
        assert load_summaries(path) == rows
        text = path.read_text()
        assert text.splitlines()[0] == "fold,mean_bit_error,mean_correlation,ecoc_error"
        path.write_text(format_summaries(load_summaries(path)), encoding="utf-8")
        assert path.read_text() == text

    def test_mixed_std_round_trip(self):
        rows = [
            FoldSummary("a", 0.1, 0.02, 0.05, mean_bit_error_std=0.01,
                        mean_correlation_std=0.0),
            FoldSummary("b", 0.1, 0.02, 0.05),
            FoldSummary("c", 0.1, 0.02, 0.05, mean_correlation_std=0.003),
        ]
        for summaries in (rows, rows[1:]):
            text = format_summaries(summaries)
            assert text.splitlines()[0] == (
                "fold,mean_bit_error,mean_bit_error_std,mean_correlation,"
                "mean_correlation_std,ecoc_error"
            )
            assert loads_summaries(text) == summaries
            assert format_summaries(loads_summaries(text)) == text

    @pytest.mark.parametrize(
        "cells, column",
        [
            ("0.1,x,0.02,0.003,0.05", "mean_bit_error_std"),
            ("0.1,0.01,0.02, ,0.05", "mean_correlation_std"),
            (",0.01,0.02,0.003,0.05", "mean_bit_error"),
            ("0.1,,0.02,0.003,", "ecoc_error"),
        ],
    )
    def test_empty_cell_is_absent_only_for_std(self, cells, column):
        text = ",".join(xio.SUMMARY_COLUMNS_STD) + "\n1,0.1,,0.02,,0.05\n2," + cells + "\n"
        with pytest.raises(ParseError) as err:
            loads_summaries(text)
        assert err.value.line == 3
        assert f"{column} value" in str(err.value)

    def test_bad_header(self):
        with pytest.raises(ParseError):
            loads_summaries("fold,ecoc_error\n1,0.5\n")

    def test_short_row(self):
        with pytest.raises(ParseError, match="^line 2: expected 4 fields, got 3$") as err:
            loads_summaries("fold,mean_bit_error,mean_correlation,ecoc_error\n1,0.1,0.1\n")
        assert err.value.line == 2

    def test_bad_value(self):
        with pytest.raises(ParseError) as err:
            loads_summaries(
                "fold,mean_bit_error,mean_correlation,ecoc_error\n1,x,0.1,0.1\n"
            )
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "column, value",
        [
            ("mean_bit_error", "nan"),
            ("mean_bit_error", "inf"),
            ("mean_bit_error", "-0.01"),
            ("mean_bit_error", "1.5"),
            ("ecoc_error", "nan"),
            ("ecoc_error", "-inf"),
            ("ecoc_error", "1.0000001"),
            ("mean_correlation", "nan"),
            ("mean_correlation", "inf"),
            ("mean_correlation", "-1.5"),
            ("mean_correlation", "1.01"),
            ("mean_bit_error_std", "-0.001"),
            ("mean_bit_error_std", "inf"),
            ("mean_bit_error_std", "nan"),
            ("mean_correlation_std", "-1e-9"),
            ("mean_correlation_std", "inf"),
            ("mean_correlation_std", "nan"),
        ],
    )
    def test_rejects_non_finite_and_out_of_range(self, column, value):
        row = {
            "fold": "2",
            "mean_bit_error": "0.1",
            "mean_bit_error_std": "0.01",
            "mean_correlation": "0.02",
            "mean_correlation_std": "0.003",
            "ecoc_error": "0.05",
        }
        good = ",".join(row.values())
        row[column] = value
        text = ",".join(row) + "\n1," + good[2:] + "\n" + ",".join(row.values()) + "\n"
        with pytest.raises(ParseError) as err:
            loads_summaries(text)
        assert err.value.line == 3
        assert str(err.value).startswith(f"line 3: {column} value {value!r}")

    def test_range_ends_accepted(self):
        rows = loads_summaries(
            "fold,mean_bit_error,mean_bit_error_std,mean_correlation,"
            "mean_correlation_std,ecoc_error\n"
            "1,0,0,-1,0,1\n2,1,-0.0,1,1e300,0\n"
        )
        assert [r.mean_correlation for r in rows] == [-1.0, 1.0]

    def test_empty_warns(self):
        with pytest.warns(UserWarning):
            assert loads_summaries(
                "fold,mean_bit_error,mean_correlation,ecoc_error\n"
            ) == []

    @pytest.mark.parametrize(
        "text, line, column",
        [
            (_SUMMARY_HEAD + b"1,0.1,0.02,0.05\n2,0.1\xff,0.02,0.05\n", 3, 6),
            (_SUMMARY_HEAD + b"\xe9,0.1,0.02,0.05\n", 2, 1),
            (b"fold,mean_bit_error,mean_correlation,ecoc_\xc3(error\n", 1, 43),
            (b"fold,mean_bit_error,mean_correlation,ecoc_error\r"
             b"\xc3\xa9,0.1,0.02,0.05\r\n1,\xff\r\n", 3, 3),
        ],
        ids=["ff-in-row-3", "latin-1-fold-id", "bad-header-byte", "cr-line-ends"],
    )
    def test_non_utf8_byte_names_line(self, tmp_path, capsys, text, line, column):
        path = tmp_path / "summary.csv"
        path.write_bytes(text)
        with pytest.raises(ParseError) as err:
            load_summaries(path)
        assert err.value.line == line
        assert f"at column {column}" in str(err.value)
        status = main(["analyze", "--summary", str(path), "--classes", "26"])
        captured = capsys.readouterr()
        assert (status, captured.out) == (1, "")
        assert captured.err.startswith(f"error: line {line}: non-UTF-8 byte 0x")
        assert "Traceback" not in captured.err

    def test_crlf_accepted(self, tmp_path):
        rows = loads_summaries(
            "fold,mean_bit_error,mean_correlation,ecoc_error\r\n1,0.1,0.02,0.05\r\n"
        )
        assert rows == [FoldSummary("1", 0.1, 0.02, 0.05)]
        path = tmp_path / "crlf.csv"
        path.write_bytes(b"true_class,bit_1,bit_2\r\n0,1,0\r\n")
        fold = load_predictions(path)
        assert fold.bits.tolist() == [[1, 0]]


class TestFoldData:
    def test_bit_value_two_rejected(self):
        # Column 0 all 2: without the check this fold analyzed to
        # mean_bit_error 0.1 and ecoc_error 0.0.
        code = build_code_matrix(10)
        classes = np.arange(10)
        bits = code.matrix[classes].copy()
        bits[:, 0] = 2
        with pytest.raises(ValueError, match="0 or 1"):
            FoldData("f", 10, classes, bits)

    @pytest.mark.parametrize(
        "n, classes, bits",
        [
            pytest.param(2, np.zeros(3, int), np.zeros(6, np.uint8), id="1-d-bits"),
            pytest.param(2, np.zeros(3, int), np.zeros((3, 3), np.uint8), id="n-off"),
            pytest.param(2, np.zeros(3, int), np.zeros((2, 2)), id="rows-off"),
            pytest.param(0, np.zeros(3, int), np.zeros((3, 0), np.uint8), id="n-zero"),
            pytest.param(2, np.zeros(2, int), np.full((2, 2), 0.5), id="half-bit"),
            pytest.param(2, np.zeros(2, int), np.full((2, 2), np.nan), id="nan-bit"),
            pytest.param(2, np.zeros(2, int), -np.ones((2, 2), int), id="bit-minus-1"),
            pytest.param(2, np.zeros((2, 1), int), np.zeros((2, 2)), id="2-d-classes"),
            pytest.param(2, np.zeros(2), np.zeros((2, 2)), id="float-classes"),
            pytest.param(2, [0, 1], np.zeros((2, 2)), id="list-classes"),
            pytest.param(2, np.array([0, -1]), np.zeros((2, 2)), id="negative-class"),
        ],
    )
    def test_rejects_malformed_arrays(self, n, classes, bits):
        with pytest.raises(ValueError):
            FoldData("f", n, classes, bits)

    def test_accepts_bool_bits(self, tmp_path):
        bits = np.array([[True, False], [False, False]])
        write_predictions(FoldData("f", 2, np.array([1, 0]), bits), tmp_path / "f.csv")
        assert load_predictions(tmp_path / "f.csv").bits.tolist() == [[1, 0], [0, 0]]

    def test_later_writes_do_not_reach_the_fold(self):
        # The fold keeps read-only copies: a 2 written into the caller's
        # bits, or a -3 into its classes (which np.take would wrap), after
        # construction leaves the analysis as it was.
        code = build_code_matrix(10)
        rng = np.random.default_rng(9)
        classes = rng.integers(0, 10, size=200)
        bits = code.matrix[classes] ^ (rng.random((200, 10)) < 0.1)
        noisy = FoldData("noisy", 10, classes, bits)
        exact_classes = np.arange(200) % 10
        exact = FoldData("exact", 10, exact_classes, code.matrix[exact_classes])
        want = [analyze_fold(fold, code) for fold in (noisy, exact)]
        bits[:, 0] = 2
        exact_classes[:5] = -3
        assert [analyze_fold(fold, code) for fold in (noisy, exact)] == want
        with pytest.raises(ValueError, match="read-only"):
            noisy.bits[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            exact.true_classes[0] = 0

    def test_replace_checks_and_copies_as_construction_does(self):
        # _replace builds through FoldData.__new__, as _make does: a 7 in
        # the new bits is rejected, and valid ones are kept as a read-only
        # copy that later writes to the caller's array do not reach.
        fold = FoldData("f", 2, np.array([0, 1]), np.array([[0, 1], [1, 0]], np.uint8))
        with pytest.raises(ValueError, match="^bits must be 0 or 1$"):
            fold._replace(bits=np.array([[0, 7], [1, 0]], np.uint8))
        with pytest.raises(ValueError, match="^bits must be 0 or 1$"):
            FoldData._make(("f", 2, fold.true_classes, np.full((2, 2), 7, np.uint8)))
        bits = np.array([[1, 1], [0, 0]], np.uint8)
        moved = fold._replace(bits=bits)
        bits[0, 0] = 7
        assert moved.bits.tolist() == [[1, 1], [0, 0]]
        assert not (moved.bits.flags.writeable or moved.true_classes.flags.writeable)
        with pytest.raises(ValueError, match="read-only"):
            moved.bits[0, 0] = 0


class TestAnalyzeFold:
    def test_perfect_predictions(self):
        code = build_code_matrix(8)
        classes = np.arange(8)
        fold = FoldData("f", 8, classes, code.matrix[classes].copy())
        summary = analyze_fold(fold, code)
        assert summary.mean_bit_error == 0.0
        assert summary.ecoc_error == 0.0
        assert summary.mean_correlation == 0.0
        assert not summary.correlation_defined  # all rates degenerate at 0

    def test_identical_error_columns_fully_correlated(self):
        code = build_code_matrix(4)
        classes = np.zeros(10, dtype=np.int64)
        bits = np.tile(code.matrix[0], (10, 1))
        # Classifiers 0 and 1 err together on the first four samples.
        bits[:4, 0] ^= 1
        bits[:4, 1] ^= 1
        fold = FoldData("f", 4, classes, bits)
        summary = analyze_fold(fold, code)
        errs = summary.per_classifier_errors
        assert errs[0] == errs[1] == pytest.approx(0.4)
        # The only usable pair is (0, 1); its correlation is exactly 1.
        assert summary.mean_correlation == pytest.approx(1.0, abs=1e-12)

    def test_recovers_generating_rates(self):
        code = build_code_matrix(10)
        rate = 0.1
        n_samples = 10_000
        fold = make_fold(np.random.default_rng(8), code, n_samples, rate)
        summary = analyze_fold(fold, code)
        se_rate = math.sqrt(rate * (1 - rate) / n_samples)
        assert abs(summary.mean_bit_error - rate) <= 3 * se_rate
        # Independent noise: mean pairwise correlation near 0.
        se_corr = 1 / math.sqrt(n_samples)
        assert abs(summary.mean_correlation) <= 3 * se_corr
        # Empirical decoding error within noise of the exact rate.
        exact = exact_decode_error(Independent(ErrorProfile.iid(code.n, rate)), code)
        se_err = math.sqrt(exact * (1 - exact) / n_samples)
        assert abs(summary.ecoc_error - exact) <= 4 * se_err

    @pytest.mark.parametrize("classes", [5, 10, 26])
    def test_correlation_matches_pair_loop(self, classes):
        # Reference: the scalar loop over usable pairs, bit for bit.
        code = build_code_matrix(classes)
        fold = make_fold(np.random.default_rng(classes), code, 500, 0.1)
        bits = fold.bits.copy()
        bits[:, 1] = code.matrix[fold.true_classes, 1]  # a zero-rate column
        fold = FoldData("f", code.n, fold.true_classes, bits)
        summary = analyze_fold(fold, code)
        errs = (bits != code.matrix[fold.true_classes]).astype(np.float64)
        rates = errs.mean(axis=0)
        joint = (errs.T @ errs) / len(bits)
        pair_cs = []
        for i in range(code.n):
            for j in range(i + 1, code.n):
                if 0 < rates[i] < 1 and 0 < rates[j] < 1:
                    denom = math.sqrt(
                        rates[i] * (1 - rates[i]) * rates[j] * (1 - rates[j])
                    )
                    pair_cs.append((joint[i, j] - rates[i] * rates[j]) / denom)
        assert summary.mean_correlation == float(np.mean(pair_cs))
        assert summary.mean_correlation_std == float(np.std(pair_cs, ddof=1))

    def test_always_wrong_classifier_left_out_of_correlation(self):
        # Classifier 2 errs on every sample: its rate is 1, so its pairs
        # are left out and the mean is over the other pairs alone.
        code = build_code_matrix(10)
        fold = make_fold(np.random.default_rng(3), code, 500, 0.1)
        bits = fold.bits.copy()
        bits[:, 2] = 1 - code.matrix[fold.true_classes, 2]
        summary = analyze_fold(FoldData("f", code.n, fold.true_classes, bits), code)
        errs = (bits != code.matrix[fold.true_classes]).astype(np.float64)
        rates = errs.mean(axis=0)
        assert rates[2] == 1.0 and ((0 < rates) & (rates < 1)).sum() == code.n - 1
        joint = (errs.T @ errs) / len(bits)
        i, j = np.triu_indices(code.n, k=1)
        others = (i != 2) & (j != 2)
        i, j = i[others], j[others]
        cs = (joint[i, j] - rates[i] * rates[j]) / np.sqrt(
            rates[i] * (1 - rates[i]) * rates[j] * (1 - rates[j])
        )
        assert math.isfinite(summary.mean_correlation)
        assert summary.mean_correlation == float(cs.mean())

    @pytest.mark.parametrize("classes, rate", [(11, 0.2), (127, 0.35)])
    def test_matches_float64_reference(self, classes, rate, monkeypatch):
        # Reference: the float64 error matrix and product, and a decode of
        # every row.  Blocks of 7 rows exercise the blockwise product.
        code = build_code_matrix(classes)
        fold = make_fold(np.random.default_rng(classes), code, 2000, rate)
        errs = (fold.bits != code.matrix[fold.true_classes]).astype(np.float64)
        joint = (errs.T @ errs) / len(errs)
        decoded, _ = nearest_rows(fold.bits, code)
        want = analyze_fold(fold, code)
        assert want.per_classifier_errors == tuple(errs.mean(axis=0).tolist())
        assert want.ecoc_error == float((decoded != fold.true_classes).mean())
        assert 0.0 < want.ecoc_error < 1.0
        monkeypatch.setattr(code_matrix, "EXACT_MAX_N", 8)
        assert analyze_fold(fold, code) == want
        rates = errs.mean(axis=0)
        i, j = np.triu_indices(code.n, k=1)
        cs = (joint[i, j] - rates[i] * rates[j]) / np.sqrt(
            rates[i] * (1 - rates[i]) * rates[j] * (1 - rates[j])
        )
        assert want.mean_correlation == float(cs.mean())

    @pytest.mark.parametrize("block_rows", [None, 3])
    @pytest.mark.parametrize("classes", [5, 11, 127])
    def test_rates_are_column_sums(self, classes, block_rows, monkeypatch):
        # Reference: the column sum over all rows, bit for bit, also when
        # the joint counts are summed over blocks of 3 rows.
        code = build_code_matrix(classes)
        fold = make_fold(np.random.default_rng(classes), code, 1000, 0.3)
        if block_rows:
            monkeypatch.setattr(code_matrix, "EXACT_MAX_N", block_rows + 1)
        summary = analyze_fold(fold, code)
        errs = fold.bits != code.matrix[fold.true_classes]
        rates = errs.sum(axis=0) / fold.num_samples
        assert summary.per_classifier_errors == tuple(rates.tolist())
        assert summary.mean_bit_error == float(rates.mean())

    def test_dimension_mismatch(self):
        code = build_code_matrix(10)
        fold = FoldData("f", 8, np.zeros(3, dtype=np.int64), np.zeros((3, 8), np.uint8))
        with pytest.raises(ValueError):
            analyze_fold(fold, code)

    def test_class_out_of_range(self):
        code = build_code_matrix(4)
        fold = FoldData(
            "f", 4, np.array([0, 4]), np.zeros((2, 4), np.uint8)
        )
        with pytest.raises(ValueError):
            analyze_fold(fold, code)

    def test_empty_fold_rejected(self):
        code = build_code_matrix(4)
        fold = FoldData(
            "f", 4, np.zeros(0, dtype=np.int64), np.zeros((0, 4), np.uint8)
        )
        with pytest.raises(ValueError):
            analyze_fold(fold, code)


class TestBoundReport:
    def test_per_fold_gs(self):
        summary = FoldSummary("1", 0.0323, 0.0154, 0.0328)
        code = build_code_matrix(10)
        report = bound_report(summary, code.n, code.m)
        assert report.gs == pytest.approx(0.1292, abs=1e-12)

    def test_letters_aggregate_decay_bound(self):
        summaries = load_fixture("letters_dt")
        code = build_code_matrix(26)
        reports = [bound_report(s, code.n, code.m) for s in summaries]
        agg = aggregate(summaries, reports)
        assert agg.chernoff.mean == pytest.approx(0.047, abs=0.005)

    def test_negative_correlation_gates_kz(self):
        summary = FoldSummary("1", 0.05, -0.02, 0.04)
        code = build_code_matrix(10)
        report = bound_report(summary, code.n, code.m)
        assert report.kz is None
        assert report.gs > 0 and report.chernoff_lambda > 0
        always = bound_report(summary, code.n, code.m, kz_policy="always")
        assert always.kz is not None

    def test_n_equal_to_m_rejected(self):
        code = build_code_matrix(26)
        summary = load_fixture("letters_dt")[0]
        with pytest.raises(DomainError, match="m < n"):
            bound_report(summary, code.m, code.m)

    def test_n_override_changes_ratio(self):
        summary = FoldSummary("1", 0.03, 0.01, 0.03)
        code = build_code_matrix(10)
        r10 = bound_report(summary, code.n, code.m)
        r11 = bound_report(summary, 11, code.m)
        assert r10.chernoff_lambda != r11.chernoff_lambda


class TestAggregate:
    def test_single_fold_std_absent(self):
        # One value has no sample std: None, not 0.0.
        s = FoldSummary("1", 0.05, 0.01, 0.04)
        code = build_code_matrix(10)
        agg = aggregate([s], [bound_report(s, code.n, code.m)])
        assert agg.experimental.mean == 0.04
        assert agg.experimental.std is None
        assert agg.gs.std is None

    def test_column_of_one_value_has_no_std(self):
        # At n = 100 (m/n = 0.02) only the first fold has chernoff and kz.
        folds = [FoldSummary("1", 0.01, 0.002, 0.0), FoldSummary("2", 0.1, 0.01, 0.05)]
        reports = [bound_report(s, 100, 2) for s in folds]
        agg = aggregate(folds, reports)
        assert agg.chernoff.count == agg.kz.count == 1
        assert agg.chernoff.std is agg.kz.std is None
        assert agg.gs.std > 0.0
        std_row = format_report_csv(folds, reports, agg).splitlines()[-1]
        assert std_row.startswith("std,,,") and std_row.endswith(",,")
        assert report_json_obj(folds, reports, agg)["aggregate"]["kz"]["std"] is None

    def test_identical_folds_zero_std(self):
        s = FoldSummary("1", 0.05, 0.01, 0.04)
        code = build_code_matrix(10)
        folds = [s] * 10
        reports = [bound_report(x, code.n, code.m) for x in folds]
        agg = aggregate(folds, reports)
        assert agg.experimental.std == 0.0
        assert agg.chernoff.std == 0.0
        assert agg.kz.std == 0.0

    def test_gs_column_is_four_times_mean_rate(self):
        summaries = load_fixture("usps_svm")
        code = build_code_matrix(10)
        reports = [bound_report(s, code.n, code.m) for s in summaries]
        agg = aggregate(summaries, reports)
        mean_rate = np.mean([s.mean_bit_error for s in summaries])
        assert agg.gs.mean == pytest.approx(4 * mean_rate, abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], [])

    def test_misaligned_rejected(self):
        s = FoldSummary("1", 0.1, 0.01, 0.05)
        with pytest.raises(ValueError, match="^summaries and reports must align$"):
            aggregate([s], [])

    def test_column_without_values_is_absent(self):
        # evaluate_bounds leaves chernoff absent at m = n; the aggregate
        # column is then None, as kz is, and renders as empty cells.
        s = FoldSummary("1", 0.1, 0.01, 0.05)
        reports = [evaluate_bounds(3, 3, 0.1)]
        agg = aggregate([s], reports)
        assert agg.chernoff is None and agg.kz is None
        assert agg.gs.mean == pytest.approx(0.4)
        lines = format_report_csv([s], reports, agg).splitlines()
        assert lines[-2:] == ["mean,,,0.05,0.4,,", "std,,,,,,"]


# Mixed signs and magnitudes: signed zeros, plain draws, and a mantissa
# scaled by a power of ten from 1e-12 to 1e12.
_SPREAD_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e3, 1e3),
    st.builds(lambda x, p: x * 10.0**p, st.floats(-10.0, 10.0), st.integers(-12, 12)),
)


@st.composite
def _float_lists(draw):
    """1 to 300 floats: drawn one by one, or one value repeated."""
    if draw(st.booleans()):
        return draw(st.lists(_SPREAD_FLOATS, min_size=1, max_size=300))
    return [draw(_SPREAD_FLOATS)] * draw(st.integers(1, 300))


class TestNumpyFreeMoments:
    """aggregate's and both figures' arithmetic runs without numpy: the
    sums behind the mean and the sample std of a list are correctly
    rounded, the scatter grid is numpy's linspace to the bit and fig1's
    its arange."""

    @settings(max_examples=400, deadline=None)
    @given(values=_float_lists())
    def test_sums_are_correctly_rounded_and_grid_is_numpys(self, values):
        # Each sum a list helper takes (the values' for _mean, the squared
        # deviations' for _sample_std) must be the exact sum of its terms,
        # as a Fraction, rounded once to a double.
        def rounded_sum(terms):
            return float(sum(map(Fraction, terms)))

        mean = xio._mean(values)
        assert mean.hex() == (rounded_sum(values) / len(values)).hex()
        std = xio._sample_std(values)
        arr = np.array(values)
        if len(values) > 1 and max(values) > min(values):
            squares = [(v - mean) * (v - mean) for v in values]
            want = math.sqrt(rounded_sum(squares) / (len(values) - 1))
            assert std.hex() == want.hex()
            assert xio._sample_std(arr).hex() == float(arr.std(ddof=1)).hex()
        elif len(values) > 1:
            # All equal (signed zeros included): exactly 0.0.
            assert std.hex() == xio._sample_std(arr).hex() == (0.0).hex()
        else:
            # One value has no sample std.
            assert std is xio._sample_std(arr) is None
        lo, hi, count = min(values), max(values), len(values) + 1
        if lo < hi and (hi - lo) / (count - 1) != 0.0:
            grid = xio._linspace(lo, hi, count)
            assert [x.hex() for x in grid] == [x.hex() for x in np.linspace(lo, hi, count).tolist()]

    @settings(max_examples=100, deadline=None)
    @given(r=st.floats(1e-6, 1.0, exclude_max=True), points=st.floats(0.5, 1000.0),
           nudge=st.sampled_from([1.0, 1.0 + 2**-52, 1.0 - 2**-53]))
    def test_fig1_grid_is_numpys_arange(self, r, points, nudge):
        # Steps near r / k for an integer k put the last point at r's edge.
        step = r / round(points) * nudge if points > 1.0 else r / points
        want = np.arange(step, r, step).tolist()
        if not want:
            with pytest.raises(ValueError, match="leaves no grid point"):
                figure_one_curves(ns=(1,), r=r, step=step)
            return
        got = [row["e_bar"] for row in figure_one_curves(ns=(1,), r=r, step=step)]
        assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_mean_keeps_what_cancellation_leaves(self):
        # A left-to-right or pairwise sum loses 1e-17 against 1.0.
        assert xio._mean([1.0, 1e-17, -1.0]) == 1e-17 / 3


class TestReportRendering:
    def test_csv_passes_experimental_through(self):
        summaries = load_fixture("letters_dt")
        code = build_code_matrix(26)
        reports = [bound_report(s, code.n, code.m) for s in summaries]
        text = format_report_csv(summaries, reports)
        lines = text.splitlines()
        assert lines[0].startswith("fold,mean_bit_error")
        fixture_lines = fixture_text("letters_dt").splitlines()[1:]
        for out_line, src_line in zip(lines[1:], fixture_lines):
            assert out_line.split(",")[3] == src_line.split(",")[5]

    def test_kz_cell_empty_when_absent(self):
        s = FoldSummary("1", 0.05, -0.02, 0.04)
        code = build_code_matrix(10)
        text = format_report_csv([s], [bound_report(s, code.n, code.m)])
        assert text.splitlines()[1].endswith(",")

    def test_json_has_aggregate(self):
        summaries = load_fixture("cifar10_cnn")
        code = build_code_matrix(10)
        reports = [bound_report(s, code.n, code.m, kz_policy="always") for s in summaries]
        obj = report_json_obj(summaries, reports, aggregate(summaries, reports))
        assert len(obj["folds"]) == 10
        assert obj["aggregate"]["kz"]["count"] == 10
        json.dumps(obj)  # must be serializable

    def test_csv_aggregate_rows(self):
        summaries = load_fixture("svhn_cnn")
        code = build_code_matrix(10)
        reports = [bound_report(s, code.n, code.m) for s in summaries]
        agg = aggregate(summaries, reports)
        lines = format_report_csv(summaries, reports, agg).splitlines()
        assert len(lines) == 1 + 10 + 2
        assert agg.kz is None
        for line, stats in zip(lines[-2:], ("mean", "std")):
            assert line == ",".join(
                [stats, "", ""]
                + [repr(getattr(getattr(agg, col), stats))
                   for col in ("experimental", "gs", "chernoff")]
                + [""]
            )

    def test_csv_text_quotes_and_keeps_precision(self):
        rows = [("x,1", 0.1 + 0.2), ['say "hi"', None]]
        assert csv_text(("a", "b"), rows) == (
            'a,b\n"x,1",0.30000000000000004\n"say ""hi""",\n'
        )


class TestFixtures:
    def test_all_ten_present(self):
        names = fixture_names()
        assert len(names) == 10
        for name in names:
            rows = load_fixture(name)
            assert len(rows) == 10
            assert [s.fold_id for s in rows] == [str(i) for i in range(1, 11)]

    def test_reference_table_covers_fixtures(self):
        assert set(REFERENCE_TABLE) == {
            (ds, model) for ds, info in DATASETS.items() for model in info.models
        }

    def test_experimental_means_match_reference(self):
        for (ds, model), ref in REFERENCE_TABLE.items():
            rows = load_fixture(f"{ds}_{model}")
            mean = np.mean([s.ecoc_error for s in rows])
            assert mean == pytest.approx(ref.experimental, abs=5e-4), (ds, model)

    def test_unknown_fixture(self):
        for name in ("mnist_dt", "./letters_dt", "../fixtures/letters_dt"):
            with pytest.raises(FileNotFoundError):
                fixture_text(name)


class TestReproduction:
    def test_letters_row(self):
        row = reproduce_reference_row("letters", "dt")
        assert row.chosen_n == 26
        assert row.aggregate.chernoff.mean == pytest.approx(0.047, abs=0.01)
        assert row.aggregate.kz.mean == pytest.approx(0.055, abs=0.01)

    def test_ambiguous_length_rows_report_both(self):
        for ds in ("pendigits", "vowel"):
            row = reproduce_reference_row(ds, "dt")
            assert set(row.by_n) == {10, 11}
            assert row.chosen_n == 10

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            reproduce_reference_row("letters", "cnn")


class TestSyntheticEndToEnd:
    def test_generated_fold_recovers_model(self, tmp_path):
        # Draw predictions from the simulator's sampler, write them in the
        # raw schema, reload, and check analyze_fold sees the right rates.
        code = build_code_matrix(10)
        rate = 0.08
        model = Independent(ErrorProfile.iid(10, rate))
        rng = _chunk_rng(99, 0)
        noise = model.sample(rng, 5000)
        classes = rng.integers(0, 10, size=5000)
        bits = np.bitwise_xor(code.matrix[classes], noise)
        fold = FoldData("gen", 10, classes, bits)
        path = tmp_path / "gen.csv"
        write_predictions(fold, path)
        summary = analyze_fold(load_predictions(path), code)
        se = math.sqrt(rate * (1 - rate) / (5000 * 10))
        assert abs(summary.mean_bit_error - rate) <= 3 * se * math.sqrt(10)


class TestFigureData:
    def test_fig1_rows_and_sign_changes(self):
        rows = figure_one_curves()
        by_n = {}
        for row in rows:
            by_n.setdefault(row["n"], []).append(row["chernoff"] - row["gs"])
        assert set(by_n) == {10, 20, 50}
        for n, diffs in by_n.items():
            signs = np.sign(diffs)
            changes = int((signs[1:] * signs[:-1] < 0).sum())
            assert changes == 1, n

    def test_scatter_letters_dt(self):
        summaries = load_fixture("letters_dt")
        curves, folds = scatter_figure_data(summaries, 26, 6)
        assert len(folds) == 10
        exps = [row["experimental"] for row in folds]
        assert min(exps) == pytest.approx(0.052, abs=1e-12)
        assert max(exps) == pytest.approx(0.0695, abs=1e-12)
        assert all(0 < row["e_bar"] < 6 / 26 for row in curves)

    @pytest.mark.parametrize("name, n", [("letters_dt", 26), ("vowel_svm", 10), ("usps_dt", 11)])
    def test_scatter_rows_are_evaluate_bounds_fields(self, name, n):
        summaries = load_fixture(name)
        m = build_code_matrix(DATASETS[name.rsplit("_", 1)[0]].classes).m
        curves, folds = scatter_figure_data(summaries, n, m)
        pooled_c = math.fsum(s.mean_correlation for s in summaries) / len(summaries)
        points = [(row["e_bar"], pooled_c) for row in curves]
        points += [(s.mean_bit_error, s.mean_correlation) for s in summaries]
        for row, (e, c) in zip(curves + folds, points):
            report = evaluate_bounds(n, m, e, c, kz_policy="always")
            assert (row["gs"], row["chernoff"], row["kz"]) == (
                report.gs, report.chernoff_lambda, report.kz
            )

    @pytest.mark.parametrize("n, m", [(6, 6), (5, 6), (10, 0)])
    def test_scatter_needs_m_below_n(self, n, m):
        with pytest.raises(ValueError, match="m < n"):
            scatter_figure_data(load_fixture("letters_dt"), n, m)

    def test_scatter_requires_folds(self):
        with pytest.raises(ValueError):
            scatter_figure_data([], 10, 2)

    def test_fig1_rejects_r_outside_the_unit_interval(self):
        with pytest.raises(ValueError, match=r"^r=1\.5 outside \(0, 1\)$"):
            figure_one_curves(r=1.5)

    def test_scatter_needs_a_fold_below_m_over_n(self):
        # e = 0.5 lies above m/n = 0.25, so no grid point is left.
        fold = FoldSummary("1", 0.5, 0.0, 0.1)
        with pytest.raises(ValueError, match=r"leave no curve grid inside \(0, m/n\)$"):
            scatter_figure_data([fold], 8, 2)

    @pytest.mark.parametrize(
        "kwargs",
        [{"step": 0.0}, {"step": -0.01}, {"step": math.nan}, {"step": math.inf},
         {"ns": (0,)}, {"ns": (10, -1)}],
    )
    def test_fig1_rejects_bad_grid(self, kwargs):
        with pytest.raises(ValueError):
            figure_one_curves(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"ns": (10.5,)}, "n=10.5 is not an integer"),
            ({"ns": (math.nan,)}, "n=nan is not an integer"),
            ({"ns": ("10",)}, "n='10' is not an integer"),
            ({"r": "0.25"}, "r='0.25' is not a number"),
            ({"step": "0.1"}, "step='0.1' is not a number"),
        ],
        ids=["ns-fraction", "ns-nan", "ns-text", "r-text", "step-text"],
    )
    def test_fig1_names_a_value_of_the_wrong_type(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            figure_one_curves(**kwargs)

    @pytest.mark.parametrize(
        "n, m, message",
        [("26", 6, "n='26' is not an integer"), (26, "6", "m='6' is not an integer")],
        ids=["n-text", "m-text"],
    )
    def test_scatter_names_a_value_of_the_wrong_type(self, n, m, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            scatter_figure_data(load_fixture("letters_dt"), n, m)

    @pytest.mark.parametrize("n", [0, -3])
    def test_scatter_rejects_n_below_one(self, n):
        with pytest.raises(ValueError, match=f"n={n} "):
            scatter_figure_data(load_fixture("letters_dt"), n, 6)

    def test_rows_csv_renders(self):
        text = format_rows_csv([{"a": 1, "b": 0.5}, {"a": 2, "b": None}])
        assert text == "a,b\n1,0.5\n2,\n"
        with pytest.raises(ValueError, match="^no rows$"):
            format_rows_csv([])
