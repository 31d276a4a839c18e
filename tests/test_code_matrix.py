"""Tests for code-matrix construction, distances, decoding, serialization."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecoc.code_matrix as cm
from ecoc._shared import sylvester_distance
from ecoc.code_matrix import (
    DEFAULT_ORIENTATION,
    EXACT_MAX_N,
    KEEP_BOTTOM_RIGHT,
    KEEP_TOP_LEFT,
    CodeMatrix,
    build_code_matrix,
    nearest_rows,
    sylvester_hadamard,
    to_text,
)
from ecoc.experiment_io import FoldData, analyze_fold

from code_text import from_text


class TestSylvester:
    def test_base_cases(self):
        assert sylvester_hadamard(0).tolist() == [[0]]
        assert sylvester_hadamard(1).tolist() == [[0, 0], [0, 1]]

    def test_all_pairwise_distances_are_half_dimension(self):
        for k in (2, 3, 4):
            h = sylvester_hadamard(k)
            n = 2**k
            for i, j in itertools.combinations(range(n), 2):
                assert int((h[i] != h[j]).sum()) == n // 2

    def test_in_place_doubling_is_popcount_parity(self):
        for k in range(11):
            h = sylvester_hadamard(k)
            assert h.dtype == np.uint8 and h.shape == (2**k, 2**k)
            i = np.arange(2**k)
            both, parity = i[:, None] & i, np.zeros_like(h)
            while both.any():
                parity ^= (both & 1).astype(np.uint8)
                both >>= 1
            assert np.array_equal(h, parity), k

    def test_size_cap(self, monkeypatch):
        # Order 16 would be a 4 GiB matrix: the cap rejects it before the
        # matrix is allocated, so np.empty is never reached.
        def no_alloc(*_, **__):
            pytest.fail("matrix allocated for an order above the cap")

        monkeypatch.setattr(np, "empty", no_alloc)
        with pytest.raises(ValueError):
            sylvester_hadamard(17)
        with pytest.raises(ValueError):
            sylvester_hadamard(-1)
        with pytest.raises(ValueError):
            sylvester_hadamard(16)
        with pytest.raises(ValueError):
            build_code_matrix(2**15 + 1)

    def test_top_order_passes_the_cap(self, monkeypatch):
        # Order 15 (1 GiB) is the largest accepted: it gets past the cap to
        # the allocation, which is stopped here before it is made.
        class Allocated(Exception):
            pass

        def allocate(shape, dtype):
            assert shape == (2**15, 2**15) and dtype == np.uint8
            raise Allocated

        monkeypatch.setattr(np, "empty", allocate)
        with pytest.raises(Allocated):
            sylvester_hadamard(cm.SYLVESTER_MAX_K)


class TestMinRowDistance:
    def test_identical_rows(self):
        assert CodeMatrix(np.array([[0, 0], [0, 0]])).d == 0

    def test_complementary_rows(self):
        assert CodeMatrix(np.array([[0, 1], [1, 0]])).d == 2

    def test_sylvester_three(self):
        h = sylvester_hadamard(3)
        brute = min(
            int((h[i] != h[j]).sum())
            for i, j in itertools.combinations(range(8), 2)
        )
        assert brute == 4
        assert CodeMatrix(h).d == 4

    def test_pair_across_row_blocks(self):
        # 600 rows span three 256-row blocks; the closest pair straddles two.
        rng = np.random.default_rng(3)
        m = rng.integers(0, 2, (600, 40), dtype=np.uint8)
        m[520] = m[5]
        m[520, 7] ^= 1
        brute = (m[:, None, :] != m[None, :, :]).sum(axis=2)
        np.fill_diagonal(brute, 41)
        assert brute.min() == 1
        assert CodeMatrix(m).d == 1
        m[520, 7] ^= 1
        assert CodeMatrix(m).d == 0

    def test_pair_inside_a_later_row_block(self):
        # Each row block is correlated only with itself and the rows after
        # it, so a closest pair inside the last block must still be found.
        rng = np.random.default_rng(5)
        m = np.repeat(np.eye(600, dtype=np.uint8), 2, axis=1)
        m[599, :] = m[530, :]
        m[599, 0] ^= 1
        assert CodeMatrix(m).d == 1
        assert CodeMatrix(m[rng.permutation(600)]).d == 1

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            CodeMatrix(np.array([[0, 1, 0]])).d

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            CodeMatrix(np.array([[0, 2], [1, 0]])).d

    def test_rejects_a_matrix_that_is_not_2d(self):
        with pytest.raises(ValueError, match=r"^expected a 2-D matrix, got shape \(3,\)$"):
            CodeMatrix(np.zeros(3, np.uint8))

    @pytest.mark.parametrize(
        "bad",
        [
            [[0, 2], [1, 0]],
            [[0, -1], [1, 0]],
            [[0.0, 0.5], [1.0, 0.0]],
            [[0.0, np.nan], [1.0, 0.0]],
            [["0", "1"], ["1", "0"]],
        ],
    )
    def test_rejects_each_kind_of_non_bit(self, bad):
        with pytest.raises(ValueError, match="0 or 1"):
            CodeMatrix(np.array(bad))

    def test_accepts_bool_and_float_bits(self):
        for bits in ([[False, True], [True, True]], [[0.0, 1.0], [1.0, 1.0]]):
            assert CodeMatrix(np.array(bits)).d == 1
            assert CodeMatrix(np.array(bits)).matrix.dtype == np.uint8


class TestBuild:
    def test_reference_parameter_pairs(self):
        # This fixture test gates the default truncation orientation: the
        # kept corner must reproduce m=2 at 10 classes and m=6 at 26.
        outcomes = {
            orient: {
                n: build_code_matrix(n, orientation=orient).m for n in (10, 26)
            }
            for orient in (KEEP_BOTTOM_RIGHT, KEEP_TOP_LEFT)
        }
        expected = {10: 2, 26: 6}
        if outcomes[DEFAULT_ORIENTATION] != expected:
            pytest.fail(
                "default orientation no longer matches the reference table: "
                f"wanted m={expected}, got keep-bottom-right="
                f"{outcomes[KEEP_BOTTOM_RIGHT]}, keep-top-left="
                f"{outcomes[KEEP_TOP_LEFT]}"
            )
        code10 = build_code_matrix(10)
        code26 = build_code_matrix(26)
        assert (code10.m, code10.r) == (2, 2 / 10)
        assert (code26.m, code26.r) == (6, 6 / 26)
        assert code26.d == 12

    def test_square_shape(self):
        for n in (2, 5, 10, 11, 26):
            code = build_code_matrix(n)
            assert code.matrix.shape == (n, n)

    def test_two_class_distance_by_scan(self):
        # Both truncation corners of the 2x2 matrix leave rows (0,0)/(0,1).
        for orient in (KEEP_BOTTOM_RIGHT, KEEP_TOP_LEFT):
            code = build_code_matrix(2, orientation=orient)
            assert code.d == CodeMatrix(code.matrix).d == 1
            assert code.m == 0

    def test_eleven_class_parameters(self):
        code = build_code_matrix(11)
        assert (code.d, code.m) == (5, 2)
        assert code.r == pytest.approx(2 / 11)

    def test_distance_params_recomputable(self):
        for n in (8, 10, 12, 16, 26):
            code = build_code_matrix(n)
            assert CodeMatrix(code.matrix).d == code.d
            assert code.m == code.d // 2

    @pytest.mark.parametrize("orient", [KEEP_BOTTOM_RIGHT, KEEP_TOP_LEFT])
    def test_structural_distance_matches_gram(self, orient):
        # build_code_matrix reads d off the Walsh weights; the generic Gram
        # route must agree on every truncation, including both sides of
        # each power of two.
        for classes in [*range(2, 257), 511, 512, 513, 1000, 1023, 1024, 1025]:
            code = build_code_matrix(classes, orientation=orient)
            assert code.d == CodeMatrix(code.matrix).d, classes
            assert code.m == code.d // 2
            assert code.matrix.shape == (classes, classes)
            assert code.matrix.flags.c_contiguous
            assert not code.matrix.flags.writeable

    def test_distance_needs_no_gram(self, monkeypatch):
        def no_gram(*args):
            raise AssertionError("Gram product called")

        for name in ("_gram_min_distance", "_signs"):
            monkeypatch.setattr(cm, name, no_gram)
        code = build_code_matrix(1000)
        assert (code.d, code.m) == (496, 248)
        with pytest.raises(AssertionError):
            CodeMatrix(code.matrix)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            build_code_matrix(1)
        with pytest.raises(ValueError):
            build_code_matrix(10, orientation="diagonal")

    @pytest.mark.parametrize(
        "classes, orientation, message",
        [
            (1, "diagonal", "num_classes=1 must be at least 2"),
            (2**15 + 1, "diagonal", "k=16 exceeds practical cap 15"),
            (10, "diagonal", "unknown orientation 'diagonal'"),
        ],
        ids=["too-few-classes", "order-above-cap", "orientation"],
    )
    def test_argument_checks_run_in_order(self, classes, orientation, message):
        with pytest.raises(ValueError) as err:
            build_code_matrix(classes, orientation)
        assert str(err.value) == message

    @pytest.mark.parametrize("integer", [np.int64, np.int32, np.uint16])
    def test_numpy_integer_classes(self, integer):
        for orient in (KEEP_BOTTOM_RIGHT, KEEP_TOP_LEFT):
            code, same = build_code_matrix(integer(10), orient), build_code_matrix(10, orient)
            assert np.array_equal(code.matrix, same.matrix)
            assert (code.num_classes, code.n, code.d, code.m) == (10, 10, same.d, same.m)

    @pytest.mark.parametrize("bad", [2.5, 10.0, "10", None], ids=repr)
    def test_classes_that_are_not_integers(self, bad):
        with pytest.raises(ValueError) as err:
            build_code_matrix(bad)
        assert str(err.value) == f"num_classes={bad!r} is not an integer"

    def test_order_that_is_not_an_integer(self):
        with pytest.raises(ValueError) as err:
            sylvester_hadamard(2.0)
        assert str(err.value) == "k=2.0 is not an integer"
        assert np.array_equal(sylvester_hadamard(np.int64(3)), sylvester_hadamard(3))

    def test_matrix_is_read_only(self):
        code = build_code_matrix(10)
        with pytest.raises(ValueError):
            code.matrix[0, 0] = 1

    def test_distance_params_cannot_be_supplied(self):
        matrix = build_code_matrix(10).matrix
        with pytest.raises(TypeError):
            CodeMatrix(matrix=matrix, d=10, m=5)
        code = CodeMatrix(matrix)
        assert (code.d, code.m) == (4, 2)
        # The stored matrix is a read-only copy: the caller's array stays
        # writable and later writes to it do not reach the code.
        source = sylvester_hadamard(3)
        code = CodeMatrix(source)
        source[1] = source[0]
        assert code.d == 4 and not code.matrix.flags.writeable


def _prefix_minima(k, orientation):
    """The Walsh row sum h[1:, kept].sum(axis=1).min() over
    sylvester_hadamard(k) for every kept width c at once: entry c - 1 of
    the running sums along each row is its sum over the first c kept
    columns, which keep-bottom-right takes from the right."""
    h = sylvester_hadamard(k)[1:]
    if orientation == KEEP_BOTTOM_RIGHT:
        h = h[:, ::-1]
    return np.cumsum(h, axis=1, dtype=np.int32).min(axis=0)


def _walsh_weights(k, kept):
    """The weight on the kept columns of every row of sylvester_hadamard(k),
    without the matrix: the fast Walsh-Hadamard transform F of the kept
    columns' indicator has F(v) = |kept| - 2 * (row v's weight)."""
    f = np.zeros(1 << k, np.int64)
    f[kept] = 1
    for level in range(k):
        pairs = f.reshape(-1, 2, 1 << level)
        f = np.stack((pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]), axis=1).ravel()
    return (f[0] - f) // 2


def _kept_columns(classes, orientation):
    return slice(-classes, None) if orientation == KEEP_BOTTOM_RIGHT else slice(0, classes)


class TestClosedFormDistance:
    """_shared.sylvester_distance, the only source of build_code_matrix's d,
    against the Walsh row sums it replaces."""

    @pytest.mark.parametrize("orient", [KEEP_BOTTOM_RIGHT, KEEP_TOP_LEFT])
    def test_every_class_count_to_2048(self, orient):
        for k in range(1, 12):
            minima = _prefix_minima(k, orient)
            for classes in range(max(2, 2 ** (k - 1) + 1), 2**k + 1):
                assert sylvester_distance(classes, orient) == minima[classes - 1], classes

    def test_transform_matches_the_row_sums(self):
        for k in (1, 4, 7):
            h = sylvester_hadamard(k)
            for classes in range(2 ** (k - 1) + 1, 2**k + 1):
                for orient in (KEEP_BOTTOM_RIGHT, KEEP_TOP_LEFT):
                    kept = _kept_columns(classes, orient)
                    assert np.array_equal(_walsh_weights(k, kept), h[:, kept].sum(axis=1))

    @pytest.mark.parametrize("orient", [KEEP_BOTTOM_RIGHT, KEEP_TOP_LEFT])
    def test_both_sides_of_large_powers_of_two(self, orient):
        # Up to 2^15 classes, the most the order cap allows.
        for classes in (4095, 4096, 4097, 8191, 8192, 8193, 16383, 16384, 16385, 32767, 32768):
            k = (classes - 1).bit_length()
            weights = _walsh_weights(k, _kept_columns(classes, orient))
            assert sylvester_distance(classes, orient) == weights[1:].min(), classes


class TestDecode:
    """Recovery by nearest_rows: every word within the correction radius
    decodes to its own row."""

    def test_codewords_decode_to_self(self):
        for n in (2, 10, 26):
            code = build_code_matrix(n)
            idx, dist = nearest_rows(code.matrix, code)
            assert idx.tolist() == list(range(n)) and not dist.any()

    def test_recovery_below_half_distance(self):
        code = build_code_matrix(26)
        rng = np.random.default_rng(42)
        flips = code.m - 1
        classes, words = [], []
        for _ in range(1000):
            i = int(rng.integers(0, 26))
            word = code.matrix[i].copy()
            pos = rng.choice(26, size=flips, replace=False)
            word[pos] ^= 1
            classes.append(i)
            words.append(word)
        idx, dist = nearest_rows(np.array(words), code)
        assert idx.tolist() == classes and (dist == flips).all()

    def test_exhaustive_recovery_small_codes(self):
        for n in (8, 12):
            code = build_code_matrix(n)
            for i in range(n):
                for k in range(code.m):
                    for pos in itertools.combinations(range(n), k):
                        word = code.matrix[i].copy()
                        word[list(pos)] ^= 1
                        idx, _ = nearest_rows(word[None], code)
                        assert idx.tolist() == [i]

    def test_length_mismatch(self):
        code = build_code_matrix(10)
        with pytest.raises(ValueError):
            nearest_rows([[0, 1, 0]], code)


@st.composite
def code_and_words(draw):
    """A small bit code, often with duplicate rows, and words to decode that
    include the all-zero word and copies of code rows, so ties are common."""
    n = draw(st.integers(1, 9))
    rows = draw(st.integers(2, 7))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    matrix = draw(st.lists(bits, min_size=rows, max_size=rows))
    for _ in range(draw(st.integers(0, 2))):
        src = draw(st.integers(0, rows - 1))
        matrix[draw(st.integers(0, rows - 1))] = list(matrix[src])
    words = draw(st.lists(bits, min_size=0, max_size=12))
    words += [[0] * n] + [list(matrix[i]) for i in range(rows)]
    return np.array(matrix, dtype=np.uint8), np.array(words, dtype=np.uint8)


class TestNearestRows:
    @settings(max_examples=300, deadline=None)
    @given(code_and_words())
    def test_matches_brute_force(self, case):
        matrix, words = case
        code = CodeMatrix(matrix)
        idx, dist = nearest_rows(words, code)
        for w, i, d in zip(words, idx, dist):
            brute = (matrix != w).sum(axis=1)
            want = int(brute.argmin())
            assert (int(i), int(d)) == (want, int(brute[want]))
        pairs = itertools.combinations(range(matrix.shape[0]), 2)
        brute_d = min(int((matrix[a] != matrix[b]).sum()) for a, b in pairs)
        assert code.d == brute_d

    def test_two_row_tie_goes_to_lowest_index(self):
        code = CodeMatrix(np.array([[0, 0], [1, 1]]))
        idx, dist = nearest_rows(np.array([[0, 1], [1, 0], [1, 1]]), code)
        assert idx.tolist() == [0, 0, 1]
        assert dist.tolist() == [1, 1, 0]

    @pytest.mark.parametrize("entry", [2, 0.5, -1, math.nan])
    def test_entries_other_than_bits_are_rejected(self, entry):
        code = build_code_matrix(10)
        word = code.matrix[3].astype(float)
        word[4] = entry
        with pytest.raises(ValueError, match="0 or 1"):
            nearest_rows(np.stack([code.matrix[0], word]), code)

    def test_shape_mismatch(self):
        # Refused by nearest_rows' own check, which names the shape, before
        # any product is formed.
        code = build_code_matrix(10)
        with pytest.raises(ValueError, match=r"^words of shape \(3, 9\) do not match code n=10$"):
            nearest_rows(np.zeros((3, 9), np.uint8), code)
        with pytest.raises(ValueError, match=r"^words of shape \(10,\) do not match code n=10$"):
            nearest_rows(np.zeros(10, np.uint8), code)

    def test_rejects_lengths_float32_cannot_count(self):
        # Zero-stride views: no codeword-sized buffer is allocated before the
        # length check rejects the input.
        long_rows = np.broadcast_to(np.zeros(1, np.uint8), (2, EXACT_MAX_N))
        with pytest.raises(ValueError, match="2\\*\\*24"):
            CodeMatrix(long_rows)


def _fold_misdecoded(errors, classes, code):
    """How many samples analyze_fold decodes wrongly in the fold whose sample
    i is the codeword of classes[i] with the bits set in row i of the
    (count, n) flip pattern errors (bool or 0/1) flipped."""
    fold = FoldData("f", code.n, classes, code.matrix[classes] ^ errors)
    return round(analyze_fold(fold, code).ecoc_error * len(classes))


def _misdecoded_by_decoding_every_row(errors, classes, code):
    """Reference for the misdecoded count: decode every word."""
    idx, _ = nearest_rows(code.matrix[classes] ^ errors, code)
    return int((idx != classes).sum())


class TestCountMisdecoded:
    """The misdecoded count of a fold, as analyze_fold's ecoc_error gives
    it: only samples with at least far_flips errors are decoded
    (_fold_counts, then code_matrix._misdecoded), and that must count
    exactly what a decode of every sample counts."""

    CODES = {
        "d3-odd": build_code_matrix(6),
        "d4-even": build_code_matrix(10),
        "d5-odd": build_code_matrix(11),
        "repetition-d3": CodeMatrix(np.array([[0, 0, 0], [1, 1, 1]])),
        "fewer-classes-than-n": CodeMatrix(sylvester_hadamard(3)[:5]),
        "duplicate-rows-d0": CodeMatrix(
            np.array([[0, 1, 1, 0], [1, 1, 0, 0], [0, 1, 1, 0], [1, 0, 1, 1]])
        ),
    }

    @pytest.mark.parametrize("name", list(CODES))
    @pytest.mark.parametrize("pinned", [False, True])
    def test_matches_decoding_every_row(self, name, pinned):
        code = self.CODES[name]
        rng = np.random.default_rng(7)
        for rate in (0.0, 0.1, 0.3, 0.5):
            errors = rng.random((400, code.n)) < rate
            if pinned:
                classes = np.full(400, code.num_classes - 1)
            else:
                classes = rng.integers(0, code.num_classes, size=400)
            want = _misdecoded_by_decoding_every_row(errors, classes, code)
            assert _fold_misdecoded(errors, classes, code) == want
            assert _fold_misdecoded(errors.astype(np.uint8), classes, code) == want
        if code.d == 0:
            # Equal rows: the higher-index copy decodes to the lower one even
            # without a flip.
            none = np.zeros((1, code.n), dtype=bool)
            assert _fold_misdecoded(none, np.array([2]), code) == 1

    @pytest.mark.parametrize("name", list(CODES))
    def test_far_flips_is_the_fewest_that_misdecode(self, name):
        # Row j moved far_flips = ceil(d/2) bits towards a lower row i at
        # distance d is at least as near i as j, so it decodes wrongly.
        code = self.CODES[name]
        assert code.far_flips == math.ceil(code.d / 2)
        i, j = next(
            (i, j) for i, j in itertools.combinations(range(code.num_classes), 2)
            if (code.matrix[i] != code.matrix[j]).sum() == code.d
        )
        moved = np.flatnonzero(code.matrix[i] != code.matrix[j])[: code.far_flips]
        errors = np.zeros((1, code.n), dtype=bool)
        errors[0, moved] = True
        assert _fold_misdecoded(errors, np.array([j]), code) == 1

    @settings(max_examples=200, deadline=None)
    @given(code_and_words(), st.data())
    def test_matches_reference_on_small_codes(self, case, data):
        matrix, words = case
        code = CodeMatrix(matrix)
        classes = np.array(
            data.draw(st.lists(st.integers(0, code.num_classes - 1),
                               min_size=len(words), max_size=len(words)))
        )
        errors = words.astype(bool)
        want = _misdecoded_by_decoding_every_row(errors, classes, code)
        assert _fold_misdecoded(errors, classes, code) == want


class TestDecodeBlocks:
    """The simulator decodes its far rows in blocks of _decode_rows(code)
    rows (_misdecoded_flips), each block's words built inside it, and must
    count what one _misdecoded call over all the words counts."""

    def test_rows_per_block(self):
        assert cm._decode_rows(build_code_matrix(127)) == 258
        assert cm._decode_rows(build_code_matrix(26)) == 1260
        codes = [build_code_matrix(c) for c in (2, 15, 26, 127, 1000)]
        codes.append(CodeMatrix(sylvester_hadamard(3)[:5]))  # fewer classes than n
        codes.append(CodeMatrix(np.zeros((3, cm.DECODE_BLOCK_BYTES // 4 + 1), np.uint8)))
        for code in codes:
            rows = cm._decode_rows(code)
            # The block's float32 signs and correlations stay in budget; a
            # row wider than the budget is decoded one row at a time.
            widest = 4 * max(code.n, code.num_classes)
            assert rows == 1 or rows * widest <= cm.DECODE_BLOCK_BYTES < (rows + 1) * widest
            assert rows >= 1
        assert cm._decode_rows(codes[-1]) == 1

    @pytest.mark.parametrize("classes", [15, 127])
    def test_blocks_count_what_one_call_counts(self, classes, monkeypatch):
        code = build_code_matrix(classes)
        block = cm._decode_rows(code)
        sizes, misdecoded = [], cm._misdecoded

        def spy(words, truth, code):
            sizes.append(len(words))
            return misdecoded(words, truth, code)

        rng = np.random.default_rng(classes)
        for rows in (0, 1, block - 1, block, block + 1, 3 * block + 7):
            flips = (rng.random((rows, code.n)) < 0.3).astype(np.uint8)
            truth = rng.integers(0, code.num_classes, size=rows)
            want = misdecoded(code.matrix[truth] ^ flips, truth, code)
            assert want > 0 or rows < block
            sizes.clear()
            with monkeypatch.context() as m:
                m.setattr(cm, "_misdecoded", spy)
                assert cm._misdecoded_flips(flips, truth, code) == want
            assert sum(sizes) == rows and len(sizes) == -(-rows // block)
            assert all(size <= block for size in sizes)


class TestSerialization:
    def test_header_and_round_trip(self):
        code = build_code_matrix(26)
        text = to_text(code)
        assert text.splitlines()[0] == "26 12 6"
        parsed = from_text(text)
        assert np.array_equal(parsed.matrix, code.matrix)
        assert (parsed.d, parsed.m) == (code.d, code.m)
        assert to_text(parsed) == text

    def test_header_mismatch_detected(self):
        code = build_code_matrix(10)
        lines = to_text(code).splitlines()
        lines[0] = "10 8 4"
        with pytest.raises(ValueError):
            from_text("\n".join(lines))

    def test_malformed_text(self):
        with pytest.raises(ValueError):
            from_text("")
        with pytest.raises(ValueError):
            from_text("3 2\n000\n011\n101\n")
        with pytest.raises(ValueError, match="length n=3"):
            from_text("3 2 1\n000\n0110\n101\n")

    @pytest.mark.parametrize("ch", ["2", "9", "a", " ", "\t", "\u00e9", "\u0663", "?"])
    def test_rejects_characters_other_than_bits(self, ch):
        text = to_text(build_code_matrix(4))
        lines = text.splitlines()
        lines[2] = lines[2][:1] + ch + lines[2][2:]
        with pytest.raises(ValueError, match="0 or 1"):
            from_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("classes", [2, 3, 26, 127, 1000])
    def test_text_matches_character_reference(self, classes):
        code = build_code_matrix(classes, orientation=KEEP_TOP_LEFT)
        lines = [f"{code.n} {code.d} {code.m}"]
        lines += ["".join(str(b) for b in row) for row in code.matrix]
        want = "\n".join(lines) + "\n"
        assert to_text(code) == want
        parsed = from_text(want)
        assert np.array_equal(parsed.matrix, code.matrix)
        assert (parsed.d, parsed.m) == (code.d, code.m)

    def test_blank_lines_and_crlf_skipped(self):
        parsed = from_text("2 1 0\r\n\r\n00\r\n   \n01\n\n")
        assert parsed.matrix.tolist() == [[0, 0], [0, 1]]
