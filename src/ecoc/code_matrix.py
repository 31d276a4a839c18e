"""Code matrices for output-coded multiclass classification.

Matrices are built by truncating a {0,1} Sylvester-type Hadamard matrix of
dimension 2^k down to a square num_classes x num_classes block.  Each row is
a class codeword; each column defines one binary classifier.  Decoding picks
the row nearest in Hamming distance, ties to the lowest index: one kernel,
_misdecoded, for fold analysis and the simulator, which decodes its far rows
in blocks of _decode_rows(code) rows (_misdecoded_flips).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _shared

# The orientations and the order cap live in the standard-library-only
# _shared, so that the command line reads them without numpy; they still
# resolve here.
from ._shared import (  # noqa: F401
    DEFAULT_ORIENTATION,
    KEEP_BOTTOM_RIGHT,
    KEEP_TOP_LEFT,
    SYLVESTER_MAX_K,
)

BitMatrix = np.ndarray
"""2-D uint8 array with entries in {0, 1}, rows stored contiguously."""

# float32 counts are exact below this: rows are kept narrower (_check_width)
# and the row blocks of analyze_fold's Gram products shorter.
EXACT_MAX_N = 1 << 24

_MATRIX_CHUNK = 256

# Bytes of the widest float32 temporary of one decode block, its signs or its
# correlations: under glibc's 128 KiB mmap threshold, so that a block's
# buffers come from the heap and are reused, where a whole chunk's would be
# mapped afresh for every chunk, each page zero-filled by a fault.
DECODE_BLOCK_BYTES = 1 << 17

_ZERO, _LF = ord("0"), ord("\n")


@dataclass(frozen=True, eq=False)
class CodeMatrix:
    """A class-by-classifier bit matrix with its distance parameters.

    d is the minimum Hamming distance over all row pairs and m = floor(d / 2);
    both are computed from the matrix, which is stored as a read-only uint8
    copy.  Any pattern of fewer than d/2 bit errors (so any of fewer than m)
    decodes to the original row.  r = m / n is the correction ratio.
    """

    matrix: BitMatrix
    d: int = field(init=False)

    def __post_init__(self):
        matrix = _as_bits(self.matrix)
        self._freeze(matrix, _gram_min_distance(matrix))

    @classmethod
    def _with_distance(cls, matrix: np.ndarray, d: int) -> CodeMatrix:
        """A code over a 0/1 uint8 matrix whose minimum row distance the
        caller has proved to be d.  Only build_code_matrix calls this; every
        other code derives d from its matrix."""
        code = object.__new__(cls)
        code._freeze(np.ascontiguousarray(matrix), d)
        return code

    def _freeze(self, matrix: np.ndarray, d: int) -> None:
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "d", d)

    @property
    def m(self) -> int:
        return self.d // 2

    @property
    def num_classes(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        """Codeword length = number of binary classifiers."""
        return self.matrix.shape[1]

    @property
    def r(self) -> float:
        return self.m / self.n

    @property
    def far_flips(self) -> int:
        """ceil(d / 2), the fewest flipped bits that can decode wrongly: a
        word with t flips is t from its own row and at least d - t from any
        other, so it can reach another row only when t >= d / 2."""
        return (self.d + 1) // 2

    @cached_property
    def _row_signs(self) -> np.ndarray:
        """The rows as float32 +-1 (_signs), built on first use and kept
        read-only: every decode correlates its words with them."""
        signs = _signs(self.matrix)
        signs.setflags(write=False)
        return signs


def _check_width(n: int) -> None:
    """The one width rule: rows are counted and compared in float32, exact
    below EXACT_MAX_N = 2**24, so wider rows are rejected before anything
    row-sized is allocated or drawn."""
    if n >= EXACT_MAX_N:
        raise ValueError(f"width {n} is not below 2**24: float32 counts are inexact")


def _as_bits(matrix) -> np.ndarray:
    """A uint8 copy of a 2-D 0/1 matrix whose rows pass _check_width."""
    a = np.asarray(matrix)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    _check_width(a.shape[1])
    if not _all_bits(a):
        raise ValueError("matrix entries must be 0 or 1")
    return a.astype(np.uint8)


def _all_bits(a: np.ndarray) -> bool:
    """Whether every entry of a is 0 or 1.  A bool entry always is (numpy's
    bool is 0 or 1), so a bool array is not scanned; an unsigned entry
    cannot be negative, so for it one max reduction will do."""
    if a.dtype == bool:
        return True
    if a.dtype.kind == "u":
        return int(a.max(initial=0)) <= 1
    return bool(((a == 0) | (a == 1)).all())


def sylvester_hadamard(k: int) -> BitMatrix:
    """{0,1} Hadamard matrix of dimension 2^k by repeated doubling.

    Entry (i, j) is 0 where the +-1 Hadamard entry is +1; equivalently the
    parity of popcount(i AND j).  Any two distinct rows differ in exactly
    2^(k-1) positions.

    The doubling runs in place, in one (2^k, 2^k) array: the filled s x s
    corner H becomes the 2s x 2s corner [[H, H], [H, 1 - H]] by three
    stores, so no level allocates.
    """
    _shared._check_order(k)
    h = np.empty((1 << k, 1 << k), dtype=np.uint8)
    h[0, 0] = 0
    for level in range(k):
        s = 1 << level
        corner = h[:s, :s]
        h[:s, s : 2 * s] = corner
        h[s : 2 * s, :s] = corner
        np.subtract(1, corner, out=h[s : 2 * s, s : 2 * s])
    return h


def _gram_min_distance(bits: np.ndarray) -> int:
    """Minimum Hamming distance over all unordered row pairs of a matrix
    _as_bits has already checked."""
    rows, n = bits.shape
    if rows < 2:
        raise ValueError("need at least 2 rows")
    signs = _signs(bits)
    # The largest off-diagonal entry of the +-1 Gram matrix is n - 2d.  It is
    # symmetric, so each block of rows is correlated only with itself and the
    # rows after it; blocks bound the memory.
    best = -np.inf
    for start in range(0, rows, _MATRIX_CHUNK):
        gram = signs[start : start + _MATRIX_CHUNK] @ signs[start:].T
        block = np.arange(gram.shape[0])
        gram[block, block] = -np.inf
        best = max(best, float(gram.max()))
    return int(n - best) // 2


def build_code_matrix(
    num_classes: int, orientation: str = DEFAULT_ORIENTATION
) -> CodeMatrix:
    """Square code matrix for num_classes classes.

    Takes the smallest Hadamard dimension 2^k >= num_classes and deletes
    2^k - num_classes rows and columns: from the top-left corner under
    keep-bottom-right (the default), from the bottom-right corner under
    keep-top-left.

    num_classes is a Python or NumPy integer from 2 to 2^15, and anything
    else is a ValueError that names it.

    The minimum row distance d is read off the Sylvester structure, with no
    Gram product and no row of the matrix:

    - Entry (a, x) of the Sylvester matrix h is parity(popcount(a & x)),
      which is linear in a over GF(2).  So h[a] xor h[b] = h[a xor b], and
      the distance between kept rows a and b on the kept columns S is the
      weight of Walsh row a xor b on S.
    - The c = num_classes kept row indices are either [0, c) or its image
      under xor with 2^k - 1 (which maps i to 2^k - 1 - i).  Because
      c > 2^(k-1), [0, c) holds 0, 2^(k-1) and every u < 2^(k-1), so the
      pairs (0, v) and (2^(k-1), u) give every nonzero v < 2^k as a xor of
      two distinct kept indices; xor with a constant keeps pairwise xors.
    - Hence d = min over v in 1..2^k - 1 of h[v, S].sum().  Each such row
      has 2^(k-1) ones, and on a prefix [0, t) with 2 <= 2^j <= t <
      2^(j+1) at most g(t) = min(t - 2^(j-1), 2^j), which row 2^j +
      2^(j-1) has; so _shared.sylvester_distance reads d in closed form:
      c - 2^(k-1) for S = [0, c), 2^(k-1) - g(2^k - c) for S = [2^k - c,
      2^k), with g(0) = g(1) = 0.  CodeMatrix(code.matrix).d gives the
      same d by the generic Gram route.
    """
    d = _shared.sylvester_distance(num_classes, orientation)
    c = int(num_classes)
    h = sylvester_hadamard((c - 1).bit_length())
    kept = slice(-c, None) if orientation == KEEP_BOTTOM_RIGHT else slice(0, c)
    return CodeMatrix._with_distance(h[kept, kept], d)


def _signs(bits: np.ndarray) -> np.ndarray:
    """Bits as float32 +-1 (0 -> +1, 1 -> -1), so that the dot product of
    two sign vectors of length n is n - 2 * their Hamming distance.

    Every partial sum of such a product is an integer of magnitude at most
    n, so a float32 GEMM computes it exactly in any summation order while
    n < 2**24.  Callers keep n below that: a CodeMatrix built from a matrix
    goes through _as_bits, which applies _check_width, build_code_matrix
    makes n <= 2**15, and words must match the code's n.
    """
    signs = bits.astype(np.float32)
    signs *= -2.0
    signs += 1.0
    return signs


def _correlations(words: np.ndarray, code: CodeMatrix) -> np.ndarray:
    """The +-1 correlation n - 2 * Hamming distance of each of the checked
    (count, n) 0/1 words with each code row: a (count, num_classes) float32
    BLAS product, exact for n < 2**24."""
    return _signs(words) @ code._row_signs.T


def _misdecoded(words: np.ndarray, truth: np.ndarray, code: CodeMatrix) -> int:
    """How many checked (count, n) 0/1 words decode, nearest row with ties to
    the lowest index, to other than their truth: every caller's one decode."""
    return int((_correlations(words, code).argmax(axis=1) != truth).sum())


def _decode_rows(code: CodeMatrix) -> int:
    """Rows per decode block: as many as keep a block's (rows, n) signs and
    (rows, num_classes) correlations within DECODE_BLOCK_BYTES, and at
    least one.  258 rows at 127 classes, 1,260 at 26."""
    return max(1, DECODE_BLOCK_BYTES // (4 * max(code.n, code.num_classes)))


def _misdecoded_flips(flips: np.ndarray, truth: np.ndarray, code: CodeMatrix) -> int:
    """_misdecoded of the words code.matrix[truth] ^ flips, each block of
    _decode_rows(code) rows built and decoded in turn, so that no temporary
    grows with the number of rows; the count is that of one call."""
    rows, errors = _decode_rows(code), 0
    for start in range(0, len(truth), rows):
        block = slice(start, start + rows)
        errors += _misdecoded(code.matrix[truth[block]] ^ flips[block], truth[block], code)
    return errors


def nearest_rows(words, code: CodeMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Nearest code row to each word of a (count, n) bit array.

    Returns (idx, dist): the row index and its Hamming distance per word.
    Ties resolve to the lowest row index.  Entries other than 0 and 1 are
    rejected with ValueError.
    """
    w = np.asarray(words)
    if w.ndim != 2 or w.shape[1] != code.n:
        raise ValueError(f"words of shape {w.shape} do not match code n={code.n}")
    if not _all_bits(w):
        raise ValueError("word entries must be 0 or 1")
    corr = _correlations(w, code)
    idx = corr.argmax(axis=1)
    best = np.take_along_axis(corr, idx[:, None], axis=1)[:, 0]
    return idx, (code.n - best.astype(np.int64)) // 2


def to_text(code: CodeMatrix) -> str:
    """Serialize as a header line "n d m" followed by one row of 0/1
    characters per class."""
    rows = np.empty((code.num_classes, code.n + 1), np.uint8)
    np.add(code.matrix, _ZERO, out=rows[:, :-1])
    rows[:, -1] = _LF
    return f"{code.n} {code.d} {code.m}\n" + rows.tobytes().decode("ascii")


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
    code = CodeMatrix(np.frombuffer(raw, np.uint8).reshape(len(rows), n) - _ZERO)
    if (code.d, code.m) != (d, m):
        raise ValueError(
            f"header claims d={d} m={m} but matrix has d={code.d} m={code.m}"
        )
    return code
