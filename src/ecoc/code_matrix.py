"""Code matrices for output-coded multiclass classification.

Matrices are built by truncating a {0,1} Sylvester-type Hadamard matrix of
dimension 2^k down to a square num_classes x num_classes block.  Each row is
a class codeword; each column defines one binary classifier.  Decoding picks
the row nearest in Hamming distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

BitMatrix = np.ndarray
"""2-D uint8 array with entries in {0, 1}, rows stored contiguously."""

KEEP_BOTTOM_RIGHT = "keep-bottom-right"
KEEP_TOP_LEFT = "keep-top-left"

# Deleting initial rows/columns (keeping the bottom-right block) is the
# orientation whose (m, r) pairs match the reference 10- and 26-class codes;
# the fixture test in tests/test_code_matrix.py gates this choice.
DEFAULT_ORIENTATION = KEEP_BOTTOM_RIGHT

# Largest Sylvester order: order 15 is 1 GiB of uint8, order 16 would be 4 GiB.
SYLVESTER_MAX_K = 15

# float32 counts are exact below this: rows are kept narrower (_check_width)
# and the row blocks of analyze_fold's Gram products shorter.
EXACT_MAX_N = 1 << 24

_MATRIX_CHUNK = 256

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


def _row_counts(bits: np.ndarray) -> np.ndarray:
    """True entries per row of a 2-D bool array, as float32: one float32
    matrix-vector product with a ones vector, 1.6x (127 columns) to 3x (26
    columns) as fast as summing the bytes.  Every partial sum is an integer
    no larger than the row length, which the callers keep below EXACT_MAX_N
    = 2**24 (_check_width), so each count is exact."""
    return bits.view(np.uint8) @ np.ones(bits.shape[1], dtype=np.float32)


def sylvester_hadamard(k: int) -> BitMatrix:
    """{0,1} Hadamard matrix of dimension 2^k by repeated doubling.

    Entry (i, j) is 0 where the +-1 Hadamard entry is +1; equivalently the
    parity of popcount(i AND j).  Any two distinct rows differ in exactly
    2^(k-1) positions.

    The doubling runs in place, in one (2^k, 2^k) array: the filled s x s
    corner H becomes the 2s x 2s corner [[H, H], [H, 1 - H]] by three
    stores, so no level allocates.
    """
    if k < 0:
        raise ValueError(f"k={k} must be non-negative")
    if k > SYLVESTER_MAX_K:
        raise ValueError(f"k={k} exceeds practical cap {SYLVESTER_MAX_K}")
    h = np.empty((1 << k, 1 << k), dtype=np.uint8)
    h[0, 0] = 0
    for level in range(k):
        s = 1 << level
        corner = h[:s, :s]
        h[:s, s : 2 * s] = corner
        h[s : 2 * s, :s] = corner
        np.subtract(1, corner, out=h[s : 2 * s, s : 2 * s])
    return h


def min_row_distance(matrix: BitMatrix) -> int:
    """Minimum Hamming distance over all unordered row pairs."""
    return _gram_min_distance(_as_bits(matrix))


def _gram_min_distance(bits: np.ndarray) -> int:
    """min_row_distance of a matrix _as_bits has already checked."""
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

    The minimum row distance d is read off the Sylvester structure, with no
    Gram product:

    - Entry (a, j) of the Sylvester matrix h is parity(popcount(a & j)),
      which is linear in a over GF(2).  So h[a] xor h[b] = h[a xor b], and
      the distance between kept rows a and b on the kept columns S is the
      weight of Walsh row a xor b on S.
    - The c = num_classes kept row indices are either [0, c) or its image
      under xor with 2^k - 1 (which maps i to 2^k - 1 - i).  Because
      c > 2^(k-1), [0, c) holds 0, 2^(k-1) and every u < 2^(k-1), so the
      pairs (0, v) and (2^(k-1), u) give every nonzero v < 2^k as a xor of
      two distinct kept indices; xor with a constant keeps pairwise xors.
    - Hence d = min over v in 1..2^k - 1 of h[v, S].sum(): one integer
      row sum of h.  min_row_distance(code.matrix) gives the same d by the
      generic Gram route.
    """
    if num_classes < 2:
        raise ValueError(f"num_classes={num_classes} must be at least 2")
    h = sylvester_hadamard((num_classes - 1).bit_length())
    if orientation == KEEP_BOTTOM_RIGHT:
        kept = slice(-num_classes, None)
    elif orientation == KEEP_TOP_LEFT:
        kept = slice(0, num_classes)
    else:
        raise ValueError(f"unknown orientation {orientation!r}")
    d = int(h[1:, kept].sum(axis=1).min())
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


def _correlations(words, code: CodeMatrix) -> np.ndarray:
    """The +-1 correlation n - 2 * Hamming distance of each word of a
    (count, n) bit array with each code row, a (count, num_classes) float32
    array from one BLAS matrix product, exact for n < 2**24."""
    w = np.asarray(words)
    if w.ndim != 2 or w.shape[1] != code.n:
        raise ValueError(f"words of shape {w.shape} do not match code n={code.n}")
    if not _all_bits(w):
        raise ValueError("word entries must be 0 or 1")
    return _signs(w) @ _signs(code.matrix).T


def nearest_rows(words, code: CodeMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Nearest code row to each word of a (count, n) bit array.

    Returns (idx, dist): the row index and its Hamming distance per word.
    Ties resolve to the lowest row index.  Entries other than 0 and 1 are
    rejected with ValueError.
    """
    corr = _correlations(words, code)
    idx = corr.argmax(axis=1)
    best = np.take_along_axis(corr, idx[:, None], axis=1)[:, 0]
    return idx, (code.n - best.astype(np.int64)) // 2


def count_misdecoded(errors, true_classes, code: CodeMatrix) -> int:
    """Number of words that nearest_rows decodes to a class other than their
    true one, where word i is the codeword of true_classes[i] with the bits
    set in row i of the (count, n) flip pattern errors (bool or 0/1) flipped.

    Only the words with at least code.far_flips flips can decode wrongly,
    so only those are decoded; with duplicate rows (d = 0) that is all.
    """
    e = np.asarray(errors)
    classes = np.asarray(true_classes)
    if e.ndim != 2 or e.shape[1] != code.n:
        raise ValueError(f"errors of shape {e.shape} do not match code n={code.n}")
    if classes.shape != e.shape[:1] or not np.issubdtype(classes.dtype, np.integer):
        raise ValueError(f"true_classes must be {e.shape[0]} integers")
    if classes.size and not (0 <= classes.min() and classes.max() < code.num_classes):
        raise ValueError(f"true classes outside 0..{code.num_classes - 1}")
    if e.dtype != bool:
        if not _all_bits(e):
            raise ValueError("errors entries must be 0 or 1")
        e = e.astype(bool)
    far = np.flatnonzero(_row_counts(e) >= code.far_flips)
    truth = classes[far]
    decoded, _ = nearest_rows(code.matrix[truth] ^ e[far], code)
    return int((decoded != truth).sum())


def decode(word, code: CodeMatrix, report_ties: bool = False):
    """Index of the codeword nearest to a 1-D bit word in Hamming distance.

    Ties always resolve to the lowest row index; with report_ties=True the
    result is (index, tie_flag) instead of a bare index.
    """
    corr = _correlations(np.asarray(word)[None], code)[0]
    idx = int(corr.argmax())
    if report_ties:
        return idx, int((corr == corr[idx]).sum()) > 1
    return idx


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
