"""Exact error-count distributions for ensembles of binary classifiers.

Three dependence structures are supported: fully independent classifiers
(Poisson binomial), independent classifiers except for one correlated pair
(specified by the pair's joint error probability f), and fully exchangeable
classifiers with a uniform second-order correlation coefficient c.

Every model, a subclass of DependenceModel, defines n, _count_law() (the
error-count distribution: a row of independent classifiers, then for
the pair or the exchangeable model the one three-term kernel _three_terms
on the row of n - 2; the independent and pair rows come from the
profile's one route choice, _row: _binomial_row's repeated squares when
the row's classifiers share one rate, which the profile reads from the
leading run of one rate it records when it is built, else
poisson_binomial_dist, the product tree only), one
position hook _positions(rng, ks) (bool error vectors, one per count in ks,
drawn from the model's law given that count) and joint_mass(bits) (the
joint law of whole outcomes, from the model's definition and not from
count_pmf, which the brute-force oracles over all 2^n outcomes sum for
cross-checking: enumerate_outcomes, the count distribution, and
exact_decode_error, a code's full-decode error, both over the one walk
_outcome_blocks, for n <= ENUMERATION_MAX_N).  The other methods are
defined once, on DependenceModel, for all three: count_pmf(), _count_law
for an n of at most MAX_EXACT_N (the one cap of the exact rows, checked
before a row is built), pmf(k), the entry of count_pmf at k, tail(m),
the sum of count_pmf from m, and three samplers,
each after _check_draw (the width check of code_matrix, _check_width, a
count that is an integer in 0..MAX_COUNT and a k_min in 0..n + 1):
sample_far(rng, count, k_min), the error vectors, as uint8, of the trials
among count with at least k_min errors (the far rows, drawn by
_far_rows), sample(rng, count), sample_far at k_min = 0, and count_far(rng, count,
k_min), the number of far rows, with no row drawn.  pmf, tail and the
samplers check k, m and k_min with _check_count, the one check that a
count is an integer in a range.  Every count probability, binomial or
not, is read from one count_pmf: the model's count row (_count_row),
built by count_pmf on first use and kept read-only, so that a model
builds its law once however many blocks or queries read it.  Likewise a
model keeps its far rows' count CDF per k_min, and a profile, per width,
the tables its samplers read on every draw (each kept by _kept): the
pair's padded q row and the conditional-Bernoulli step table.

Every model draws count-first, from count_pmf, and draws only what its
caller reads:

- count_far at k_min > 0 is one binomial draw of count trials and
  P = P(K >= k_min), the ratio of the correctly rounded sums of count_pmf
  from k_min and in all (_far_count): a count of trials each at least
  k_min with probability P.  At k_min = 0 it is count, with nothing drawn.
- sample_far draws that same binomial first, from the same P, so that
  count_far(rng, c, k) == len(sample_far(rng, c, k)) from one generator
  state; then the far rows (_far_rows): their counts from count_pmf
  truncated at k_min, then their positions given the counts
  (_positions): a binomial number of independent rows conditioned on
  K >= k_min, the law of the far rows of count trials.  At k_min = 0,
  sample, every row is far and no binomial is drawn.  A caller that
  draws the far rows in blocks (the simulator's full decode) calls
  _far_rows once per block: each block's rows are independent of the
  others', so the law is the same.
- The counts are one uniform per far row, searched in the CDF of
  count_pmf truncated at k_min, built as Generator.choice(p=...) builds
  it, so that they are choice's counts, to the bit.

Given K, the positions of independent classifiers come from the profile's
position route, _subsets, chosen like _row by whether the classifiers
share one rate:

- for classifiers of one rate, and for an exchangeable model, every
  outcome of K errors is equally likely, so the positions are a uniform
  K-subset (_uniform_subsets): those of the K smallest of n 16-bit keys
  drawn for the row, the 16-bit lanes of full-range 64-bit words that
  rng.integers draws with no bound (_position_keys).  A row whose
  K-th and (K+1)-th smallest keys tie gets fresh keys until they do not;
  no tie at the cut is an event that permuting the row's positions leaves
  unchanged, so the subset given it is exactly uniform, on every bit
  generator;
- for unequal rates, classifier i errs given j errors left among i..w-1
  with probability e_i R_{i+1}(j - 1) / R_i(j), R_i the count pmf of
  classifiers i..w-1: sequential conditional-Bernoulli sampling (Chen,
  Dempster and Liu, 1994; _conditional_subsets), one rng.random uniform
  per classifier and far row.  The rows R_i are kept as logarithms, so no
  reachable state's probability underflows to zero and every row holds
  exactly its K errors;
- the pair's state s among (11, 10, 01, 00) has weight P(s) q(K - |s|), q
  the count pmf of the other n - 2.  One rng.random uniform per far row
  picks it, and a (K - |s|)-subset of the other n - 2 follows.

No sampler holds a (count, n) array unless every row is far.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._shared import _check_integer, _check_number, _checked_rates, valid_correlation_range
from .code_matrix import CodeMatrix, _check_width, _correlations
from .errors import ModelError

# Slack past the ends of the pair's f (absolute) and the exchangeable c
# (relative) range: what rounding there leaves below zero is clamped to 0.
WEIGHT_SLACK = 1e-12

# Hard cap on the brute-force oracles: 2^20 outcomes.
ENUMERATION_MAX_N = 20

# Outcomes per block of the oracles' walk: 10 MB of index shifts at n = 20.
_OUTCOME_BLOCK_ROWS = 1 << 16

# Rows drawn per block by the position samplers: about 0.5 MB of uniforms
# at n = 127, and a quarter of that as 16-bit keys, whose block and sorted
# copy then stay under glibc's 128 KiB mmap threshold and reuse heap pages
# from block to block.  A multiple of 4, so that every whole block's keys
# end at a 64-bit word: the streams do not depend on it.
BLOCK_ROWS = 512

# Largest n of an exact count row (count_pmf, so pmf, tail and the
# samplers): the rows are O(n^2) (_binomial_row's squares, the product
# tree's top level).  At 2^16 a one-rate row took 0.31-0.45 s (iid e = 0.1,
# exchangeable e = 0.5 at c = 0 and c > 0) and the tree 0.59 s on one core,
# where 100,000 took 0.8-2.0 s; 2^16 leaves is also the tree's last power of
# two below 2^17.
MAX_EXACT_N = 1 << 16

MAX_COUNT = (1 << 63) - 1  # most trials one draw takes (rng.binomial's n is an int64)


@dataclass(frozen=True)
class ErrorProfile:
    """Per-classifier bit error rates e_1..e_n, checked and the length of
    their leading run of one rate recorded by __post_init__; iid(n, e)
    checks e once, as the profile of one classifier, and widens its rates
    to n copies."""

    rates: tuple[float, ...]
    # How many leading rates equal rates[0]; set once by __post_init__.
    _run: int = field(init=False, repr=False, compare=False)
    # Tables of the first w classifiers, by (kind, w), kept by _kept.
    _tables: dict = field(init=False, default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        rates = _checked_rates(self.rates)
        run = rates.count(rates[0])
        if run < len(rates):
            run = next(i for i, e in enumerate(rates) if e != rates[0])
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "_run", run)

    @classmethod
    def iid(cls, n: int, e: float) -> "ErrorProfile":
        _check_integer("n", n)
        if n < 1:
            raise ValueError(f"n={n} must be at least 1")
        profile = cls((e,))
        object.__setattr__(profile, "rates", profile.rates * n)
        object.__setattr__(profile, "_run", n)
        return profile

    @property
    def n(self) -> int:
        return len(self.rates)

    def _row(self, w: int) -> np.ndarray:
        """The count pmf of the first w classifiers: the binomial row when
        they share one rate, else the tree."""
        if w > self._run:
            return poisson_binomial_dist(self.rates[:w])
        return _binomial_row(w, self.rates[0])

    def _subsets(self, rng, ks, w: int, out=None) -> np.ndarray:
        """Error positions among the first w classifiers, ks[i] of them in
        row i, drawn given the counts: a uniform subset when they share one
        rate, else conditional Bernoulli on the rates (into out when given)."""
        if w > self._run:
            steps = _kept(self._tables, ("steps", w), lambda: _step_table(self.rates[:w]))
            return _conditional_subsets(rng, ks, steps, out)
        return _uniform_subsets(rng, ks, w, out)

    def _padded(self, w: int) -> np.ndarray:
        """The count pmf of the first w classifiers padded by _padded_row:
        the pair's q row, which its count_pmf and every draw read."""
        return _kept(self._tables, ("padded", w), lambda: _padded_row(self._row(w)))


def _kept(tables: dict, key, build) -> np.ndarray:
    """tables[key], built by build() on first use and kept read-only: its
    inputs fix it, so every block of every command reads one copy.  Two
    threads may both build it; the copies are equal, and either is kept."""
    table = tables.get(key)
    if table is None:
        table = tables[key] = build()
        table.setflags(write=False)
    return table


class DependenceModel:
    """The model protocol, shared by the three models: the count pmf, the
    pmf, the tail and the samplers, all derived from a subclass's own n,
    _count_law and _positions (joint_mass, the fourth hook, serves the
    enumeration oracles)."""

    def count_pmf(self) -> np.ndarray:
        """The error-count distribution, k = 0..n: the model's _count_law,
        for an n of at most MAX_EXACT_N, checked before the row is built."""
        if self.n > MAX_EXACT_N:
            raise ValueError(f"n={self.n} exceeds the exact count-row cap {MAX_EXACT_N}")
        return self._count_law()

    @cached_property
    def _count_row(self) -> np.ndarray:
        """count_pmf(), built on first use and kept read-only: the one row
        that pmf, tail and the samplers read."""
        row = self.count_pmf()
        row.setflags(write=False)
        return row

    @cached_property
    def _cdfs(self) -> dict:
        """The far rows' count CDFs, by k_min, kept by _kept (_far_rows)."""
        return {}

    def pmf(self, k: int) -> float:
        """Probability of exactly k errors: count_pmf()[k]."""
        _check_count("k", k, self.n)
        return float(self._count_row[k])

    def tail(self, m: int) -> float:
        """Probability of at least m errors: the correctly rounded sum
        (math.fsum) of count_pmf()[m:].  m = 0 gives exactly 1.0 without
        building the pmf."""
        _check_count("m", m, self.n)
        if m == 0:
            return 1.0
        return math.fsum(self._count_row[m:].tolist())

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """All count error vectors, a (count, n) uint8 array."""
        return self.sample_far(rng, count, 0)

    def sample_far(self, rng: np.random.Generator, count: int, k_min: int) -> np.ndarray:
        """The error vectors, as a uint8 array, of the trials among count
        with at least k_min errors (an integer in 0..n + 1): the number of
        far rows first (the draw of count_far; at k_min = 0 every row, with
        no draw), then the rows themselves (_far_rows)."""
        self._check_draw(count, k_min)
        far = _far_count(rng, self._count_row, count, k_min)
        if not far:
            return np.empty((0, self.n), dtype=np.uint8)
        return self._far_rows(rng, far, k_min).view(np.uint8)

    def count_far(self, rng: np.random.Generator, count: int, k_min: int) -> int:
        """The number of trials among count with at least k_min errors (an
        integer in 0..n + 1), with no row drawn: the binomial draw that
        sample_far makes first (_far_count), so that from one generator
        state it equals len(sample_far(rng, count, k_min))."""
        self._check_draw(count, k_min)
        return int(_far_count(rng, self._count_row, count, k_min))

    def _far_rows(self, rng, rows: int, k_min: int) -> np.ndarray:
        """rows > 0 bool error vectors of at least k_min errors each, k_min
        one of positive tail mass: their counts first, one uniform each,
        from count_pmf truncated at k_min, then their positions given the
        counts (_positions).  The CDF is kept per k_min and built as
        Generator.choice(p=tail / tail.sum()) builds its own, so that
        searchsorted on it draws choice's counts, to the bit."""
        def build():
            tail = self._count_row[k_min:]
            cdf = (tail / tail.sum()).cumsum()
            cdf /= cdf[-1]
            return cdf

        cdf = _kept(self._cdfs, k_min, build)
        return self._positions(rng, k_min + cdf.searchsorted(rng.random(rows), side="right"))

    def _check_draw(self, count, k_min) -> None:
        """The checks made before any word is drawn: the width rule of
        code_matrix (_check_width), count, an integer in 0..MAX_COUNT, and
        k_min, an integer in 0..n + 1."""
        _check_width(self.n)
        _check_integer("count", count)
        if count < 0:
            raise ValueError(f"count={count} must be at least 0")
        if count > MAX_COUNT:
            raise ValueError(f"count={count} outside 0..{MAX_COUNT}")
        _check_count("k_min", k_min, self.n + 1)


@dataclass(frozen=True)
class Independent(DependenceModel):
    """All classifiers err independently."""

    profile: ErrorProfile

    @property
    def n(self) -> int:
        return self.profile.n

    def _count_law(self) -> np.ndarray:
        return self.profile._row(self.n)

    def _positions(self, rng, ks):
        return self.profile._subsets(rng, ks, self.n)

    def joint_mass(self, bits: np.ndarray) -> np.ndarray:
        rates = np.asarray(self.profile.rates)
        return np.where(bits, rates, 1.0 - rates).prod(axis=1)


def _padded_row(row: np.ndarray) -> np.ndarray:
    """q[j + 2] = q(j) for j = -2..w + 2, q a count pmf of w classifiers
    (row, of w + 1 entries), zero at j < 0 and j > w."""
    q = np.zeros(row.size + 4)
    q[2:-2] = row
    return q


def _three_terms(p11: float, p1: float, p00: float, q_pad: np.ndarray) -> np.ndarray:
    """p(k) = p11 q(k-2) + p1 q(k-1) + p00 q(k), k = 0..n, q the count pmf
    of n - 2 classifiers padded by _padded_row: the count law of a pair of
    joint cells (p11, p1 for one error, p00) beside them.  Both correlated
    models build their count_pmf with it."""
    return p11 * q_pad[:-2] + p1 * q_pad[1:-1] + p00 * q_pad[2:]


@dataclass(frozen=True)
class PairModel(DependenceModel):
    """Independent classifiers except the last two, whose probability of
    erring together on the same sample equals f."""

    profile: ErrorProfile
    f: float

    def __post_init__(self):
        _check_number("f", self.f)
        if self.profile.n < 2:
            raise ModelError("pair model needs at least two classifiers")
        e1, e2 = self.profile.rates[-2], self.profile.rates[-1]
        lo, hi = pair_f_range(e1, e2)
        if not (lo - WEIGHT_SLACK <= self.f <= hi + WEIGHT_SLACK):
            raise ModelError(
                f"f={self.f} outside [{lo}, {hi}] for rates ({e1}, {e2}); "
                "some joint cell probability would be negative"
            )

    @property
    def n(self) -> int:
        return self.profile.n

    @property
    def joint_cells(self) -> tuple[float, float, float, float]:
        """(P11, P10, P01, P00) for the correlated pair.  f is clamped to
        pair_f_range, so only P00 can fall below zero, by the rounding of
        e1 + e2 - 1 at its lower end (e1 = 2**-53, e2 = 1): it is clamped to
        zero, as the exchangeable count probabilities are."""
        e1, e2 = self.profile.rates[-2], self.profile.rates[-1]
        lo, hi = pair_f_range(e1, e2)
        f = min(max(self.f, lo), hi)
        return (f, e1 - f, e2 - f, max(1.0 - e1 - e2 + f, 0.0))

    def _count_law(self) -> np.ndarray:
        """The three terms on the count pmf q of the first n - 2 classifiers,
        with the cells (P11, P10 + P01, P00).  Summed from m at one rate e,
        it is the paper's identity eps(n, m, e, f) =
        f * eps(n-2, m-2, e) + 2(e - f) * eps(n-2, m-1, e) +
        (1 - 2e + f) * eps(n-2, m, e), which the tests evaluate in exact
        integers as an oracle.
        """
        p11, p10, p01, p00 = self.joint_cells
        return _three_terms(p11, p10 + p01, p00, self.profile._padded(self.n - 2))

    def _positions(self, rng, ks):
        # One uniform per row picks the pair's state s among (11, 10, 01,
        # 00), with weights P(s) q(K - |s|), q the count pmf of the other
        # n - 2, read at each row's own K alone: their sum is count_pmf at
        # K, to the bit, and a K that was drawn has mass, so no weight is
        # divided by zero.  Then a (K - |s|)-subset of the others.
        p11, p10, p01, p00 = self.joint_cells
        q = self.profile._padded(self.n - 2)
        q2, q1, q0 = q[ks], q[ks + 1], q[ks + 2]
        both = p11 * q2
        either = both + (p10 + p01) * q1
        total = either + p00 * q0
        u = rng.random(ks.size)
        first = u < (both + p10 * q1) / total
        second = (u < both / total) | (~first & (u < either / total))
        bits = np.empty((ks.size, self.n), dtype=bool)
        bits[:, -2], bits[:, -1] = first, second
        self.profile._subsets(rng, ks - first - second, self.n - 2, bits[:, :-2])
        return bits

    def joint_mass(self, bits: np.ndarray) -> np.ndarray:
        rates = np.asarray(self.profile.rates[:-2])
        probs = np.where(bits[:, :-2], rates, 1.0 - rates).prod(axis=1)
        # joint_cells is ordered (11, 10, 01, 00): index 3 - 2 b1 - b2.
        cell = np.asarray(self.joint_cells)[3 - 2 * bits[:, -2] - bits[:, -1]]
        return probs * cell


@dataclass(frozen=True)
class ExchangeableModel(DependenceModel):
    """Identically distributed classifiers with uniform pairwise correlation c
    of the standardized error indicators; higher-order correlations vanish
    (Bahadur's second-order law).  Summed over the outcomes of K = k errors,
    it is the one-rate pair's law at f = e^2 + g, g = C(n, 2) c e(1-e), a
    cell of which may be negative: P(K = k) = (e^2 + g) q(k-2) +
    2 (e(1-e) - g) q(k-1) + ((1-e)^2 + g) q(k), q the binomial row of
    n - 2.  c is admitted within valid_correlation_range, each end widened
    by WEIGHT_SLACK relative."""

    n: int
    e_bar: float
    c: float

    def __post_init__(self):
        _check_integer("n", self.n)
        _check_number("e_bar", self.e_bar)
        _check_number("c", self.c)
        if self.n < 2:
            raise ModelError("exchangeable model needs n >= 2")
        if not (0.0 < self.e_bar < 1.0):
            raise ModelError(f"e_bar={self.e_bar} must lie strictly inside (0, 1)")
        if not math.isfinite(self.c):
            raise ModelError(f"c={self.c} must be finite")
        # At an end c0 = -1/S_k, where the factor 1 + c S_k of an outcome of
        # k errors vanishes, c0 (1 + WEIGHT_SLACK) makes it -WEIGHT_SLACK.
        lo, hi = valid_correlation_range(self.n, self.e_bar)
        if not (lo * (1.0 + WEIGHT_SLACK) <= self.c <= hi * (1.0 + WEIGHT_SLACK)):
            raise ModelError(
                f"c={self.c} outside the valid correlation range [{lo}, {hi}] "
                f"at n={self.n}, e_bar={self.e_bar}"
            )

    def _count_law(self) -> np.ndarray:
        """The three terms on _binomial_row(n - 2), clipped at zero, which
        rounding at an end of the range can leave an entry a few ulps
        below; at c = 0 _binomial_row(n) itself."""
        n, e, c = self.n, self.e_bar, self.c
        if not c:
            return _binomial_row(n, e)
        v = e * (1.0 - e)
        g = 0.5 * n * (n - 1) * c * v
        q_pad = _padded_row(_binomial_row(n - 2, e))
        pmf = _three_terms(e * e + g, 2.0 * (v - g), (1.0 - e) ** 2 + g, q_pad)
        return np.maximum(pmf, 0.0, out=pmf)

    def _positions(self, rng, ks):
        return _uniform_subsets(rng, ks, self.n)

    def joint_mass(self, bits: np.ndarray) -> np.ndarray:
        """Bahadur's law e^k (1-e)^(n-k) (1 + c sum_{i<j} z_i z_j), z_i =
        (x_i - e) / sqrt(e(1-e)), each pair's term taken into the product:
        c e^(k-1) (1-e)^(n-k+1) for a pair that both err, -c e^k (1-e)^(n-k)
        for one with one error, c e^(k+1) (1-e)^(n-k-1) for one with none.
        Not the kernel count_pmf reads, so the enumeration oracle checks it;
        no 1/e is formed, so nothing overflows at subnormal e."""
        k = bits.sum(axis=1)
        j = self.n - k
        # p[a] q[b] = e^a (1-e)^b; a pair count of 0 multiplies p[-1], q[-1].
        p, q = self.e_bar ** np.arange(self.n + 2), (1.0 - self.e_bar) ** np.arange(self.n + 2)
        pairs = (k * (k - 1) // 2 * p[k - 1] * q[j + 1] - k * j * p[k] * q[j]
                 + j * (j - 1) // 2 * p[k + 1] * q[j - 1])
        return p[k] * q[j] + self.c * pairs


def pair_f_range(e1: float, e2: float) -> tuple[float, float]:
    """Admissible interval for the pair joint error probability f.

    The upper end keeps P10 and P01 non-negative, the lower end keeps P00
    non-negative.
    """
    return max(0.0, e1 + e2 - 1.0), min(e1, e2)


def _check_count(name: str, value: int, n: int) -> None:
    """The one check on a count k, m or k_min: an integer in 0..n."""
    _check_integer(name, value)
    if not 0 <= value <= n:
        raise ValueError(f"{name}={value} outside 0..{n}")


def _far_count(rng: np.random.Generator, pmf: np.ndarray, count: int, k_min: int):
    """The number of far rows among count trials: a Binomial(count, P)
    draw, P = P(K >= k_min) as the ratio of the correctly rounded sums of
    pmf from k_min and in all; count itself, with nothing drawn, at
    k_min = 0.  count_far and sample_far both draw it."""
    if not k_min:
        return count
    return rng.binomial(count, math.fsum(pmf[k_min:].tolist()) / math.fsum(pmf.tolist()))


def _uniform_subsets(rng: np.random.Generator, ks: np.ndarray, width: int, out=None) -> np.ndarray:
    """out, a (len(ks), width) bool array (new when None), with a uniform
    ks[i]-subset of the width positions set in row i: the positions of the
    ks[i] smallest of width 16-bit keys drawn for the row (_mark_smallest).
    The keys are drawn in blocks of BLOCK_ROWS rows, an even number, so in
    the order of one rng.integers call over every row; then the rows whose
    k-th and (k+1)-th smallest keys tie, about 0.1 % of them at width 127,
    get fresh keys, all in one call per pass, until no row ties.  No tie
    at the cut is an event that permuting a row's positions leaves
    unchanged, so each row's subset given it is exactly uniform.  No key is
    drawn at width 0."""
    if out is None:
        out = np.empty((ks.size, width), dtype=bool)
    if width:
        tied = [np.empty(0, dtype=np.intp)]
        for start in range(0, ks.size, BLOCK_ROWS):
            rows = slice(start, start + BLOCK_ROWS)
            keys = _position_keys(rng, len(ks[rows]), width)
            tied.append(start + _mark_smallest(keys, ks[rows], out[rows]))
        tied = np.concatenate(tied)
        while tied.size:
            marks = np.empty((tied.size, width), dtype=bool)
            again = _mark_smallest(_position_keys(rng, tied.size, width), ks[tied], marks)
            out[tied] = marks
            tied = tied[again]
    return out


def _position_keys(rng: np.random.Generator, rows: int, width: int) -> np.ndarray:
    """A (rows, width) block of uniform 16-bit keys: the little-endian 16-bit
    lanes of full-range 64-bit words, four keys to a word, in row order.
    rng.integers serves a full-range word by one next_uint64 and applies no
    bound, on every bit generator, so every lane is uniform; the last word's
    unused lanes are dropped."""
    size = rows * width
    words = rng.integers(0, 2**64 - 1, endpoint=True, size=-(-size // 4), dtype=np.uint64)
    return words.astype("<u8", copy=False).view("<u2")[:size].reshape(rows, width)


def _mark_smallest(keys: np.ndarray, ks: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Set out[i, j] to whether keys[i, j] is at most the ks[i]-th smallest
    key of row i (no mark where ks[i] = 0), and return the indices of the
    rows whose ks[i]-th and (ks[i] + 1)-th smallest keys tie: in those rows
    alone the cut marks more than ks[i] positions, and the marks are to be
    drawn again."""
    rows, n = keys.shape
    at = np.arange(rows)
    srt = np.sort(keys, axis=1)
    cut = srt[at, np.maximum(ks - 1, 0)]
    np.less_equal(keys, cut[:, None], out=out)
    out[ks == 0] = False
    return np.flatnonzero((ks > 0) & (ks < n) & (srt[at, np.minimum(ks, n - 1)] == cut))


def _step_table(rates) -> np.ndarray:
    """The (w, w + 1) table step[i, j] = e_i R_{i+1}(j - 1) / R_i(j) of
    independent classifiers of these rates, w = len(rates), R_i the count
    pmf of classifiers i..w-1: the probability that classifier i errs given
    j errors left among i..w-1 (_conditional_subsets).

    It is built in logarithms, each row of R from the next by np.logaddexp:
    in a linear row a reachable state's mass can underflow to zero at
    extreme rates, and a row is then drawn with fewer errors than its K.  A
    step that must be taken is exp(0) = 1 to the bit, one that cannot is
    exp(-inf) = 0, so every row drawn holds exactly its K."""
    w = len(rates)
    e = np.asarray(rates)
    log_e = np.log(e, out=np.full(w, -np.inf), where=e > 0)
    log_f = np.log1p(-e, out=np.full(w, -np.inf), where=e < 1)
    # log_r[i, j + 1] = ln R_i(j), for j = -1..w: R_w is 1 at j = 0.
    log_r = np.full((w + 1, w + 2), -np.inf)
    log_r[w, 1] = 0.0
    for i in range(w - 1, -1, -1):
        np.logaddexp(log_f[i] + log_r[i + 1, 1:], log_e[i] + log_r[i + 1, :-1], out=log_r[i, 1:])
    # Unreachable states (R_i(j) = 0) divide by 1 instead of 0.
    den = log_r[:-1, 1:]
    den = np.where(den > -np.inf, den, 0.0)
    return np.exp(log_e[:, None] + log_r[1:, :-1] - den)


def _conditional_subsets(rng: np.random.Generator, ks: np.ndarray, step, out=None) -> np.ndarray:
    """out, a (len(ks), w) bool array (new when None), w = len(step), with
    row i drawn from the law of independent classifiers given ks[i] errors,
    each ks[i] of positive mass: classifier i errs, given j errors left
    among i..w-1, with probability step[i, j], the table _step_table builds
    from their rates.  Each block of BLOCK_ROWS rows takes one
    rng.random((rows, w)) call."""
    w = len(step)
    if out is None:
        out = np.empty((ks.size, w), dtype=bool)
    if not w:
        return out
    for start in range(0, ks.size, BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        left = ks[rows].copy()
        u = rng.random((left.size, w)).T
        # One position of every row at a time, each in a contiguous row.
        bits = np.empty((w, left.size), dtype=bool)
        for i in range(w):
            np.less(u[i], step[i].take(left), out=bits[i])
            left -= bits[i]
        out[rows] = bits.T
    return out


# ---------------------------------------------------------------------------
# independent classifiers


def _binomial_row(n: int, e: float) -> np.ndarray:
    """The binomial row ((1 - e) + e x)^n, k = 0..n, of n classifiers of one
    rate e, by repeated squaring: the factor is squared once per bit of n,
    from the lowest, and the row is convolved with the power where the bit
    is set.  poisson_binomial_dist's tree multiplies these same powers in
    another order: the tails differ by about 6e-15 relative at n = 1000, and
    both stay within the tree's error of the exact rationals.  About
    2 log2(n) np.convolve calls, under half the tree's time at n = 1000."""
    row, power = np.ones(1), np.array([1.0 - e, e])
    while True:
        if n & 1:
            row = np.convolve(row, power)
        n >>= 1
        if not n:
            return row
        power = np.convolve(power, power)


def poisson_binomial_dist(rates: Sequence[float]) -> np.ndarray:
    """Full pmf of the error count, index k = 0..n, of independent
    classifiers with the given rates, a sequence (or 1-D array) already
    known to lie in [0, 1]; an empty one gives [1.0].  This is the tree
    only, whatever the rates' pattern: a model whose profile records one
    common rate builds its row with _binomial_row instead.

    The pmf is the coefficient row of prod_i ((1 - e_i) + e_i x), built by a
    balanced product tree: the factors, padded to a power-of-two count with
    the identity factor 1 (which is exact), are multiplied in adjacent
    pairs, level by level, each level as one batch of rows of one length L
    (2, 3, 5, 9, ...); entries past the true degree stay exact zeros.  While
    L is at most the number of pairs, a level is L slice multiply-adds over
    all its pairs; past that point it is one np.convolve per pair.  Either
    way a level costs min(L, pairs) numpy calls, about 70 in all at n = 1000
    against 4n for a per-classifier recursion; the top level is one O(n^2)
    convolution.  Every term added is a product of non-negative numbers, so
    no entry loses accuracy to cancellation: the tests hold each entry to
    1e-14 of the exact rational of the same double rates up to n = 127.
    """
    rates = np.asarray(rates, dtype=float)
    n = len(rates)
    polys = np.zeros((1 << (n - 1).bit_length(), 2))
    polys[:, 0] = 1.0
    polys[:n, 0] -= rates
    polys[:n, 1] = rates
    while len(polys) > 1:
        a, b = polys[0::2], polys[1::2]
        pairs, length = a.shape
        out = np.zeros((pairs, 2 * length - 1))
        if length <= pairs:
            for j in range(length):
                out[:, j : j + length] += a[:, j, None] * b
        else:
            for i in range(pairs):
                out[i] = np.convolve(a[i], b[i])
        polys = out
    return polys[0, : n + 1]


# ---------------------------------------------------------------------------
# brute-force oracles


def _outcome_blocks(model: DependenceModel):
    """The 2^n outcomes of model's classifiers, in index order, as (rows, n)
    bool blocks of at most _OUTCOME_BLOCK_ROWS rows, each with its
    joint_mass.  An n above ENUMERATION_MAX_N raises ValueError before any
    block is built."""
    n = model.n
    if n > ENUMERATION_MAX_N:
        raise ValueError(f"n={n} exceeds enumeration cap {ENUMERATION_MAX_N}")
    for start in range(0, 1 << n, _OUTCOME_BLOCK_ROWS):
        idx = np.arange(start, min(start + _OUTCOME_BLOCK_ROWS, 1 << n), dtype=np.int64)
        bits = ((idx[:, None] >> np.arange(n)) & 1).astype(bool)
        yield bits, model.joint_mass(bits)


def enumerate_outcomes(model: DependenceModel) -> dict[int, float]:
    """Exact error-count distribution by summing the joint law over all 2^n
    outcomes.  Test oracle only; capped at n = 20."""
    n = model.n
    totals = np.zeros(n + 1)
    for bits, mass in _outcome_blocks(model):
        totals += np.bincount(bits.sum(axis=1), weights=mass, minlength=n + 1)
    return {k: float(totals[k]) for k in range(n + 1)}


def exact_decode_error(model: DependenceModel, code: CodeMatrix) -> float:
    """Exact full-decode error of code under model, the true classes equally
    likely: the sum, over all 2^n flip patterns, of the pattern's joint_mass
    times the share of true classes t whose codeword, flipped by it,
    decodes (nearest row, ties to the lowest index) to other than t.  The
    terms are summed by math.fsum, so the value does not depend on the block
    size.  Test oracle only; capped at n = 20, as enumerate_outcomes is."""
    if code.n != model.n:
        raise ValueError(f"code n={code.n} does not match model n={model.n}")

    def terms():
        for bits, mass in _outcome_blocks(model):
            wrong = np.zeros(len(bits))
            for t, row in enumerate(code.matrix):
                wrong += _correlations(bits ^ row.astype(bool), code).argmax(axis=1) != t
            yield from (mass * (wrong / code.num_classes)).tolist()

    return math.fsum(terms())
