"""Unit and property tests for the exact probability machinery."""

import dataclasses
import functools
import itertools
import math
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecoc import prob_engine
from ecoc.bounds import bahadur_range, valid_correlation_range
from ecoc.code_matrix import build_code_matrix
from ecoc.errors import EcocError, ModelError
from ecoc.prob_engine import (
    DependenceModel,
    ErrorProfile,
    ExchangeableModel,
    Independent,
    PairModel,
    enumerate_outcomes,
    exact_decode_error,
    pair_f_range,
    poisson_binomial_dist,
)


def brute_independent(rates):
    """Primitive subset-sum oracle, independent of both the product-tree
    route and the vectorized enumeration."""
    n = len(rates)
    dist = [0.0] * (n + 1)
    for bits in itertools.product((0, 1), repeat=n):
        p = 1.0
        for b, e in zip(bits, rates):
            p *= e if b else 1.0 - e
        dist[sum(bits)] += p
    return dist


def exact_poisson_binomial(rates):
    """Exact Poisson-binomial pmf of the doubles in rates, as (numerator,
    denominator) pairs of integers.

    Every double is a dyadic rational, so scaling by the largest denominator
    turns each factor (1 - e) + e x into integers, and the recursion over
    the rates runs in integers."""
    scale = max((Fraction(e).denominator for e in rates), default=1)
    dist = [1]
    for e in rates:
        a = int(Fraction(e) * scale)
        dist = [x * (scale - a) + y * a for x, y in zip(dist + [0], [0] + dist)]
    return [(x, scale ** len(rates)) for x in dist]


# A row at n = 1000 holds about 7 MB of integers; the tail oracles read at
# most three rows (n, n - 1, n - 2) of one rate at a time.
@functools.lru_cache(maxsize=3)
def exact_binomial(n, e):
    """Exact binomial masses of n classifiers at the double rate e = a / s,
    as the integers C(n, k) a^k (s - a)^(n - k), k = 0..n, over the common
    denominator s^n.  Each term is the one before times a (n - k), divided
    exactly by (k + 1)(s - a), so a row costs n small-factor steps."""
    a, s = e.as_integer_ratio()
    if a == s:  # e = 1: all n err
        return (0,) * n + (1,), 1
    term = (s - a) ** n
    terms = [term]
    for k in range(n):
        term = term * (a * (n - k)) // ((k + 1) * (s - a))
        terms.append(term)
    return tuple(terms), s**n


def exact_iid_tail(n, m, e):
    """P(K >= m) of n iid classifiers as (numerator, denominator) integers;
    1 for m <= 0, as the two-stage identity needs."""
    terms, den = exact_binomial(n, e)
    return sum(terms[max(m, 0):]), den


def exact_pair_tail(n, m, e, f):
    """The paper's two-stage identity for the pair model, over the exact
    iid tails of the n - 2 unpaired classifiers:

        eps(n, m, e, f) = f eps(n-2, m-2, e) + 2(e - f) eps(n-2, m-1, e)
                          + (1 - 2e + f) eps(n-2, m, e).

    With e = A / L and f = G / L over one power of two L, the weights are
    integers over L."""
    scale = max(e.as_integer_ratio()[1], f.as_integer_ratio()[1])
    a, g = int(Fraction(e) * scale), int(Fraction(f) * scale)
    weights = {2: g, 1: 2 * (a - g), 0: scale - 2 * a + g}
    num = sum(w * exact_iid_tail(n - 2, m - j, e)[0] for j, w in weights.items())
    return num, scale * exact_binomial(n - 2, e)[1]


def exact_tail_exchangeable(n, m, e, c):
    """The paper's closed form for the exchangeable tail, m >= 1: the iid
    tail plus the correlation correction times one binomial mass,

        eps(n, m, e) + 0.5 c n (n-1) ((m-1)/(n-1) - e) p(n-1, m-1, e).

    With e = a / s, c = C / t and p(n-1, m-1, e) = T / s^(n-1), the
    correction is C n ((m-1) s - (n-1) a) T / (2 t s^n)."""
    a, s = e.as_integer_ratio()
    big_c, t = c.as_integer_ratio()
    tail, den = exact_iid_tail(n, m, e)
    mass = exact_binomial(n - 1, e)[0][m - 1]
    num = 2 * t * tail + big_c * n * ((m - 1) * s - (n - 1) * a) * mass
    return num, 2 * t * den


def exact_weights(n, e, c):
    """The exchangeable outcome weights 1 + c quad_k / (2e(1-e)),
    k = 0..n, in rationals of the double inputs."""
    q = Fraction(e)
    slope = Fraction(c) / (2 * q * (1 - q))
    return [1 + slope * (k * k - k + q * (n - 1) * (n * q - 2 * k)) for k in range(n + 1)]


def exact_exchangeable_pmf(n, e, c):
    """Exact exchangeable pmf of the double inputs, as (numerator,
    denominator) pairs: the exact binomial masses times the exact weights
    clipped at zero."""
    terms, den = exact_binomial(n, e)
    weights = (max(w, 0) for w in exact_weights(n, e, c))
    return [(t * w.numerator, den * w.denominator) for t, w in zip(terms, weights)]


def exact_pair_pmf(model, q):
    """PairModel.count_pmf's recursion over the exact masses q of the n - 2
    unpaired classifiers, (numerator, common denominator) pairs, in
    integers: the joint cells are doubles, so one power of two L turns
    them into integers over L."""
    cells = [Fraction(p) for p in model.joint_cells]
    scale = max(p.denominator for p in cells)
    p11, p10, p01, p00 = (int(p * scale) for p in cells)
    den = q[0][1]
    nums = [0, 0] + [num for num, _ in q] + [0, 0]
    return [
        (p11 * nums[k] + (p10 + p01) * nums[k + 1] + p00 * nums[k + 2], scale * den)
        for k in range(model.n + 1)
    ]


def product_tree(rates):
    """The balanced product tree of poisson_binomial_dist, step for step:
    its bit-exact reference, whatever the rates' pattern."""
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


def assert_matches_exact(got, exact, rel):
    """got against exact (numerator, denominator) pairs: entries of at
    least 1e-290 within rel of the rational (num / den of two ints is
    correctly rounded), exact zeros where the rational is zero, and a total
    within rel of one."""
    assert len(got) == len(exact)
    for k, (g, (num, den)) in enumerate(zip(got.tolist(), exact)):
        x = num / den
        if num == 0:
            assert g == 0.0, k
        elif x >= 1e-290:
            assert abs(g - x) <= rel * x, (k, g, x)
    assert abs(math.fsum(got.tolist()) - 1.0) <= rel


class TestModelProtocol:
    """DependenceModel is the one model type: it defines the shared methods,
    and each model, a subclass, adds only the hooks they are read from."""

    SHARED = {"pmf", "tail", "sample", "sample_far", "count_far", "_draw"}
    HOOKS = {"n", "count_pmf", "_positions", "joint_mass"}

    def test_base_defines_the_shared_methods(self):
        assert self.SHARED <= set(vars(DependenceModel))

    @pytest.mark.parametrize("cls", [Independent, PairModel, ExchangeableModel])
    def test_each_model_adds_only_the_hooks(self, cls):
        assert issubclass(cls, DependenceModel)
        fields = {f.name for f in dataclasses.fields(cls)}
        own = {name for name in vars(cls) if not name.startswith("__")} - fields
        # The pair's four joint cells restate its rates and f for its hooks.
        extra = {Independent: set(), PairModel: {"joint_cells"}, ExchangeableModel: set()}[cls]
        assert own | (fields & self.HOOKS) == self.HOOKS | extra


class TestExactRationals:
    """count_pmf against exact rationals of the same double inputs."""

    SIZES = (1, 2, 3, 31, 32, 33, 64, 127)

    @staticmethod
    def profiles(n, rng):
        """Uniform random rates, and random rates with exact 0.0 and 1.0
        planted in them."""
        plain = rng.uniform(0.0, 1.0, n)
        planted = rng.uniform(0.0, 0.4, n)
        planted[rng.permutation(n)[: max(1, n // 4)]] = 0.0
        if n > 1:
            planted[rng.permutation(n)[: max(1, n // 8)]] = 1.0
        return [plain.tolist(), planted.tolist()]

    def test_independent(self):
        rng = np.random.default_rng(41)
        for n in self.SIZES:
            for rates in self.profiles(n, rng):
                got = Independent(ErrorProfile(rates)).count_pmf()
                assert_matches_exact(got, exact_poisson_binomial(rates), 1e-14)

    def test_pair(self):
        rng = np.random.default_rng(42)
        for n in self.SIZES[1:]:
            # An equal n - 2 prefix beside an unequal pair takes the tree.
            for rates in self.profiles(n, rng) + [[0.18] * (n - 2) + [0.3, 0.05]]:
                lo, hi = pair_f_range(rates[-2], rates[-1])
                model = PairModel(ErrorProfile(rates), lo + 0.3 * (hi - lo))
                exact = exact_pair_pmf(model, exact_poisson_binomial(rates[:-2]))
                assert_matches_exact(model.count_pmf(), exact, 1e-14)

    # Equal rates take the repeated-squaring route.  The rates include the
    # exact ends, a power of two, a rate whose square underflows and the
    # largest double below 1, whose complement is 2**-53.
    EQUAL_SIZES = (2, 3, 31, 32, 33, 127, 1000)
    EQUAL_RATES = (0.0, 1.0, 0.5, 1e-300, 1 - 2**-53)

    @staticmethod
    def equal_rel(n):
        return 2e-13 if n > 127 else 1e-14

    def test_independent_equal_rates(self):
        for n in self.EQUAL_SIZES:
            for e in self.EQUAL_RATES:
                got = Independent(ErrorProfile.iid(n, e)).count_pmf()
                terms, den = exact_binomial(n, e)
                assert_matches_exact(got, [(t, den) for t in terms], self.equal_rel(n))

    def test_pair_equal_rates(self):
        for n in self.EQUAL_SIZES:
            for e in self.EQUAL_RATES:
                lo, hi = pair_f_range(e, e)
                model = PairModel(ErrorProfile.iid(n, e), lo + 0.3 * (hi - lo))
                terms, den = exact_binomial(n - 2, e)
                exact = exact_pair_pmf(model, [(t, den) for t in terms])
                assert_matches_exact(model.count_pmf(), exact, self.equal_rel(n))

    def test_one_unequal_rate_takes_the_tree(self):
        # One rate apart from the rest, at the first, a middle or the last
        # place, or none apart: poisson_binomial_dist is the product tree
        # only, so the row is the tree's, bit for bit.
        for n in self.EQUAL_SIZES:
            for e, other in ((0.18, 0.3), (0.5, 0.5 + 2**-53), (1e-300, 0.0)):
                for at in (None, 0, n // 2, n - 1):
                    rates = [e] * n
                    if at is not None:
                        rates[at] = other
                    got = poisson_binomial_dist(rates)
                    assert got.tobytes() == product_tree(rates).tobytes(), (n, e, at)

    def test_equal_rates_never_reach_the_tree(self, monkeypatch):
        # The profile records its one rate, and the iid, pair and
        # exchangeable rows are built from it without poisson_binomial_dist.
        def tree(rates):
            raise AssertionError("poisson_binomial_dist called")

        calls = (
            lambda: Independent(ErrorProfile.iid(1000, 0.0686)).tail(250),
            lambda: PairModel(ErrorProfile.iid(127, 0.18), 0.05).tail(32),
            lambda: ExchangeableModel(26, 0.0686, 0.0058).tail(6),
            lambda: Independent(ErrorProfile(["0.18"] * 127)).count_pmf()[32],
        )
        expected = [call() for call in calls]
        monkeypatch.setattr(prob_engine, "poisson_binomial_dist", tree)
        assert [call() for call in calls] == expected
        # Rates that are not all equal still take the tree, and so does the
        # pair's equal n - 2 prefix beside an unequal pair.
        for profile in (ErrorProfile([0.18] * 126 + [0.3]),
                        ErrorProfile([0.18] * 125 + [0.3, 0.3])):
            for model in (Independent(profile), PairModel(profile, 0.05)):
                with pytest.raises(AssertionError, match="poisson_binomial_dist"):
                    model.count_pmf()

    def test_exchangeable_large_n(self):
        n, e = 1000, 0.18
        for c in (0.0, 0.5 * valid_correlation_range(n, e)[1]):
            got = ExchangeableModel(n, e, c).count_pmf()
            assert_matches_exact(got, exact_exchangeable_pmf(n, e, c), 2e-13)

    def test_exchangeable_near_one_rate(self):
        # The weights' quadratic cancels at e near 1 unless it is taken at
        # 1 - e; taken at e, the pmf at n = 2, e = 1 - 2**-53 sums to 1.5.
        for n in (2, 5, 26):
            for e in (0.75, 1 - 1e-12, 1 - 2**-53):
                c_lo, c_hi = valid_correlation_range(n, e)
                for c in (0.5 * c_lo, 0.5 * c_hi):
                    got = ExchangeableModel(n, e, c).count_pmf()
                    assert_matches_exact(got, exact_exchangeable_pmf(n, e, c), 1e-14)


class TestPoissonBinomial:
    def test_three_rate_example(self):
        profile = ErrorProfile((0.1, 0.2, 0.3))
        assert Independent(profile).pmf(0) == pytest.approx(0.504, abs=1e-12)
        assert Independent(profile).pmf(1) == pytest.approx(0.398, abs=1e-12)

    def test_iid_collapse(self):
        profile = ErrorProfile.iid(7, 0.23)
        for k in range(8):
            assert Independent(profile).pmf(k) == pytest.approx(
                Independent(ErrorProfile.iid(7, 0.23)).pmf(k), abs=1e-14
            )

    def test_matches_primitive_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            rates = tuple(rng.uniform(0, 1, n))
            ref = brute_independent(rates)
            profile = ErrorProfile(rates)
            for k in range(n + 1):
                assert Independent(profile).pmf(k) == pytest.approx(
                    ref[k], abs=1e-12
                )

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            Independent(ErrorProfile((0.1,))).pmf(2)

    def test_no_rates_give_one(self):
        assert poisson_binomial_dist([]).tolist() == [1.0]

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12)
    )
    @settings(max_examples=60, deadline=None)
    def test_normalizes(self, rates):
        profile = ErrorProfile(tuple(rates))
        total = sum(Independent(profile).pmf(k) for k in range(profile.n + 1))
        assert total == pytest.approx(1.0, abs=1e-12)


class TestBinomial:
    def test_exact_values(self):
        assert Independent(ErrorProfile.iid(4, 0.5)).pmf(2) == pytest.approx(0.375, abs=0)
        assert Independent(ErrorProfile.iid(9, 0.13)).pmf(0) == pytest.approx(0.87**9, abs=1e-15)
        # Exact-rational oracle for the frozen literal.
        exact = Fraction(math.comb(10, 4)) * Fraction(1, 10) ** 4 * Fraction(9, 10) ** 6
        assert float(exact) == pytest.approx(0.011160261, abs=5e-10)
        assert Independent(ErrorProfile.iid(10, 0.1)).pmf(4) == pytest.approx(float(exact), rel=1e-13, abs=0)

    def test_n60_matches_exact_rational(self):
        exact = Fraction(math.comb(60, 7)) * Fraction(3, 100) ** 7 * Fraction(97, 100) ** 53
        assert Independent(ErrorProfile.iid(60, 0.03)).pmf(7) == pytest.approx(float(exact), rel=1e-12, abs=0)

    def test_degenerate_rates(self):
        assert Independent(ErrorProfile.iid(5, 0.0)).pmf(0) == 1.0
        assert Independent(ErrorProfile.iid(5, 0.0)).pmf(3) == 0.0
        assert Independent(ErrorProfile.iid(5, 1.0)).pmf(5) == 1.0

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            Independent(ErrorProfile.iid(4, 0.2)).pmf(5)
        with pytest.raises(ValueError):
            Independent(ErrorProfile.iid(4, 1.2)).pmf(2)


class TestRateCheck:
    def test_names_the_first_bad_rate(self):
        for bad in (-1e-300, 1 + 2**-52, math.nan, math.inf, -math.inf):
            for rates, at in (([bad, 0.2, 2.0], 1), ([0.0, 1.0, bad, -3.0], 3)):
                with pytest.raises(ValueError, match=rf"^rate e_{at}={bad} outside \[0, 1\]$"):
                    ErrorProfile(rates)

    def test_keeps_the_ends_and_the_values(self):
        rates = (0.0, -0.0, 1.0, 5e-324, 0.5)
        assert ErrorProfile(rates).rates == rates
        assert ErrorProfile(["0.25", np.float32(0.5)]).rates == (0.25, 0.5)
        with pytest.raises(ValueError, match="at least one rate"):
            ErrorProfile(())

    def test_names_a_rate_that_is_not_a_number(self):
        # The CLI splits --rates 0.1,,0.2 into these strings; an iterator is
        # read once, and its bad entry named all the same.
        for rates, named in (("0.1,,0.2".split(","), "e_2=''"), (["x"], "e_1='x'"),
                             ([0.1, 0.2, 0.3, None], "e_4=None"),
                             (iter([0.1, "x"]), "e_2='x'")):
            with pytest.raises(ValueError, match=rf"^rate {named} is not a number$"):
                ErrorProfile(rates)
        # iid checks its one rate through the same constructor.
        for e in (None, "x"):
            with pytest.raises(ValueError, match=rf"^rate e_1={e!r} is not a number$"):
                ErrorProfile.iid(3, e)

    def test_iid_checks_one_rate_and_equals_n_copies(self, monkeypatch):
        # iid checks e once, as the profile of one classifier, and widens
        # it: the same rates, recorded rate and rows, bit for bit, as the
        # profile of n copies of e.
        checked, check = [], prob_engine._checked_rates
        monkeypatch.setattr(prob_engine, "_checked_rates",
                            lambda rates: checked.append(len(rates)) or check(rates))
        for n in TestExactRationals.EQUAL_SIZES:
            for e in TestExactRationals.EQUAL_RATES + (0.18,):
                checked.clear()
                iid = ErrorProfile.iid(n, e)
                assert checked == [1], (n, e)
                copies = ErrorProfile([e] * n)
                assert iid == copies and iid._rate == copies._rate == e
                f = sum(pair_f_range(e, e)) / 2
                for model in (Independent, lambda p: PairModel(p, f)):
                    got, want = model(iid).count_pmf(), model(copies).count_pmf()
                    assert got.tobytes() == want.tobytes(), (n, e)


class TestIndependentTails:
    def test_degenerate_m_zero(self):
        assert Independent(ErrorProfile((0.4, 0.9))).tail(0) == 1.0
        assert Independent(ErrorProfile.iid(6, 0.3)).tail(0) == 1.0

    def test_m_zero_still_validates_rate_and_size(self):
        # m = 0 returns 1.0 only once the rate and n describe a model.
        for n, e, message in ((6, 1.5, "rate e_1=1.5 outside"),
                              (6, math.nan, "rate e_1=nan outside"),
                              (6, -0.1, "rate e_1=-0.1 outside"),
                              (0, 0.1, "n=0 must be at least 1$"),
                              (-3, 0.1, "n=-3 must be at least 1$")):
            with pytest.raises(ValueError, match=f"^{message}"):
                Independent(ErrorProfile.iid(n, e)).tail(0)

    def test_product_case(self):
        assert Independent(ErrorProfile((0.1, 0.2))).tail(2) == pytest.approx(
            0.02, abs=1e-15
        )

    def test_brute_force_value(self):
        ref = sum(brute_independent([0.1] * 10)[4:])
        assert ref == pytest.approx(0.012795, abs=5e-7)
        assert Independent(ErrorProfile.iid(10, 0.1)).tail(4) == pytest.approx(
            ref, abs=1e-12
        )

    def test_iid_edge_cases(self):
        assert Independent(ErrorProfile.iid(8, 0.2)).tail(1) == pytest.approx(
            1 - 0.8**8, abs=1e-12
        )
        assert Independent(ErrorProfile.iid(8, 0.0)).tail(3) == 0.0

    def test_range_errors(self):
        with pytest.raises(ValueError):
            Independent(ErrorProfile.iid(5, 0.1)).tail(6)
        with pytest.raises(ValueError):
            Independent(ErrorProfile.iid(5, 0.1)).tail(-1)


class TestPairModel:
    def test_f_range(self):
        assert pair_f_range(0.3, 0.4) == (0.0, 0.3)
        assert pair_f_range(0.8, 0.7) == pytest.approx((0.5, 0.7))

    def test_invalid_f_rejected(self):
        with pytest.raises(ModelError):
            PairModel(ErrorProfile((0.1, 0.2)), 0.15)
        with pytest.raises(ModelError):
            PairModel(ErrorProfile((0.8, 0.9)), 0.5)

    def test_f_admitted_to_the_slack_past_each_end(self):
        # f within WEIGHT_SLACK past an end of pair_f_range is admitted and
        # clamped to that end; twice as far is rejected.
        profile = ErrorProfile((0.3, 0.4))
        lo, hi = pair_f_range(0.3, 0.4)
        slack = prob_engine.WEIGHT_SLACK
        assert PairModel(profile, lo - slack).joint_cells[0] == lo
        assert PairModel(profile, hi + slack).joint_cells[0] == hi
        for f in (lo - 2 * slack, hi + 2 * slack):
            with pytest.raises(ModelError, match="outside"):
                PairModel(profile, f)

    def test_full_joint_case(self):
        # With n=2 the count-2 probability is the joint cell itself.
        model = PairModel(ErrorProfile((0.3, 0.4)), 0.12)
        assert model.pmf(2) == pytest.approx(0.12, abs=1e-15)

    def test_independence_collapse(self):
        rates = (0.15, 0.3, 0.2, 0.25)
        model = PairModel(ErrorProfile(rates), 0.2 * 0.25)
        profile = ErrorProfile(rates)
        for k in range(5):
            assert model.pmf(k) == pytest.approx(
                Independent(profile).pmf(k), abs=1e-14
            )

    def test_count_pmf_equals_scalar_recursion(self):
        # The vectorised recursion does the scalar one's arithmetic, in the
        # same order, so the two agree bit for bit.
        for rates, f in (((0.3, 0.4), 0.12), ((0.1, 0.25, 0.2, 0.3, 0.15), 0.04)):
            model = PairModel(ErrorProfile(rates), f)
            sub = poisson_binomial_dist(rates[:-2])
            p11, p10, p01, p00 = model.joint_cells
            q = [0.0, 0.0] + [float(v) for v in sub] + [0.0, 0.0]
            for k, got in enumerate(model.count_pmf()):
                assert got == p11 * q[k] + (p10 + p01) * q[k + 1] + p00 * q[k + 2]

    def test_heterogeneous_against_enumeration(self):
        model = PairModel(ErrorProfile((0.1, 0.1, 0.2, 0.2)), 0.03)
        ref = enumerate_outcomes(model)
        for k in range(5):
            assert model.pmf(k) == pytest.approx(ref[k], abs=1e-12)

    @given(
        st.integers(min_value=2, max_value=8),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_enumeration_iid(self, n, e):
        lo, hi = pair_f_range(e, e)
        for f in np.linspace(lo, hi, 4):
            model = PairModel(ErrorProfile.iid(n, e), float(f))
            ref = enumerate_outcomes(model)
            for k in range(n + 1):
                assert model.pmf(k) == pytest.approx(
                    ref[k], abs=1e-11
                )


class TestPairTail:
    def test_independence_reduces_to_iid(self):
        for n, m, e in ((4, 2, 0.2), (8, 3, 0.1), (6, 6, 0.35)):
            assert PairModel(ErrorProfile.iid(n, e), e * e).tail(m) == pytest.approx(
                Independent(ErrorProfile.iid(n, e)).tail(m), abs=1e-13
            )

    def test_matches_two_stage_identity(self):
        # The identity in exact integers, and the enumeration oracle.
        n, e, f = 4, 0.2, 0.05
        oracle = enumerate_outcomes(PairModel(ErrorProfile.iid(n, e), f))
        for m in range(1, n + 1):
            num, den = exact_pair_tail(n, m, e, f)
            got = PairModel(ErrorProfile.iid(n, e), f).tail(m)
            assert got == pytest.approx(num / den, rel=2e-15, abs=0), m
            by_enum = sum(oracle[k] for k in range(m, n + 1))
            assert got == pytest.approx(by_enum, abs=1e-13), m

    def test_all_errors_needs_joint(self):
        assert PairModel(ErrorProfile.iid(5, 0.3), 0.0).tail(5) == 0.0

    def test_invalid_f(self):
        with pytest.raises(ModelError):
            PairModel(ErrorProfile.iid(6, 0.2), 0.3).tail(3)

    def test_monotone_in_f_small_ebar(self):
        # Below (m-1)/(n-1) the tail is non-decreasing in the joint error
        # probability; above it the direction flips.
        n, m = 10, 4
        pivot = (m - 1) / (n - 1)
        for e in (0.05, 0.15, 0.25):
            fs = np.linspace(*pair_f_range(e, e), 12)
            vals = [PairModel(ErrorProfile.iid(n, e), float(f)).tail(m) for f in fs]
            diffs = np.diff(vals)
            if e <= pivot:
                assert (diffs >= -1e-12).all()
            else:
                assert (diffs <= 1e-12).all()


class TestExchangeable:
    def test_zero_correlation_collapse(self):
        for k in range(7):
            assert ExchangeableModel(6, 0.3, 0.0).pmf(k) == pytest.approx(
                Independent(ErrorProfile.iid(6, 0.3)).pmf(k), abs=1e-15
            )

    def test_hand_computed_value(self):
        # (1/8) * (1 + 2c * (k^2 - 3k + 1.5)) at k=0, c=0.1.
        assert ExchangeableModel(3, 0.5, 0.1).pmf(0) == pytest.approx(0.1625, abs=1e-14)

    def test_symmetric_distribution_example(self):
        ref = {0: 0.1625, 1: 0.3375, 2: 0.3375, 3: 0.1625}
        got = enumerate_outcomes(ExchangeableModel(3, 0.5, 0.1))
        for k, v in ref.items():
            assert got[k] == pytest.approx(v, abs=1e-13)

    def test_normalizes(self):
        for e in (0.1, 0.3, 0.5):
            lo, hi = valid_correlation_range(9, e)
            for c in np.linspace(lo, hi, 5):
                total = sum(ExchangeableModel(9, e, float(c)).pmf(k) for k in range(10))
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_tail_closed_form_equals_sum(self):
        # The closed form in exact integers, and the enumeration oracle.
        n, e, c = 10, 0.1, 0.05
        oracle = enumerate_outcomes(ExchangeableModel(n, e, c))
        for m in range(1, n + 1):
            num, den = exact_tail_exchangeable(n, m, e, c)
            got = ExchangeableModel(n, e, c).tail(m)
            assert got == pytest.approx(num / den, rel=2e-15, abs=0), m
            by_enum = sum(oracle[k] for k in range(m, n + 1))
            assert got == pytest.approx(by_enum, abs=1e-12), m

    @pytest.mark.parametrize("e", [1e-310, 1e-6, 0.3, 1 - 1e-9])
    def test_bahadur_joint_mass_matches_count_pmf(self, e):
        # joint_mass is Bahadur's expansion over the bits, not the three
        # terms count_pmf reads; the two agree at the ends of the valid
        # correlation range and at rates near 0 (subnormal included) and 1.
        for n in (2, 7, 14):
            lo, hi = valid_correlation_range(n, e)
            for c in (lo, 0.0, hi):
                model = ExchangeableModel(n, e, c)
                oracle = enumerate_outcomes(model)
                dist = model.count_pmf()
                for k in range(n + 1):
                    assert oracle[k] == pytest.approx(dist[k], abs=1e-13), (n, c, k)

    @pytest.mark.parametrize("n, e, c", [(3, 5e-324, 0.25), (3, 1e-310, 0.25), (26, 1e-310, 0.01)])
    def test_subnormal_rate_builds(self, n, e, c):
        # valid_correlation_range admits these (e, c), and so does the
        # model: the three terms hold no 1/e, so nothing leaves a double.
        assert valid_correlation_range(n, e)[1] >= c
        model = ExchangeableModel(n, e, c)
        pmf = model.count_pmf()
        assert np.isfinite(pmf).all() and pmf.min() >= 0.0
        assert math.fsum(pmf.tolist()) == pytest.approx(1.0, abs=1e-15)
        assert all(0.0 <= model.tail(m) <= 1.0 for m in range(n + 1))
        assert model.tail(2) > 0.0

    def test_tiny_rate_keeps_the_mass_of_two_errors(self):
        # The mass of K >= 2 at e = 1e-200 is the correction's, about
        # 6.5e-200: the binomial row of n underflows from k = 2, so no
        # weight on that row can carry it, but the row of n - 2 times the
        # cell p11 = e^2 + g does.
        n, e = 26, 1e-200
        c = 0.5 * valid_correlation_range(n, e)[1]
        num, den = exact_tail_exchangeable(n, 2, e, c)
        x = num / den
        assert abs(ExchangeableModel(n, e, c).tail(2) - x) <= 2e-15 * x

    @pytest.mark.parametrize(
        "n, e", [(2, 0.3), (3, 1e-6), (7, 0.9), (10, 0.5), (26, 0.0686), (127, 0.18)]
    )
    def test_admits_exactly_the_valid_range(self, n, e):
        lo, hi = valid_correlation_range(n, e)
        for c in (lo, hi):
            assert ExchangeableModel(n, e, c).count_pmf().min() >= 0.0
        for c in (lo * (1 + 1e-9), hi * (1 + 1e-9)):
            with pytest.raises(ModelError, match="valid correlation range"):
                ExchangeableModel(n, e, c)

    def test_tail_reduces_when_uncorrelated(self):
        assert ExchangeableModel(12, 0.2, 0.0).tail(5) == pytest.approx(
            Independent(ErrorProfile.iid(12, 0.2)).tail(5), abs=1e-14
        )

    def test_tail_pivot_rate_kills_correction(self):
        n, m = 10, 4
        e = (m - 1) / (n - 1)
        for c in (0.0, 0.05, 0.1):
            assert ExchangeableModel(n, e, c).tail(m) == pytest.approx(
                Independent(ErrorProfile.iid(n, e)).tail(m), abs=1e-14
            )

    def test_degenerate_rate_rejected(self):
        # Each input here and in test_invalid_correlation_rejected also
        # fails a later check: the message names the check that comes first.
        with pytest.raises(ModelError, match=r"^e_bar=0\.0 must lie strictly inside"):
            ExchangeableModel(5, 0.0, 0.0)
        with pytest.raises(ModelError, match=r"^e_bar=1\.0 must lie strictly inside"):
            ExchangeableModel(5, 1.0, 0.0).pmf(2)
        with pytest.raises(ModelError, match="needs n >= 2"):
            ExchangeableModel(1, 0.3, 0.0)

    def test_c_admitted_to_the_slack_past_each_end(self):
        # c up to WEIGHT_SLACK relative past an end of the valid range is
        # admitted; twice as far is rejected.
        slack = prob_engine.WEIGHT_SLACK
        for end in valid_correlation_range(10, 0.1):
            ExchangeableModel(10, 0.1, end * (1.0 + slack))
            with pytest.raises(ModelError, match="outside the valid correlation range"):
                ExchangeableModel(10, 0.1, end * (1.0 + 2 * slack))

    def test_invalid_correlation_rejected(self):
        # Inside the published lower range but induces a negative weight.
        with pytest.raises(ModelError):
            ExchangeableModel(3, 0.05, -1.0)
        for c in (math.nan, math.inf, -math.inf):
            with pytest.raises(ModelError, match="must be finite"):
                ExchangeableModel(10, 0.1, c)
            with pytest.raises(ModelError, match="must be finite"):
                ExchangeableModel(10, 0.1, c).tail(3)


class TestClosedFormOracles:
    """The three public tails against the paper's forms, evaluated in exact
    integers of the same double inputs: the iid tail itself, the pair's
    two-stage identity and the exchangeable iid tail plus correction.  Each
    tail is one sum of its model's count_pmf, so these check it against
    arithmetic that shares nothing with it."""

    @pytest.mark.parametrize("n, rel", [(26, 2e-14), (127, 2e-14), (1000, 1e-13)])
    def test_tails_match_exact(self, n, rel):
        for e in (0.0686, 0.18):
            c_lo, c_hi = valid_correlation_range(n, e)
            for m in (1, n // 8, n // 4, n // 2):
                got = Independent(ErrorProfile.iid(n, e)).tail(m)
                cases = [("iid", got, exact_iid_tail(n, m, e))]
                for f in (0.0, 0.5 * e, e):
                    got = PairModel(ErrorProfile.iid(n, e), f).tail(m)
                    cases.append(("pair", got, exact_pair_tail(n, m, e, f)))
                for c in (0.5 * c_lo, 0.5 * c_hi):
                    got = ExchangeableModel(n, e, c).tail(m)
                    cases.append(("exch", got, exact_tail_exchangeable(n, m, e, c)))
                for name, got, (num, den) in cases:
                    x = num / den
                    assert abs(got - x) <= rel * x, (name, e, m, got, x)


BAD_VALUES = (-0.25, 1.25, math.nan, math.inf, -math.inf, None, "x")
# Counts and sizes that are not integers.
NOT_INTEGERS = (0.5, 1.0, None, "1")


def _value(draw):
    """A rate: in [0, 1], out of range, non-finite or not a number."""
    return draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from(BAD_VALUES)))


def _around(draw, lo, hi):
    """(value, inside): a value well inside [lo, hi], 1e-3 outside it,
    non-finite, None, or the text of a value inside, which a model parameter
    does not convert."""
    kind = draw(st.sampled_from(("inside", "below", "above", "nan", "inf", "none", "text")))
    inside = lo + draw(st.floats(0.05, 0.95)) * (hi - lo)
    values = {"inside": inside, "below": lo - 1e-3, "above": hi + 1e-3,
              "nan": math.nan, "inf": math.inf, "none": None, "text": str(inside)}
    return values[kind], kind == "inside"


def _is_rate(e):
    return isinstance(e, float) and 0.0 <= e <= 1.0


def _rates_ok(rates):
    return len(rates) > 0 and all(map(_is_rate, rates))


def _independent(a):
    return Independent(ErrorProfile(a.rates))


def _pair(a):
    return PairModel(ErrorProfile(a.rates), a.f)


def _exchangeable(a):
    return ExchangeableModel(a.n, a.e, a.c)


# Each model's pmf and tail methods (of a profile, and of ErrorProfile.iid's
# n and e): its call on drawn arguments a, and the model whose count_pmf its
# answer must come from.
ENTRIES = {
    "iid.pmf": (lambda a: Independent(ErrorProfile.iid(a.n, a.e)).pmf(a.i), _independent),
    "iid.tail": (lambda a: Independent(ErrorProfile.iid(a.n, a.e)).tail(a.i), _independent),
    "iid.pair.tail": (
        lambda a: PairModel(ErrorProfile.iid(a.n, a.e), a.f).tail(a.i), _pair
    ),
    "ExchangeableModel.tail": (
        lambda a: ExchangeableModel(a.n, a.e, a.c).tail(a.i), _exchangeable
    ),
    "Independent.pmf": (lambda a: _independent(a).pmf(a.i), _independent),
    "Independent.tail": (lambda a: _independent(a).tail(a.i), _independent),
    "PairModel.pmf": (lambda a: _pair(a).pmf(a.i), _pair),
    "ExchangeableModel.pmf": (lambda a: _exchangeable(a).pmf(a.i), _exchangeable),
}
HETEROGENEOUS = ("Independent.pmf", "Independent.tail", "PairModel.pmf")


@st.composite
def entry_arguments(draw):
    """(name, arguments, model_ok, count_ok) for one public entry.  The
    arguments are rates (unequal for the entries that take a profile, n
    copies of e for the others), f, c and the k or m, i, each at times not a
    number, and n and i at times not an integer (i at times a NumPy one);
    model_ok means rates in [0, 1], an integer n with enough classifiers
    for the model and f or c inside its range, count_ok means an integer
    0 <= i <= n."""
    name = draw(st.sampled_from(sorted(ENTRIES)))
    if name in HETEROGENEOUS:
        e, rates = math.nan, [_value(draw) for _ in range(draw(st.integers(0, 12)))]
    else:
        e = _value(draw)
        rates = [e] * draw(st.integers(0, 12))
    n, f, c = len(rates), math.nan, math.nan
    model = ENTRIES[name][1]
    if model is _independent:
        ok = _rates_ok(rates)
    elif model is _pair:
        if n >= 2 and _rates_ok(rates):
            f, ok = _around(draw, *pair_f_range(rates[-2], rates[-1]))
        else:
            f, ok = _value(draw), False
    elif n >= 2 and _is_rate(e) and 0.0 < e < 1.0:
        c, ok = _around(draw, *valid_correlation_range(n, e))
    else:
        c, ok = _value(draw), False
    i = draw(st.one_of(st.integers(-2, n + 2), st.integers(-2, n + 2).map(np.int64),
                       st.sampled_from(NOT_INTEGERS)))
    count_ok = isinstance(i, (int, np.integer)) and 0 <= i <= n
    if name not in HETEROGENEOUS and draw(st.integers(0, 7)) == 0:
        n, ok = draw(st.sampled_from((n + 0.5, float(n), None))), False
    args = SimpleNamespace(rates=rates, n=n, e=e, f=f, c=c, i=i)
    return name, args, ok, count_ok


class TestPublicEntries:
    @given(entry_arguments())
    @settings(max_examples=825, deadline=None)
    def test_rejects_or_reads_its_model(self, drawn):
        # Inadmissible arguments raise ValueError or EcocError, and a k or m
        # of a valid model that is not an integer in 0..n raises ValueError
        # naming it.  Admissible ones return the model's own count_pmf entry,
        # or the fsum of count_pmf from m (exactly 1.0 at m = 0), bit for
        # bit, and that is a probability.
        name, a, model_ok, count_ok = drawn
        call, model = ENTRIES[name]
        if not model_ok:
            with pytest.raises((ValueError, EcocError)):
                call(a)
            return
        if not count_ok:
            if isinstance(a.i, (int, np.integer)):
                message = f"={a.i} outside 0\\.\\.{a.n}$"
            else:
                message = rf"^[km]={re.escape(repr(a.i))} is not an integer$"
            with pytest.raises(ValueError, match=message):
                call(a)
            return
        got = call(a)
        pmf = model(a).count_pmf()
        if name.endswith("pmf"):
            assert got == float(pmf[a.i])
        elif a.i == 0:
            assert got == 1.0
        else:
            assert got == math.fsum(pmf[a.i :].tolist())
        assert 0.0 <= got <= 1.0 + 1e-12, got


class TestBahadurRange:
    def test_symmetric_case(self):
        c_min, c_max = bahadur_range(3, 0.5)
        assert c_min == pytest.approx(-1 / 3, abs=1e-15)
        assert c_max == pytest.approx(1.0, abs=1e-15)

    def test_upper_end_matches_published_form(self):
        # 2e(1-e) / ((n-1)e(1-e) + 1/4 - gamma), with gamma the minimum of
        # (k - (n-1)e - 1/2)^2 over k = 0..n taken by brute force.
        for n in range(2, 13):
            for e in np.linspace(0.02, 0.98, 25).tolist():
                gamma = min((k - (n - 1) * e - 0.5) ** 2 for k in range(n + 1))
                ref = 2 * e * (1 - e) / ((n - 1) * e * (1 - e) + 0.25 - gamma)
                assert bahadur_range(n, e)[1] == pytest.approx(ref, rel=1e-12, abs=0), (n, e)

    def test_upper_end_keeps_weights_nonnegative(self):
        for n in range(2, 13):
            for e in (0.05, 0.15, 0.3, 0.5):
                _, c_max = bahadur_range(n, e)
                model = ExchangeableModel(n, e, c_max)  # must not raise
                total = sum(
                    ExchangeableModel(n, e, c_max).pmf(k) for k in range(n + 1)
                )
                assert total == pytest.approx(1.0, abs=1e-10)
                assert model.c == c_max

    def test_valid_range_is_subset(self):
        for n in (3, 6, 10):
            for e in (0.05, 0.2, 0.5, 0.8):
                c_min, c_max = bahadur_range(n, e)
                v_min, v_max = valid_correlation_range(n, e)
                assert v_min >= c_min - 1e-15
                assert v_max == pytest.approx(c_max, abs=1e-15)

    def test_degenerate_rate(self):
        with pytest.raises(ModelError):
            bahadur_range(4, 0.0)

    @pytest.mark.parametrize("e", [1e-310, 1e-320, 5e-324])
    def test_subnormal_rate_has_no_published_lower_end(self, e):
        # -2(1-e)/(n(n-1)e) is beyond a double: bahadur_range raises rather
        # than return -inf, while the exact range stays finite.
        with pytest.raises(ModelError, match="lower end"):
            bahadur_range(10, e)
        v_min, v_max = valid_correlation_range(10, e)
        assert math.isfinite(v_min) and v_min <= 0.0
        assert math.isfinite(v_max) and v_max > 0.0

    @pytest.mark.parametrize("n", [2, 3, 10, 26, 127, 1000])
    def test_upper_end_is_weight_derived_down_to_tiny_rates(self, n):
        # The largest c keeping every weight 1 + c quad_k / (2e(1-e))
        # non-negative; quad_k = k^2 - k + e(n-1)(ne - 2k) has no
        # cancellation at small e, where the published form had (it crashed
        # below e of about 1e-18).
        rates = np.concatenate([np.geomspace(1e-300, 0.99, 400), [1e-19, 1e-17]])
        for e in rates.tolist():
            ref = math.inf
            for k in range(n + 1):
                quad = k * k - k + e * (n - 1) * (n * e - 2 * k)
                if quad < 0:
                    ref = min(ref, -2.0 * e * (1.0 - e) / quad)
            assert bahadur_range(n, e)[1] == pytest.approx(ref, rel=1e-9, abs=0), e

    @pytest.mark.parametrize("n", [2, 10, 1000])
    def test_upper_end_near_one_in_exact_arithmetic(self, n):
        # Near e = 1 the float weights cancel too, so the reference is taken
        # in rationals.
        for e in (0.5, 0.9, 0.999, 1 - 1e-12, 1 - 1e-15, 1 - 2**-53):
            q = Fraction(e)
            quads = (k * k - k + q * (n - 1) * (n * q - 2 * k) for k in range(n + 1))
            ref = min(-2 * q * (1 - q) / quad for quad in quads if quad < 0)
            assert bahadur_range(n, e)[1] == pytest.approx(float(ref), rel=1e-12, abs=0), e


class TestEnumerationOracle:
    def test_fair_coins(self):
        got = enumerate_outcomes(Independent(ErrorProfile.iid(3, 0.5)))
        assert got == pytest.approx({0: 1 / 8, 1: 3 / 8, 2: 3 / 8, 3: 1 / 8})

    def test_against_primitive_loop(self):
        rates = (0.12, 0.5, 0.81, 0.33)
        ref = brute_independent(rates)
        got = enumerate_outcomes(Independent(ErrorProfile(rates)))
        for k in range(5):
            assert got[k] == pytest.approx(ref[k], abs=1e-14)

    def test_size_cap(self, monkeypatch):
        with pytest.raises(ValueError):
            enumerate_outcomes(Independent(ErrorProfile.iid(21, 0.1)))
        # The cap itself is admitted.
        monkeypatch.setattr(prob_engine, "ENUMERATION_MAX_N", 4)
        assert len(enumerate_outcomes(Independent(ErrorProfile.iid(4, 0.1)))) == 5
        with pytest.raises(ValueError, match="exceeds enumeration cap 4"):
            enumerate_outcomes(Independent(ErrorProfile.iid(5, 0.1)))

    def test_blocks_of_a_few_rows_equal_one_block(self, monkeypatch):
        # 7 rows a block: the first blocks hold no outcome of 5 or 6
        # errors, and the last one is cut short.
        model = Independent(ErrorProfile((0.1, 0.2, 0.3, 0.4, 0.5, 0.6)))
        whole = enumerate_outcomes(model)
        monkeypatch.setattr(prob_engine, "_OUTCOME_BLOCK_ROWS", 7)
        assert enumerate_outcomes(model) == pytest.approx(whole, abs=1e-16)

    def test_decode_error_size_cap_before_any_block(self, monkeypatch):
        # The cap is checked before the first outcome block's indices are
        # built, so n = 21 costs nothing.
        model = Independent(ErrorProfile.iid(21, 0.1))
        code = build_code_matrix(21)

        def no_block(*args, **kwargs):
            raise AssertionError("an outcome block was built")

        monkeypatch.setattr(prob_engine.np, "arange", no_block)
        with pytest.raises(ValueError, match="n=21 exceeds enumeration cap 20"):
            exact_decode_error(model, code)

    def test_decode_error_rejects_a_code_of_another_width(self):
        with pytest.raises(ValueError, match="code n=8 does not match model n=10"):
            exact_decode_error(Independent(ErrorProfile.iid(10, 0.1)), build_code_matrix(8))


class TestNormalization:
    @pytest.mark.parametrize("n", [5, 127, 1000])
    def test_every_model_tail_at_zero_is_exactly_one(self, n):
        models = (
            Independent(ErrorProfile.iid(n, 0.18)),
            PairModel(ErrorProfile.iid(n, 0.18), 0.05),
            ExchangeableModel(n, 0.18, 0.0),
        )
        for model in models:
            assert model.tail(0) == 1.0, type(model).__name__

    def test_every_model_and_route_sums_to_one(self):
        # Grid over n <= 12 and e in {0.05, ..., 0.5}; each route's full
        # distribution carries total mass 1 to 1e-12.
        for n in (2, 4, 8, 12):
            for e in np.arange(0.05, 0.501, 0.05):
                e = float(e)
                profile = ErrorProfile.iid(n, e)
                dp = sum(Independent(profile).pmf(k) for k in range(n + 1))
                assert dp == pytest.approx(1.0, abs=1e-12)
                for f in np.linspace(*pair_f_range(e, e), 3):
                    model = PairModel(profile, float(f))
                    rec = sum(model.pmf(k) for k in range(n + 1))
                    oracle = sum(enumerate_outcomes(model).values())
                    assert rec == pytest.approx(1.0, abs=1e-12)
                    assert oracle == pytest.approx(1.0, abs=1e-12)
                lo, hi = valid_correlation_range(n, e)
                for c in np.linspace(lo + 1e-12, hi, 3):
                    c = float(c)
                    model = ExchangeableModel(n, e, c)
                    total = model.tail(1) + model.pmf(0)
                    assert total == pytest.approx(1.0, abs=1e-12)
                    oracle = sum(enumerate_outcomes(model).values())
                    assert oracle == pytest.approx(1.0, abs=1e-12)


class TestDominanceAndMonotonicity:
    def test_single_rate_monotone(self):
        # Raising any one rate inside (0, k/n) raises the count-k mass.
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 10))
            k = int(rng.integers(1, n + 1))
            rates = list(rng.uniform(0.001, k / n - 1e-9, n))
            i = int(rng.integers(0, n))
            base = Independent(ErrorProfile(tuple(rates))).pmf(k)
            bumped = rates.copy()
            bumped[i] = min(bumped[i] + 1e-6, k / n - 1e-12)
            higher = Independent(ErrorProfile(tuple(bumped))).pmf(k)
            assert higher >= base - 1e-15

    def test_pmf_dominated_by_max_rate_binomial(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(1, n))
            rates = tuple(rng.uniform(0.0, k / n, n))
            lhs = Independent(ErrorProfile(rates)).pmf(k)
            rhs = Independent(ErrorProfile.iid(n, max(rates))).pmf(k)
            assert lhs <= rhs + 1e-12

    def test_tail_dominated_by_max_rate_tail(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(2, 12))
            m = int(rng.integers(1, n + 1))
            rates = tuple(rng.uniform(0.0, m / n, n))
            lhs = Independent(ErrorProfile(rates)).tail(m)
            rhs = Independent(ErrorProfile.iid(n, max(rates))).tail(m)
            assert lhs <= rhs + 1e-12

    def test_pair_pmf_monotone_in_f_on_stated_interval(self):
        # The count-k mass grows with f for e below k/n - sqrt(k(n-k)/(n-1))/n
        # (k <= n-2), below 1 - 2/n (k = n-1), and everywhere (k = n).
        for n in (5, 8, 10):
            for k in range(1, n + 1):
                if k <= n - 2:
                    top = k / n - math.sqrt(k * (n - k) / (n - 1)) / n
                elif k == n - 1:
                    top = 1 - 2 / n
                else:
                    top = 1.0
                if top <= 0.0:
                    continue
                for e in np.linspace(0.01, top, 5):
                    e = float(e)
                    fs = np.linspace(*pair_f_range(e, e), 6)
                    vals = [
                        PairModel(ErrorProfile.iid(n, e), float(f)).pmf(k)
                        for f in fs
                    ]
                    assert (np.diff(vals) >= -1e-12).all(), (n, k, e)

    def test_pair_tail_decay_bound(self):
        # tail <= lambda^(n-2) with the ratio shifted to (m-2)/(n-2).
        from ecoc.bounds import chernoff_lambda

        for n, m in ((8, 3), (10, 4), (16, 6)):
            r = (m - 2) / (n - 2)
            for e in np.linspace(0.01, r * 0.99, 8):
                e = float(e)
                for f in np.linspace(*pair_f_range(e, e), 5):
                    t = PairModel(ErrorProfile.iid(n, e), float(f)).tail(m)
                    assert t <= chernoff_lambda(r, e) ** (n - 2) + 1e-12
