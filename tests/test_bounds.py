"""Tests for the analytic bound evaluations."""

import inspect
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ecoc.bounds import (
    bahadur_range,
    chernoff_bound,
    chernoff_lambda,
    chernoff_mu_bound,
    evaluate_bounds,
    feller_bound,
    gs_bound,
    kz_bound,
    kz_value,
    omega_factor,
    valid_correlation_range,
)
from ecoc._shared import DEFAULT_ORIENTATION, sylvester_distance
from ecoc.errors import DomainError, ModelError
from ecoc.experiment_io import DATASETS, bound_report, fixture_names, load_fixture
from ecoc.prob_engine import ErrorProfile, ExchangeableModel, Independent, PairModel, pair_f_range


class TestGs:
    def test_scales_mean_rate_by_four(self):
        assert gs_bound(ErrorProfile.iid(5, 0.1)) == pytest.approx(0.4, abs=1e-15)
        assert gs_bound([0.0, 0.0, 0.0]) == 0.0
        assert gs_bound([0.3, 0.1]) == pytest.approx(0.8, abs=1e-15)

    def test_can_exceed_one(self):
        assert gs_bound([0.4, 0.3]) > 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gs_bound([])
        # Each rate is checked as ErrorProfile checks it.
        for bad in (math.nan, -0.1, 1.5, math.inf):
            with pytest.raises(ValueError):
                gs_bound([0.1, bad])


class TestFeller:
    def test_known_value(self):
        assert feller_bound(10, 4, 0.1) == pytest.approx(3.6 / 9, abs=1e-15)

    def test_zero_rate_gives_reciprocal_m(self):
        for m in (1, 3, 7):
            assert feller_bound(10, m, 0.0) == pytest.approx(1 / m, abs=1e-15)

    def test_inapplicable_region(self):
        with pytest.raises(DomainError):
            feller_bound(10, 1, 0.2)
        with pytest.raises(DomainError):
            feller_bound(10, 2, 0.2)  # boundary m = n*e is excluded


class TestChernoffMu:
    def test_known_value(self):
        assert chernoff_mu_bound(1.0, 4) == pytest.approx(math.e**3 / 256, rel=1e-12, abs=0)
        assert chernoff_mu_bound(1.0, 4) == pytest.approx(0.078460, abs=2e-6)

    def test_approaches_one_at_mu_equals_m(self):
        assert chernoff_mu_bound(4 - 1e-9, 4) == pytest.approx(1.0, abs=1e-6)

    def test_matches_lambda_form_for_iid(self):
        for n, m, e in ((10, 4, 0.1), (26, 6, 0.0686), (50, 10, 0.05)):
            mu_form = chernoff_mu_bound(n * e, m)
            lam_form = chernoff_lambda(m / n, e) ** n
            assert mu_form == pytest.approx(lam_form, rel=1e-12, abs=0)

    def test_domain_errors(self):
        for mu in (-0.5, 4.5, math.inf, math.nan):
            with pytest.raises(DomainError):
                chernoff_mu_bound(mu, 4)

    def test_m_below_one_rejected(self):
        with pytest.raises(ValueError, match=r"^m=0 must be at least 1$"):
            chernoff_mu_bound(1.0, 0)

    def test_closed_domain_edges(self):
        # 1 at mu = m; 0 at mu = 0, by continuous extension, and where
        # mu / m underflows to 0.
        assert chernoff_mu_bound(4.0, 4) == 1.0
        assert chernoff_mu_bound(0.0, 4) == chernoff_mu_bound(5e-324, 2) == 0.0


class TestChernoffLambda:
    def test_known_value(self):
        expect = math.exp(0.3) / 4**0.4
        assert chernoff_lambda(0.4, 0.1) == pytest.approx(expect, rel=1e-13, abs=0)
        assert chernoff_lambda(0.4, 0.1) == pytest.approx(0.775290, abs=5e-7)

    def test_degenerate_matches(self):
        assert chernoff_lambda(0.3, 0.3) == pytest.approx(1.0, abs=1e-15)
        assert chernoff_lambda(0.25, 0.0) == 0.0

    def test_strictly_below_one_off_diagonal(self):
        for r in (0.1, 0.25, 0.6):
            for e in (0.01, 0.4, 0.9):
                if e != r:
                    assert 0.0 <= chernoff_lambda(r, e) < 1.0

    def test_increasing_below_r(self):
        assert chernoff_lambda(0.25, 0.05) < chernoff_lambda(0.25, 0.15)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            chernoff_lambda(0.0, 0.1)
        with pytest.raises(DomainError):
            chernoff_lambda(1.0, 0.1)
        with pytest.raises(DomainError):
            chernoff_lambda(0.25, -0.1)

    def test_full_form_holds_only_up_to_r(self):
        # At e = 0.5 > m/n = 0.2, lambda^n = 0.3112 lies below the exact
        # tail 0.9893; at the edge it is 1.
        with pytest.raises(DomainError, match="inapplicable"):
            chernoff_bound(10, 2, 0.5)
        assert chernoff_bound(10, 2, 0.2) == 1.0
        with pytest.raises(DomainError):
            chernoff_bound(3, 3, 0.1)  # m = n: lambda has no r < 1

    def test_exponential_decay_doubling(self):
        for n, m in ((8, 2), (20, 5)):
            b1 = chernoff_bound(n, m, 0.1)
            b2 = chernoff_bound(2 * n, 2 * m, 0.1)
            assert b2 == pytest.approx(b1**2, rel=1e-12, abs=0)


class TestOmega:
    def test_inside_unit_interval_off_diagonal(self):
        for r in (0.2, 0.25, 0.5):
            for e in np.linspace(0.01, 0.99, 25):
                e = float(e)
                w = omega_factor(r, e)
                if abs(e - r) > 1e-12:
                    assert 0.0 < w < 1.0
                else:
                    assert w == pytest.approx(1.0, abs=1e-12)


class TestKz:
    def test_zero_correlation_is_pure_decay_bound(self):
        assert kz_bound(10, 4, 0.1, 0.0) == pytest.approx(
            chernoff_bound(10, 4, 0.1), abs=1e-15
        )

    def test_pivot_rate_kills_correction(self):
        n, m = 10, 4
        e = (m - 1) / (n - 1)
        assert kz_bound(n, m, e, 0.05) == pytest.approx(
            chernoff_bound(n, m, e), abs=1e-15
        )

    def test_published_aggregate_value(self):
        assert kz_bound(26, 6, 0.0686, 0.0058) == pytest.approx(0.055, abs=0.01)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            kz_bound(10, 4, 0.1, -0.01)
        with pytest.raises(DomainError):
            kz_bound(10, 4, 0.4, 0.01)  # e above (m-1)/(n-1)
        with pytest.raises(DomainError):
            kz_bound(10, 4, 0.1, 0.9)  # c above the admissible maximum
        with pytest.raises(DomainError):
            kz_bound(10, 2, 0.2, 0.0)  # e equal to m/n degenerates the decay

    def test_gate_order(self):
        # c < 0, then e > (m-1)/(n-1), then e = m/n, then c above c_max,
        # then a tight envelope whose correction overflows (subnormal e).
        cases = [
            ((10, 4, 0.4, -0.01), "c=-0.01 is negative"),
            ((10, 4, 0.4, 0.9), "e_bar=0.4 > (m-1)/(n-1)=0.3333333333333333"),
            ((3, 3, 1.0, 0.0), "e=1.0 equals m/n; decay factor degenerates to 1"),
            ((10, 4, 0.1, 0.9), "c=0.9 above admissible maximum"),
            ((10, 4, 0.0, 0.9), "e=0.0 must lie strictly inside (0, 1)"),
            ((3, 2, 5e-324, 0.25), "e=5e-324: the tight envelope's correction is beyond"),
            ((26, 6, 1e-310, 0.01), "e=1e-310: the tight envelope's correction is beyond"),
        ]
        for args, text in cases:
            with pytest.raises((DomainError, ModelError)) as exc:
                kz_bound(*args)
            assert str(exc.value).startswith(text), args

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_c_rejected(self, c):
        with pytest.raises(ValueError, match="c="):
            kz_bound(10, 5, 0.1, c)
        with pytest.raises(ValueError, match="c="):
            kz_value(10, 5, 0.1, c)

    def test_kz_value_needs_two_classifiers(self):
        with pytest.raises(ValueError, match=r"^n=1 must be at least 2$"):
            kz_value(1, 1, 0.1, 0.0)

    def test_signature_has_no_option(self):
        assert list(inspect.signature(kz_bound).parameters) == ["n", "m", "e", "c"]
        assert all(p.default is p.empty and p.kind is p.POSITIONAL_OR_KEYWORD
                   for p in inspect.signature(kz_bound).parameters.values())

    @pytest.mark.parametrize("n, m", [(26, 6), (127, 32), (1000, 248)])
    def test_display_form_at_the_benchmark_rates(self, n, m):
        # omega^n covers p(n-1, m-1, e) for e >= 0.05 at every (n, m) the
        # benchmark runs, so there the value is the display form, bit for bit.
        top = (m - 1) / (n - 1)
        for e in np.linspace(0.05, top, 12):
            e = float(e)
            _, c_max = valid_correlation_range(n, e)
            for c in (c_max * (k / 6) for k in range(1, 7)):
                assert kz_bound(n, m, e, c) == kz_value(n, m, e, c), (e, c)

    def test_tight_form_below_the_threshold(self):
        # At (26, 6) the display form is proven only for e >= 0.0422.
        for e, form in ((0.0421, "tight"), (0.0423, "display")):
            c = 0.5 * valid_correlation_range(26, e)[1]
            want = kz_value(26, 6, e, c * (6 / 26) / e if form == "tight" else c)
            assert kz_bound(26, 6, e, c) == want, form

    def test_m_equal_to_n_left_to_kz_value(self):
        with pytest.raises(DomainError, match=r"^r=1\.0 outside"):
            kz_bound(3, 3, 0.5, 0.0)

    def test_unchecked_form_accepts_out_of_range_inputs(self):
        # Negative c with e below the pivot gives a negative correction.
        assert kz_value(10, 2, 0.05, -0.05) < chernoff_bound(10, 2, 0.05)
        # Above the pivot the correction flips sign instead of erroring.
        assert kz_value(10, 2, 0.15, 0.05) < chernoff_bound(10, 2, 0.15)

    def test_display_form_can_undershoot_exact_tail(self):
        # The omega^n correction drops a factor (m/n)/e carried by the
        # envelope; at small e the resulting value falls below the exact
        # exchangeable tail, so it is not a bound there.
        n, m, e = 8, 2, 0.01
        _, c_max = bahadur_range(n, e)
        c = 0.5 * c_max
        exact = ExchangeableModel(n, e, c).tail(m)
        assert exact > kz_value(n, m, e, c) + 1e-6
        assert exact <= kz_bound(n, m, e, c) + 1e-12

    def test_gated_kz_bounds_the_exact_tail_on_every_fixture_fold(self):
        # At each fixture's class count and at its alternative length, as
        # analyze --fixture and analyze --n evaluate it.
        for name in fixture_names():
            info = DATASETS[name.split("_")[0]]
            m = sylvester_distance(info.classes, DEFAULT_ORIENTATION) // 2
            for n in filter(None, (info.classes, info.alt_n)):
                for fold, summary in enumerate(load_fixture(name), 1):
                    report = bound_report(summary, n, m)
                    if report.kz is None:
                        assert report.kz_reason, (name, n, fold)
                        continue
                    e, c = summary.mean_bit_error, summary.mean_correlation
                    exact = ExchangeableModel(n, e, c).tail(m)
                    assert report.kz >= exact - 1e-12, (name, n, fold)


def _iid_tail(n, m, e):
    return Independent(ErrorProfile.iid(n, e)).tail(m)


@st.composite
def _below_rate(draw):
    """(n, m, e) with 1 <= m < n and 0 <= e < m/n."""
    n = draw(st.integers(2, 60))
    m = draw(st.integers(1, n - 1))
    return n, m, draw(st.floats(0.0, m / n, exclude_max=True))


@st.composite
def _any_rate(draw):
    """(n, m, e) with 1 <= m <= n and e anywhere in [0, 1]."""
    n = draw(st.integers(1, 60))
    return n, draw(st.integers(1, n)), draw(st.floats(0.0, 1.0))


@st.composite
def _any_rate_and_mu(draw):
    """(n, m, e, mu): _any_rate's point and mu anywhere in [0, 2m]."""
    n, m, e = draw(_any_rate())
    return n, m, e, draw(st.floats(0.0, 2.0 * m))


def _value_or_none(bound, *args):
    """bound(*args), or None where it raises DomainError."""
    try:
        return bound(*args)
    except DomainError:
        return None


def _cells_unlike_their_functions(n, m, e, mu):
    """How many of evaluate_bounds' feller, chernoff_mu and chernoff_lambda
    cells differ from their bound function's _value_or_none."""
    report = evaluate_bounds(n, m, e, mu=mu)
    return sum((
        report.feller != _value_or_none(feller_bound, n, m, e),
        report.chernoff_mu != _value_or_none(chernoff_mu_bound, mu, m),
        report.chernoff_lambda != _value_or_none(chernoff_bound, n, m, e),
    ))


@st.composite
def _unequal_rates(draw):
    """(rates, m): 1 to 14 rates anywhere in [0, 1] and m in 1..n."""
    rates = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=14))
    return rates, draw(st.integers(1, len(rates)))


def _least_reported(report, *fields):
    """The least of a BoundReport's fields, absent ones skipped (inf when
    every one is absent)."""
    values = (getattr(report, field) for field in fields)
    return min((v for v in values if v is not None), default=math.inf)


def _report_at_sum(rates, m):
    """evaluate_bounds at the rates' mean, with mu their sum."""
    mu = math.fsum(rates)
    return evaluate_bounds(len(rates), m, mu / len(rates), mu=mu)


@st.composite
def _above_mean_count(draw):
    """(rates, m) with m >= n e_bar + 1: m - 1 at least the rates' exact sum."""
    rates = draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12))
    lo = math.ceil(sum(map(Fraction, rates))) + 1
    assume(lo <= len(rates))
    return rates, draw(st.integers(lo, len(rates)))


@st.composite
def _kz_admitted(draw):
    """(n, m, e, c) past kz_bound's gates: 2 <= m < n, 0 < e <= (m-1)/(n-1)
    and 0 <= c below the admissible maximum.  e reaches down to the least
    subnormal, where the exchangeable model still builds its three terms;
    only the points where kz_bound's tight correction leaves a double, and
    kz is reported absent with that reason, are assumed away."""
    n = draw(st.integers(3, 16))
    m = draw(st.integers(2, n - 1))
    e = draw(st.floats(5e-324, (m - 1) / (n - 1)))
    c = valid_correlation_range(n, e)[1] * draw(st.floats(0.0, 1.0, exclude_max=True))
    try:
        kz_bound(n, m, e, c)
    except ModelError:
        assume(False)
    return n, m, e, c


@st.composite
def _pair_shaped_correlation(draw):
    """(n, e, c) with c in the valid range and f = e^2 + C(n, 2) c e(1-e)
    in pair_f_range(e, e): c at most 1/C(n, 2), where f reaches e."""
    n = draw(st.integers(2, 40))
    e = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    lo, hi = valid_correlation_range(n, e)
    c = lo + draw(st.floats(0.0, 1.0)) * (min(hi, 1.0 / math.comb(n, 2)) - lo)
    f_lo, f_hi = pair_f_range(e, e)
    assume(f_lo <= _pair_f(n, e, c) <= f_hi)
    return n, e, c


def _pair_f(n, e, c):
    """The exchangeable model's cell p11 = e^2 + C(n, 2) c e(1-e)."""
    return e * e + math.comb(n, 2) * c * e * (1.0 - e)


def _exchangeable_unlike_pair(n, e, c):
    """The largest difference between the exchangeable count pmf and the
    one-rate pair's at f = _pair_f(n, e, c)."""
    pair = PairModel(ErrorProfile.iid(n, e), _pair_f(n, e, c)).count_pmf()
    return np.abs(ExchangeableModel(n, e, c).count_pmf() - pair).max()


# One row per inequality a printed number leans on: the strategy that draws
# the domain where the relation is claimed, and the two sides at a drawn
# point, lower side first.  Each holds within 1e-12 absolute.
LAWS = {
    # Hoeffding (1963, Thm 1): omega^n = exp(-n D(m/n || e)) caps the iid tail.
    "iid_tail-omega_n": (_below_rate(), lambda n, m, e: (
        _iid_tail(n, m, e), omega_factor(m / n, e) ** n)),
    "omega_n-lambda_n": (_below_rate(), lambda n, m, e: (
        omega_factor(m / n, e) ** n, chernoff_bound(n, m, e))),
    # Hoeffding (1956): unequal rates spread the count less than equal ones.
    "unequal_tail-iid_tail_at_mean": (_above_mean_count(), lambda rates, m: (
        Independent(ErrorProfile(tuple(rates))).tail(m),
        _iid_tail(len(rates), m, math.fsum(rates) / len(rates)))),
    "exchangeable_tail-kz_bound": (_kz_admitted(), lambda n, m, e, c: (
        ExchangeableModel(n, e, c).tail(m), kz_bound(n, m, e, c))),
    # Summed over the outcomes of k errors, Bahadur's law is the pair's
    # three-term law at f = e^2 + C(n, 2) c e(1-e), where that f is a pair's.
    "exchangeable_pmf_unlike_pair_pmf-none": (_pair_shaped_correlation(), lambda n, e, c: (
        _exchangeable_unlike_pair(n, e, c), 0)),
    # Every feller and Chernoff value evaluate_bounds reports is a bound at
    # any rate: a form is absent where its precondition fails.
    "iid_tail-reported_bounds": (_any_rate(), lambda n, m, e: (
        _iid_tail(n, m, e),
        _least_reported(evaluate_bounds(n, m, e),
                        "feller", "chernoff_mu", "chernoff_lambda"))),
    "unequal_tail-reported_mu_form": (_unequal_rates(), lambda rates, m: (
        Independent(ErrorProfile(tuple(rates))).tail(m),
        _least_reported(_report_at_sum(rates, m), "chernoff_mu"))),
    # Each bound function owns its domain: it returns exactly where its
    # report cell is present, and the same value.
    "cells_unlike_their_functions-none": (_any_rate_and_mu(), lambda n, m, e, mu: (
        _cells_unlike_their_functions(n, m, e, mu), 0)),
}


@pytest.mark.parametrize("law", LAWS)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_law_holds_on_its_domain(law, data):
    strategy, sides = LAWS[law]
    point = data.draw(strategy)
    lower, upper = sides(*point)
    assert lower <= upper + 1e-12, point


class TestEvaluateBounds:
    def test_full_report(self):
        report = evaluate_bounds(26, 6, 0.0686, c=0.0058)
        assert report.gs == pytest.approx(0.2744, abs=1e-12)
        assert report.chernoff_lambda == pytest.approx(0.047, abs=0.005)
        assert report.kz == pytest.approx(0.055, abs=0.01)
        assert report.feller == pytest.approx(feller_bound(26, 6, 0.0686), abs=1e-15)
        assert 0 < report.lam < 1 and 0 < report.omega < 1
        assert report.chernoff_mu == pytest.approx(report.chernoff_lambda, rel=1e-12, abs=0)

    def test_feller_absent_when_inapplicable(self):
        report = evaluate_bounds(10, 2, 0.3)
        assert report.feller is None

    def test_chernoff_forms_absent_outside_their_domain(self):
        # Each holds only for mu <= m and e <= m/n, where it is 1 at the edge.
        above = evaluate_bounds(10, 2, 0.5)
        assert above.chernoff_mu is above.chernoff_lambda is None
        assert above.lam == chernoff_lambda(0.2, 0.5)
        edge = evaluate_bounds(10, 2, 0.2)
        assert edge.chernoff_mu == edge.chernoff_lambda == 1.0
        assert evaluate_bounds(10, 4, 0.1, mu=4.5).chernoff_mu is None
        assert evaluate_bounds(10, 4, 0.1, mu=4.0).chernoff_mu == 1.0

    def test_kz_gating(self):
        negative = evaluate_bounds(10, 2, 0.05, c=-0.01)
        assert negative.kz is None and "negative" in negative.kz_reason
        high_rate = evaluate_bounds(10, 4, 0.35, c=0.05)
        assert high_rate.kz is None and high_rate.kz_reason
        missing = evaluate_bounds(10, 4, 0.1)
        assert missing.kz is None

    def test_zero_rate_gated_kz_absent(self):
        # bahadur_range rejects e = 0; the gated kz reports that, not raises.
        report = evaluate_bounds(10, 2, 0.0, c=0.0058)
        assert report.kz is None and "(0, 1)" in report.kz_reason
        assert report.chernoff_lambda == 0.0

    @pytest.mark.parametrize("policy", ["gated", "always"])
    def test_m_equal_to_n_flags_decay_bounds(self, policy):
        for n, c in ((3, None), (3, 0.01), (1, 0.1)):
            report = evaluate_bounds(n, n, 0.1, c=c, kz_policy=policy)
            assert report.chernoff_lambda is report.lam is report.omega is None
            assert report.kz is None and "m < n" in report.kz_reason
            assert report.feller == pytest.approx(feller_bound(n, n, 0.1), abs=0)
            assert report.gs == gs_bound((0.1,))

    def test_gated_kz_is_kz_bound(self):
        # evaluate_bounds runs no gate of its own: its kz is kz_bound's value
        # and its kz_reason kz_bound's message.
        for n in (2, 3, 10, 26, 127):
            for m in sorted({1, max(1, n // 4), n - 1}):
                rates = (0.0, 5e-324, 1e-19, 1e-6, 0.05, (m - 1) / (n - 1), 0.3, m / n, 0.9,
                         1.0)
                for e in rates:
                    for c in (-0.01, 0.0, 0.001, 0.0058, 0.5):
                        report = evaluate_bounds(n, m, e, c=c)
                        try:
                            want, reason = kz_bound(n, m, e, c), None
                        except (DomainError, ModelError) as exc:
                            want, reason = None, str(exc)
                        assert (report.kz, report.kz_reason) == (want, reason)

    def test_kz_policy_always(self):
        report = evaluate_bounds(10, 2, 0.05, c=-0.01, kz_policy="always")
        assert report.kz == pytest.approx(kz_value(10, 2, 0.05, -0.01), abs=0)

    def test_mu_override(self):
        report = evaluate_bounds(10, 4, 0.1, mu=1.0)
        assert report.chernoff_mu == pytest.approx(math.e**3 / 256, rel=1e-12, abs=0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match=r"^m=0 outside 1\.\.10$"):
            evaluate_bounds(10, 0, 0.1)
        with pytest.raises(ValueError, match=r"^m=11 outside 1\.\.10$"):
            evaluate_bounds(10, 11, 0.1)
        with pytest.raises(ValueError, match=r"^e=2\.0 outside \[0, 1\]$"):
            evaluate_bounds(10, 5, 2.0)
        with pytest.raises(ValueError):
            evaluate_bounds(10, 4, 0.1, kz_policy="sometimes")

    @pytest.mark.parametrize(
        "field, value",
        [("c", math.nan), ("c", math.inf), ("c", -math.inf),
         ("mu", math.nan), ("mu", math.inf), ("mu", -1.0)],
    )
    def test_rejects_non_finite_c_and_bad_mu(self, field, value):
        with pytest.raises(ValueError, match=f"{field}="):
            evaluate_bounds(10, 2, 0.1, **{field: value})

    def test_zero_mu_accepted(self):
        assert evaluate_bounds(10, 2, 0.1, mu=0.0).chernoff_mu == 0.0


class TestInputTypes:
    """A count or size that is not an integer, or a rate or correlation
    that is not a number, is named, not read as a number or left to a
    TypeError."""

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: feller_bound(10, 2.5, 0.1), "m=2.5 is not an integer"),
            (lambda: chernoff_bound(10.5, 3, 0.1), "n=10.5 is not an integer"),
            (lambda: chernoff_bound(10, 3.0, 0.1), "m=3.0 is not an integer"),
            (lambda: feller_bound(10, 3, None), "e=None is not a number"),
            (lambda: chernoff_bound(10, 3, "0.1"), "e='0.1' is not a number"),
            (lambda: kz_value(10, 3, 0.1, None), "c=None is not a number"),
            (lambda: kz_bound(10, 3, 0.1, "0"), "c='0' is not a number"),
            (lambda: evaluate_bounds(10, 3, 0.1, c="x"), "c='x' is not a number"),
            (lambda: evaluate_bounds(None, 3, 0.1), "n=None is not an integer"),
            (lambda: bahadur_range(2.5, 0.1), "n=2.5 is not an integer"),
            (lambda: bahadur_range(5, "0.1"), "e='0.1' is not a number"),
            (lambda: valid_correlation_range(5, None), "e=None is not a number"),
            # Named ids keep the ids above, whose duplicates pytest numbers.
            pytest.param(lambda: chernoff_mu_bound(1.0, 2.5), "m=2.5 is not an integer",
                         id="chernoff_mu_bound-m"),
            pytest.param(lambda: chernoff_mu_bound(None, 3), "mu=None is not a number",
                         id="chernoff_mu_bound-mu"),
            pytest.param(lambda: chernoff_lambda("0.3", 0.1), "r='0.3' is not a number",
                         id="chernoff_lambda-r"),
            pytest.param(lambda: chernoff_lambda(0.3, None), "e=None is not a number",
                         id="chernoff_lambda-e"),
            pytest.param(lambda: omega_factor([0.3], 0.1), "r=[0.3] is not a number",
                         id="omega_factor-r"),
            pytest.param(lambda: omega_factor(0.3, None), "e=None is not a number",
                         id="omega_factor-e"),
            pytest.param(lambda: evaluate_bounds(10, 3, 0.1, mu="x"), "mu='x' is not a number",
                         id="evaluate_bounds-mu"),
        ],
    )
    def test_names_a_value_of_the_wrong_type(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_numpy_scalars_are_read(self):
        n, m, e = np.int64(10), np.int64(3), np.float64(0.1)
        assert feller_bound(n, m, e) == feller_bound(10, 3, 0.1)
        assert bahadur_range(n, e) == bahadur_range(10, 0.1)
        assert chernoff_mu_bound(np.float64(1.0), m) == chernoff_mu_bound(1.0, 3)
        assert chernoff_lambda(np.float64(0.3), e) == chernoff_lambda(0.3, 0.1)
        assert omega_factor(0.3, e) == omega_factor(0.3, 0.1)
        assert evaluate_bounds(n, m, e, np.float64(0.01), np.float64(0.5)) == evaluate_bounds(
            10, 3, 0.1, 0.01, 0.5)
