"""Tests for the analytic bound evaluations."""

import math
import re

import numpy as np
import pytest

from ecoc.bounds import (
    BoundInputs,
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
from ecoc.errors import DomainError, ModelError
from ecoc.prob_engine import ErrorProfile, ExchangeableModel, Independent


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
        assert chernoff_mu_bound(1.0, 4) == pytest.approx(math.e**3 / 256, rel=1e-12)
        assert chernoff_mu_bound(1.0, 4) == pytest.approx(0.078460, abs=2e-6)

    def test_approaches_one_at_mu_equals_m(self):
        assert chernoff_mu_bound(4 - 1e-9, 4) == pytest.approx(1.0, abs=1e-6)

    def test_matches_lambda_form_for_iid(self):
        for n, m, e in ((10, 4, 0.1), (26, 6, 0.0686), (50, 10, 0.05)):
            mu_form = chernoff_mu_bound(n * e, m)
            lam_form = chernoff_lambda(m / n, e) ** n
            assert mu_form == pytest.approx(lam_form, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            chernoff_mu_bound(4.0, 4)
        with pytest.raises(DomainError):
            chernoff_mu_bound(0.0, 4)


class TestChernoffLambda:
    def test_known_value(self):
        expect = math.exp(0.3) / 4**0.4
        assert chernoff_lambda(0.4, 0.1) == pytest.approx(expect, rel=1e-13)
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

    def test_exponential_decay_doubling(self):
        for n, m in ((8, 2), (20, 5)):
            b1 = chernoff_bound(n, m, 0.1)
            b2 = chernoff_bound(2 * n, 2 * m, 0.1)
            assert b2 == pytest.approx(b1**2, rel=1e-12)


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
        # c < 0, then e > (m-1)/(n-1), then e = m/n, then c above c_max.
        cases = [
            ((10, 4, 0.4, -0.01), "c=-0.01 is negative"),
            ((10, 4, 0.4, 0.9), "e_bar=0.4 > (m-1)/(n-1)=0.3333333333333333"),
            ((3, 3, 1.0, 0.0), "e=1.0 equals m/n; decay factor degenerates to 1"),
            ((10, 4, 0.1, 0.9), "c=0.9 above admissible maximum"),
            ((10, 4, 0.0, 0.9), "e=0.0 must lie strictly inside (0, 1)"),
        ]
        for args, text in cases:
            with pytest.raises((DomainError, ModelError)) as exc:
                kz_bound(*args)
            assert str(exc.value).startswith(text), args

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_c_rejected(self, c):
        for tight in (False, True):
            with pytest.raises(ValueError, match="c="):
                kz_bound(10, 5, 0.1, c, tight_envelope=tight)
        with pytest.raises(ValueError, match="c="):
            kz_value(10, 5, 0.1, c)

    def test_tight_envelope_scales_c(self):
        for n, m, e, c in ((10, 4, 0.1, 0.01), (26, 6, 0.0686, 0.0058), (8, 2, 0.01, 0.1)):
            tight = kz_bound(n, m, e, c, tight_envelope=True)
            assert tight == kz_value(n, m, e, c * (m / n) / e)

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
        assert exact <= kz_bound(n, m, e, c, tight_envelope=True) + 1e-12

    def test_tight_envelope_dominates_exact_tail(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(4, 16))
            m = int(rng.integers(2, max(3, n // 2 + 1)))
            top = (m - 1) / (n - 1)
            e = float(rng.uniform(0.005, top * 0.999))
            if abs(e - m / n) < 1e-9:
                continue
            _, c_max = bahadur_range(n, e)
            c = float(rng.uniform(0.0, c_max))
            exact = ExchangeableModel(n, e, c).tail(m)
            bound = kz_bound(n, m, e, c, tight_envelope=True)
            assert exact <= bound + 1e-12, (n, m, e, c)


class TestDominance:
    def test_iid_tail_below_feller_and_decay_bound(self):
        for n, m in ((8, 2), (10, 2), (16, 4), (26, 6)):
            r = m / n
            for e in np.linspace(0.005, r * 0.999, 20):
                e = float(e)
                t = Independent(ErrorProfile.iid(n, e)).tail(m)
                assert t <= feller_bound(n, m, e) + 1e-12
                assert t <= chernoff_bound(n, m, e) + 1e-12

    def test_heterogeneous_tail_below_mu_form(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(3, 14))
            m = int(rng.integers(1, n + 1))
            rates = tuple(rng.uniform(0.0, m / n * 0.999, n))
            mu = sum(rates)
            if mu <= 0.0:
                continue
            t = Independent(ErrorProfile(rates)).tail(m)
            assert t <= chernoff_mu_bound(mu, m) + 1e-12


class TestEvaluateBounds:
    def test_full_report(self):
        report = evaluate_bounds(BoundInputs(26, 6, 0.0686, c=0.0058))
        assert report.gs == pytest.approx(0.2744, abs=1e-12)
        assert report.chernoff_lambda == pytest.approx(0.047, abs=0.005)
        assert report.kz == pytest.approx(0.055, abs=0.01)
        assert report.feller == pytest.approx(feller_bound(26, 6, 0.0686), abs=1e-15)
        assert 0 < report.lam < 1 and 0 < report.omega < 1
        assert report.chernoff_mu == pytest.approx(report.chernoff_lambda, rel=1e-12)

    def test_feller_absent_when_inapplicable(self):
        report = evaluate_bounds(BoundInputs(10, 2, 0.3))
        assert report.feller is None

    def test_kz_gating(self):
        negative = evaluate_bounds(BoundInputs(10, 2, 0.05, c=-0.01))
        assert negative.kz is None and "negative" in negative.kz_reason
        high_rate = evaluate_bounds(BoundInputs(10, 4, 0.35, c=0.05))
        assert high_rate.kz is None and high_rate.kz_reason
        missing = evaluate_bounds(BoundInputs(10, 4, 0.1))
        assert missing.kz is None

    def test_zero_rate_gated_kz_absent(self):
        # bahadur_range rejects e = 0; the gated kz reports that, not raises.
        report = evaluate_bounds(BoundInputs(10, 2, 0.0, c=0.0058))
        assert report.kz is None and "(0, 1)" in report.kz_reason
        assert report.chernoff_lambda == 0.0

    @pytest.mark.parametrize("policy", ["gated", "always"])
    def test_m_equal_to_n_flags_decay_bounds(self, policy):
        for n, c in ((3, None), (3, 0.01), (1, 0.1)):
            report = evaluate_bounds(BoundInputs(n, n, 0.1, c=c), kz_policy=policy)
            assert report.chernoff_lambda is report.lam is report.omega is None
            assert report.kz is None and "m < n" in report.kz_reason
            assert report.feller == pytest.approx(feller_bound(n, n, 0.1), abs=0)
            assert report.gs == gs_bound((0.1,))

    def test_gated_kz_is_kz_bound(self):
        # evaluate_bounds runs no gate of its own: its kz is kz_bound's value
        # and its kz_reason kz_bound's message.
        for n in (2, 3, 10, 26, 127):
            for m in sorted({1, max(1, n // 4), n - 1}):
                rates = (0.0, 1e-19, 1e-6, 0.05, (m - 1) / (n - 1), 0.3, m / n, 0.9, 1.0)
                for e in rates:
                    for c in (-0.01, 0.0, 0.001, 0.0058, 0.5):
                        report = evaluate_bounds(BoundInputs(n, m, e, c=c))
                        try:
                            want, reason = kz_bound(n, m, e, c), None
                        except (DomainError, ModelError) as exc:
                            want, reason = None, str(exc)
                        assert (report.kz, report.kz_reason) == (want, reason)

    def test_kz_policy_always(self):
        report = evaluate_bounds(BoundInputs(10, 2, 0.05, c=-0.01), kz_policy="always")
        assert report.kz == pytest.approx(kz_value(10, 2, 0.05, -0.01), abs=0)

    def test_mu_override(self):
        report = evaluate_bounds(BoundInputs(10, 4, 0.1, mu=1.0))
        assert report.chernoff_mu == pytest.approx(math.e**3 / 256, rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            BoundInputs(10, 0, 0.1)
        with pytest.raises(ValueError):
            BoundInputs(10, 11, 0.1)
        with pytest.raises(ValueError):
            evaluate_bounds(BoundInputs(10, 4, 0.1), kz_policy="sometimes")

    @pytest.mark.parametrize(
        "field, value",
        [("c", math.nan), ("c", math.inf), ("c", -math.inf),
         ("mu", math.nan), ("mu", math.inf), ("mu", -1.0)],
    )
    def test_rejects_non_finite_c_and_bad_mu(self, field, value):
        with pytest.raises(ValueError, match=f"{field}="):
            BoundInputs(10, 2, 0.1, **{field: value})

    def test_zero_mu_accepted(self):
        assert evaluate_bounds(BoundInputs(10, 2, 0.1, mu=0.0)).chernoff_mu == 0.0

    def test_replace_and_make_check_as_construction_does(self):
        # Both build through BoundInputs.__new__; a bare NamedTuple's would
        # return e_bar=2.0 unchecked.
        inputs = BoundInputs(10, 5, 0.1)
        with pytest.raises(ValueError, match=r"^e=2\.0 outside \[0, 1\]$"):
            inputs._replace(e_bar=2.0)
        with pytest.raises(ValueError, match=r"^mu=-1\.0 must be finite"):
            inputs._replace(mu=-1.0)
        with pytest.raises(ValueError, match=r"^m=11 outside 1\.\.10$"):
            BoundInputs._make((10, 11, 0.1, None, None))
        assert inputs._replace(c=0.01) == BoundInputs(10, 5, 0.1, c=0.01)
        assert type(BoundInputs._make(inputs)) is BoundInputs


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
            (lambda: BoundInputs(10, 3, 0.1, c="x"), "c='x' is not a number"),
            (lambda: BoundInputs(None, 3, 0.1), "n=None is not an integer"),
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
            pytest.param(lambda: BoundInputs(10, 3, 0.1, mu="x"), "mu='x' is not a number",
                         id="BoundInputs-mu"),
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
        assert BoundInputs(10, 3, 0.1, mu=np.float64(0.5)).mu_value == 0.5
