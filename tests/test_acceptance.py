"""Acceptance suite.

One test per criterion; each prints a single PASS line on success (run with
``pytest -s tests/test_acceptance.py`` to see them).  Criteria and their
tolerances:

 1. independent-model pmf/tail vs 2^n enumeration, 1e-12, < 10 s
 2. pair-model recursion and tail vs enumeration, 1e-10, < 30 s
 3. exchangeable tail = pmf sum = enumeration, 1e-10, < 60 s
 4. bound dominance grid, zero violations beyond 1e-12
 5. monotonicity grids, zero violations beyond 1e-12
 6. construction yields m=2 at 10 classes and m=6 at 26
 7. fixture-driven aggregate-table reproduction within stated tolerances
 8. Monte Carlo consistency at 3 standard errors, < 2 min
 9. one sign change per ensemble size in the gs-vs-decay curve data

Criterion 10 is a scope note: the upstream classifier-training experiments
are replaced by the fixture reproduction (7) plus the exact/property suites
(1-5); nothing here trains models.
"""

import math
import time

import numpy as np
import pytest

from ecoc.bounds import (
    chernoff_bound,
    chernoff_lambda,
    chernoff_mu_bound,
    feller_bound,
    kz_bound,
    valid_correlation_range,
)
from ecoc.code_matrix import (
    DEFAULT_ORIENTATION,
    KEEP_BOTTOM_RIGHT,
    KEEP_TOP_LEFT,
    build_code_matrix,
)
from ecoc.experiment_io import (
    DATASETS,
    bound_report,
    figure_one_curves,
    fixture_text,
    format_report_csv,
    load_fixture,
    reproduce_reference_table,
)
from ecoc.prob_engine import (
    ErrorProfile,
    ExchangeableModel,
    Independent,
    PairModel,
    enumerate_outcomes,
    pair_f_range,
)
from ecoc.simulator import SimConfig, mc_decode_error, mc_threshold_error


def _report(num: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: PASS{suffix}")


def test_criterion_1_independent_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(20210901)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 13))
        profile = ErrorProfile(tuple(rng.uniform(0.0, 1.0, n)))
        oracle = enumerate_outcomes(Independent(profile))
        dist = Independent(profile).count_pmf()
        tail_acc = 0.0
        for k in range(n, -1, -1):
            worst = max(worst, abs(Independent(profile).pmf(k) - oracle[k]))
            worst = max(worst, abs(dist[k] - oracle[k]))
            tail_acc += oracle[k]
            if k >= 1:
                worst = max(worst, abs(Independent(profile).tail(k) - tail_acc))
    elapsed = time.monotonic() - start
    assert worst <= 1e-12, f"worst deviation {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report(1, "independent oracle equivalence",
            f"200 profiles, worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_pair_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    for n in range(2, 11):
        for e in (0.05, 0.15, 0.25, 0.35, 0.45):
            lo, hi = pair_f_range(e, e)
            for f in np.linspace(lo, hi, 5):
                f = float(f)
                model = PairModel(ErrorProfile.iid(n, e), f)
                oracle = enumerate_outcomes(model)
                dist = model.count_pmf()
                tail_acc = 0.0
                for k in range(n, -1, -1):
                    worst = max(
                        worst, abs(model.pmf(k) - oracle[k])
                    )
                    worst = max(worst, abs(dist[k] - oracle[k]))
                    tail_acc += oracle[k]
                    if k >= 1:
                        worst = max(worst, abs(model.tail(k) - tail_acc))
    # A few heterogeneous profiles through the same recursion.
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        rates = tuple(rng.uniform(0.05, 0.6, n))
        lo, hi = pair_f_range(rates[-2], rates[-1])
        model = PairModel(ErrorProfile(rates), float(rng.uniform(lo, hi)))
        oracle = enumerate_outcomes(model)
        dist = model.count_pmf()
        for k in range(n + 1):
            worst = max(worst, abs(model.pmf(k) - oracle[k]))
            worst = max(worst, abs(dist[k] - oracle[k]))
    elapsed = time.monotonic() - start
    assert worst <= 1e-10, f"worst deviation {worst:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report(2, "pair-model oracle equivalence", f"worst {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_exchangeable_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    for n in (2, 3, 4, 6, 8, 10, 12):
        for e in np.arange(0.05, 0.501, 0.05):
            e = float(e)
            # Five correlation values spanning the admissible interval (the
            # published lower formula overshoots below e=1/2, so the grid is
            # drawn from the weight-valid subrange).
            lo, hi = valid_correlation_range(n, e)
            for c in np.linspace(lo + 1e-12, hi, 5):
                c = float(c)
                model = ExchangeableModel(n, e, c)
                oracle = enumerate_outcomes(model)
                pmf = [ExchangeableModel(n, e, c).pmf(k) for k in range(n + 1)]
                dist = model.count_pmf()
                for k in range(n + 1):
                    worst = max(worst, abs(pmf[k] - oracle[k]))
                    worst = max(worst, abs(dist[k] - oracle[k]))
                for m in range(1, n + 1):
                    tail = ExchangeableModel(n, e, c).tail(m)
                    by_sum = sum(pmf[m:])
                    by_enum = sum(oracle[k] for k in range(m, n + 1))
                    worst = max(worst, abs(tail - by_sum), abs(tail - by_enum))
    elapsed = time.monotonic() - start
    assert worst <= 1e-10, f"worst deviation {worst:.3e}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(3, "exchangeable oracle equivalence", f"worst {worst:.2e}, {elapsed:.2f}s")


GRID_SIZES = (8, 10, 12, 16, 26)


def test_criterion_4_bound_dominance():
    violations = []
    rng = np.random.default_rng(12)
    for n in GRID_SIZES:
        code = build_code_matrix(n)
        m = code.m
        r = code.r
        for e in np.linspace(0.004, r * 0.999, 40):
            e = float(e)
            exact = Independent(ErrorProfile.iid(n, e)).tail(m)
            if exact > feller_bound(n, m, e) + 1e-12:
                violations.append(("feller", n, m, e))
            if exact > chernoff_bound(n, m, e) + 1e-12:
                violations.append(("chernoff", n, m, e))
        # Sum-of-rates form against heterogeneous profiles on the same grid.
        for _ in range(40):
            rates = tuple(rng.uniform(0.0, r * 0.999, n))
            mu = sum(rates)
            if mu <= 0.0:
                continue
            het = Independent(ErrorProfile(rates)).tail(m)
            if het > chernoff_mu_bound(mu, m) + 1e-12:
                violations.append(("chernoff-mu", n, m, mu))
        # Correlation-corrected bound over admissible non-negative c.
        top = (m - 1) / (n - 1)
        for e in np.linspace(0.004, top * 0.999, 25):
            e = float(e)
            if abs(e - r) < 1e-9:
                continue
            _, c_max = valid_correlation_range(n, e)
            for c in np.linspace(0.0, c_max, 6):
                c = float(c)
                exact = ExchangeableModel(n, e, c).tail(m)
                bound = kz_bound(n, m, e, c)
                if exact > bound + 1e-12:
                    violations.append(("kz", n, m, e, c))
    assert not violations, f"{len(violations)} dominance violations: {violations[:5]}"
    _report(4, "bound dominance suite",
            f"sizes {GRID_SIZES}, zero violations beyond 1e-12")


def test_criterion_5_monotonicity():
    violations = []
    # Tail direction in the pair joint probability: non-decreasing while the
    # common rate sits below (m-1)/(n-1), non-increasing above.
    for n, m in ((6, 2), (10, 4), (12, 3), (16, 4)):
        pivot = (m - 1) / (n - 1)
        rates_below = np.linspace(0.01, pivot, 6)
        rates_above = np.linspace(pivot, 0.99, 6)
        for e in np.concatenate([rates_below, rates_above]):
            e = float(e)
            fs = np.linspace(*pair_f_range(e, e), 12)
            vals = [PairModel(ErrorProfile.iid(n, e), float(f)).tail(m) for f in fs]
            diffs = np.diff(vals)
            if e <= pivot and (diffs < -1e-12).any():
                violations.append(("tail-up", n, m, e))
            if e >= pivot and (diffs > 1e-12).any():
                violations.append(("tail-down", n, m, e))
    # Decay factor grows with the error rate below the correction ratio.
    for r in (0.2, 0.25, 6 / 26, 0.5):
        grid = np.linspace(1e-4, r * 0.9999, 200)
        lams = [chernoff_lambda(r, float(e)) for e in grid]
        if (np.diff(lams) < -1e-12).any():
            violations.append(("lambda", r))
    assert not violations, f"monotonicity violations: {violations[:5]}"
    _report(5, "monotonicity suite", "tail-vs-f directions and decay factor")


def test_criterion_6_reference_code_parameters():
    results = {
        orient: {n: build_code_matrix(n, orientation=orient) for n in (10, 26)}
        for orient in (KEEP_BOTTOM_RIGHT, KEEP_TOP_LEFT)
    }
    chosen = results[DEFAULT_ORIENTATION]
    if chosen[10].m != 2 or chosen[26].m != 6:
        detail = {
            orient: {n: (c.d, c.m) for n, c in codes.items()}
            for orient, codes in results.items()
        }
        pytest.fail(
            "no truncation orientation reproduces the reference (m, r) pairs "
            f"m=2@10 and m=6@26; got (d, m) per orientation: {detail}"
        )
    assert chosen[10].r == 2 / 10
    assert chosen[26].r == 6 / 26
    _report(6, "reference construction parameters",
            f"{DEFAULT_ORIENTATION}: m=2@10, m=6@26")


CHERNOFF_KZ_TOL = {
    "pendigits": 0.02,
    "vowel": 0.02,
    "usps": 0.01,
    "letters": 0.01,
    "cifar10": 0.01,
    "svhn": 0.01,
}


def test_criterion_7_reference_table_reproduction():
    rows = reproduce_reference_table()
    assert len(rows) == 10
    details = []
    for row in rows:
        ref = row.reference
        agg = row.aggregate
        tol = CHERNOFF_KZ_TOL[row.dataset]
        assert agg.gs.mean == pytest.approx(ref.gs, abs=0.005), (
            row.dataset, row.model, "gs", agg.gs.mean)
        assert agg.chernoff.mean == pytest.approx(ref.chernoff, abs=tol), (
            row.dataset, row.model, "chernoff", agg.chernoff.mean)
        assert agg.kz.mean == pytest.approx(ref.kz, abs=tol), (
            row.dataset, row.model, "kz", agg.kz.mean)
        # Experimental column is fixture pass-through: published mean matches
        # to table rounding, and the per-fold values survive the report
        # byte-for-byte.
        assert agg.experimental.mean == pytest.approx(ref.experimental, abs=5e-4)
        if row.dataset in ("pendigits", "vowel"):
            assert set(row.by_n) == {10, 11}
            details.append(
                f"{row.dataset}/{row.model} n={row.chosen_n} "
                f"(alt chernoff {row.by_n[11 if row.chosen_n == 10 else 10].chernoff.mean:.3f})"
            )
    for name in ("letters_dt", "pendigits_svm", "vowel_dt", "svhn_cnn"):
        dataset = name.rsplit("_", 1)[0]
        summaries = load_fixture(name)
        code = build_code_matrix(DATASETS[dataset].classes)
        reports = [bound_report(s, code.n, code.m, kz_policy="always") for s in summaries]
        out_lines = format_report_csv(summaries, reports).splitlines()[1:]
        src_lines = fixture_text(name).splitlines()[1:]
        for out_line, src_line in zip(out_lines, src_lines):
            assert out_line.split(",")[3] == src_line.split(",")[5]
    _report(7, "reference aggregate-table reproduction",
            "; ".join(details) or "all rows in tolerance")


def test_criterion_8_monte_carlo_consistency():
    start = time.monotonic()
    rng = np.random.default_rng(777)
    checked = 0
    family = 0
    while checked < 20:
        n = int(rng.integers(5, 13))
        m = int(rng.integers(1, max(2, n // 2)))
        e = float(rng.uniform(0.05, 0.35))
        if family % 3 == 0:
            rates = tuple(rng.uniform(0.02, 0.4, n))
            model = Independent(ErrorProfile(rates))
            exact = model.tail(m)
        elif family % 3 == 1:
            lo, hi = pair_f_range(e, e)
            f = float(rng.uniform(lo, hi))
            model = PairModel(ErrorProfile.iid(n, e), f)
            exact = PairModel(ErrorProfile.iid(n, e), f).tail(m)
        else:
            lo, hi = valid_correlation_range(n, e)
            c = float(rng.uniform(0.0, hi))
            model = ExchangeableModel(n, e, c)
            exact = ExchangeableModel(n, e, c).tail(m)
        family += 1
        cfg = SimConfig(trials=1_000_000, seed=int(rng.integers(0, 2**31)))
        result = mc_threshold_error(model, m, cfg)
        se = max(result.std_err, math.sqrt(exact * (1 - exact) / cfg.trials))
        assert abs(result.error_rate - exact) <= 3 * se, (model, m, exact, result)
        checked += 1
    # Decoding can only do better than the worst-case threshold count.
    for n in (8, 10, 12, 16):
        code = build_code_matrix(n)
        model = Independent(ErrorProfile.iid(n, float(rng.uniform(0.05, 0.2))))
        cfg = SimConfig(trials=100_000, seed=int(rng.integers(0, 2**31)))
        dec = mc_decode_error(model, code, cfg)
        thr = mc_threshold_error(model, code.m, cfg)
        combined = math.hypot(dec.std_err, thr.std_err)
        assert dec.error_rate <= thr.error_rate + 3 * combined
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    _report(8, "Monte Carlo consistency",
            f"20 threshold configs + 4 decode configs, {elapsed:.1f}s")


def test_criterion_9_curve_crossing_structure():
    rows = figure_one_curves(ns=(10, 20, 50), r=0.25, step=0.001)
    by_n: dict[int, list[float]] = {}
    for row in rows:
        by_n.setdefault(row["n"], []).append(row["chernoff"] - row["gs"])
    assert set(by_n) == {10, 20, 50}
    crossings = {}
    for n, diffs in by_n.items():
        signs = np.sign(diffs)
        assert (signs != 0).all()
        changes = int((signs[1:] * signs[:-1] < 0).sum())
        assert changes == 1, f"n={n}: {changes} sign changes"
        crossings[n] = changes
    _report(9, "curve crossing structure", "one sign change each at n=10,20,50")


def test_criterion_10_scope_note():
    # No classifier training happens here by design: the fixture-driven
    # reproduction (criterion 7) plus the exact and property suites (1-5)
    # stand in for the upstream experiments.
    _report(10, "scope note", "fixture reproduction substitutes for training runs")
