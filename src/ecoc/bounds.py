"""Analytic upper bounds on the worst-case ensemble error rate.

Four families: the correlation-agnostic 4*mean-rate bound, a rational bound
valid above the mean error count, the exponential-decay bound in both its
sum-of-rates form and its per-classifier decay-factor form lambda^n, and the
correlation-corrected bound for the exchangeable model.  The correlation
ranges the last one is gated by are here too: Bahadur's published range
(bahadur_range) and the exact admissible one that ExchangeableModel also
reads (valid_correlation_range, from _shared), both closed forms in n and e,
beside the factor c adds to the iid tail (correlation_correction).  Standard
library only: no bound builds a distribution, so `ecoc bounds` and
`ecoc bahadur` load no numpy.  Each bound function raises DomainError
where its value is not a bound, and evaluate_bounds reads absence from
it.  The record BoundReport is a NamedTuple, not a dataclass, whose
import loads inspect and whose generated methods are executed at import.

Bound values are never clipped to [0, 1]; callers that want display
probabilities can take min(value, 1) themselves.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, NamedTuple

from ._shared import KZ_POLICIES, _check_integer, _check_number, _checked_rates
from ._shared import _published_range, valid_correlation_range
from .errors import DomainError, ModelError

if TYPE_CHECKING:
    from .prob_engine import ErrorProfile


class BoundReport(NamedTuple):
    """Evaluated bounds for one parameter set.

    Each cell is None where its bound function raises DomainError, so
    that every value given is an upper bound: feller needs m > n e,
    chernoff_mu needs mu <= m and chernoff_lambda needs e <= r = m/n (both
    are 1 at the edge), and kz_reason says why kz is absent.  lam and omega
    are the per-classifier factors behind the exponential bounds:
    chernoff_lambda = lam**n and the correlation correction scales with
    omega**n.  At m = n (r = 1) those factors are undefined, so
    chernoff_lambda, lam, omega and kz are all None.
    """

    gs: float
    feller: float | None
    chernoff_mu: float | None
    chernoff_lambda: float | None
    kz: float | None
    lam: float | None
    omega: float | None
    kz_reason: str | None = None


def _check_inputs(n: int, m: int, e: float, c=None, *, min_n: int = 1) -> None:
    """The bound-input contract: n an integer of at least min_n, m an
    integer in 1..n, e a number in [0, 1] and c, when given, a finite
    number; a value of the wrong type is named, as prob_engine names it."""
    _check_integer("n", n)
    _check_integer("m", m)
    _check_number("e", e)
    if c is not None:
        _check_number("c", c)
    if n < min_n:
        raise ValueError(f"n={n} must be at least {min_n}")
    if not 1 <= m <= n:
        raise ValueError(f"m={m} outside 1..{n}")
    if not 0.0 <= e <= 1.0:
        raise ValueError(f"e={e} outside [0, 1]")
    if c is not None and not math.isfinite(c):
        raise ValueError(f"c={c} must be finite")


def _check_factor_inputs(r: float, e: float) -> None:
    _check_number("r", r)
    _check_number("e", e)
    if not 0.0 < r < 1.0:
        raise DomainError(f"r={r} outside (0, 1)")
    if not 0.0 <= e <= 1.0:
        raise DomainError(f"e={e} outside [0, 1]")


def gs_bound(rates: ErrorProfile | Iterable[float]) -> float:
    """Four times the mean of rates checked as by ErrorProfile, or of an
    ErrorProfile's own rates (read from its rates attribute, so that the
    class is not imported).  May exceed 1."""
    values = _checked_rates(getattr(rates, "rates", rates))
    # Start from -0.0, the additive identity, so a lone -0.0 rate keeps its sign.
    return 4.0 * sum(values, -0.0) / len(values)


def feller_bound(n: int, m: int, e: float) -> float:
    """Rational tail bound m(1-e) / (m - n e)^2, valid for m > n e."""
    _check_inputs(n, m, e)
    if m <= n * e:
        raise DomainError(f"inapplicable: m={m} <= n*e={n * e}")
    return m * (1.0 - e) / (m - n * e) ** 2


def chernoff_mu_bound(mu: float, m: int) -> float:
    """Exponential tail bound e^(m - mu) * (mu / m)^m for 0 <= mu <= m: 1 at
    mu = m, and 0 at mu = 0 (by continuous extension) and wherever mu / m
    underflows to 0, where the bound is below any double."""
    _check_number("mu", mu)
    _check_integer("m", m)
    if m < 1:
        raise ValueError(f"m={m} must be at least 1")
    if not 0.0 <= mu <= m:
        raise DomainError(f"inapplicable: mu={mu} outside [0, {m}]")
    ratio = mu / m
    return math.exp((m - mu) + m * math.log(ratio)) if ratio > 0.0 else 0.0


def chernoff_lambda(r: float, e: float) -> float:
    """Per-classifier decay factor lambda = e^(r - e) * (e / r)^r.

    Lies in [0, 1) whenever e != r; equals 1 at e = r.  e = 0 returns 0 by
    continuous extension.  The full-ensemble bound is lambda**n.
    """
    _check_factor_inputs(r, e)
    if e == 0.0:
        return 0.0
    return math.exp((r - e) + r * math.log(e / r))


def chernoff_bound(n: int, m: int, e: float) -> float:
    """chernoff_lambda(m/n, e) ** n, an iid tail bound for e <= m/n < 1."""
    _check_inputs(n, m, e)
    if e > m / n:
        raise DomainError(f"inapplicable: e={e} > m/n={m / n}")
    return chernoff_lambda(m / n, e) ** n


def omega_factor(r: float, e: float) -> float:
    """Binomial-envelope factor omega = (e/r)^r ((1-e)/(1-r))^(1-r).

    Strictly inside (0, 1) for e != r; equals 1 at e = r.
    """
    _check_factor_inputs(r, e)
    if e == 0.0 or e == 1.0:
        return 0.0
    return math.exp(r * math.log(e / r) + (1.0 - r) * math.log((1.0 - e) / (1.0 - r)))


def correlation_correction(n: int, m: int, e: float, c: float) -> float:
    """0.5 c n (n-1) ((m-1)/(n-1) - e): the factor that the correlation c
    adds to the iid tail at m.  The exact exchangeable tail adds it times
    p(n-1, m-1, e) (the paper's closed form, which the tests check against
    ExchangeableModel.tail in exact integers): its count law summed from m
    telescopes to the iid tail + g [p(n-2, m-2, e) - p(n-2, m-1, e)],
    g = C(n, 2) c e(1-e), and that is it.  kz_value adds it times omega^n."""
    return 0.5 * c * n * (n - 1) * ((m - 1) / (n - 1) - e)


def bahadur_range(n: int, e: float) -> tuple[float, float]:
    """Published admissible range for the uniform correlation coefficient.

    The upper end is exact: it is the largest c for which every induced
    outcome probability stays non-negative.  The lower end is exact only for
    e >= 1/2; below that it understates the true constraint, which is why the
    model checks c against valid_correlation_range.  At subnormal e the
    lower end is beyond a double, and a ModelError says so.
    """
    c_min, c_max = _published_range(n, e)
    if not math.isfinite(c_min):
        raise ModelError(f"e={e}: lower end -2(1-e)/(n(n-1)e) is beyond a double")
    return c_min, c_max


def kz_value(n: int, m: int, e: float, c: float) -> float:
    """Correlation-corrected bound expression, evaluated unconditionally.

    lambda^n + 0.5 c n (n-1) ((m-1)/(n-1) - e) omega^n, n >= 2.  No checks
    past the input contract: negative c or e above (m-1)/(n-1) simply make
    the correction negative.  This is the form experiment reports publish.
    """
    _check_number("c", c)
    _check_inputs(n, m, e, c, min_n=2)
    r = m / n
    correction = correlation_correction(n, m, e, c)
    return chernoff_lambda(r, e) ** n + correction * omega_factor(r, e) ** n


def kz_bound(n: int, m: int, e: float, c: float) -> float:
    """Correlation-corrected bound for the exchangeable model.

    Inputs outside kz_value's contract raise ValueError.  Within it the bound
    requires, in this order, c >= 0, e <= (m-1)/(n-1), e != m/n and c within
    the admissible correlation range; the DomainError (or, for e = 0,
    ModelError) naming the first that fails is evaluate_bounds' kz_reason.

    Past them it is the display form kz_value(n, m, e, c) where omega^n >=
    p(n-1, m-1, e), i.e. e >= C(n-1, m-1) r^m (1-r)^(n-m) with r = m/n, taken
    in log space (e above 0.0422 at (n, m) = (26, 6), 0.0205 at (127, 32)
    and 0.0072 at (1000, 248)); else the tight kz_value(n, m, e, c r/e), and
    a ModelError where its correction overflows.  Both bound ExchangeableModel(n, e,
    c).tail(m), the iid tail plus the correction times p(n-1, m-1, e):
    lambda^n >= the iid tail for e < r, the gates make the correction >= 0,
    and its multiplier, omega^n under the condition and (r/e) omega^n always,
    is at least p(n-1, m-1, e).
    """
    _check_number("c", c)
    _check_inputs(n, m, e, c, min_n=2)
    r = m / n
    if c < 0.0:
        raise DomainError(f"c={c} is negative")
    if e > (m - 1) / (n - 1):
        raise DomainError(f"e_bar={e} > (m-1)/(n-1)={(m - 1) / (n - 1)}")
    if e == r:
        raise DomainError(f"e={e} equals m/n; decay factor degenerates to 1")
    _, c_max = valid_correlation_range(n, e)
    if c > c_max:
        raise DomainError(f"c={c} above admissible maximum {c_max}")
    if not math.isfinite(correlation_correction(n, m, e, c * r / e)):  # subnormal e only
        raise ModelError(f"e={e}: the tight envelope's correction is beyond a double")
    log_floor = math.lgamma(n) - math.lgamma(m) - math.lgamma(n - m + 1) + m * math.log(r)
    display = m < n and math.log(e) >= log_floor + (n - m) * math.log1p(-r)
    return kz_value(n, m, e, c if display else c * r / e)


def evaluate_bounds(
    n: int, m: int, e_bar: float, c: float | None = None, mu: float | None = None,
    *, kz_policy: str = "gated",
) -> BoundReport:
    """Evaluate every bound for one parameter set, flagging inapplicable ones.

    mu, the rates' sum, defaults to n * e_bar.  Each cell is its bound
    function's value, None where that raises DomainError.  kz_policy:
    "gated" leaves kz absent when c is missing or kz_bound rejects its
    inputs (e_bar = 0 included), with kz_bound's message as kz_reason;
    "always" evaluates the expression regardless (the convention used by
    published per-fold tables).
    """
    _check_inputs(n, m, e_bar, c)
    if mu is not None:
        _check_number("mu", mu)
        if not (math.isfinite(mu) and mu >= 0.0):
            raise ValueError(f"mu={mu} must be finite and non-negative")
    if kz_policy not in KZ_POLICIES:
        raise ValueError(f"unknown kz_policy {kz_policy!r}")

    def cell(bound, *args):
        try:
            return bound(*args)
        except DomainError:
            return None

    lam = cell(chernoff_lambda, m / n, e_bar)
    kz = kz_reason = None
    if lam is None:  # r = m/n = 1
        kz_reason = f"m=n={n}: the decay bounds need m < n"
    elif c is None:
        kz_reason = "no correlation supplied"
    elif kz_policy == "always":
        kz = kz_value(n, m, e_bar, c)
    else:
        try:
            kz = kz_bound(n, m, e_bar, c)
        except (DomainError, ModelError) as exc:
            kz_reason = str(exc)
    return BoundReport(
        gs=gs_bound((e_bar,)),
        feller=cell(feller_bound, n, m, e_bar),
        chernoff_mu=cell(chernoff_mu_bound, n * e_bar if mu is None else mu, m),
        chernoff_lambda=cell(chernoff_bound, n, m, e_bar),
        kz=kz,
        lam=lam,
        omega=cell(omega_factor, m / n, e_bar),
        kz_reason=kz_reason,
    )
