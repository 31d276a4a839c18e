"""Analytic upper bounds on the worst-case ensemble error rate.

Four families: the correlation-agnostic 4*mean-rate bound, a rational bound
valid above the mean error count, the exponential-decay bound in both its
sum-of-rates form and its per-classifier decay-factor form lambda^n, and the
correlation-corrected bound for the exchangeable model.

Bound values are never clipped to [0, 1]; callers that want display
probabilities can take min(value, 1) themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from ._shared import KZ_POLICIES
from .errors import DomainError, ModelError
from .prob_engine import ErrorProfile, _check_integer, _check_number, _checked_rates
from .prob_engine import correlation_correction, valid_correlation_range


@dataclass(frozen=True)
class BoundInputs:
    """Parameter set for one bound evaluation.

    mu defaults to n * e_bar, the identically-distributed case.  c, when
    given, must be finite, and mu finite and non-negative.
    """

    n: int
    m: int
    e_bar: float
    c: float | None = None
    mu: float | None = None

    def __post_init__(self):
        _check_inputs(self.n, self.m, self.e_bar, self.c)
        if self.mu is not None:
            _check_number("mu", self.mu)
            if not (math.isfinite(self.mu) and self.mu >= 0.0):
                raise ValueError(f"mu={self.mu} must be finite and non-negative")

    @property
    def r(self) -> float:
        return self.m / self.n

    @property
    def mu_value(self) -> float:
        return self.n * self.e_bar if self.mu is None else self.mu


@dataclass(frozen=True)
class BoundReport:
    """Evaluated bounds for one parameter set.

    feller and kz are None where their preconditions fail; kz_reason says
    why.  lam and omega are the per-classifier factors behind the exponential
    bounds: chernoff_lambda = lam**n and the correlation correction scales
    with omega**n.  At m = n (r = 1) those factors are undefined, so
    chernoff_lambda, lam, omega and kz are all None.
    """

    gs: float
    feller: float | None
    chernoff_mu: float
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
    """Four times the mean of rates checked as by ErrorProfile.  May exceed 1."""
    values = rates.rates if isinstance(rates, ErrorProfile) else _checked_rates(rates)
    # Start from -0.0, the additive identity, so a lone -0.0 rate keeps its sign.
    return 4.0 * sum(values, -0.0) / len(values)


def feller_bound(n: int, m: int, e: float) -> float:
    """Rational tail bound m(1-e) / (m - n e)^2, valid for m > n e."""
    _check_inputs(n, m, e)
    if m <= n * e:
        raise DomainError(f"inapplicable: m={m} <= n*e={n * e}")
    return m * (1.0 - e) / (m - n * e) ** 2


def chernoff_mu_bound(mu: float, m: int) -> float:
    """Exponential tail bound e^(m - mu) * (mu / m)^m for 0 < mu < m."""
    _check_number("mu", mu)
    _check_integer("m", m)
    if m < 1:
        raise ValueError(f"m={m} must be at least 1")
    if not 0.0 < mu < m:
        raise DomainError(f"inapplicable: mu={mu} outside (0, {m})")
    return _chernoff_mu(mu, m)


def _chernoff_mu(mu: float, m: int) -> float:
    return math.exp((m - mu) + m * math.log(mu / m))


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
    """Full-ensemble form chernoff_lambda(m/n, e) ** n."""
    _check_inputs(n, m, e)
    return chernoff_lambda(m / n, e) ** n


def omega_factor(r: float, e: float) -> float:
    """Binomial-envelope factor omega = (e/r)^r ((1-e)/(1-r))^(1-r).

    Strictly inside (0, 1) for e != r; equals 1 at e = r.
    """
    _check_factor_inputs(r, e)
    if e == 0.0 or e == 1.0:
        return 0.0
    return math.exp(r * math.log(e / r) + (1.0 - r) * math.log((1.0 - e) / (1.0 - r)))


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


def kz_bound(
    n: int, m: int, e: float, c: float, *, tight_envelope: bool = False
) -> float:
    """Correlation-corrected bound for the exchangeable model.

    Inputs outside kz_value's contract raise ValueError.  Within it the
    bound requires, checked in this order, c >= 0, e <= (m-1)/(n-1), e != m/n
    and c within the admissible correlation range; the DomainError (or, for
    e = 0, ModelError) names the first that fails, and its text is the
    kz_reason evaluate_bounds reports.

    The default omega^n correction term is the conventional display form, but
    it can undershoot the exact exchangeable tail when e is far below m/n:
    bounding the binomial mass p(n-1, m-1, e) by omega^n drops a factor of
    (m/n)/e that the envelope actually carries.  Pass tight_envelope=True to
    keep that factor, which makes the value a guaranteed upper bound on
    ExchangeableModel(n, e, c).tail(m) for all admissible inputs.
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
    return kz_value(n, m, e, c * r / e if tight_envelope else c)


def evaluate_bounds(inputs: BoundInputs, *, kz_policy: str = "gated") -> BoundReport:
    """Evaluate every bound for one parameter set, flagging inapplicable ones.

    kz_policy: "gated" leaves kz absent when c is missing or kz_bound rejects
    its inputs (e_bar = 0 included), with kz_bound's message as kz_reason;
    "always" evaluates the expression regardless (the convention used by
    published per-fold tables).
    """
    if kz_policy not in KZ_POLICIES:
        raise ValueError(f"unknown kz_policy {kz_policy!r}")
    n, m, e = inputs.n, inputs.m, inputs.e_bar
    r = inputs.r
    gs = gs_bound((e,))
    try:
        feller = feller_bound(n, m, e)
    except DomainError:
        feller = None
    # lambda, omega and the bounds built on them need r = m/n inside (0, 1).
    decay = m < n
    lam = chernoff_lambda(r, e) if decay else None
    omega = omega_factor(r, e) if decay else None
    mu = inputs.mu_value
    # The mu-form expression stays a valid (if trivial) bound outside
    # (0, m); evaluate it whenever it is defined so the report is complete.
    chernoff_mu = _chernoff_mu(mu, m) if mu > 0.0 else 0.0

    kz = None
    kz_reason = None
    if not decay:
        kz_reason = f"m=n={n}: the decay bounds need m < n"
    elif inputs.c is None:
        kz_reason = "no correlation supplied"
    elif kz_policy == "always":
        kz = kz_value(n, m, e, inputs.c)
    else:
        try:
            kz = kz_bound(n, m, e, inputs.c)
        except (DomainError, ModelError) as exc:
            kz_reason = str(exc)
    return BoundReport(
        gs=gs,
        feller=feller,
        chernoff_mu=chernoff_mu,
        chernoff_lambda=lam**n if decay else None,
        kz=kz,
        lam=lam,
        omega=omega,
        kz_reason=kz_reason,
    )
