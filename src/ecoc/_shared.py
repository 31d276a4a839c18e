"""What the command line needs before it knows its command: the CSV writer
of every csv output but pmf's (int, float) rows, the vocabularies its
parser offers as choices, the integer, number and rate rules, the
correlation ranges that the exchangeable model and the bounds share, and
the Sylvester code's distance in closed form, so that `ecoc code`,
`analyze --fixture` and `analyze --summary` read a code's parameters
without building it.
Standard library only, so that the parser and a command's output load no
library module the command does not run.  bounds, simulator, prob_engine,
code_matrix and experiment_io import their names from here."""

from __future__ import annotations

import csv
import io
import math
import numbers

from .errors import ModelError

# evaluate_bounds' kz policies: "gated" (kz_bound) or "always" (kz_value).
KZ_POLICIES = ("gated", "always")

# The simulator's two estimators, as SimResult.mode names them.
MODE_THRESHOLD = "threshold"
MODE_FULL_DECODE = "full-decode"

# The two truncations of a Sylvester matrix to a square code.
KEEP_BOTTOM_RIGHT = "keep-bottom-right"
KEEP_TOP_LEFT = "keep-top-left"

# Deleting initial rows/columns (keeping the bottom-right block) is the
# orientation whose (m, r) pairs match the reference 10- and 26-class codes;
# the fixture test in tests/test_code_matrix.py gates this choice.
DEFAULT_ORIENTATION = KEEP_BOTTOM_RIGHT

# Largest Sylvester order: order 15 is 1 GiB of uint8, order 16 would be 4 GiB.
SYLVESTER_MAX_K = 15


def _check_integer(name: str, value) -> None:
    """A count or size: a Python or NumPy integer, never a float.  A Python
    int is let through before the numbers.Integral check, which costs about
    0.5 us: analyze --fixture makes about 120 checks for ten folds."""
    if not isinstance(value, int) and not isinstance(value, numbers.Integral):
        raise ValueError(f"{name}={value!r} is not an integer")


def _check_number(name: str, value) -> None:
    """A model parameter: a real number (its range is checked by the model);
    text is not converted, unlike a rate.  A Python float or int (NumPy's
    float64 is a float) is let through before the numbers.Real check."""
    if not isinstance(value, (float, int)) and not isinstance(value, numbers.Real):
        raise ValueError(f"{name}={value!r} is not a number")


def _checked_rates(rates) -> tuple[float, ...]:
    """The rates as a tuple of floats: at least one, each a number in [0, 1]
    (not NaN); the first bad one is named by its place.  Checked by a plain
    loop: a vectorised compare pays numpy's fixed cost on every call, and
    ErrorProfile.iid passes one rate, a --rates list rarely more than a few
    hundred, where that cost exceeds the loop's (it wins from about 250).
    Read once into a tuple, the entries are converted in one map, and again
    one by one only when it fails, to name the entry float() rejects: a
    float() per entry in the loop cost 20 % more at 1,000 rates (2-vCPU Xeon)."""
    rates = tuple(rates)
    try:
        checked = tuple(map(float, rates))
    except (TypeError, ValueError):
        for i, r in enumerate(rates, 1):
            try:
                float(r)
            except (TypeError, ValueError):
                raise ValueError(f"rate e_{i}={r!r} is not a number") from None
    if not checked:
        raise ValueError("error profile needs at least one rate")
    for i, e in enumerate(checked, 1):
        if not 0.0 <= e <= 1.0:
            raise ValueError(f"rate e_{i}={e} outside [0, 1]")
    return checked


def _check_order(k) -> None:
    """A Sylvester order: an integer from 0 to SYLVESTER_MAX_K."""
    _check_integer("k", k)
    if k < 0:
        raise ValueError(f"k={k} must be non-negative")
    if k > SYLVESTER_MAX_K:
        raise ValueError(f"k={k} exceeds practical cap {SYLVESTER_MAX_K}")


def sylvester_distance(num_classes, orientation: str) -> int:
    """The minimum row distance d of build_code_matrix(num_classes,
    orientation), the least weight on the kept columns of a nonzero row v
    of the order-k Sylvester matrix, 2^k the least power of two >= c =
    num_classes (build_code_matrix proves this); each v has h = 2^(k-1)
    ones.  Lemma, for 2^j <= t <= 2^(j+1): if v's low j bits are nonzero,
    v has 2^(j-1) ones in [0, 2^j) and on [2^j, t) repeats or complements
    its part on [0, t - 2^j), which has at least t - 2^j - 2^(j-1) ones
    and zeros each, so v has t - 2^j to g(t) = min(t - 2^(j-1), 2^j) ones
    in [0, t), g(t) at v = 2^j + 2^(j-1); else v has none in [0, 2^j) and
    at most t - 2^j, as v = 2^j has.  Keep-top-left keeps [0, c): t = c,
    j = k - 1 and v = h is the one row of the second kind, so d = c - h.
    Keep-bottom-right keeps [t, 2^k), t = 2^k - c, so d = h - g(t), with
    g(t) = 0 for t <= 1 as column 0 is all zero.

    These are build_code_matrix's argument checks, each a ValueError, in
    this order: num_classes an integer, at least 2 and of an order at most
    SYLVESTER_MAX_K, and then the orientation one of the two.
    """
    _check_integer("num_classes", num_classes)
    if num_classes < 2:
        raise ValueError(f"num_classes={num_classes} must be at least 2")
    c = int(num_classes)
    k = (c - 1).bit_length()
    _check_order(k)
    if orientation not in (KEEP_BOTTOM_RIGHT, KEEP_TOP_LEFT):
        raise ValueError(f"unknown orientation {orientation!r}")
    half = 1 << (k - 1)
    if orientation == KEEP_TOP_LEFT:
        return c - half
    t = (1 << k) - c
    j = t.bit_length() - 1
    return half - (min(t - (1 << (j - 1)), 1 << j) if t > 1 else 0)


def _published_range(n: int, e: float) -> tuple[float, float]:
    """bahadur_range without its check on the lower end, which is -inf when
    it overflows."""
    _check_integer("n", n)
    _check_number("e", e)
    if n < 2:
        raise ValueError(f"n={n} must be at least 2")
    if not (0.0 < e < 1.0):
        raise ModelError(f"e={e} must lie strictly inside (0, 1)")
    # The published form is 2e(1-e) / (y(1-e) + 1/4 - gamma), where
    # y = (n-1)e and gamma = min over k in 0..n of (k - y - 1/2)^2.  The
    # minimum sits at the integer k nearest y + 1/2, which is ceil(y) (when
    # y is an integer, y and y + 1 tie).  There 1/4 - gamma equals
    # (y - (k-1)) (k - y), a product of two non-negative factors, which keeps
    # its precision at small e where the difference 1/4 - gamma cancels.
    # c_max is unchanged by e -> 1 - e (y -> n-1-y leaves gamma and
    # (n-1)e(1-e) as they are), so it is evaluated at the smaller of the two,
    # and 1 - e is exact for e >= 1/2.
    lo = min(e, 1.0 - e)
    y = (n - 1) * lo
    k = math.ceil(y)
    c_min = -2.0 * (1.0 - e) / (n * (n - 1) * e)
    c_max = 2.0 * e * (1.0 - e) / (y * (1.0 - lo) + (y - (k - 1)) * (k - y))
    return c_min, c_max


def valid_correlation_range(n: int, e: float) -> tuple[float, float]:
    """Largest interval of c values for which every outcome probability of
    the exchangeable model (Bahadur's law) is non-negative, for every e in
    (0, 1).  Subset of bahadur_range for e < 1/2, equal otherwise."""
    c_min, c_max = _published_range(n, e)
    # An outcome of k errors has probability e^k (1-e)^(n-k) (1 + c S_k),
    # S_k = sum_{i<j} z_i z_j; for c < 0 the binding one has the largest
    # S_k, C(n, 2) max(e, 1-e) / min(e, 1-e), at k = 0 or k = n.
    g_max = n * (n - 1) * max(e, 1.0 - e) ** 2
    true_min = -2.0 * e * (1.0 - e) / g_max
    return max(c_min, true_min), c_max


def csv_text(columns, rows) -> str:
    """CSV text of a header of columns and one line per row, written by
    csv.writer with \\n line ends.  Each row is a sequence of cells in
    column order; a caller that holds dicts maps each one through the
    columns once.

    A cell holding a comma, a quote or a line break is quoted (RFC 4180), a
    float is written in full precision (str of a float is its repr) and None
    is an empty cell.  Every csv the command line prints or writes comes
    from here except `pmf`'s rows, an int and a float each, which need no
    quoting: cli.cmd_pmf joins their f"{k},{p!r}" lines itself, the same
    bytes in about two thirds of the time.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()
