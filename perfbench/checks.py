"""Output checks, computed without the code under test.

``Checker.check(op, record)`` returns ``None`` when the operation's output is
right and a one-line reason otherwise.  Expected values come from scipy,
from numpy recomputations on the generated arrays, or from the paper's
formulas written out here.  The only thing taken from ``ecoc`` is the
published aggregate table the fixtures are meant to reproduce.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
from scipy.stats import binom, poisson_binom

import workloads

# Combined tolerance for exact results: |got - want| <= ATOL + RTOL * |want|.
ATOL = 1e-12
RTOL = 1e-9
# Monte Carlo estimates may sit this many standard errors from the exact tail.
MC_SIGMAS = 5.0
# Tolerances of the reference-table reproduction (absolute, per column).
REF_TOL_GS = 0.005
REF_TOL_EXPERIMENTAL = 5e-4
REF_TOL_DECAY = {"pendigits": 0.02, "vowel": 0.02}
REF_TOL_DECAY_DEFAULT = 0.01


def close(got: float | None, want: float | None) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= ATOL + RTOL * abs(want)


def rows_of(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def num(value: str) -> float | None:
    return None if value == "" else float(value)


# ---------------------------------------------------------------------------
# exact distributions and bounds


def count_pmf(check: dict) -> np.ndarray:
    """Exact error-count distribution k = 0..n for one model."""
    n = check["n"]
    k = np.arange(n + 1)
    if check["model"] == "independent":
        return poisson_binom(np.asarray(check["rates"])).pmf(k)
    e = check["e"]
    if check["model"] == "iid":
        return binom.pmf(k, n, e)
    if check["model"] == "pair":
        f = check["f"]
        rest = binom.pmf(np.arange(n - 1), n - 2, e)
        return np.convolve(rest, [1.0 - 2.0 * e + f, 2.0 * (e - f), f])
    return binom.pmf(k, n, e) * workloads.exchangeable_weights(n, e, check["c"])


def decay_factors(n: int, m: int, e: float) -> tuple[float, float]:
    """(lambda, omega) of the exponential bounds, r = m / n."""
    r = m / n
    lam = math.exp((r - e) + r * math.log(e / r))
    omega = math.exp(r * math.log(e / r) + (1.0 - r) * math.log((1.0 - e) / (1.0 - r)))
    return lam, omega


def kz_expression(n: int, m: int, e: float, c: float) -> float:
    lam, omega = decay_factors(n, m, e)
    return lam**n + 0.5 * c * n * (n - 1) * ((m - 1) / (n - 1) - e) * omega**n


def kz_gated(n: int, m: int, e: float, c: float) -> float | None:
    """The correlation-corrected bound where its preconditions hold."""
    if c < 0.0 or e > (m - 1) / (n - 1) or e == m / n or c > workloads.valid_c_range(n, e)[1]:
        return None
    return kz_expression(n, m, e, c)


def code_params(classes: int) -> tuple[int, int]:
    d = workloads.code_distance(classes)
    return d, d // 2


class Checker:
    def __init__(self, seed: int, workload: str, root: Path):
        self.root = root
        self.folds = workloads.fold_arrays(seed) if workload == "fold-ingest" else {}
        self._cache: dict = {}

    def _cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def _pmf_of(self, c: dict) -> np.ndarray:
        # One parameter set per (model, n) in every workload.
        return self._cached(("pmf", c["model"], c["n"]), lambda: count_pmf(c))

    def check(self, op: dict, record: dict) -> str | None:
        if record["error"] is not None:
            return "raised: " + record["error"].strip().splitlines()[-1]
        if record["rc"] != 0:
            return f"exit status {record['rc']}"
        c = op["check"]
        try:
            return getattr(self, "_" + c["type"])(c, record)
        except (KeyError, ValueError, TypeError, IndexError, AttributeError) as exc:
            return f"unreadable output: {exc!r}"

    # -- exact-sweep ---------------------------------------------------------

    def _code(self, c, record):
        (row,) = rows_of(record["stdout"])
        d, m = self._cached(("code", c["classes"]), lambda: code_params(c["classes"]))
        n = c["classes"]
        got = (int(row["classes"]), int(row["n"]), int(row["d"]), int(row["m"]), float(row["r"]))
        if got != (n, n, d, m, m / n):
            return f"code parameters {got} != {(n, n, d, m, m / n)}"
        return None

    def _pmf(self, c, record):
        rows = rows_of(record["stdout"])
        want = self._pmf_of(c)
        if [int(r["k"]) for r in rows] != list(range(c["n"] + 1)):
            return "pmf rows are not k = 0..n"
        got = np.array([float(r["pmf"]) for r in rows])
        bad = np.abs(got - want) > ATOL + RTOL * np.abs(want)
        if bad.any():
            k = int(bad.argmax())
            return f"pmf[{k}] = {float(got[k])!r}, expected {float(want[k])!r}"
        if abs(got.sum() - 1.0) > 1e-9:
            return f"pmf sums to {got.sum()!r}"
        return None

    def _tail(self, c, record):
        (row,) = rows_of(record["stdout"])
        want = float(self._pmf_of(c)[c["m"]:].sum())
        got = float(row["tail"])
        if not close(got, want):
            return f"tail {got!r} != sum of pmf over k >= m {want!r}"
        return None

    def _bounds(self, c, record):
        (row,) = rows_of(record["stdout"])
        n, m, e, cc = c["n"], c["m"], c["e"], c["c"]
        lam, omega = decay_factors(n, m, e)
        mu = n * e
        want = {
            "gs": 4.0 * e,
            "feller": m * (1.0 - e) / (m - mu) ** 2 if m > mu else None,
            "chernoff_mu": math.exp((m - mu) + m * math.log(mu / m)),
            "chernoff": lam**n,
            "kz": kz_gated(n, m, e, cc),
            "lambda": lam,
            "omega": omega,
        }
        for key, value in want.items():
            if not close(num(row[key]), value):
                return f"{key} = {row[key]!r}, expected {value!r}"
        if e < m / n and lam**n < binom.sf(m - 1, n, e):
            return "decay bound below the exact binomial tail"
        return None

    def _bahadur(self, c, record):
        (row,) = rows_of(record["stdout"])
        n, e = c["n"], c["e"]
        lo, hi = workloads.valid_c_range(n, e)
        c_min = -2.0 * (1.0 - e) / (n * (n - 1) * e)
        checks = {"valid_c_min": max(lo, c_min), "valid_c_max": hi, "c_max": hi, "c_min": c_min}
        for key, value in checks.items():
            if not close(float(row[key]), value):
                return f"{key} = {row[key]!r}, expected {value!r}"
        return None

    # -- monte-carlo ---------------------------------------------------------

    def _simulate(self, c, record):
        (row,) = rows_of(record["stdout"])
        trials = c["trials"]
        if (int(row["trials"]), row["mode"], int(row["seed"])) != (trials, c["mode"], c["seed"]):
            return "trials, mode or seed not echoed"
        est = float(row["error_rate"])
        if not close(float(row["std_err"]), math.sqrt(est * (1.0 - est) / trials)):
            return f"std_err {row['std_err']} inconsistent with error_rate {est!r}"
        exact = float(self._pmf_of(c)[c["m"]:].sum())
        slack = MC_SIGMAS * math.sqrt(exact * (1.0 - exact) / trials)
        if c["mode"] == "threshold":
            if abs(est - exact) > slack:
                return f"threshold estimate {est!r} vs exact tail {exact!r} (+-{slack:.2g})"
        elif not 0.0 <= est <= exact + slack:
            return f"decode estimate {est!r} outside [0, P(K >= m) + {slack:.2g}] with P = {exact!r}"
        return None

    # -- fold-ingest ---------------------------------------------------------

    def _fold_bytes_digest(self, name: str) -> str:
        truth, bits = self.folds[name]
        n = bits.shape[1]
        cells = np.full((len(truth), 2 * n), ord(","), dtype=np.uint8)
        cells[:, 1::2] = bits + ord("0")
        lines = [b"true_class," + ",".join(f"bit_{i + 1}" for i in range(n)).encode()]
        lines += [str(int(t)).encode() + row.tobytes() for t, row in zip(truth, cells)]
        return hashlib.sha256(b"\r\n".join(lines) + b"\r\n").hexdigest()

    def _write(self, c, record):
        ((path, digest),) = record["files"].items()
        want = self._cached(("digest", c["fold"]), lambda: self._fold_bytes_digest(c["fold"]))
        if digest != want:
            return f"{path} does not hold the fold's rows"
        return None

    def _fold_stats(self, name: str, code: np.ndarray) -> dict:
        truth, bits = self.folds[name]
        errs = (bits != code[truth]).astype(np.float64)
        rates = errs.mean(axis=0)
        usable = (rates > 0.0) & (rates < 1.0)
        corr = np.corrcoef(errs[:, usable], rowvar=False)
        upper = corr[np.triu_indices(int(usable.sum()), k=1)]
        signed_words = 1.0 - 2.0 * bits
        signed_code = 1.0 - 2.0 * code
        decoded = (signed_words @ signed_code.T).argmax(axis=1)
        return {
            "mean_bit_error": float(rates.mean()),
            "mean_correlation": float(upper.mean()) if upper.size else 0.0,
            "experimental": float((decoded != truth).mean()),
        }

    def _analyze_predictions(self, c, record):
        classes = c["classes"]
        ((path, text),) = record["files"].items()
        if text is None:
            return f"{path} missing"
        rows = rows_of(text)
        code = workloads.code_bits(classes).astype(np.float64)
        _, m = self._cached(("code", classes), lambda: code_params(classes))
        want_rows = []
        for name in c["folds"]:
            s = self._cached(("stats", name), lambda: self._fold_stats(name, code))
            e, corr = s["mean_bit_error"], s["mean_correlation"]
            lam, _ = decay_factors(classes, m, e)
            want_rows.append({"fold": name, **s, "gs": 4.0 * e, "chernoff": lam**classes,
                              "kz": kz_gated(classes, m, e, corr)})
        if [r["fold"] for r in rows] != c["folds"] + ["mean", "std"]:
            return "report rows are not the folds followed by mean and std"
        for got, want in zip(rows, want_rows):
            for key, value in want.items():
                if key != "fold" and not close(num(got[key]), value):
                    return f"{want['fold']} {key} = {got[key]!r}, expected {value!r}"
        for key in ("experimental", "gs", "chernoff", "kz"):
            values = np.array([w[key] for w in want_rows if w[key] is not None])
            if values.size == 0:
                agg = {"mean": None, "std": None}
            else:
                std = float(values.std(ddof=1)) if values.size > 1 and values.max() > values.min() else 0.0
                agg = {"mean": float(values.mean()), "std": std}
            for got in rows[-2:]:
                if not close(num(got[key]), agg[got["fold"]]):
                    return f"{got['fold']} {key} = {got[key]!r}, expected {agg[got['fold']]!r}"
        return None

    def _analyze_fixture(self, c, record):
        from ecoc.experiment_io import REFERENCE_TABLE

        dataset, model = c["fixture"].rsplit("_", 1)
        ref = REFERENCE_TABLE[(dataset, model)]
        if c["format"] == "json":
            agg = json.loads(record["stdout"])["aggregate"]
            mean = {key: "" if agg[key] is None else repr(agg[key]["mean"]) for key in agg}
        else:
            mean = {r["fold"]: r for r in rows_of(record["stdout"])}["mean"]
        tol = REF_TOL_DECAY.get(dataset, REF_TOL_DECAY_DEFAULT)
        for key, want, limit in (
            ("experimental", ref.experimental, REF_TOL_EXPERIMENTAL),
            ("gs", ref.gs, REF_TOL_GS),
            ("chernoff", ref.chernoff, tol),
            ("kz", ref.kz, tol),
        ):
            got = num(mean[key])
            if got is None or abs(got - want) > limit:
                return f"{c['fixture']} mean {key} = {mean[key]!r}, published {want}"
        return None

    def _figures(self, c, record):
        name, classes = c["fixture"], c["classes"]
        _, m = self._cached(("code", classes), lambda: code_params(classes))
        fixture = rows_of((self.root / "src" / "ecoc" / "fixtures" / f"{name}.csv").read_text())
        texts = {Path(p).stem.rsplit("_", 1)[1]: t for p, t in record["files"].items()}
        if None in texts.values():
            return "figure files missing"
        folds = rows_of(texts["folds"])
        if [r["fold"] for r in folds] != [r["fold"] for r in fixture]:
            return "fold rows do not follow the fixture"
        for got, src in zip(folds, fixture):
            e, corr = float(src["mean_bit_error"]), float(src["mean_correlation"])
            lam, _ = decay_factors(classes, m, e)
            want = {"mean_bit_error": e, "experimental": float(src["ecoc_error"]), "gs": 4.0 * e,
                    "chernoff": lam**classes, "kz": kz_expression(classes, m, e, corr)}
            for key, value in want.items():
                if not close(float(got[key]), value):
                    return f"fold {got['fold']} {key} = {got[key]!r}, expected {value!r}"
        pooled = float(np.mean([float(r["mean_correlation"]) for r in fixture]))
        for got in rows_of(texts["curves"]):
            e = float(got["e_bar"])
            lam, _ = decay_factors(classes, m, e)
            want = {"gs": 4.0 * e, "chernoff": lam**classes,
                    "kz": kz_expression(classes, m, e, pooled)}
            for key, value in want.items():
                if not close(float(got[key]), value):
                    return f"curve e_bar={e!r} {key} = {got[key]!r}, expected {value!r}"
        return None
