"""Seeded workload generator.

``build_rounds(workload, seed, rounds, work_dir)`` returns the operations of
every round as plain dicts, and ``fold_arrays(seed)`` the synthetic
prediction folds that the ``fold-ingest`` workload writes.  Both are pure
functions of their arguments, so the process that runs the workload and the
process that checks its outputs rebuild the same inputs independently.

An operation is either one ``ecoc`` command (``kind == "cli"``, run through
``ecoc.cli.main(argv)``) or one library call (``kind == "write"``, a call to
``experiment_io.write_predictions``).  ``check`` holds what the output checks
need to recompute the expected result without the code under test.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

WORKLOADS = ("monte-carlo", "exact-sweep", "fold-ingest")

# Seconds one round took on a 2-vCPU x86 VM when the benchmark was written.  A run
# repeats whole rounds, as many as fit in --seconds (at least one), so every
# run of a workload executes the same operation mix and its order statistics
# land on the same kind of operation.
NOMINAL_ROUND_S = {"monte-carlo": 3.9, "exact-sweep": 26.0, "fold-ingest": 5.0}

# The paper's letters operating point: 26 classes, m = 6.
LETTERS = {"classes": 26, "e": 0.0686, "c": 0.0058}
# 127 classes (m = 32); e and c chosen so that P(K >= m) is near 1e-2 and c
# sits well inside the valid correlation range (upper end 0.0157).
WIDE = {"classes": 127, "e": 0.18, "c": 0.006}
# One 32k-trial chunk per 127-class command keeps a round short, so that a
# run holds about twenty 127-class decodes and its tail lands mid-group.
MC_TRIALS = {26: 1 << 16, 127: 1 << 15}
# Trials of the --workers 1 / --workers <nproc> comparison: four chunks.
PARALLEL_TRIALS = 1 << 17

EXACT_SIZES = (26, 127, 1000)

FOLDS_PER_SIZE = 3
FOLD_SAMPLES = 10_000
FOLD_SIZES = (127, 26)

FIXTURES = (
    "cifar10_cnn",
    "letters_dt",
    "letters_svm",
    "pendigits_dt",
    "pendigits_svm",
    "svhn_cnn",
    "usps_dt",
    "usps_svm",
    "vowel_dt",
    "vowel_svm",
)
# Codeword length the published aggregates used.  vowel has 11 classes but
# its published decay bounds match n = 10.
FIXTURE_N = {"vowel_dt": 10, "vowel_svm": 10}
SCATTER_FIXTURE, SCATTER_CLASSES = "letters_dt", 26


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_ROUND_S[workload]))


def code_bits(classes: int) -> np.ndarray:
    """The {0,1} code matrix: bottom-right block of the Sylvester Hadamard
    matrix, whose (i, j) entry is the parity of popcount(i AND j).  Built
    here so that the checks do not rely on ecoc."""
    size = 1
    while size < classes:
        size *= 2
    idx = np.arange(size - classes, size, dtype=np.uint32)
    return (np.bitwise_count(idx[:, None] & idx[None, :]) & 1).astype(np.uint8)


def code_distance(classes: int) -> int:
    s = 1.0 - 2.0 * code_bits(classes).astype(np.float64)
    dist = (classes - s @ s.T) / 2.0
    np.fill_diagonal(dist, np.inf)
    return int(dist.min())


def exchangeable_weights(n: int, e: float, c: float) -> np.ndarray:
    """Second-order Bahadur factor 1 + c * sum_{i<j} z_i z_j per error count
    k, with z_i the standardized error indicator."""
    k = np.arange(n + 1, dtype=float)
    s2 = e * (1.0 - e)
    zsum_sq = (k - n * e) ** 2 / s2
    zsq_sum = (k * (1.0 - e) ** 2 + (n - k) * e**2) / s2
    return 1.0 + c * 0.5 * (zsum_sq - zsq_sum)


def valid_c_range(n: int, e: float) -> tuple[float, float]:
    """Interval of c keeping every exchangeable weight non-negative."""
    slope = exchangeable_weights(n, e, 1.0) - 1.0
    lo = max((-1.0 / s for s in slope if s > 0), default=-np.inf)
    hi = min((-1.0 / s for s in slope if s < 0), default=np.inf)
    return float(lo), float(hi)


def _rng(seed: int, *tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tag])


def _cli(label: str, argv: list[str], check: dict, files: tuple = ()) -> dict:
    return {"label": label, "kind": "cli", "argv": argv, "files": list(files), "check": check}


def _fmt(x: float) -> str:
    return repr(float(x))


def _monte_carlo_round(seed: int, index: int) -> list[dict]:
    rng = _rng(seed, 1, index)
    ops = []
    for point in (LETTERS, WIDE):
        n, e, c = point["classes"], point["e"], point["c"]
        m = code_distance(n) // 2
        trials = MC_TRIALS[n]
        f = e * e + c * e * (1.0 - e)
        models = {
            "iid": (["--model", "iid", "--n", str(n), "--ebar", _fmt(e)], {}),
            "pair": (
                ["--model", "pair", "--n", str(n), "--ebar", _fmt(e), "--f", _fmt(f)],
                {"f": f},
            ),
            "exchangeable": (
                ["--model", "exchangeable", "--n", str(n), "--ebar", _fmt(e), "--c", _fmt(c)],
                {"c": c},
            ),
        }
        for model, (flags, extra) in models.items():
            sim_seed = int(rng.integers(0, 2**63))
            common = flags + ["--trials", str(trials), "--seed", str(sim_seed), "--format", "csv"]
            check = {"type": "simulate", "model": model, "n": n, "e": e, "m": m,
                     "trials": trials, "seed": sim_seed, **extra}
            ops.append(_cli(f"simulate/{model}/{n}/threshold",
                            ["simulate", *common, "--mode", "threshold", "--m", str(m)],
                            {**check, "mode": "threshold"}))
            ops.append(_cli(f"simulate/{model}/{n}/full-decode",
                            ["simulate", *common, "--mode", "full-decode"],
                            {**check, "mode": "full-decode", "classes": n}))
    return ops


def _exact_sweep_round(seed: int) -> list[dict]:
    """Every command at n = 1000, each followed by all commands at n = 26
    and 127.  The small sizes run nine times per round so that the median
    and the tail rest on repeated samples, not on one sample of each."""
    rng = _rng(seed, 2)
    by_size = {}
    for n in EXACT_SIZES:
        m = code_distance(n) // 2
        e = float(rng.uniform(0.05, 0.2))
        rates = [float(r) for r in e * rng.uniform(0.5, 1.5, n)]
        rho = float(rng.uniform(0.05, 0.5))
        f = e * e + rho * e * (1.0 - e)
        c = float(rng.uniform(0.1, 0.9)) * valid_c_range(n, e)[1]
        ops = [_cli(f"code/{n}", ["code", "--classes", str(n), "--format", "csv"],
                    {"type": "code", "classes": n})]
        models = {
            "independent": (["--model", "independent", "--rates", ",".join(map(_fmt, rates))],
                            {"rates": rates}),
            "pair": (["--model", "pair", "--n", str(n), "--ebar", _fmt(e), "--f", _fmt(f)],
                     {"e": e, "f": f}),
            "exchangeable": (["--model", "exchangeable", "--n", str(n), "--ebar", _fmt(e),
                              "--c", _fmt(c)], {"e": e, "c": c}),
        }
        for model, (flags, params) in models.items():
            check = {"model": model, "n": n, **params}
            ops.append(_cli(f"pmf/{model}/{n}", ["pmf", *flags, "--format", "csv"],
                            {"type": "pmf", **check}))
            ops.append(_cli(f"tail/{model}/{n}", ["tail", *flags, "--m", str(m), "--format", "csv"],
                            {"type": "tail", "m": m, **check}))
        ops.append(_cli(f"bounds/{n}", ["bounds", "--n", str(n), "--m", str(m), "--ebar", _fmt(e),
                                        "--c", _fmt(c), "--format", "csv"],
                        {"type": "bounds", "n": n, "m": m, "e": e, "c": c}))
        ops.append(_cli(f"bahadur/{n}", ["bahadur", "--n", str(n), "--ebar", _fmt(e), "--format", "csv"],
                        {"type": "bahadur", "n": n, "e": e}))
        by_size[n] = ops
    small = by_size[26] + by_size[127]
    return [op for big in by_size[1000] for op in [big, *small]]


def fold_name(classes: int, index: int) -> str:
    return f"fold{classes}_{index}"


def fold_arrays(seed: int) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Synthetic raw-prediction folds: each sample's predicted word is its
    class codeword XOR seeded bit errors.  A shared per-sample difficulty
    makes the errors positively correlated."""
    folds = {}
    for classes in FOLD_SIZES:
        code = code_bits(classes)
        for index in range(FOLDS_PER_SIZE):
            rng = _rng(seed, 3, classes, index)
            rates = rng.uniform(0.03, 0.12, classes)
            truth = rng.integers(0, classes, FOLD_SAMPLES)
            hard = rng.random(FOLD_SAMPLES) < 0.1
            p = np.where(hard[:, None], np.minimum(3.0 * rates, 0.45), rates)
            errors = (rng.random((FOLD_SAMPLES, classes)) < p).astype(np.uint8)
            folds[fold_name(classes, index)] = (truth, code[truth] ^ errors)
    return folds


def _fold_ingest_round(work_dir: Path) -> list[dict]:
    # Each fixture is reported as csv and as json: both renderers are
    # exercised, and the short fixture commands are two thirds of the round,
    # so the median latency falls inside them rather than at their edge.
    ops = []
    for fmt in ("csv", "json"):
        for fixture in FIXTURES:
            argv = ["analyze", "--fixture", fixture, "--kz-policy", "always", "--format", fmt]
            if fixture in FIXTURE_N:
                argv += ["--n", str(FIXTURE_N[fixture])]
            ops.append(_cli(f"analyze/fixture/{fixture}/{fmt}", argv,
                            {"type": "analyze_fixture", "fixture": fixture, "format": fmt}))
    for classes in FOLD_SIZES:
        names = [fold_name(classes, i) for i in range(FOLDS_PER_SIZE)]
        paths = [str(work_dir / f"{name}.csv") for name in names]
        for name, path in zip(names, paths):
            ops.append({"label": f"write/{classes}", "kind": "write", "argv": None,
                        "files": [path], "check": {"type": "write", "fold": name}})
        out = str(work_dir / f"report{classes}.csv")
        ops.append(_cli(f"analyze/predictions/{classes}",
                        ["analyze", "--predictions", *paths, "--classes", str(classes),
                         "--format", "csv", "--out", out],
                        {"type": "analyze_predictions", "classes": classes, "folds": names,
                         "paths": paths},
                        files=[out]))
    fig_dir = work_dir / "figures"
    ops.append(_cli("figures/scatter",
                    ["figures", "--figure", "scatter", "--fixture", SCATTER_FIXTURE,
                     "--out", str(fig_dir)],
                    {"type": "figures", "fixture": SCATTER_FIXTURE, "classes": SCATTER_CLASSES},
                    files=[str(fig_dir / f"{SCATTER_FIXTURE}_{s}.csv") for s in ("curves", "folds")]))
    return ops


def build_rounds(workload: str, seed: int, rounds: int, work_dir: Path) -> list[list[dict]]:
    """Operations of each round, in the order the client issues them.

    The first operation of round 0 is also the command the set-up
    measurement runs in a fresh interpreter.
    """
    if workload == "monte-carlo":
        return [_monte_carlo_round(seed, i) for i in range(rounds)]
    if workload == "exact-sweep":
        one = _exact_sweep_round(seed)
    elif workload == "fold-ingest":
        one = _fold_ingest_round(Path(work_dir))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [one for _ in range(rounds)]
