"""Monte Carlo estimation of ensemble error rates.

Two estimators: the worst-case threshold rate (a trial counts as an error
when at least m classifiers err) and the full decoding rate (flip the true
codeword's bits where the sampled error vector is 1, decode, count
mismatches).

Randomness is counter-based: stream j is Philox keyed by (seed, j).  A
threshold estimate is one binomial draw of all its trials at P(K >= m)
(count_far) from stream 0.  Full-decode trials are processed in fixed-size
chunks, chunk j drawing from stream j, so a chunk's count is a pure
function of (seed, j, chunk size); results are bit-identical for a given
seed regardless of the worker count.  A full-decode chunk draws the number
of its far rows, then their error vectors and true classes alone
(sample_far), so no far row is tied to a trial index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._shared import MODE_FULL_DECODE, MODE_THRESHOLD, _check_integer
from .code_matrix import CodeMatrix, _misdecoded_flips
from .prob_engine import MAX_COUNT, DependenceModel, _check_count

DEFAULT_SEED = 60428  # 0xEC0C

CHUNK_TRIALS = 1 << 15

# Most worker threads a simulation accepts.  Only full-decode runs a pool, of
# no more threads than chunks, and each thread keeps one chunk's arrays.
MAX_WORKERS = 256


@dataclass(frozen=True)
class SimConfig:
    trials: int
    seed: int = DEFAULT_SEED
    workers: int = 1

    def __post_init__(self):
        for name in ("trials", "seed", "workers"):
            _check_integer(name, getattr(self, name))
        if not 1 <= self.trials <= MAX_COUNT:
            raise ValueError(f"trials={self.trials} outside 1..{MAX_COUNT}")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(f"workers={self.workers} outside 1..{MAX_WORKERS}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed={self.seed} outside [0, 2**64)")


@dataclass(frozen=True)
class SimResult:
    error_rate: float
    std_err: float
    trials: int
    mode: str


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    key = np.array([seed, chunk_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _run_chunks(cfg: SimConfig, count_fn) -> int:
    """Sum count_fn(chunk_rng, chunk_size) over fixed-size trial chunks."""
    chunks = [
        (j, min(CHUNK_TRIALS, cfg.trials - start))
        for j, start in enumerate(range(0, cfg.trials, CHUNK_TRIALS))
    ]

    def work(item):
        idx, size = item
        return count_fn(_chunk_rng(cfg.seed, idx), size)

    if cfg.workers == 1 or len(chunks) == 1:
        return sum(work(item) for item in chunks)
    # Imported here, so a serial run loads neither it nor the logging it
    # imports.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(cfg.workers, len(chunks))) as pool:
        return sum(pool.map(work, chunks))


def _result(errors: int, cfg: SimConfig, mode: str) -> SimResult:
    p = errors / cfg.trials
    return SimResult(
        error_rate=p,
        std_err=math.sqrt(p * (1.0 - p) / cfg.trials),
        trials=cfg.trials,
        mode=mode,
    )


def mc_threshold_error(model: DependenceModel, m: int, cfg: SimConfig) -> SimResult:
    """Fraction of trials in which at least m classifiers err, by one
    count_far draw from stream 0: one count_pmf and no pool at any workers."""
    _check_count("m", m, model.n)
    return _result(model.count_far(_chunk_rng(cfg.seed, 0), cfg.trials, m), cfg, MODE_THRESHOLD)


def mc_decode_error(
    model: DependenceModel,
    code: CodeMatrix,
    cfg: SimConfig,
    true_class: int | None = None,
) -> SimResult:
    """Fraction of trials whose corrupted codeword decodes to a wrong class.

    Each trial picks a true class (uniformly unless true_class pins one),
    flips its codeword at the sampled error positions, and decodes by nearest
    row with lowest-index tie breaking.  Only trials with at least
    code.far_flips flips can decode wrongly, so only those error vectors are
    drawn by the sampler (sample_far) and decoded (code_matrix._misdecoded,
    the kernel fold analysis shares, in blocks of _decode_rows(code) rows
    by _misdecoded_flips); the classes, independent of the flips, are drawn
    for those rows alone, from where the sampler leaves the stream.  The
    sampler's rows are n-wide and 0/1 and the classes are drawn in range,
    so only model.n and true_class are checked here.
    """
    if model.n != code.n:
        raise ValueError(f"model n={model.n} does not match code n={code.n}")
    if true_class is not None:
        _check_integer("true_class", true_class)
        if not 0 <= true_class < code.num_classes:
            raise ValueError(f"true_class={true_class} outside 0..{code.num_classes - 1}")

    def count(rng, size):
        bits = model.sample_far(rng, size, code.far_flips)
        if true_class is None:
            classes = rng.integers(0, code.num_classes, size=len(bits))
        else:
            classes = np.full(len(bits), true_class)
        return _misdecoded_flips(bits, classes, code)

    return _result(_run_chunks(cfg, count), cfg, MODE_FULL_DECODE)
