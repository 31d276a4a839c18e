"""Monte Carlo estimation of ensemble error rates.

Two estimators: the worst-case threshold rate (a trial counts as an error
when at least m classifiers err) and the full decoding rate (flip the true
codeword's bits where the sampled error vector is 1, decode, count
mismatches).

Randomness is counter-based: every estimate draws from one stream, Philox
keyed by (seed, 0), whatever its trial count.  A threshold estimate is one
binomial draw of all its trials at P(K >= m) (count_far).  A full-decode
estimate draws the same binomial at P(K >= far_flips), the number of its
far rows, the only trials that can decode wrongly; then the far rows in
blocks of FAR_BLOCK_BYTES, each block its rows' counts, their positions
and their true classes, in that order, decoded before the next block is
drawn.  So no far row is tied to a trial index, and no temporary grows
with the trial count.  The worker count is checked but changes neither
the result nor the work: every estimate runs in the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._shared import MODE_FULL_DECODE, MODE_THRESHOLD, _check_integer
from .code_matrix import CodeMatrix, _misdecoded_flips
from .prob_engine import MAX_COUNT, DependenceModel, _check_count

DEFAULT_SEED = 60428  # 0xEC0C

# Most trials a full-decode estimate runs.  It bounds the rows drawn where
# the decode is cheap: at 4 and 8 classes with e = 0.5 nearly every row is
# far, and a trial took 290-310 ns, mostly sampling, so 2^30 trials take
# 5-6 min, where MAX_DECODE_WORK alone would admit 3-12 h.  At the
# benchmark's points a trial took 4 ns (26 classes) and 43 ns (127), so 5
# and 46 s at the cap; all on one BLAS thread.
MAX_DECODE_TRIALS = 1 << 30
# Most expected decode work a full-decode estimate takes, in multiply-adds:
# trials times P(K >= far_flips), the share of far rows, times classes
# times n, the work of decoding one far row.  With every row far, 2^15
# trials took 30 ms at 127 classes and 1.35 s at 1000 (e = 0.5, one BLAS
# thread), 1.8e10 and 2.4e10 a second, so 2^41 is 90-120 s; the
# benchmark's 127-class points need at most 1.3e12 at the trial cap.
MAX_DECODE_WORK = 1 << 41

# Bytes of far rows (n-wide, one byte a position) drawn and decoded per
# block: 4,128 rows at 127 classes, 20,164 at 26.  At 8 times the
# benchmark's trials (2^19 at 26 classes, 2^18 at 127), blocks of 512 KiB
# ran the 127-class full decodes 5-12 % faster than blocks of 128 KiB, and
# blocks of 2 MiB at most 4 % faster again; at the benchmark's own trials
# every run draws one block.  No run faulted a page once warm.
FAR_BLOCK_BYTES = 1 << 19

# Most workers a simulation accepts.  Every run is serial; the count is kept
# checked so that callers passing --workers keep the same range and errors.
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
    count_far draw from stream 0, from one count_pmf."""
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
    by _misdecoded_flips).  From one stream, count_far draws how many far
    rows the trials hold; then each block of _far_block_rows(code.n) of them
    draws their counts and positions (the sampler's _far_rows) and their
    classes, independent of the flips.  The sampler's rows are n-wide and
    0/1 and the classes are drawn in range, so only model.n, true_class and
    the trials' caps are checked here: MAX_DECODE_TRIALS, and
    MAX_DECODE_WORK over the expected work of a trial, read from the
    model's count row before anything is drawn.
    """
    if model.n != code.n:
        raise ValueError(f"model n={model.n} does not match code n={code.n}")
    if true_class is not None:
        _check_integer("true_class", true_class)
        if not 0 <= true_class < code.num_classes:
            raise ValueError(f"true_class={true_class} outside 0..{code.num_classes - 1}")
    if cfg.trials > MAX_DECODE_TRIALS:
        raise ValueError(f"trials={cfg.trials} outside 1..{MAX_DECODE_TRIALS} for full-decode")
    work = model.tail(code.far_flips) * code.num_classes * code.n
    if cfg.trials * work > MAX_DECODE_WORK:
        raise ValueError(
            f"trials={cfg.trials} outside 1..{int(MAX_DECODE_WORK // work)} for full-decode at "
            f"{work:.4g} expected decode multiply-adds a trial (at most 2**41 in all)"
        )

    rng = _chunk_rng(cfg.seed, 0)
    far, block = model.count_far(rng, cfg.trials, code.far_flips), _far_block_rows(code.n)
    errors = sum(_far_block_errors(model, code, rng, min(block, far - start), true_class)
                 for start in range(0, far, block))
    return _result(errors, cfg, MODE_FULL_DECODE)


def _far_block_rows(n: int) -> int:
    """Far rows per block of a full-decode estimate: FAR_BLOCK_BYTES of
    n-wide rows, at least 8 since count_far has refused an n above
    MAX_EXACT_N = 2^16."""
    return FAR_BLOCK_BYTES // n


def _far_block_errors(model, code, rng, rows: int, true_class) -> int:
    """How many of rows far rows, drawn with their classes, decode wrongly.
    The block's arrays are freed when it returns, before the next block is
    drawn, so that no two blocks' rows are held at once."""
    bits = model._far_rows(rng, rows, code.far_flips)
    if true_class is None:
        classes = rng.integers(0, code.num_classes, size=rows)
    else:
        classes = np.full(rows, true_class)
    return _misdecoded_flips(bits, classes, code)
