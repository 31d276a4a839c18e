"""Time the Monte Carlo commands against the raw draws they make.

    PYTHONPATH=src python tools/sampler_floor.py [--trials 262144] [--repeat 5]

For each model (iid, pair, exchangeable), at 26 and 127 classes and in both
modes (threshold at m = code.m, full-decode), it prints:

- words: the 64-bit words the chunk streams give out over all trials,
  read from each chunk generator's Philox position when the command ends
  (philox_words): the binomial draw of a threshold chunk or of a
  full-decode chunk's number of far rows, then, in full-decode, one
  uniform per far row for its count and the pair's one state uniform per
  far row, the 16-bit position keys, four to a word, and the far rows'
  true classes, drawn by rng.integers in 32-bit halves.  A profile of
  unequal rates draws one rng.random uniform per classifier and far row
  in place of the keys.
- one worker and two workers: the best time of --repeat runs of
  mc_threshold_error or mc_decode_error, in process, with workers=1 and 2.
- random_raw: the best time of --repeat runs of bare Philox random_raw
  calls over the same number of words, BLOCK_ROWS rows of the model's width
  per call.
- floor share: random_raw over one worker; speed-up: one worker over two.

The operating points are the benchmark's: 26 classes at e = 0.0686,
c = 0.0058 and 127 classes at e = 0.18, c = 0.006; the pair's joint error
probability is e^2 + c e (1 - e).  Words are counted in a separate pass
that keeps the chunk generators and reads their positions; the timed runs
are not watched.  Standard library and numpy only; nothing is written.
"""

from __future__ import annotations

import argparse
import sys
import time
from unittest import mock

import numpy as np

from ecoc import simulator
from ecoc.code_matrix import build_code_matrix
from ecoc.prob_engine import BLOCK_ROWS, ErrorProfile, ExchangeableModel, Independent, PairModel
from ecoc.simulator import SimConfig, mc_decode_error, mc_threshold_error

POINTS = {26: (0.0686, 0.0058), 127: (0.18, 0.006)}
KINDS = ("iid", "pair", "exchangeable")
MODES = ("threshold", "full-decode")
HEADER = ("model", "classes", "mode", "words", "1 worker ms", "2 workers ms",
          "random_raw ms", "floor share", "speed-up")


def model_of(kind: str, n: int):
    e, c = POINTS[n]
    if kind == "iid":
        return Independent(ErrorProfile.iid(n, e))
    if kind == "pair":
        return PairModel(ErrorProfile.iid(n, e), e * e + c * e * (1.0 - e))
    return ExchangeableModel(n, e, c)


def run(model, code, mode: str, trials: int, workers: int) -> None:
    cfg = SimConfig(trials=trials, workers=workers)
    if mode == "threshold":
        mc_threshold_error(model, code.m, cfg)
    else:
        mc_decode_error(model, code, cfg)


def philox_words(rng: np.random.Generator) -> int:
    """The 64-bit words a Philox generator has given out since it was
    keyed: 4 counter + buffer_pos - 4, the counter read as one 256-bit
    integer (a new generator holds counter 0 and an empty buffer,
    buffer_pos 4).  A word whose second 32-bit half is still held for the
    next 32-bit draw (has_uint32) has been given out, and counts."""
    state = rng.bit_generator.state
    counter = sum(int(c) << (64 * i) for i, c in enumerate(state["state"]["counter"]))
    return 4 * counter + state["buffer_pos"] - 4


def count_words(model, code, mode: str, trials: int) -> int:
    chunk_rng, made = simulator._chunk_rng, []

    def recording_rng(seed, chunk_index):
        made.append(chunk_rng(seed, chunk_index))
        return made[-1]

    with mock.patch.object(simulator, "_chunk_rng", recording_rng):
        run(model, code, mode, trials, 1)
    return sum(philox_words(rng) for rng in made)


def best(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def raw_time(words: int, width: int, repeat: int) -> float:
    step = BLOCK_ROWS * width

    def draw():
        bits = np.random.Philox(0)
        for start in range(0, words, step):
            bits.random_raw(min(step, words - start))

    return best(draw, repeat)


def rows(trials: int, repeat: int) -> list[tuple]:
    out = []
    for n in POINTS:
        code = build_code_matrix(n)
        for kind in KINDS:
            model = model_of(kind, n)
            for mode in MODES:
                words = count_words(model, code, mode, trials)
                one, two = (best(lambda: run(model, code, mode, trials, w), repeat)
                            for w in (1, 2))
                raw = raw_time(words, n, repeat)
                out.append((kind, n, mode, words, one * 1e3, two * 1e3, raw * 1e3,
                            raw / one, one / two))
    return out


def table(results: list[tuple]) -> str:
    cells = [HEADER] + [
        (kind, str(n), mode, str(words), f"{one:.2f}", f"{two:.2f}", f"{raw:.2f}",
         f"{share:.2f}", f"{speedup:.2f}")
        for kind, n, mode, words, one, two, raw, share, speedup in results
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(HEADER))]
    return "\n".join("  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--trials", type=int, default=1 << 18)
    ap.add_argument("--repeat", type=int, default=5, help="runs per timing; the best is kept")
    args = ap.parse_args(argv)
    if args.trials < 1 or args.repeat < 1:
        ap.error("--trials and --repeat must be at least 1")
    print(table(rows(args.trials, args.repeat)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
