"""Time the Monte Carlo commands against the raw draws they make.

    PYTHONPATH=src python tools/sampler_floor.py [--trials 262144] [--repeat 5]

For each model (iid, pair, exchangeable), at 26 and 127 classes and in both
modes (threshold at m = code.m, full-decode), it prints:

- words: the 64-bit words the sampler draws over all trials: every word
  its random_raw calls return, every uniform its rng.random calls return
  (a threshold chunk's one per trial; in full-decode, one per far row for
  its count and the pair's one state uniform per far row), and the words
  of the full-decode binomial draw of the number of far rows.  The true
  classes of the far rows, drawn by rng.integers in 32-bit halves, are not
  counted.
- one worker and two workers: the best time of --repeat runs of
  mc_threshold_error or mc_decode_error, in process, with workers=1 and 2.
- random_raw: the best time of --repeat runs of bare Philox random_raw
  calls over the same number of words, BLOCK_ROWS rows of the model's width
  per call.
- floor share: random_raw over one worker; speed-up: one worker over two.

The operating points are the benchmark's: 26 classes at e = 0.0686,
c = 0.0058 and 127 classes at e = 0.18, c = 0.006; the pair's joint error
probability is e^2 + c e (1 - e).  Words are counted in a separate pass
whose chunk generators count the output of random_raw and of random, and
the words a binomial call consumes by replaying the stream from the state
before the call until it reaches the state after it; the timed runs draw
from plain generators.  Standard library
and numpy only; nothing is written.
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


class _CountingBits(np.random.Philox):
    """A Philox bit generator that counts the words its random_raw returns."""

    words = 0

    def random_raw(self, size=None, output=True):
        out = super().random_raw(size, output)
        self.words += np.size(out)
        return out


class _Counting(np.random.Generator):
    """A generator that counts the uniforms its random returns, one 64-bit
    word each, and the words its binomial draws consume."""

    words = 0

    def random(self, size=None, dtype=np.float64, out=None):
        u = super().random(size, dtype, out)
        self.words += np.size(u)
        return u

    def binomial(self, n, p, size=None):
        before = self.bit_generator.state
        out = super().binomial(n, p, size)
        self.words += replayed_words(type(self.bit_generator), before, self.bit_generator.state)
        return out


def _plain(state):
    """A bit generator state with its arrays as lists, so that two states
    compare with ==."""
    if isinstance(state, dict):
        return {k: _plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def replayed_words(kind, before: dict, after: dict) -> int:
    """The raw words between two states of one stream of the bit generator
    class kind: the words a copy set to before draws, one at a time, until
    its state is after."""
    replay, after, words = kind(), _plain(after), 0
    replay.state = before
    while _plain(replay.state) != after:
        replay.random_raw()
        words += 1
    return words


def count_words(model, code, mode: str, trials: int) -> int:
    made = []

    def counting_rng(seed, chunk_index):
        bits = _CountingBits(key=np.array([seed, chunk_index], dtype=np.uint64))
        made.append(_Counting(bits))
        return made[-1]

    with mock.patch.object(simulator, "_chunk_rng", counting_rng):
        run(model, code, mode, trials, 1)
    return sum(rng.words + rng.bit_generator.words for rng in made)


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
