"""Time the Monte Carlo commands.

    PYTHONPATH=src python tools/sampler_floor.py [--trials 262144] [--repeat 5]

For each model (iid, pair, exchangeable), at 26 and 127 classes and in both
modes (threshold at m = code.m, full-decode), it prints:

- ms: the best time of --repeat runs of mc_threshold_error or
  mc_decode_error, in process, after one untimed warm-up run;
- faults: the median number of minor page faults of a run (the growth of
  resource.getrusage's ru_minflt across it), each a page the kernel
  mapped and zero-filled for the process, counted after the timing in a
  loop of --repeat runs after one more untimed warm-up run.  A buffer
  that is mapped afresh for every far-row block or decode block, rather
  than reused from the heap, shows here as hundreds of faults per run.

Each estimate draws from one stream: a threshold run one binomial, a
full-decode run the number of its far rows, then the far rows block by
block (simulator.FAR_BLOCK_BYTES), each decoded before the next is drawn.

The operating points are the benchmark's: 26 classes at e = 0.0686,
c = 0.0058 and 127 classes at e = 0.18, c = 0.006; the pair's joint error
probability is e^2 + c e (1 - e).  Standard library and numpy only;
nothing is written.
"""

from __future__ import annotations

import argparse
import functools
import resource
import statistics
import sys

from ecoc.code_matrix import build_code_matrix
from ecoc.prob_engine import ErrorProfile, ExchangeableModel, Independent, PairModel
from ecoc.simulator import SimConfig, mc_decode_error, mc_threshold_error
from timing import aligned, best

POINTS = {26: (0.0686, 0.0058), 127: (0.18, 0.006)}
KINDS = ("iid", "pair", "exchangeable")
MODES = ("threshold", "full-decode")
HEADER = ("model", "classes", "mode", "ms", "faults")


def model_of(kind: str, n: int):
    e, c = POINTS[n]
    if kind == "iid":
        return Independent(ErrorProfile.iid(n, e))
    if kind == "pair":
        return PairModel(ErrorProfile.iid(n, e), e * e + c * e * (1.0 - e))
    return ExchangeableModel(n, e, c)


def run(model, code, mode: str, trials: int) -> None:
    cfg = SimConfig(trials=trials)
    if mode == "threshold":
        mc_threshold_error(model, code.m, cfg)
    else:
        mc_decode_error(model, code, cfg)


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def median_faults(fn, repeat: int) -> float:
    """The median minor page faults of repeat runs of fn, after one
    untimed warm-up run."""
    fn()
    faults = []
    for _ in range(repeat):
        before = minor_faults()
        fn()
        faults.append(minor_faults() - before)
    return statistics.median(faults)


def rows(trials: int, repeat: int) -> list[tuple]:
    out = []
    for n in POINTS:
        code = build_code_matrix(n)
        for kind in KINDS:
            model = model_of(kind, n)
            for mode in MODES:
                side = functools.partial(run, model, code, mode, trials)
                side()  # warm-up, untimed
                [seconds] = best(side, repeat=repeat)
                out.append((kind, n, mode, seconds * 1e3, median_faults(side, repeat)))
    return out


def table(results: list[tuple]) -> str:
    return aligned([HEADER] + [
        (kind, str(n), mode, f"{ms:.2f}", f"{faults:.0f}")
        for kind, n, mode, ms, faults in results
    ])


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
