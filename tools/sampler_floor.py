"""Time the Monte Carlo commands on one worker and on two.

    PYTHONPATH=src python tools/sampler_floor.py [--trials 262144] [--repeat 5]

For each model (iid, pair, exchangeable), at 26 and 127 classes and in both
modes (threshold at m = code.m, full-decode), it prints:

- one worker and two workers: the best time of --repeat runs of
  mc_threshold_error or mc_decode_error, in process, with workers=1 and 2.
  Each row first makes one untimed one-worker run, as a warm-up; then the
  one- and two-worker runs take turns, so that a change in the host's
  speed falls on both columns alike;
- speed-up: one worker over two;
- one worker and two workers faults: the median number of minor page
  faults of a run (the growth of resource.getrusage's ru_minflt across
  it), each a page the kernel mapped and zero-filled for the process.  A
  decode buffer above glibc's 128 KiB mmap threshold is mapped afresh for
  every chunk, so it shows here as hundreds of faults per run.

The operating points are the benchmark's: 26 classes at e = 0.0686,
c = 0.0058 and 127 classes at e = 0.18, c = 0.006; the pair's joint error
probability is e^2 + c e (1 - e).  Standard library and numpy only;
nothing is written.
"""

from __future__ import annotations

import argparse
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
HEADER = ("model", "classes", "mode", "1 worker ms", "2 workers ms", "speed-up",
          "1 worker faults", "2 workers faults")


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


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def counting_faults(fn, faults: list[int]):
    """fn, which also appends the minor page faults of each of its runs to
    faults."""
    def counted():
        before = minor_faults()
        fn()
        faults.append(minor_faults() - before)
    return counted


def rows(trials: int, repeat: int) -> list[tuple]:
    out = []
    for n in POINTS:
        code = build_code_matrix(n)
        for kind in KINDS:
            model = model_of(kind, n)
            for mode in MODES:
                run(model, code, mode, trials, 1)  # warm-up, untimed
                faults_one, faults_two = [], []
                one, two = best(
                    counting_faults(lambda: run(model, code, mode, trials, 1), faults_one),
                    counting_faults(lambda: run(model, code, mode, trials, 2), faults_two),
                    repeat=repeat,
                )
                out.append((kind, n, mode, one * 1e3, two * 1e3, one / two,
                            statistics.median(faults_one), statistics.median(faults_two)))
    return out


def table(results: list[tuple]) -> str:
    return aligned([HEADER] + [
        (kind, str(n), mode, f"{one:.2f}", f"{two:.2f}", f"{speedup:.2f}",
         f"{faults_one:.0f}", f"{faults_two:.0f}")
        for kind, n, mode, one, two, speedup, faults_one, faults_two in results
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
