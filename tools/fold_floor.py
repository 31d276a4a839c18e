"""Time the stages of analyze --predictions against the whole command.

    PYTHONPATH=src python tools/fold_floor.py [--samples 10000] [--repeat 5]

For 26 and 127 classes it writes three seeded raw-prediction folds of
--samples samples each into a temporary directory and prints, per class
count, the best time of --repeat runs of:

- read: the file's bytes, read whole;
- line ends: the line-end scan over them (experiment_io._line_ends);
- cells + classes: the rest of load_predictions, its row-block parse,
  taken as load_predictions less the two stages above;
- errors + Gram: analyze_fold's block walk (experiment_io._fold_counts),
  the error blocks, their float32 Gram products and the far rows;
- decode: code_matrix._misdecoded over the far rows, the decode and
  compare that analyze_fold runs;
- analyze: the command analyze --predictions over the three folds, in
  process.

The stages are timed on the first fold; the runs of the stages and of the
command take turns.  The folds are drawn like the fold-ingest benchmark's:
per-classifier rates uniform in [0.03, 0.12), tripled (at most 0.45) on a
tenth of the samples.  Last comes the peak resident memory of this
process.  numpy's BLAS runs on every CPU unless OPENBLAS_NUM_THREADS (or a
like variable) says otherwise; the benchmark sets it to 1.  Standard
library and numpy only; the temporary directory is removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import resource
import sys
import tempfile
from pathlib import Path

import numpy as np

from ecoc import cli
from ecoc import experiment_io as xio
from ecoc import code_matrix
from ecoc.code_matrix import build_code_matrix
from timing import aligned, best

CLASSES = (26, 127)
FOLDS = 3
HEADER = ("classes", "read ms", "line ends ms", "cells + classes ms", "errors + Gram ms",
          "decode ms", "analyze ms")


def write_folds(directory: Path, classes: int, samples: int) -> list[Path]:
    code = build_code_matrix(classes)
    paths = []
    for index in range(FOLDS):
        rng = np.random.default_rng([classes, index])
        rates = rng.uniform(0.03, 0.12, classes)
        truth = rng.integers(0, classes, samples)
        hard = rng.random(samples) < 0.1
        p = np.where(hard[:, None], np.minimum(3.0 * rates, 0.45), rates)
        bits = code.matrix[truth] ^ (rng.random((samples, classes)) < p)
        paths.append(directory / f"fold{classes}_{index}.csv")
        xio.write_predictions(xio.FoldData(paths[-1].stem, classes, truth, bits), paths[-1])
    return paths


def command(paths: list[Path], classes: int) -> None:
    argv = ["analyze", "--predictions", *map(str, paths), "--classes", str(classes),
            "--format", "csv"]
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise RuntimeError(f"analyze failed on {classes} classes")


def row(paths: list[Path], classes: int, repeat: int) -> tuple:
    path = paths[0]
    raw = path.read_bytes()
    body = np.frombuffer(raw, np.uint8)[raw.find(b"\n") + 1 :]
    code = build_code_matrix(classes)
    fold = xio.load_predictions(path)
    _, far = xio._fold_counts(fold, code)
    read, ends, load, counts, decode, analyze = best(
        path.read_bytes,
        lambda: xio._line_ends(body),
        lambda: xio.load_predictions(path),
        lambda: xio._fold_counts(fold, code),
        lambda: code_matrix._misdecoded(fold.bits[far], fold.true_classes[far], code),
        lambda: command(paths, classes),
        repeat=repeat,
    )
    return (classes, read, ends, max(load - read - ends, 0.0), counts, decode, analyze)


def table(rows: list[tuple]) -> str:
    return aligned([HEADER] + [
        (str(classes), *(f"{t * 1e3:.3f}" for t in times))
        for classes, *times in rows
    ])


def peak_rss_mb() -> float:
    """This process's peak resident set; Linux reports it in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--samples", type=int, default=10_000)
    ap.add_argument("--repeat", type=int, default=5, help="runs per timing; the best is kept")
    args = ap.parse_args(argv)
    if args.samples < 1 or args.repeat < 1:
        ap.error("--samples and --repeat must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        rows = [row(write_folds(Path(tmp), c, args.samples), c, args.repeat) for c in CLASSES]
    print(table(rows))
    print(f"peak RSS {peak_rss_mb():.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
