"""Time each kind of operation of one benchmark round, in process.

    PYTHONPATH=src python tools/op_shares.py [--workload exact-sweep] [--seed 201] [--rounds 5]

Builds one round of the workload with perfbench's ``workloads.build_rounds``
and runs its operations in order in this process, as perfbench's worker
does: a ``cli`` operation through ``ecoc.cli.main`` with its stdout and
stderr captured, a ``write`` operation through
``experiment_io.write_predictions``.  One untimed warm-up round comes
first, then --rounds timed rounds.  For each label (one kind of
operation), largest share first, it prints:

- count: its operations per round;
- median ms: the median latency of its timed runs;
- share: its part of the summed latency of the timed rounds.

The last line is the timed rounds' mix rate, operations per second with
each label at its median latency, as ``mix_rate`` in perfbench/run.py
computes it.  Latencies are raw perf_counter times: unlike the benchmark,
the tool does not scale them by a gauge of the host's speed.  An operation
that exits non-zero or raises stops the script with status 1.  Standard
library and numpy only; fold-ingest writes into a temporary directory that
is removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

from ecoc import cli
from ecoc import experiment_io as xio
from timing import aligned

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
HEADER = ("label", "count", "median ms", "share")


def perfbench_module(name: str):
    """perfbench/<name>.py as a module."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = perfbench_module("workloads")
bench_run = perfbench_module("run")


def run_op(op: dict, folds: dict) -> float:
    """Run one operation and return its latency in seconds."""
    if op["kind"] == "write":
        truth, bits = folds[op["check"]["fold"]]
        data = xio.FoldData(fold_id=op["check"]["fold"], n=bits.shape[1],
                            true_classes=truth, bits=bits)
    sink = io.StringIO()
    rc = 0
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            if op["kind"] == "cli":
                rc = cli.main(list(op["argv"]))
            else:
                xio.write_predictions(data, op["files"][0])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    latency = time.perf_counter() - start
    if rc:
        raise RuntimeError(f"{op['label']} exited {rc}: {sink.getvalue().strip()[-300:]}")
    return latency


def shares(workload: str, seed: int, rounds: int, work_dir: Path) -> tuple[list[tuple], float]:
    """Per label (label, count per round, median s, share), largest share
    first, and the timed rounds' mix rate."""
    [ops] = workloads.build_rounds(workload, seed, 1, work_dir)
    folds = workloads.fold_arrays(seed) if workload == "fold-ingest" else {}
    for op in ops:  # warm-up, untimed
        run_op(op, folds)
    records, latencies = [], []
    for _ in range(rounds):
        for op in ops:
            latencies.append(run_op(op, folds))
            records.append({"label": op["label"]})
    by_label: dict[str, list[float]] = {}
    for record, latency in zip(records, latencies):
        by_label.setdefault(record["label"], []).append(latency)
    total = sum(latencies)
    rows = [(label, len(times) // rounds, statistics.median(times), sum(times) / total)
            for label, times in by_label.items()]
    rows.sort(key=lambda row: -row[3])
    return rows, bench_run.mix_rate(records, latencies)


def table(rows: list[tuple], rate: float) -> str:
    lines = aligned([HEADER] + [
        (label, str(count), f"{median * 1e3:.3f}", f"{share:.1%}")
        for label, count, median, share in rows
    ])
    return f"{lines}\nmix rate {rate:.0f} ops/s"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="exact-sweep",
                    choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=201)
    ap.add_argument("--rounds", type=int, default=5, help="timed rounds after the warm-up")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    with tempfile.TemporaryDirectory() as work_dir:
        try:
            rows, rate = shares(args.workload, args.seed, args.rounds, Path(work_dir))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(table(rows, rate))
    return 0


if __name__ == "__main__":
    sys.exit(main())
