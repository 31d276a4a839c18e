"""Runs one workload closed-loop in this process and writes what happened.

    python3 perfbench/worker.py --workload NAME --seed N --rounds R --trace 0|1 --out FILE

One client issues the operations of each round in order, each only after the
previous one returned.  Before the first operation and after each one the
reference kernels (``reference.py``) gauge the host's speed.  The first
operation is run once untimed before the measured rounds so that lazy
imports and caches are settled.  With ``--trace 1`` the rounds run twice,
untraced and then traced, followed (for ``monte-carlo``) by one full-decode
command at ``--workers 1`` and at ``--workers <nproc>``.  The result file holds every operation's latency,
exit status and output (files a command writes, and the sha256 of each
written fold), the gauges, the spans of the traced pass, and this
process's peak resident memory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from ecoc import cli  # noqa: E402
from ecoc import experiment_io as xio  # noqa: E402


def run_op(op: dict, folds: dict) -> dict:
    """Execute one operation; the latency covers only the call itself."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = 0
    if op["kind"] == "write":
        truth, bits = folds[op["check"]["fold"]]
        data = xio.FoldData(fold_id=op["check"]["fold"], n=bits.shape[1],
                            true_classes=truth, bits=bits)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op["kind"] == "cli":
                rc = cli.main(list(op["argv"]))
            else:
                xio.write_predictions(data, op["files"][0])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the benchmark keeps going and counts the failure
        error = traceback.format_exc()
    end = time.perf_counter()
    files = {}
    for path in op["files"]:
        try:
            content = Path(path).read_bytes()
        except OSError:
            files[path] = None
            continue
        # Written folds are megabytes each: keep their digest, not their text.
        files[path] = (hashlib.sha256(content).hexdigest() if op["kind"] == "write"
                       else content.decode())
    return {"label": op["label"], "latency": end - start, "start": start, "end": end,
            "rc": rc, "error": error,
            "stdout": out.getvalue(), "files": files}


def run_rounds(plan: list[list[dict]], folds: dict,
               tracer: Tracer | None = None) -> tuple[list[dict], list, float]:
    """Records of every operation, the host-speed gauges taken before the
    first and after each operation, and the wall time of the rounds less
    the time the gauges took."""
    records = []
    gauges = [reference.gauge()]
    start = time.perf_counter()
    gauging = 0.0
    for round_index, ops in enumerate(plan):
        for op in ops:
            if tracer is not None:
                tracer.op = len(records)
            record = run_op(op, folds)
            record["round"] = round_index
            records.append(record)
            before = time.perf_counter()
            gauges.append(reference.gauge())
            gauging += time.perf_counter() - before
    return records, gauges, time.perf_counter() - start - gauging


def parallel_ops(plan: list[list[dict]]) -> list[dict]:
    """The first 127-class full-decode command, with PARALLEL_TRIALS trials,
    at one worker and at one worker per CPU."""
    op = next(o for o in plan[0] if o["label"].endswith("/127/full-decode"))
    argv = list(op["argv"])
    argv[argv.index("--trials") + 1] = str(workloads.PARALLEL_TRIALS)
    return [dict(op, argv=argv + ["--workers", str(workers)],
                 label=f"{op['label']}/workers={workers}",
                 check=dict(op["check"], trials=workloads.PARALLEL_TRIALS))
            for workers in (1, os.cpu_count() or 1)]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    plan = workloads.build_rounds(args.workload, args.seed, args.rounds, Path(args.work_dir))
    folds = workloads.fold_arrays(args.seed) if args.workload == "fold-ingest" else {}
    result = {"warmup": run_op(plan[0][0], folds)}
    records, gauges, wall = run_rounds(plan, folds)
    result.update(records=records, gauges=gauges, wall=wall)
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_gauges, traced_wall = run_rounds(plan, folds, tracer)
        finally:
            tracer.uninstall()
        result.update(traced=traced, traced_gauges=traced_gauges, traced_wall=traced_wall,
                      spans=tracer.spans)
        if args.workload == "monte-carlo":
            result["parallel"] = [run_op(op, folds) for op in parallel_ops(plan)]
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
