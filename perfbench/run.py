"""Layered benchmark for the ``ecoc`` package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The workloads are described in ``BENCHMARK.json`` and built by
``workloads.py`` from the seed.  Each run:

1. runs the workload closed-loop in a child process (``worker.py``): whole
   rounds of operations, as many as fit in S seconds at the nominal round
   time, or half as many twice over (untraced, then traced) with
   ``--trace 1``;
2. with ``--trace 0``, times fresh interpreters that import ``ecoc.cli`` and
   run the workload's first command, half before and half after step 1;
3. checks every output (``checks.py``) and prints the metrics, with the
   operation latencies scaled to a nominal host speed by the gauges the
   worker took between operations (``reference.py``).

With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Intermediate
files go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

SETUP_RUNS = 6
SETUP_TIMEOUT_S = 60
RUN_BUDGET_S = 170
# One BLAS/OpenMP thread in every child: the benchmark is single-process and
# closed-loop, and on a couple of shared cores a second math thread would
# measure the scheduler rather than the program.
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

SETUP_SNIPPET = (
    "import sys\n"
    "sys.path.insert(0, 'src')\n"
    "from ecoc import cli\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)

# Spans that render or summarise a report (experiment_io.report_s).
REPORT_SPANS = (
    "experiment_io.bound_report",
    "experiment_io.aggregate",
    "experiment_io.format_report_csv",
    "experiment_io.format_report_json",
    "experiment_io.format_rows_csv",
)


def ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# end-to-end metrics


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) of the highest percentile with ten samples
    beyond it; the largest latency when there are ten samples or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def normalised(records: list[dict], gauges: list) -> list[float]:
    """Each operation's latency divided by the host's slowdown around it
    (``reference.op_factors``): its latency on a host as fast as nominal."""
    from reference import op_factors

    return [r["latency"] / f for r, f in zip(records, op_factors(records, gauges))]


def mix_rate(records: list[dict], latencies: list[float]) -> float:
    """Operations per second of the run's operation mix, taking each kind
    of operation at its median latency."""
    by_kind: dict[str, list[float]] = {}
    for r, latency in zip(records, latencies):
        by_kind.setdefault(r["label"], []).append(latency)
    return len(latencies) / sum(len(v) * statistics.median(v) for v in by_kind.values())


def end_to_end_metrics(records, gauges, setup_times, peak_rss_kb, attempted, failed) -> dict:
    latencies = normalised(records, gauges)
    tail, _ = tail_latency(latencies)
    return {
        "ops_per_s": metric(mix_rate(records, latencies), "1/s"),
        "op_p50_ms": metric(1000.0 * statistics.median(latencies), "ms"),
        "op_tail_ms": metric(1000.0 * tail, "ms"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(peak_rss_kb / 1024.0, "MB"),
        "ok_frac": metric(1.0 - failed / attempted, "fraction"),
    }


# ---------------------------------------------------------------------------
# per-layer metrics


def per_layer_metrics(spans, traced, traced_gauges, traced_wall, untraced, gauges, ops,
                      parallel, fold_rows) -> dict:
    """Per-layer numbers of the traced pass.

    ``traced``/``untraced`` are the worker's records of the two passes and
    ``traced_gauges``/``gauges`` their host-speed gauges,
    ``ops`` the operation dict of each traced record, ``parallel`` the
    one-worker and nproc-worker records (empty outside monte-carlo) and
    ``fold_rows`` the sample count of each generated fold.
    """
    from tracer import LAYERS, self_times

    own = self_times(spans)
    out = {}
    for layer in LAYERS:
        mine = [i for i, s in enumerate(spans) if s[2].startswith(layer + ".")]
        out[f"{layer}.calls"] = metric(len(mine), "count")
        out[f"{layer}.self_s"] = metric(sum(own[i] for i in mine), "s")
        out[f"{layer}.failures"] = metric(sum(1 for i in mine if spans[i][5]), "count")

    def durations(name):
        return [s[4] - s[3] for s in spans if s[2] == name]

    def op_duration(op_id, name):
        return sum(s[4] - s[3] for s in spans if s[0] == op_id and s[2] == name)

    out["cli.build_parser_ms"] = metric(
        1000.0 * ratio(sum(durations("cli.build_parser")), len(durations("cli.build_parser"))), "ms")
    queries = sum(1 for op in ops if op["check"]["type"] in ("pmf", "tail"))
    out["prob_engine.dist_builds_per_query"] = metric(
        ratio(len(durations("prob_engine.poisson_binomial_dist")), queries), "builds/query")
    out["code_matrix.build_s"] = metric(sum(durations("code_matrix.build_code_matrix")), "s")
    out["code_matrix.min_row_distance_s"] = metric(sum(durations("code_matrix.min_row_distance")), "s")

    # The decoder is inline code: its time is a full-decode command's
    # simulator time minus that of the threshold command with the same
    # model, seed and trial count, which samples the same error vectors.
    sims = [(i, rec["round"], op["check"]) for i, (op, rec) in enumerate(zip(ops, traced))
            if op["check"]["type"] == "simulate"]
    threshold_of = {(r, c["model"], c["n"]): i for i, r, c in sims if c["mode"] == "threshold"}
    trials = decode_s = sample_s = macs = 0.0
    for i, r, c in sims:
        trials += c["trials"]
        if c["mode"] == "full-decode":
            sample = op_duration(threshold_of[(r, c["model"], c["n"])],
                                 "simulator.mc_threshold_error")
            decode_s += op_duration(i, "simulator.mc_decode_error") - sample
            sample_s += sample
            macs += c["trials"] * c["classes"] * c["n"]
    out["simulator.trials"] = metric(trials, "count")
    out["simulator.threshold_s"] = metric(sum(durations("simulator.mc_threshold_error")), "s")
    out["simulator.decode_s"] = metric(decode_s, "s")
    out["simulator.sample_s"] = metric(sample_s, "s")
    out["simulator.decode_share"] = metric(ratio(decode_s, decode_s + sample_s), "fraction")
    out["simulator.decode_gmacs_per_s"] = metric(ratio(macs / 1e9, decode_s), "GMAC/s")
    speedup = ratio(parallel[0]["latency"], parallel[1]["latency"]) if parallel else 0.0
    out["simulator.parallel_speedup"] = metric(speedup, "x")

    read_bytes = write_bytes = rows = 0
    for op in ops:
        c = op["check"]
        if c["type"] == "analyze_predictions":
            read_bytes += sum(os.path.getsize(p) for p in c["paths"])
            rows += sum(fold_rows[name] for name in c["folds"])
        elif c["type"] == "write":
            write_bytes += sum(os.path.getsize(p) for p in op["files"])
    load_s = sum(durations("experiment_io.load_predictions"))
    write_s = sum(durations("experiment_io.write_predictions"))
    analyze_s = sum(durations("experiment_io.analyze_fold"))
    out["experiment_io.load_s"] = metric(load_s, "s")
    out["experiment_io.read_bytes"] = metric(read_bytes, "B")
    out["experiment_io.read_mb_per_s"] = metric(ratio(read_bytes / 1e6, load_s), "MB/s")
    out["experiment_io.write_s"] = metric(write_s, "s")
    out["experiment_io.write_bytes"] = metric(write_bytes, "B")
    out["experiment_io.write_mb_per_s"] = metric(ratio(write_bytes / 1e6, write_s), "MB/s")
    out["experiment_io.analyze_s"] = metric(analyze_s, "s")
    out["experiment_io.analyze_rows_per_s"] = metric(ratio(rows, analyze_s), "rows/s")
    out["experiment_io.report_s"] = metric(sum(sum(durations(n)) for n in REPORT_SPANS), "s")

    out["trace.wall_s"] = metric(traced_wall, "s")
    out["trace.outside_spans_s"] = metric(traced_wall - sum(own), "s")
    out["trace.overhead_pct"] = metric(
        100.0 * (1.0 - ratio(mix_rate(traced, normalised(traced, traced_gauges)),
                             mix_rate(untraced, normalised(untraced, gauges)))), "%")
    out["trace.spans"] = metric(len(spans), "count")
    return out


# ---------------------------------------------------------------------------
# command line


def measure_setup(argv: list[str], runs: int) -> tuple[list[float], list[str]]:
    """Wall time of fresh interpreters that import ecoc.cli and run argv."""
    times, problems = [], []
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, *argv], cwd=ROOT,
                              env=CHILD_ENV, capture_output=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            problems.append(f"set-up command exited {proc.returncode}: "
                            f"{proc.stderr.decode()[-300:]}")
    return times, problems


def run_worker(args, rounds: int, work_dir: Path, deadline: float) -> dict:
    out = work_dir / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--rounds", str(rounds), "--trace", str(args.trace),
           "--work-dir", str(work_dir), "--out", str(out)]
    subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(out.read_text(encoding="utf-8"))


def error_rate(record: dict) -> str | None:
    """The error_rate field of a simulate command, exactly as printed."""
    from checks import rows_of

    rows = rows_of(record["stdout"])
    return rows[0].get("error_rate") if len(rows) == 1 else None


def main() -> int:
    deadline = time.monotonic() + RUN_BUDGET_S
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "ecoc" / "cli.py").is_file():
        sys.stderr.write(f"error: no ecoc sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(HERE))
    import workloads
    from checks import Checker
    # Importing the worker imports ecoc.cli, which also compiles the
    # bytecode the set-up runs load.
    from worker import parallel_ops

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; have {workloads.WORKLOADS}\n")
        return 2
    rounds = workloads.rounds_for(args.workload, args.seconds)
    if args.trace:
        rounds = max(1, rounds // 2)
    work_dir = WORK / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    plan = workloads.build_rounds(args.workload, args.seed, rounds, work_dir)
    ops = [op for ops_of_round in plan for op in ops_of_round]

    # Set-up samples are taken before and after the workload, so that they
    # span the run rather than one moment of it.
    setup_times, problems = [], []
    if not args.trace:
        setup_times, problems = measure_setup(plan[0][0]["argv"], SETUP_RUNS // 2)
    try:
        result = run_worker(args, rounds, work_dir, deadline)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: workload run failed: {exc}\n")
        return 1
    if not args.trace:
        times, more = measure_setup(plan[0][0]["argv"], SETUP_RUNS - SETUP_RUNS // 2)
        setup_times += times
        problems += more

    checker = Checker(args.seed, args.workload, ROOT)
    failures: dict[tuple[str, int], str] = {}

    def verdict(key, op, record, reason=None):
        reason = reason or checker.check(op, record)
        if reason:
            failures.setdefault(key, f"{record['label']}: {reason}")

    records = result["records"]
    for i, (op, record) in enumerate(zip(ops, records)):
        verdict(("plain", i), op, record)
    attempted = len(records)
    if args.trace:
        traced = result["traced"]
        for i, (op, plain, record) in enumerate(zip(ops, records, traced)):
            same = (plain["stdout"], plain["files"]) == (record["stdout"], record["files"])
            verdict(("traced", i), op, record, None if same else "traced output differs")
        parallel = result.get("parallel", [])
        for i, (op, record) in enumerate(zip(parallel_ops(plan) if parallel else [], parallel)):
            verdict(("parallel", i), op, record)
        if parallel and error_rate(parallel[0]) != error_rate(parallel[1]):
            failures.setdefault(("parallel", 1), f"{parallel[1]['label']}: error_rate "
                                f"{error_rate(parallel[1])} != {error_rate(parallel[0])} at 1 worker")
        attempted += len(traced) + len(parallel)
        fold_rows = {name: len(arrays[0]) for name, arrays in checker.folds.items()}
        metrics = per_layer_metrics(result["spans"], traced, result["traced_gauges"],
                                    result["traced_wall"], records, result["gauges"], ops,
                                    parallel, fold_rows)
    else:
        metrics = end_to_end_metrics(records, result["gauges"], setup_times,
                                     result["peak_rss_kb"], attempted, len(failures))
        raw = [r["latency"] for r in records]
        raw_tail, pct = tail_latency(raw)
        factors = [f for _, f in result["gauges"]]
        print(f"op_tail_ms is the p{pct:.1f} latency over {len(records)} operations")
        print(f"latencies are scaled to the nominal host speed; the host ran "
              f"{statistics.median(factors):.3f}x slower than nominal (median of "
              f"{len(factors)} gauges, range {min(factors):.3f} to {max(factors):.3f})")
        print(f"as measured: {mix_rate(records, raw):.6g} ops/s, "
              f"p50 {1000.0 * statistics.median(raw):.6g} ms, "
              f"p{pct:.1f} {1000.0 * raw_tail:.6g} ms")

    print(f"workload {args.workload}, seed {args.seed}, {rounds} round(s) of "
          f"{len(plan[0])} operations, trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    for line in problems + list(failures.values())[:20]:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": not problems and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
