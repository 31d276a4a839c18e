"""Compare two checkouts on the perfbench workloads by alternating pairs.

    python3 tools/bench_pairs.py --parent OLD --change NEW --out BENCH_N.json \
        --workload exact-sweep --seeds 201-210 --held-out 4243 --note "what changed" \
        [--previous BENCH_N-1.json]

OLD and NEW are source checkouts (each with its own ``perfbench/``); the
output names OLD by its git revision.  For each workload, pair i runs
``python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`` in
both checkouts back to back, on seed S, the i-th of --seeds; the parent runs
first when i is even.  T is ``run_seconds`` from NEW's ``BENCHMARK.json``.
The --held-out seed then gets HELD_OUT_PAIRS pairs, with the change first
when i is even.  A run that exits non-zero or prints no JSON line counts as
failed, and its pair is dropped.

For every end-to-end metric that ``BENCHMARK.json`` (read from NEW) lists,
the output gives each side's median and quartiles over the pairs
(statistics.quantiles, inclusive) and its per-pair values, the pairs the
change won and lost (ties count for neither), the change of the median
relative to the parent's, and the parent's interquartile range.  The file
is rewritten after every pair, so an interrupted comparison keeps the pairs
it finished.  With --previous, an earlier output of this script, the end
prints each metric's median change next to the one that file records for
the same workload and plan ("-" where it has none).  Standard library
only; nothing in either checkout is changed apart from the benchmark's own
``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from timing import quartiles

COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0"
METHOD = (
    "Parent and change each run from their own checkout. Pair i runs the two "
    "sides back to back on seed S, parent first when i is even (held-out pairs: "
    "change first when i is even). Median and quartiles are over the pairs "
    "(statistics.quantiles, inclusive). change_wins counts pairs where the change "
    "is better, change_losses where it is worse; median_change is the change's "
    "median relative to the parent's."
)
HELD_OUT_PAIRS = 3  # pairs on the held-out seed


def seed_list(text: str) -> list[int]:
    """'201-205,207' -> [201, 202, 203, 204, 205, 207]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """The metrics of one perfbench run, or None when it failed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(f"run failed ({checkout}, {workload}, seed {seed}): "
                         f"{proc.stderr.strip()[-500:]}\n")
        return None
    try:
        out = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(f"no JSON line ({checkout}, {workload}, seed {seed})\n")
        return None
    return {name: m["value"] for name, m in out["metrics"].items()}


def spread(values: list[float]) -> dict:
    q1, q3 = quartiles(values)
    return {"median": round(statistics.median(values), 6), "q1": round(q1, 6),
            "q3": round(q3, 6), "runs": len(values),
            "values": [round(v, 6) for v in values]}


def summarise(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    """Per metric: both sides' spread, wins, losses, relative median change
    and the parent's IQR, over the (parent, change) metric dicts of pairs."""
    out = {}
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "higher" else -1
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        ps, cs = spread(parent), spread(change)
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": ps, "change": cs,
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
            "change_losses": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "median_change": round((cs["median"] - ps["median"]) / ps["median"], 4)
            if ps["median"] else 0.0,
            "parent_iqr": round(ps["q3"] - ps["q1"], 6),
        }
    return out


def beside_previous(report: dict, previous: dict) -> list[str]:
    """One line per workload, plan and metric of report: its median change
    and the previous report's for the same workload, plan and metric."""
    lines = []
    for workload, plans in report["workloads"].items():
        for plan, entry in plans.items():
            before = previous.get("workloads", {}).get(workload, {}).get(plan, {})
            for name, metric in entry["metrics"].items():
                old = before.get("metrics", {}).get(name, {}).get("median_change")
                old_text = "-" if old is None else f"{old:+.2%}"
                lines.append(f"{workload:<12} {plan:<12} {name:<12} "
                             f"{metric['median_change']:+8.2%}  previous {old_text:>8}")
    return lines


def machine(python: str) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    numpy = subprocess.run([python, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    return {"cpu": cpu, "arch": platform.machine(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy or None}


def revision(checkout: Path) -> str:
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--short", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else str(checkout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", type=seed_list, required=True, help="e.g. 201-210")
    ap.add_argument("--held-out", type=int, help="a seed not used while writing the change")
    ap.add_argument("--note", default="", help="what the change does")
    ap.add_argument("--previous", type=Path,
                    help="an earlier output, whose median changes are printed beside these")
    args = ap.parse_args(argv)

    previous = json.loads(args.previous.read_text()) if args.previous else None
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    report = {
        "change": args.note,
        "parent": revision(args.parent),
        "machine": machine(sys.executable),
        "command": COMMAND.format(seconds=seconds),
        "method": METHOD,
        "workloads": {},
    }
    plans = [("alternating", args.seeds, False)]
    if args.held_out is not None:
        plans.append(("held_out", [args.held_out] * HELD_OUT_PAIRS, True))
    for workload in args.workload:
        entry = report["workloads"].setdefault(workload, {})
        for key, seeds, change_first in plans:
            pairs, failed = [], 0
            for i, seed in enumerate(seeds):
                sides = [("parent", args.parent), ("change", args.change)]
                if (i % 2 == 0) == change_first:
                    sides.reverse()
                got = {side: run_once(path, workload, seed, seconds)
                       for side, path in sides}
                failed += sum(v is None for v in got.values())
                if None not in got.values():
                    pairs.append((got["parent"], got["change"]))
                    print(f"{workload} {key} pair {i + 1}/{len(seeds)} seed {seed}: ops_per_s "
                          f"{got['parent']['ops_per_s']:.6g} -> {got['change']['ops_per_s']:.6g}",
                          flush=True)
                entry[key] = {"pairs": len(pairs), "seeds": sorted(set(seeds)),
                              "failed_runs": failed,
                              "metrics": summarise(pairs, spec["end_to_end"]) if pairs else {}}
                args.out.write_text(json.dumps(report, indent=1) + "\n")
    if previous is not None:
        print("\n".join(beside_previous(report, previous)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
