"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

They run outside the package's own suite, from the root of a checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import LAYERS, Tracer, self_times  # noqa: E402
from worker import run_op  # noqa: E402

SCRATCH = ROOT / ".perfbench_work" / "tests"


@pytest.fixture
def scratch():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    yield SCRATCH
    shutil.rmtree(SCRATCH, ignore_errors=True)


def small_ops(work_dir: Path) -> list[dict]:
    """Cheap operations covering every layer: the n=26 part of exact-sweep,
    short simulations, the fixture and figure commands and one fold write."""
    exact = [op for op in workloads.build_rounds("exact-sweep", 5, 1, work_dir)[0]
             if op["label"].endswith("/26")]
    sims = [op for op in workloads.build_rounds("monte-carlo", 5, 1, work_dir)[0]
            if "/26/" in op["label"]]
    for op in sims:
        op["argv"][op["argv"].index("--trials") + 1] = "4096"
    ingest = workloads.build_rounds("fold-ingest", 5, 1, work_dir)[0]
    picked = [op for op in ingest if op["label"] in ("analyze/fixture/letters_dt/csv",
                                                     "analyze/fixture/vowel_svm/json",
                                                     "figures/scatter")]
    write = next(op for op in ingest if op["kind"] == "write")
    return exact + sims + picked + [write]


def test_tracer_changes_no_output(scratch):
    from ecoc import experiment_io as xio

    folds = workloads.fold_arrays(5)
    ops = small_ops(scratch)
    plain = [run_op(op, folds) for op in ops]
    originals = {name: getattr(xio, name) for name in ("write_predictions", "evaluate_bounds")}
    tracer = Tracer()
    tracer.install()
    try:
        traced = [run_op(op, folds) for op in ops]
    finally:
        tracer.uninstall()
    for name, fn in originals.items():
        assert getattr(xio, name) is fn
    for op, a, b in zip(ops, plain, traced):
        assert a["rc"] == 0 and a["error"] is None, op["label"]
        assert (a["stdout"], a["files"]) == (b["stdout"], b["files"]), op["label"]
    layers = {span[2].split(".")[0] for span in tracer.spans}
    assert layers == set(LAYERS)
    # experiment_io calls evaluate_bounds through its own namespace.
    assert any(span[2] == "bounds.evaluate_bounds" for span in tracer.spans)


def test_self_times_cover_the_root_span():
    spans = [
        [0, -1, "cli.main", 0.0, 10.0, False],
        [0, 0, "cli.cmd_pmf", 1.0, 9.0, False],
        [0, 1, "prob_engine.a", 2.0, 4.0, False],
        [0, 1, "prob_engine.b", 5.0, 6.0, True],
    ]
    own = self_times(spans)
    assert own == [2.0, 5.0, 2.0, 1.0]
    assert sum(own) == spans[0][4] - spans[0][3]


def test_op_factors_average_the_gauges_around_each_operation():
    from reference import WINDOW_S, op_factors

    # A gauge before the first operation and one after each operation.
    gauges = [(0.0, 1.0), (1.0, 2.0), (1.5, 2.2), (2.0, 2.1), (10.0, 1.2), (20.0, 1.1)]
    records = [{"start": 0.1, "end": 0.9}, {"start": 2.1, "end": 9.9},
               {"start": 10.1, "end": 19.9}]
    assert WINDOW_S == 2.0
    # Windows [-1.9, 2.9], [0.1, 11.9] and [8.1, 21.9].
    assert op_factors(records, gauges) == pytest.approx([1.825, 1.875, 1.15])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload, scratch):
    first = workloads.build_rounds(workload, 7, 2, scratch)
    assert first == workloads.build_rounds(workload, 7, 2, scratch)
    if workload != "fold-ingest":
        assert first != workloads.build_rounds(workload, 8, 2, scratch)


def test_fold_arrays_are_deterministic_per_seed():
    a, b, c = workloads.fold_arrays(7), workloads.fold_arrays(7), workloads.fold_arrays(8)
    assert a.keys() == b.keys() == c.keys()
    for name in a:
        assert all(np.array_equal(x, y) for x, y in zip(a[name], b[name]))
    assert any(not np.array_equal(a[name][1], c[name][1]) for name in a)


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = run_bench(ROOT, "--workload", "fold-ingest", "--seed", "3", "--seconds", "1",
                     "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    listed = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in listed
    ]


def test_refuses_to_run_without_the_package(scratch):
    shutil.copytree(BENCH, scratch / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    proc = run_bench(scratch, "--workload", "exact-sweep", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
