"""The previous-file comparison of tools/bench_pairs.py."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _report(changes: dict) -> dict:
    """A report holding the given median changes, keyed (workload, plan, metric)."""
    workloads = {}
    for (workload, plan, metric), change in changes.items():
        entry = workloads.setdefault(workload, {}).setdefault(plan, {"metrics": {}})
        entry["metrics"][metric] = {"median_change": change}
    return {"workloads": workloads}


def test_each_median_change_beside_the_previous_one():
    report = _report({
        ("monte-carlo", "alternating", "ops_per_s"): 0.1647,
        ("monte-carlo", "held_out", "ops_per_s"): 0.1756,
        ("fold-ingest", "alternating", "setup_s"): -0.002,
    })
    previous = _report({
        ("monte-carlo", "alternating", "ops_per_s"): 0.0035,
        ("fold-ingest", "alternating", "setup_s"): 0.0085,
    })
    lines = bench_pairs.beside_previous(report, previous)
    assert [line.split()[:5] for line in lines] == [
        ["monte-carlo", "alternating", "ops_per_s", "+16.47%", "previous"],
        ["monte-carlo", "held_out", "ops_per_s", "+17.56%", "previous"],
        ["fold-ingest", "alternating", "setup_s", "-0.20%", "previous"],
    ]
    assert [line.split()[-1] for line in lines] == ["+0.35%", "-", "+0.85%"]


def test_an_empty_previous_file_shows_no_change():
    report = _report({("exact-sweep", "alternating", "ops_per_s"): 0.02})
    (line,) = bench_pairs.beside_previous(report, {})
    assert line.split()[-1] == "-"
