"""Each command loads only the modules it runs, checked in fresh
interpreters (the fold-summary commands also with numpy unimportable), and
a smoke run of tools/cold_start.py."""

import csv
import importlib.util
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from ecoc._shared import DEFAULT_ORIENTATION, sylvester_distance
from ecoc.bounds import evaluate_bounds
from ecoc.experiment_io import fixture_text

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("cold_start", ROOT / "tools" / "cold_start.py")
cold_start = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cold_start)

MODEL = ["--model", "iid", "--n", "26", "--ebar", "0.0686"]


def test_import_ecoc_loads_no_submodule():
    assert cold_start.loaded(ROOT, []) == []
    # The submodules a bare import once loaded still resolve as attributes.
    snippet = ("import sys; sys.path.insert(0, 'src'); import ecoc; "
               "print(ecoc.prob_engine.ErrorProfile.__module__, ecoc.simulator.__name__)")
    proc = subprocess.run([sys.executable, "-c", snippet], cwd=ROOT, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == ["ecoc.prob_engine", "ecoc.simulator"]


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        pytest.param(
            ["code", "--classes", "10", "--format", "csv"],
            ["ecoc.code_matrix", "numpy", "ecoc.prob_engine", "ecoc.bounds", "ecoc.simulator",
             "ecoc.experiment_io", "json", "concurrent.futures"],
            id="code",
        ),
        pytest.param(
            ["tail", *MODEL, "--m", "6", "--format", "csv"],
            ["ecoc.bounds", "ecoc.simulator", "ecoc.experiment_io"],
            id="tail",
        ),
        pytest.param(
            ["tail", "--model", "exchangeable", "--n", "26", "--ebar", "0.0686", "--c",
             "0.0058", "--m", "6"],
            ["ecoc.bounds", "ecoc.simulator", "ecoc.experiment_io"],
            id="tail-exchangeable",
        ),
        pytest.param(
            ["simulate", *MODEL, "--m", "6", "--trials", "100", "--mode", "threshold",
             "--format", "csv"],
            ["ecoc.bounds", "ecoc.experiment_io", "json", "concurrent.futures", "logging"],
            id="simulate",
        ),
        pytest.param(
            ["simulate", *MODEL, "--m", "6", "--trials", "40000", "--workers", "2",
             "--mode", "threshold", "--format", "csv"],
            ["concurrent.futures", "logging"],
            id="simulate-threshold-two-workers",
        ),
        pytest.param(
            # Two chunks on two workers: full-decode sums its chunks in the
            # calling thread too.
            ["simulate", *MODEL, "--trials", "40000", "--workers", "2",
             "--mode", "full-decode", "--format", "csv"],
            ["concurrent.futures", "logging"],
            id="simulate-full-decode-two-workers",
        ),
    ],
)
def test_a_command_loads_only_what_it_runs(argv, unloaded):
    loaded = cold_start.loaded(ROOT, argv)
    assert "ecoc.cli" in loaded
    assert not set(unloaded) & set(loaded)


# The library modules that only a distribution, a sample or a code's rows
# need; none of them is run by a command that reads fold summaries.
ARRAY_MODULES = ["numpy", "ecoc.code_matrix", "ecoc.prob_engine", "ecoc.simulator"]


# The commands that read fold summaries or evaluate bounds; "{dir}" stands
# for a directory holding usps_svm.csv.
SUMMARY_COMMANDS = [
    pytest.param(["analyze", "--fixture", "cifar10_cnn", "--format", "csv"],
                 id="analyze-fixture"),
    pytest.param(["analyze", "--summary", "{dir}/usps_svm.csv", "--classes", "10",
                  "--kz-policy", "always", "--format", "json"], id="analyze-summary"),
    pytest.param(["figures", "--figure", "scatter", "--fixture", "letters_dt",
                  "--out", "{dir}/figures"], id="figures-scatter"),
    pytest.param(["figures", "--figure", "fig1", "--out", "{dir}/figures"], id="figures-fig1"),
    pytest.param(["bounds", "--n", "26", "--m", "6", "--ebar", "0.0686", "--c", "0.0058",
                  "--format", "csv"], id="bounds"),
    pytest.param(["bahadur", "--n", "26", "--ebar", "0.0686", "--format", "csv"],
                 id="bahadur"),
]


def _summary_command_loads(tmp_path, argv):
    (tmp_path / "usps_svm.csv").write_text(fixture_text("usps_svm"), encoding="utf-8")
    loaded = cold_start.loaded(ROOT, [word.format(dir=tmp_path) for word in argv])
    assert "ecoc.cli" in loaded
    return set(loaded)


@pytest.mark.parametrize("argv", SUMMARY_COMMANDS)
def test_fold_summaries_and_bounds_load_no_array_module(tmp_path, argv):
    assert not set(ARRAY_MODULES) & _summary_command_loads(tmp_path, argv)


@pytest.mark.parametrize("argv", SUMMARY_COMMANDS)
def test_fold_summaries_and_bounds_load_no_dataclasses(tmp_path, argv):
    # Their records are NamedTuples; dataclasses would bring inspect.
    assert not {"dataclasses", "inspect"} & _summary_command_loads(tmp_path, argv)


def test_analyze_predictions_still_loads_numpy(tmp_path):
    # A raw fold is decoded, which takes the code's rows; the folds run in
    # the calling thread, with no pool.
    path = tmp_path / "fold.csv"
    header = ",".join(["true_class", *(f"bit_{i}" for i in range(1, 11))])
    path.write_text(f"{header}\n0,{','.join('0' * 10)}\n3,{','.join('1' * 10)}\n")
    loaded = cold_start.loaded(ROOT, ["analyze", "--predictions", str(path), "--classes", "10"])
    assert {"numpy", "ecoc.code_matrix"} <= set(loaded)
    assert not {"concurrent.futures", "logging"} & set(loaded)


# Runs the ecoc command in argv with numpy made unimportable.
NO_NUMPY_SNIPPET = (
    "import sys\n"
    "sys.modules['numpy'] = None\n"
    "sys.path.insert(0, 'src')\n"
    "from ecoc import cli\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


def test_summary_of_the_largest_code_builds_no_matrix(tmp_path):
    # The order-15 code would be 1 GiB of uint8; its m comes from the
    # closed form, so both commands run with numpy unimportable.
    classes = 1 << 15
    n, m = classes, sylvester_distance(classes, DEFAULT_ORIENTATION) // 2
    assert m == 1 << 13  # a whole Hadamard code: d = 2^14
    summary = tmp_path / "big.csv"
    summary.write_text("fold,mean_bit_error,mean_correlation,ecoc_error\n"
                       "1,0.05,0.01,0.04\n2,0.06,0.02,0.05\n3,0.07,-0.01,0.03\n")
    folds = [(0.05, 0.01), (0.06, 0.02), (0.07, -0.01)]

    def run(*argv):
        proc = subprocess.run([sys.executable, "-c", NO_NUMPY_SNIPPET, *argv], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    report = json.loads(run("analyze", "--summary", str(summary), "--classes", str(classes),
                            "--format", "json"))
    for row, (e, c) in zip(report["folds"], folds, strict=True):
        want = evaluate_bounds(n, m, e, c)
        assert (row["gs"], row["chernoff"], row["kz"]) == (want.gs, want.chernoff_lambda, want.kz)

    out = tmp_path / "figures"
    run("figures", "--figure", "scatter", "--summary", str(summary), "--classes", str(classes),
        "--out", str(out))
    rows = list(csv.DictReader(io.StringIO((out / "big_folds.csv").read_text())))
    for row, (e, c) in zip(rows, folds, strict=True):
        want = evaluate_bounds(n, m, e, c, kz_policy="always")
        got = tuple(float(row[key]) for key in ("gs", "chernoff", "kz"))
        assert got == (want.gs, want.chernoff_lambda, want.kz)


def test_only_code_emit_builds_the_matrix():
    # The parameters come from the closed form; the matrix, and so numpy,
    # only when it is printed.
    loaded = cold_start.loaded(ROOT, ["code", "--classes", "10", "--emit"])
    assert {"ecoc.code_matrix", "numpy"} <= set(loaded)


def test_one_row_per_command(capsys, monkeypatch):
    # The first and the last command: a set-up command, and the one that
    # writes into the temporary directory.
    monkeypatch.setattr(cold_start, "COMMANDS", (cold_start.COMMANDS[0], cold_start.COMMANDS[-1]))
    assert cold_start.main(["--parent", str(ROOT), "--change", str(ROOT), "--runs", "1"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:6] == ["command", "parent_ms", "change_ms", "ratio",
                                  "parent_q1-q3", "change_q1-q3"]
    assert [row.split()[0] for row in rows] == ["code", "figures"]
    loads = {}
    for row in rows:
        name, parent, change, ratio, *spreads_and_modules = row.split()
        spreads, modules = spreads_and_modules[:2], spreads_and_modules[2:]
        assert float(parent) > 0 and float(change) > 0 and float(ratio.rstrip("~")) > 0
        # One run per side: each side's quartiles are its one time, and a
        # ratio is marked only where the two times are equal.
        (p1, p3), (c1, c3) = (tuple(map(float, s.split("-"))) for s in spreads)
        assert p1 == p3 == float(parent) and c1 == c3 == float(change)
        assert p1 == c1 or not ratio.endswith("~")
        assert "cli" in modules
        loads[name] = modules
    for name in ("code", "figures"):
        assert "code_matrix" not in loads[name] and "numpy" not in loads[name]


def test_quartiles():
    assert cold_start.quartiles([5.0]) == (5.0, 5.0)
    assert cold_start.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 4.0)
