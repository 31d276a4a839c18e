"""Each command loads only the modules it runs, checked in fresh
interpreters, and a smoke run of tools/cold_start.py."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

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
            ["ecoc.prob_engine", "ecoc.bounds", "ecoc.simulator", "ecoc.experiment_io",
             "json", "concurrent.futures"],
            id="code",
        ),
        pytest.param(
            ["tail", *MODEL, "--m", "6", "--format", "csv"],
            ["ecoc.bounds", "ecoc.simulator", "ecoc.experiment_io"],
            id="tail",
        ),
        pytest.param(
            ["simulate", *MODEL, "--m", "6", "--trials", "100", "--mode", "threshold",
             "--format", "csv"],
            ["ecoc.bounds", "ecoc.experiment_io", "json"],
            id="simulate",
        ),
    ],
)
def test_a_command_loads_only_what_it_runs(argv, unloaded):
    loaded = cold_start.loaded(ROOT, argv)
    assert "ecoc.cli" in loaded
    assert not set(unloaded) & set(loaded)


def test_one_row_per_command(capsys, monkeypatch):
    # The first and the last command: a set-up command, and the one that
    # writes into the temporary directory.
    monkeypatch.setattr(cold_start, "COMMANDS", (cold_start.COMMANDS[0], cold_start.COMMANDS[-1]))
    assert cold_start.main(["--parent", str(ROOT), "--change", str(ROOT), "--runs", "1"]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split()[:4] == ["command", "parent_ms", "change_ms", "ratio"]
    assert [row.split()[0] for row in rows] == ["code", "figures"]
    for row in rows:
        parent, change, ratio, *loads = row.split()[1:]
        assert float(parent) > 0 and float(change) > 0 and float(ratio) > 0
        assert "cli" in loads and "code_matrix" in loads
