"""A smoke run of tools/line_cover.py on one small test file."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_lists_unrun_statements_of_one_test_file():
    env = {**os.environ, "PYTHONPATH": "src"}
    proc = subprocess.run(
        [sys.executable, "tools/line_cover.py", "tests/test_sampler_floor.py", "-q",
         "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    modules = {line.split(":")[0] for line in lines if " statements, " in line}
    assert modules == {p.relative_to(ROOT).as_posix() for p in (ROOT / "src/ecoc").glob("*.py")}
    unrun = {line.split()[0]: line.split(None, 1)[1] for line in lines if line.startswith("  ")}
    # The package's __main__ module never runs in process, but the body of
    # its __main__ guard is skipped, as is every TYPE_CHECKING block.
    assert unrun["src/ecoc/__main__.py:5"] == "from .cli import main"
    assert "sys.exit(main())" not in unrun.values()
    assert not {"from .prob_engine import ErrorProfile", "from . import prob_engine as pe",
                "from .code_matrix import CodeMatrix"} & set(unrun.values())
    # The test file times full-decode runs, so the chunk loop ran.
    simulator = (ROOT / "src/ecoc/simulator.py").read_text().splitlines()
    loop = next(i for i, text in enumerate(simulator, 1) if "errors += _misdecoded_flips" in text)
    assert f"src/ecoc/simulator.py:{loop}" not in unrun
