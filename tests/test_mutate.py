"""A smoke run of tools/mutate.py on a checkout of one small module."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

MODULE = '''\
def clamp(x, lo):
    if x < lo:
        return lo
    return x


def scaled(x):
    return 2 * x
'''

TESTS = '''\
from tiny import clamp, scaled


def test_clamp():
    assert clamp(-1, 0) == 0
    assert clamp(5, 0) == 5


def test_scaled():
    assert scaled(3) == 6
'''


def test_counts_a_killed_mutant_and_lists_a_survivor(tmp_path):
    # The tool copies and mutates the checkout it sits in: here a tree of
    # the tool, one small module and one test file, so that each pytest run
    # is short.
    (tmp_path / "tools").mkdir()
    shutil.copy(ROOT / "tools" / "mutate.py", tmp_path / "tools")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "tiny.py").write_text(MODULE)
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_tiny.py").write_text(TESTS)
    before = sorted(tmp_path.rglob("*"))
    # No test named: the named tests are the whole suite, run once a mutant.
    proc = subprocess.run(
        [sys.executable, "tools/mutate.py", "src/tiny.py"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": "src"}, capture_output=True, text=True,
        timeout=300,
    )
    # x < lo and x <= lo give the same value at x == lo: no test can tell
    # them apart, so the mutant survives.
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "src/tiny.py:8  2 * x → 2 / x: killed" in proc.stderr.splitlines()
    assert proc.stdout.splitlines() == [
        "src/tiny.py: 2 mutants, 1 killed, 0 timed out, 1 survived, 0 known equivalent",
        "kill rate: 1 of 2 = 50.0 %",
        "survived:",
        "  src/tiny.py:2  x < lo → x <= lo",
        "known equivalent:",
    ]
    assert sorted(tmp_path.rglob("*")) == before
