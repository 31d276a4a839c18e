"""Time fresh-interpreter starts of every ecoc subcommand in two checkouts.

    python3 tools/cold_start.py --parent OLD --change NEW [--runs 12]

OLD and NEW are source checkouts.  For one representative command per
subcommand (COMMANDS; the first three are the set-up commands of the
exact-sweep, monte-carlo and fold-ingest workloads), each run starts a
fresh interpreter in one checkout that runs perfbench's set-up snippet (put
``src`` on the path, ``from ecoc import cli``, run the command), read from
NEW's ``perfbench/run.py`` together with the environment perfbench gives its
children, and takes its wall time.  The runs alternate between the
checkouts, the parent first in even rounds, --runs per side.

A table gives, per command, each side's median in ms, the ratio change /
parent, each side's quartiles (q1-q3, statistics.quantiles, inclusive; one
run is its own quartiles), and what the command loads in NEW: the ``ecoc``
modules (without the package prefix) and the WATCHED modules, read from
one more fresh interpreter.  A ratio marked ``~`` is one whose two
sides' interquartile ranges overlap: an unchanged command's median swings
by 10-18 % between runs on a shared host, so such a ratio is within the
spread and shows no change.  A command that exits non-zero stops the script with status 1.
Standard library only; the figures command writes into a temporary
directory that is removed at the end.
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# (subcommand, argv); "{out}" stands for a temporary directory.
COMMANDS = (
    ("code", ["code", "--classes", "1000", "--format", "csv"]),
    ("simulate", ["simulate", "--model", "iid", "--n", "26", "--ebar", "0.0686",
                  "--trials", "65536", "--seed", "1", "--format", "csv",
                  "--mode", "threshold", "--m", "6"]),
    ("analyze", ["analyze", "--fixture", "cifar10_cnn", "--kz-policy", "always",
                 "--format", "csv"]),
    ("pmf", ["pmf", "--model", "exchangeable", "--n", "127", "--ebar", "0.18",
             "--c", "0.006", "--format", "csv"]),
    ("tail", ["tail", "--model", "exchangeable", "--n", "26", "--ebar", "0.0686",
              "--c", "0.0058", "--m", "6", "--format", "csv"]),
    ("bounds", ["bounds", "--n", "26", "--m", "6", "--ebar", "0.0686", "--c", "0.0058",
                "--format", "csv"]),
    ("bahadur", ["bahadur", "--n", "26", "--ebar", "0.0686", "--format", "csv"]),
    ("figures", ["figures", "--figure", "scatter", "--fixture", "letters_dt",
                 "--out", "{out}"]),
)
# Modules a command should load only where it uses them: numpy, whose import
# is most of a start, and standard-library ones: dataclasses and the inspect
# it imports, json, and concurrent.futures and the logging it imports.
WATCHED = ("numpy", "dataclasses", "inspect", "json", "concurrent.futures", "logging")
# Imports ecoc, runs the command in argv if there is one, and writes on its
# last stderr line the ecoc modules and WATCHED modules that are loaded.
LOADS_SNIPPET = (
    "import sys\n"
    "sys.path.insert(0, 'src')\n"
    "import ecoc\n"
    "rc = 0\n"
    "if sys.argv[1:]:\n"
    "    from ecoc import cli\n"
    "    rc = cli.main(sys.argv[1:])\n"
    f"watched = {WATCHED!r}\n"
    "print(*sorted(m for m in sys.modules if m.startswith('ecoc.') or m in watched),"
    " file=sys.stderr)\n"
    "sys.exit(rc)\n"
)


def perfbench_run(checkout: Path):
    """The checkout's perfbench/run.py as a module, for its SETUP_SNIPPET
    and CHILD_ENV."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", checkout / "perfbench" / "run.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(checkout: Path, snippet: str, argv: list[str], env: dict | None):
    proc = subprocess.run([sys.executable, "-c", snippet, *argv], cwd=checkout,
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(argv)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-300:]}")
    return proc


def start_ms(checkout: Path, argv: list[str], bench) -> float:
    """Wall time of one fresh interpreter running perfbench's set-up
    snippet on argv in checkout."""
    start = time.perf_counter()
    _run(checkout, bench.SETUP_SNIPPET, argv, bench.CHILD_ENV)
    return (time.perf_counter() - start) * 1e3


def loaded(checkout: Path, argv: list[str]) -> list[str]:
    """The ecoc modules (full names) and WATCHED modules loaded by a fresh
    interpreter that imports ecoc and runs argv through cli.main; with argv
    empty, one that only imports ecoc."""
    proc = _run(checkout, LOADS_SNIPPET, argv, None)
    return proc.stderr.splitlines()[-1].split()


def quartiles(values: list[float]) -> tuple[float, float]:
    """(q1, q3) of values, inclusive; a single value is both."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--runs", type=int, default=12, help="runs per side and command")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    bench = perfbench_run(args.change)
    pair = (args.parent, args.change)
    print(f"{'command':<9} {'parent_ms':>9} {'change_ms':>9} {'ratio':>6}  "
          f"{'parent_q1-q3':>13} {'change_q1-q3':>13}  loads (change)")
    with tempfile.TemporaryDirectory() as out:
        for name, command in COMMANDS:
            command = [word.format(out=out) for word in command]
            times = ([], [])
            try:
                for i in range(args.runs):
                    for side in (0, 1) if i % 2 == 0 else (1, 0):
                        times[side].append(start_ms(pair[side], command, bench))
                loads = loaded(args.change, command)
            except RuntimeError as exc:
                sys.stderr.write(f"error: {exc}\n")
                return 1
            old, new = map(statistics.median, times)
            (old_q1, old_q3), (new_q1, new_q3) = map(quartiles, times)
            mark = "~" if old_q1 <= new_q3 and new_q1 <= old_q3 else " "
            spreads = (f"{old_q1:.1f}-{old_q3:.1f}", f"{new_q1:.1f}-{new_q3:.1f}")
            short = " ".join(m.removeprefix("ecoc.") for m in loads)
            print(f"{name:<9} {old:>9.1f} {new:>9.1f} {new / old:>5.3f}{mark}  "
                  f"{spreads[0]:>13} {spreads[1]:>13}  {short}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
