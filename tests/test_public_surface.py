"""The public surface: the README's library example runs, and ecoc.__all__
is exactly what the package exports."""

import importlib
import inspect
import re
from pathlib import Path

import ecoc
from ecoc import bounds, cli, code_matrix, errors, experiment_io, prob_engine, simulator

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = (ecoc, bounds, cli, code_matrix, errors, experiment_io, prob_engine, simulator)
# Exports deleted because each was one call of a public method or function
# that callers already had; none may come back unnoticed.
DELETED = (
    "count_misdecoded",
    "exchangeable_tail",
    "min_row_distance",
    "pair_correlated_tail",
    "tail_iid",
    "write_summaries",
    "_row_counts",
)


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library example\n\n```python\n(.*?)```", text, re.S)
    assert block is not None
    namespace = {}
    exec(compile(block.group(1), "README.md", "exec"), namespace)
    assert 0.0 < namespace["exact"] < namespace["bound"]
    assert namespace["p6"] == namespace["dist"][6]


def test_all_is_sorted_and_resolves():
    # Every name in __all__ resolves, on first access, to the object its
    # home module defines, and every public name is in it.
    assert ecoc.__all__ == sorted(ecoc.__all__)
    assert len(ecoc.__all__) == 33 and "exact_decode_error" in ecoc.__all__
    for name in ecoc.__all__:
        home = importlib.import_module(f"ecoc.{ecoc._HOME[name]}")
        assert getattr(ecoc, name) is getattr(home, name), name
    exported = {
        name for name in dir(ecoc)
        if not name.startswith("_") and not inspect.ismodule(getattr(ecoc, name))
    }
    assert exported == set(ecoc.__all__)


def test_deleted_names_stay_deleted():
    for module in MODULES:
        for name in DELETED:
            assert not hasattr(module, name), (module.__name__, name)
