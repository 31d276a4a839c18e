"""The public surface: the README's library example runs, ecoc.__all__
is exactly what the package exports, and the bound and fold records behave
as their callers rely on."""

import copy
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import ecoc
from ecoc import bounds, cli, code_matrix, errors, experiment_io, prob_engine, simulator

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = (ecoc, bounds, cli, code_matrix, errors, experiment_io, prob_engine, simulator)
# Exports deleted because each was one call of a public method or function
# that callers already had; none may come back unnoticed.
DELETED = (
    "BoundInputs",
    "count_misdecoded",
    "exchangeable_tail",
    "min_row_distance",
    "pair_correlated_tail",
    "tail_iid",
    "write_summaries",
    "_chernoff_mu",
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
    assert len(ecoc.__all__) == 32 and "exact_decode_error" in ecoc.__all__
    for name in ecoc.__all__:
        home = importlib.import_module(f"ecoc.{ecoc._HOME[name]}")
        assert getattr(ecoc, name) is getattr(home, name), name
    exported = {
        name for name in dir(ecoc)
        if not name.startswith("_") and not inspect.ismodule(getattr(ecoc, name))
    }
    assert exported == set(ecoc.__all__)


def test_submodules_resolve_as_attributes(monkeypatch):
    # A submodule not yet bound on the package (here unbound again) comes
    # from __getattr__, which imports it and leaves the package unchanged.
    for name in ecoc._MODULES:
        monkeypatch.delattr(ecoc, name)
        assert name not in vars(ecoc)
        assert getattr(ecoc, name) is importlib.import_module(f"ecoc.{name}")
        assert name not in vars(ecoc)


def test_deleted_names_stay_deleted():
    for module in MODULES:
        for name in DELETED:
            assert not hasattr(module, name), (module.__name__, name)


_STATS = experiment_io.ColumnStats(mean=0.5, std=0.25, count=3)
_STATS_TEXT = "ColumnStats(mean=0.5, std=0.25, count=3)"
_AGGREGATE = experiment_io.AggregateReport(_STATS, _STATS, None, _STATS)
_AGGREGATE_TEXT = (
    f"AggregateReport(experimental={_STATS_TEXT}, gs={_STATS_TEXT}, chernoff=None, "
    f"kz={_STATS_TEXT})"
)
_REFERENCE = dict(experimental=0.034, experimental_std=0.0034, gs=0.134, gs_std=0.007,
                  chernoff=0.148, chernoff_std=0.013, kz=0.192, kz_std=0.0345)
_REFERENCE_TEXT = (
    "ReferenceRow(experimental=0.034, experimental_std=0.0034, gs=0.134, gs_std=0.007, "
    "chernoff=0.148, chernoff_std=0.013, kz=0.192, kz_std=0.0345)"
)


@pytest.mark.parametrize(
    "cls, kwargs, text, change",
    [
        pytest.param(bounds.BoundReport,
                     dict(gs=0.4, feller=None, chernoff_mu=0.2, chernoff_lambda=0.1, kz=None,
                          lam=0.5, omega=0.6),
                     "BoundReport(gs=0.4, feller=None, chernoff_mu=0.2, chernoff_lambda=0.1, "
                     "kz=None, lam=0.5, omega=0.6, kz_reason=None)", dict(kz_reason="x"),
                     id="BoundReport"),
        pytest.param(experiment_io.FoldData,
                     dict(fold_id="f", n=1, true_classes=np.array([0]),
                          bits=np.array([[1]], np.uint8)),
                     "FoldData(fold_id='f', n=1, true_classes=array([0]), "
                     "bits=array([[1]], dtype=uint8))", dict(bits=np.array([[0]], np.uint8)),
                     id="FoldData"),
        pytest.param(experiment_io.FoldSummary,
                     dict(fold_id="1", mean_bit_error=0.1, mean_correlation=0.01,
                          ecoc_error=0.05),
                     "FoldSummary(fold_id='1', mean_bit_error=0.1, mean_correlation=0.01, "
                     "ecoc_error=0.05, per_classifier_errors=None, mean_bit_error_std=None, "
                     "mean_correlation_std=None, correlation_defined=True)",
                     dict(correlation_defined=False), id="FoldSummary"),
        pytest.param(experiment_io.ColumnStats, dict(mean=0.5, std=0.25, count=3),
                     _STATS_TEXT, dict(count=4), id="ColumnStats"),
        pytest.param(experiment_io.AggregateReport,
                     dict(experimental=_STATS, gs=_STATS, chernoff=None, kz=_STATS),
                     _AGGREGATE_TEXT, dict(kz=None), id="AggregateReport"),
        pytest.param(experiment_io.DatasetInfo, dict(classes=10, models=("dt", "svm")),
                     "DatasetInfo(classes=10, models=('dt', 'svm'), alt_n=None)",
                     dict(alt_n=11), id="DatasetInfo"),
        pytest.param(experiment_io.ReferenceRow, _REFERENCE, _REFERENCE_TEXT,
                     dict(kz_std=0.0346), id="ReferenceRow"),
        pytest.param(experiment_io.ReproducedRow,
                     dict(dataset="usps", model="svm", by_n={10: _AGGREGATE}, chosen_n=10,
                          reference=experiment_io.ReferenceRow(**_REFERENCE)),
                     f"ReproducedRow(dataset='usps', model='svm', by_n={{10: {_AGGREGATE_TEXT}}}, "
                     f"chosen_n=10, reference={_REFERENCE_TEXT})", dict(chosen_n=11),
                     id="ReproducedRow"),
    ],
)
def test_records_are_immutable_values(cls, kwargs, text, change):
    # Keyword construction fills the defaults the repr shows, which is the
    # repr the records had as frozen dataclasses.  Equal values make equal
    # records; one changed field, given or defaulted, an unequal one.
    record = cls(**kwargs)
    assert repr(record) == text
    assert record == cls(**copy.deepcopy(kwargs))
    assert record != cls(**{**kwargs, **change})
    for name, value in kwargs.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
