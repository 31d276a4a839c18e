"""The value-level comparison of tools/cli_corpus.py."""

import importlib.util
from pathlib import Path

import pytest

from ecoc.experiment_io import fixture_names

_PATH = Path(__file__).resolve().parents[1] / "tools" / "cli_corpus.py"
_SPEC = importlib.util.spec_from_file_location("cli_corpus", _PATH)
cli_corpus = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_corpus)


class TestCompare:
    def test_identical_output(self):
        text = "k,pmf\n0,0.9\n1,0.1\n"
        assert cli_corpus.compare(text, text) == 0.0

    def test_largest_relative_difference(self):
        old = "k,pmf\n0,0.25\n1,1e-300\n"
        new = "k,pmf\n0,0.2500000000001\n1,1.0000000000003e-300\n"
        assert cli_corpus.compare(old, new) == pytest.approx(4e-13, rel=1e-3)

    def test_equal_values_printed_differently(self):
        assert cli_corpus.compare("0.0 1.50", "0 1.5") == 0.0

    @pytest.mark.parametrize(
        "new",
        ["k,pmf\n0,0.9\n", "k,prob\n0,0.9\n1,0.1\n", "k,pmf\n0,0.9\n1,nan\n"],
    )
    def test_changed_text_or_count(self, new):
        assert cli_corpus.compare("k,pmf\n0,0.9\n1,0.1\n", new) is None


def test_corpus_covers_every_bundled_fixture():
    # FIXTURES is written out so that the corpus does not depend on the
    # code under test; a fixture missing from it would drop out of the
    # byte-identity check unnoticed.
    assert list(cli_corpus.FIXTURES) == fixture_names()
