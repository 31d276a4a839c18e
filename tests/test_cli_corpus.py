"""The value-level comparison of tools/cli_corpus.py."""

import importlib.util
import itertools
import json
from pathlib import Path

import pytest

import ecoc.cli as cli
from ecoc.code_matrix import build_code_matrix
from ecoc.experiment_io import fixture_names
from ecoc.simulator import _chunk_rng, _far_block_rows

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
        assert cli_corpus.compare(old, new) == pytest.approx(4e-13, rel=1e-3, abs=0)

    def test_equal_values_printed_differently(self):
        assert cli_corpus.compare("0.0 1.50", "0 1.5") == 0.0

    @pytest.mark.parametrize(
        "new",
        ["k,pmf\n0,0.9\n", "k,prob\n0,0.9\n1,0.1\n", "k,pmf\n0,0.9\n1,nan\n"],
    )
    def test_changed_text_or_count(self, new):
        assert cli_corpus.compare("k,pmf\n0,0.9\n1,0.1\n", new) is None


class TestAgainst:
    """--against compares the files a figures command writes as it compares
    stdout: a dump is made of one fig1 command, and the rerun is compared
    with it."""

    ARGV = ["figures", "--figure", "fig1", "--ns", "5", "--r", "0.3", "--step", "0.1"]

    @pytest.fixture
    def dump(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli_corpus, "FAMILIES", {"figures": lambda _: [self.ARGV]})
        path = tmp_path / "dump.jsonl"
        assert cli_corpus.main(["--dump", str(path)]) == 0
        capsys.readouterr()
        return path

    def _against(self, path, capsys):
        status = cli_corpus.main(["--against", str(path)])
        return status, capsys.readouterr().out

    def _edit_files(self, path, edit):
        rec = json.loads(path.read_text())
        rec["files"] = edit(rec["files"])
        path.write_text(json.dumps(rec) + "\n")

    def test_rerun_of_the_same_code_lists_nothing(self, dump, capsys):
        assert self._against(dump, capsys) == (
            0,
            "figures       1 commands,     0 with moved numbers, "
            "worst relative difference 0\n",
        )

    def test_moved_number_in_a_written_file_is_listed(self, dump, capsys):
        # The first curve row's n, 5 in the rerun, is 6 in the dump.
        self._edit_files(dump, lambda files: {
            name: text.replace("\n5,", "\n6,", 1) for name, text in files.items()
        })
        status, out = self._against(dump, capsys)
        assert status == 1
        assert out.splitlines()[0] == (
            "figures   relative difference 0.167 in fig1_curves.csv: "
            + " ".join(self.ARGV) + " --out <tmp>/out0"
        )
        assert "1 with moved numbers" in out

    def test_missing_written_file_is_listed(self, dump, capsys):
        self._edit_files(dump, lambda files: {})
        status, out = self._against(dump, capsys)
        assert status == 1
        assert out.startswith("figures   outputs stdout -> stdout, fig1_curves.csv: ")


def test_corpus_covers_every_bundled_fixture():
    # FIXTURES is written out so that the corpus does not depend on the
    # code under test; a fixture missing from it would drop out of the
    # byte-identity check unnoticed.
    assert list(cli_corpus.FIXTURES) == fixture_names()


def test_simulate_family_decodes_far_blocks_beside_a_one_worker_twin(tmp_path):
    # A full-decode command whose far rows fill more than one far-row block,
    # at --workers 2, beside its --workers 1 twin: the pair pins that
    # --workers leaves a result of several blocks unchanged (a threshold
    # estimate is one draw at any worker count).
    def far_blocks(argv):
        args = cli._parser().parse_args(argv)
        model = cli._build_model(args)
        code = build_code_matrix(model.n)
        far = model.count_far(_chunk_rng(args.seed, 0), args.trials, code.far_flips)
        return far / _far_block_rows(code.n)

    family = cli_corpus.FAMILIES["simulate"](tmp_path)
    twins = [argv for argv in family
             if argv[-2:] == ["--workers", "2"] and argv[:-1] + ["1"] in family
             and "full-decode" in argv]
    assert max(far_blocks(argv) for argv in twins) > 2


def _twin(argv):
    """argv with its --rates list of n equal entries e given as --n n --ebar
    e instead, an independent model as iid; None when argv has no such
    list."""
    if "--rates" not in argv:
        return None
    at = argv.index("--rates")
    rates = argv[at + 1].split(",")
    if len(set(rates)) > 1:
        return None
    twin = argv[:at] + ["--n", str(len(rates)), "--ebar", rates[0]] + argv[at + 2:]
    return ["iid" if a == "independent" else a for a in twin]


def test_equal_rates_print_the_bytes_of_their_twin(tmp_path):
    # A --rates list of n equal entries is one binomial row, the same row
    # as its --n --ebar twin's, so every such command prints the same bytes
    # and exits the same way.  The corpus has them at nonzero rates for
    # both models at n = 26, 127 and 1000, in pmf and in tail.
    covered = set()
    for family in ("pmf", "tail"):
        for argv in cli_corpus.FAMILIES[family](tmp_path):
            twin = _twin(argv)
            if twin is None:
                continue
            assert cli_corpus.run(argv) == cli_corpus.run(twin), twin
            e = float(twin[twin.index("--ebar") + 1])
            covered.add((family, argv[2], int(twin[twin.index("--n") + 1]), e))
    for family, model, n, e in itertools.product(
        ("pmf", "tail"), ("independent", "pair"), (26, 127, 1000), (0.0686, 0.18)
    ):
        assert (family, model, n, e) in covered


# (sha256, command count) per family.  A change that moves the output on
# purpose updates the value here and lists the commands that moved, from
# tools/cli_corpus.py --against.
PINNED = {
    "code": ("00f00e051a177aca52b49f2802a5c27c0f688846351081bf55e4568ab59eb14f", 365),
    "pmf": ("610f3beb7f586afe44018e14ef3d93f5df9f118ed56836eb304af0e62cefd1b0", 1740),
    "tail": ("063f438b5c70418fe8fc76b7bba4000279e3a848fa835792308e01538bced9c7", 2202),
    "bounds": ("a390d109dc84cc3c1eaac474a1eb09b4ef09911753e773286362a2022399759c", 2126),
    "bahadur": ("34ba2bc07669e705704260eef60f2f95a76f188a324c1d1a252baed65471e3a2", 182),
    "simulate": ("82fcaa4716e7ad8811a727959c98962d4535a8a4c0b3d1151f08fb5e09eedb1e", 88),
    "analyze": ("6ccf1c098ed1f741ab47ab8af36098c570b9479d4d5fdc5f4283bedd1591a387", 87),
    "figures": ("759d6f25b7a8638656c5b8de1742f4ba6d865d0e958e7629c74fe14ac9d61d5b", 27),
}


def test_pinned_covers_every_family():
    assert list(PINNED) == list(cli_corpus.FAMILIES)


@pytest.mark.parametrize("family", list(PINNED))
def test_family_output_is_pinned(family, tmp_path, monkeypatch):
    # A simulate command without --seed reads ECOC_SEED; the digests are
    # those with it unset.
    monkeypatch.delenv("ECOC_SEED", raising=False)
    runs = cli_corpus.family_runs(family, tmp_path)
    assert cli_corpus.family_digest(runs) == PINNED[family]
