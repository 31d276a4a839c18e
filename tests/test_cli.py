"""CLI surface tests: every printed number must equal the library value."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecoc
import ecoc.cli as cli
from ecoc._shared import csv_text
from ecoc.bounds import bahadur_range, evaluate_bounds, valid_correlation_range
from ecoc.cli import main
from ecoc.code_matrix import build_code_matrix
from ecoc.experiment_io import fixture_names
from ecoc.prob_engine import (
    ErrorProfile,
    ExchangeableModel,
    Independent,
    PairModel,
)
from ecoc.simulator import MAX_DECODE_TRIALS, SimConfig, mc_threshold_error

from code_text import from_text


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


COMMANDS = ("code", "pmf", "tail", "bounds", "bahadur", "simulate", "analyze", "figures")


class TestHelp:
    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["-h"], *([command, "--help"] for command in COMMANDS)],
        ids=["--help", "-h", *COMMANDS],
    )
    def test_prints_usage_on_stdout_and_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 0
        assert any(line.startswith("usage: ecoc") for line in captured.out.splitlines())
        assert captured.err == ""


class TestBoundsCommand:
    def test_reference_row_table(self, capsys):
        status, out, _ = run(
            capsys, "bounds", "--n", "26", "--m", "6", "--ebar", "0.0686",
            "--c", "0.0058",
        )
        assert status == 0
        values = dict(
            line.split(None, 1) for line in out.strip().splitlines()
        )
        assert values["gs"] == "0.2744"
        assert float(values["chernoff"]) == pytest.approx(0.047, abs=0.005)
        assert float(values["kz"]) == pytest.approx(0.055, abs=0.01)

    def test_json_bit_for_bit(self, capsys):
        status, out, _ = run(
            capsys, "bounds", "--n", "26", "--m", "6", "--ebar", "0.0686",
            "--c", "0.0058", "--format", "json",
        )
        assert status == 0
        payload = json.loads(out)
        report = evaluate_bounds(26, 6, 0.0686, c=0.0058)
        assert payload["gs"] == report.gs
        assert payload["chernoff"] == report.chernoff_lambda
        assert payload["kz"] == report.kz
        assert payload["lambda"] == report.lam
        assert payload["omega"] == report.omega

    def test_csv_json_equal_values(self, capsys):
        _, csv_out, _ = run(
            capsys, "bounds", "--n", "10", "--m", "2", "--ebar", "0.05",
            "--c", "0.01", "--format", "csv",
        )
        _, json_out, _ = run(
            capsys, "bounds", "--n", "10", "--m", "2", "--ebar", "0.05",
            "--c", "0.01", "--format", "json",
        )
        header, row = csv_out.strip().splitlines()
        csv_vals = dict(zip(header.split(","), row.split(",")))
        payload = json.loads(json_out)
        for key in ("gs", "chernoff", "kz", "lambda", "omega"):
            assert float(csv_vals[key]) == payload[key]


    def test_zero_rate_with_c_reports_kz_absent(self, capsys):
        status, out, err = run(
            capsys, "bounds", "--n", "10", "--m", "2", "--ebar", "0",
            "--c", "0.0058", "--format", "json",
        )
        assert status == 0 and err == ""
        payload = json.loads(out)
        assert payload["kz"] is None
        assert payload["kz_reason"] == "e=0.0 must lie strictly inside (0, 1)"
        assert payload["chernoff"] == 0.0

    def test_csv_quotes_a_cell_with_a_comma(self, capsys):
        status, out, err = run(
            capsys, "bounds", "--n", "10", "--m", "2", "--ebar", "0",
            "--c", "0.0058", "--format", "csv",
        )
        assert status == 0 and err == ""
        (row,) = csv.DictReader(io.StringIO(out))
        assert None not in row
        assert row["kz_reason"] == "e=0.0 must lie strictly inside (0, 1)"
        assert row["kz"] == "" and float(row["chernoff"]) == 0.0

    @pytest.mark.parametrize(
        "flag, value", [("--c", "nan"), ("--c", "inf"), ("--mu", "inf"), ("--mu", "-1")]
    )
    def test_non_finite_c_or_bad_mu_is_rejected(self, capsys, flag, value):
        status, out, err = run(
            capsys, "bounds", "--n", "10", "--m", "2", "--ebar", "0.1",
            flag, value, "--format", "json",
        )
        assert (status, out) == (1, "")
        assert err.startswith(f"error: {flag[2:]}=")

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_m_equal_to_n_reports_decay_bounds_absent(self, capsys, fmt):
        status, out, err = run(
            capsys, "bounds", "--n", "3", "--m", "3", "--ebar", "0.1",
            "--format", fmt,
        )
        assert status == 0 and err == ""
        absent = ("chernoff", "kz", "lambda", "omega")
        if fmt == "json":
            payload = json.loads(out)
            assert all(payload[key] is None for key in absent)
            assert payload["feller"] is not None
            reason = payload["kz_reason"]
        elif fmt == "csv":
            header, row = out.strip().splitlines()
            cells = dict(zip(header.split(","), row.split(",", len(header) - 1)))
            assert all(cells[key] == "" for key in absent)
            reason = cells["kz_reason"]
        else:
            values = dict(line.split(None, 1) for line in out.strip().splitlines())
            assert all(values[key] == "-" for key in absent)
            reason = values["kz_reason"]
        assert "m < n" in reason


class TestTailCommand:
    def test_iid_reference_value(self, capsys):
        status, out, _ = run(
            capsys, "tail", "--model", "iid", "--n", "10", "--m", "4",
            "--ebar", "0.1",
        )
        assert status == 0
        assert out.strip() == "0.0127952"

    def test_json_matches_library(self, capsys):
        _, out, _ = run(
            capsys, "tail", "--model", "iid", "--n", "10", "--m", "4",
            "--ebar", "0.1", "--format", "json",
        )
        # --model iid dispatches to the independent-profile route.
        assert json.loads(out)["tail"] == Independent(ErrorProfile.iid(10, 0.1)).tail(4)

    def test_pair_model(self, capsys):
        _, out, _ = run(
            capsys, "tail", "--model", "pair", "--n", "8", "--ebar", "0.2",
            "--f", "0.1", "--m", "3", "--format", "json",
        )
        assert json.loads(out)["tail"] == pytest.approx(
            PairModel(ErrorProfile.iid(8, 0.2), 0.1).tail(3), abs=1e-15
        )

    @pytest.mark.parametrize("ebar", ["5e-324", "1e-320", "1e-315"])
    def test_subnormal_rate_exchangeable(self, capsys, ebar):
        # valid_correlation_range(3, e) admits c = 0.25 at these rates, and
        # so does the model: the tail is a subnormal mass, not a refusal.
        status, out, _ = run(
            capsys, "tail", "--model", "exchangeable", "--n", "3", "--ebar", ebar,
            "--c", "0.25", "--m", "2", "--format", "json",
        )
        assert status == 0
        assert json.loads(out)["tail"] == ExchangeableModel(3, float(ebar), 0.25).tail(2) > 0.0

    def test_missing_model_flag_is_domain_error(self, capsys):
        status, _, err = run(
            capsys, "tail", "--model", "iid", "--n", "10", "--m", "4"
        )
        assert status == 1
        assert "requires" in err

    @pytest.mark.parametrize(
        "model",
        [
            ["--model", "independent", "--rates",
             ",".join(f"{0.0686 * (1 + 0.1 * (i % 5)):.6g}" for i in range(26))],
            ["--model", "iid", "--n", "26", "--ebar", "0.0686"],
            ["--model", "pair", "--n", "26", "--ebar", "0.0686", "--f", "0.01"],
            ["--model", "exchangeable", "--n", "26", "--ebar", "0.0686",
             "--c", repr(0.5 * valid_correlation_range(26, 0.0686)[1])],
        ],
        ids=["independent", "iid", "pair", "exchangeable"],
    )
    def test_tail_is_fsum_of_printed_pmf(self, capsys, model):
        # Both commands read one count_pmf, so the printed tail is the
        # correctly rounded sum of the printed pmf from m, to the last bit.
        _, out, _ = run(capsys, "pmf", *model, "--format", "json")
        pmf = [row["pmf"] for row in json.loads(out)["pmf"]]
        for m in (1, 7, 13, 26):
            _, out, _ = run(capsys, "tail", *model, "--m", str(m), "--format", "json")
            assert json.loads(out)["tail"] == math.fsum(pmf[m:]), m


def _rates(n, *edges):
    """n rates between 0.02 and 0.3, the first few replaced by edges."""
    rates = [0.02 + 0.28 * ((7 * i) % n) / n for i in range(n)]
    rates[: len(edges)] = edges
    return rates


def _c(n, e, share=0.5):
    return share * valid_correlation_range(n, e)[1]


# (pmf model flags, the model they build): every model, the 0 and 1 rates,
# the rows 1.0/0.0 of e = 0 and e = 1 and the tiny cells of e = 1e-200,
# at n = 1, 26, 127 and 1000.
PMF_CSV_CASES = {
    "independent-3-rates-0-1": (
        ["--model", "independent", "--rates", "0,1,0.25"],
        lambda: Independent(ErrorProfile([0.0, 1.0, 0.25]))),
    "independent-1000-rates-0-1": (
        ["--model", "independent", "--rates", ",".join(map(repr, _rates(1000, 0.0, 1.0)))],
        lambda: Independent(ErrorProfile(_rates(1000, 0.0, 1.0)))),
    "iid-1": (["--model", "iid", "--n", "1", "--ebar", "0.3"],
              lambda: Independent(ErrorProfile.iid(1, 0.3))),
    "iid-26-ebar-0": (["--model", "iid", "--n", "26", "--ebar", "0"],
                      lambda: Independent(ErrorProfile.iid(26, 0.0))),
    "iid-127-ebar-1": (["--model", "iid", "--n", "127", "--ebar", "1"],
                       lambda: Independent(ErrorProfile.iid(127, 1.0))),
    "iid-1000-ebar-1e-200": (["--model", "iid", "--n", "1000", "--ebar", "1e-200"],
                             lambda: Independent(ErrorProfile.iid(1000, 1e-200))),
    "iid-127": (["--model", "iid", "--n", "127", "--ebar", "0.18"],
                lambda: Independent(ErrorProfile.iid(127, 0.18))),
    "pair-26": (["--model", "pair", "--n", "26", "--ebar", "0.0686", "--f", "0.01"],
                lambda: PairModel(ErrorProfile.iid(26, 0.0686), 0.01)),
    "pair-1000": (["--model", "pair", "--n", "1000", "--ebar", "0.1", "--f", "0.02"],
                  lambda: PairModel(ErrorProfile.iid(1000, 0.1), 0.02)),
    "pair-127-rates-0-1": (
        ["--model", "pair", "--rates", ",".join(map(repr, _rates(127, 0.0, 1.0, 0.2, 0.2))),
         "--f", "0.05"],
        lambda: PairModel(ErrorProfile(_rates(127, 0.0, 1.0, 0.2, 0.2)), 0.05)),
    "exchangeable-26": (
        ["--model", "exchangeable", "--n", "26", "--ebar", "0.0686", "--c", repr(_c(26, 0.0686))],
        lambda: ExchangeableModel(26, 0.0686, _c(26, 0.0686))),
    "exchangeable-127": (
        ["--model", "exchangeable", "--n", "127", "--ebar", "0.18", "--c", repr(_c(127, 0.18))],
        lambda: ExchangeableModel(127, 0.18, _c(127, 0.18))),
    "exchangeable-1000": (
        ["--model", "exchangeable", "--n", "1000", "--ebar", "0.1", "--c", repr(_c(1000, 0.1))],
        lambda: ExchangeableModel(1000, 0.1, _c(1000, 0.1))),
}


class TestPmfCommand:
    @pytest.mark.parametrize("flags, build", PMF_CSV_CASES.values(), ids=PMF_CSV_CASES)
    def test_csv_is_csv_text_of_the_row(self, capsys, flags, build):
        # pmf writes its csv rows itself; csv_text, the writer of every other
        # csv, is the reference for their bytes.  Lines are compared, so a
        # failure names the first differing row without diffing 1,000 rows.
        status, out, _ = run(capsys, "pmf", *flags, "--format", "csv")
        row = build().count_pmf().tolist()
        assert status == 0
        assert out.split("\n") == csv_text(("k", "pmf"), enumerate(row)).split("\n")

    def test_full_distribution(self, capsys):
        _, out, _ = run(
            capsys, "pmf", "--model", "exchangeable", "--n", "3",
            "--ebar", "0.5", "--c", "0.1", "--format", "json",
        )
        rows = json.loads(out)["pmf"]
        expect = [ExchangeableModel(3, 0.5, 0.1).pmf(k) for k in range(4)]
        assert [r["pmf"] for r in rows] == expect

    def test_single_k(self, capsys):
        _, out, _ = run(
            capsys, "pmf", "--model", "independent", "--rates", "0.1,0.2,0.3",
            "--k", "0", "--format", "json",
        )
        assert json.loads(out)["pmf"] == pytest.approx(0.504, abs=1e-12)


class TestCodeCommand:
    def test_emit_format(self, capsys):
        status, out, _ = run(capsys, "code", "--classes", "26", "--emit")
        assert status == 0
        lines = out.splitlines()
        assert lines[0] == "26 12 6"
        assert len(lines) == 27
        parsed = from_text(out)
        assert np.array_equal(parsed.matrix, build_code_matrix(26).matrix)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_emit_rejects_a_format_it_does_not_read(self, capsys, fmt):
        status, out, err = run(capsys, "code", "--classes", "4", "--emit", "--format", fmt)
        assert (status, out) == (1, "")
        assert err == f"error: --format {fmt} does not apply to --emit\n"
        _, table, _ = run(capsys, "code", "--classes", "4", "--emit", "--format", "table")
        assert table == run(capsys, "code", "--classes", "4", "--emit")[1]

    def test_summary_table(self, capsys):
        _, out, _ = run(capsys, "code", "--classes", "10", "--format", "json")
        payload = json.loads(out)
        assert payload["d"] == 4 and payload["m"] == 2
        assert payload["orientation"] == "keep-bottom-right"

    def test_classes_above_sylvester_cap(self, capsys, monkeypatch):
        # 2**15 + 1 classes need a 4 GiB Sylvester matrix of order 16; the
        # cap rejects them before np.block builds anything.
        def no_block(*_):
            pytest.fail("np.block called for an order above the cap")

        monkeypatch.setattr(np, "block", no_block)
        status, out, err = run(capsys, "code", "--classes", str(2**15 + 1))
        assert (status, out) == (1, "")
        assert "cap" in err


class TestBahadurCommand:
    def test_symmetric_case(self, capsys):
        _, out, _ = run(
            capsys, "bahadur", "--n", "3", "--ebar", "0.5", "--format", "json"
        )
        payload = json.loads(out)
        c_min, c_max = bahadur_range(3, 0.5)
        assert payload["c_min"] == c_min
        assert payload["c_max"] == c_max


class TestSimulateCommand:
    def test_threshold_matches_library(self, capsys):
        _, out, _ = run(
            capsys, "simulate", "--model", "iid", "--n", "8", "--ebar", "0.2",
            "--m", "3", "--trials", "20000", "--seed", "5", "--format", "json",
        )
        payload = json.loads(out)
        expect = mc_threshold_error(
            Independent(ErrorProfile.iid(8, 0.2)), 3, SimConfig(trials=20000, seed=5)
        )
        assert payload["error_rate"] == expect.error_rate
        assert payload["std_err"] == expect.std_err

    def test_decode_mode(self, capsys):
        status, out, _ = run(
            capsys, "simulate", "--model", "iid", "--n", "10", "--ebar", "0.05",
            "--mode", "full-decode", "--classes", "10", "--trials", "5000",
            "--format", "json",
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["mode"] == "full-decode"
        assert 0.0 <= payload["error_rate"] <= 1.0

    def test_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ECOC_SEED", "314")
        _, out, _ = run(
            capsys, "simulate", "--model", "iid", "--n", "6", "--ebar", "0.1",
            "--m", "2", "--trials", "1000", "--format", "json",
        )
        assert json.loads(out)["seed"] == 314

    def test_seed_env_read_at_each_call(self, capsys, monkeypatch):
        # The parser is built once per process; the environment is not.
        argv = ("simulate", "--model", "iid", "--n", "6", "--ebar", "0.1",
                "--m", "2", "--trials", "1000", "--format", "json")
        monkeypatch.delenv("ECOC_SEED", raising=False)
        _, out, _ = run(capsys, *argv)
        assert json.loads(out)["seed"] == 60428
        monkeypatch.setenv("ECOC_SEED", "271")
        _, out, _ = run(capsys, *argv)
        assert json.loads(out)["seed"] == 271
        _, out, _ = run(capsys, *argv, "--seed", "5")
        assert json.loads(out)["seed"] == 5

    def test_bad_seed_env_is_a_domain_error(self, capsys, monkeypatch):
        monkeypatch.setenv("ECOC_SEED", "x")
        status, out, err = run(
            capsys, "simulate", "--model", "iid", "--n", "6", "--ebar", "0.1",
            "--m", "2", "--trials", "10",
        )
        assert (status, out) == (1, "")
        assert err == "error: ECOC_SEED='x' is not an integer\n"
        # Commands that take no seed do not read it.
        assert run(capsys, "code", "--classes", "4")[0] == 0

    @pytest.mark.parametrize(
        "extra, flag",
        [
            (("--mode", "full-decode", "--m", "2"), "--m"),
            (("--classes", "5"), "--classes"),
            (("--true-class", "1"), "--true-class"),
            (("--classes", "5", "--true-class", "7"), "--classes"),
            (("--m", "2", "--classes", "6"), "--classes"),
            (("--orientation", "keep-top-left"), "--orientation"),
            (("--m", "2", "--orientation", "keep-bottom-right"), "--orientation"),
        ],
        ids=["m-in-decode", "classes", "true-class", "classes-5-true-class-7",
             "m-and-classes", "orientation", "m-and-default-orientation"],
    )
    def test_flag_of_the_other_mode_is_one(self, capsys, extra, flag):
        status, out, err = run(
            capsys, "simulate", "--model", "iid", "--n", "6", "--ebar", "0.1",
            "--trials", "100", *extra,
        )
        assert (status, out) == (1, "")
        assert err.startswith(f"error: {flag} applies only to --mode ")

    def test_workers_above_cap_is_one(self, capsys):
        status, out, err = run(
            capsys, "simulate", "--model", "iid", "--n", "6", "--ebar", "0.1",
            "--mode", "full-decode", "--trials", "100000000", "--workers", "100000000",
        )
        assert (status, out) == (1, "")
        assert err.startswith("error: workers=100000000 outside 1..")

    @pytest.mark.parametrize("mode", [("--m", "2"), ("--mode", "full-decode")],
                             ids=["threshold", "full-decode"])
    def test_trials_beyond_one_draw_is_one(self, capsys, mode):
        # rng.binomial takes at most 2**63 - 1 trials; past that SimConfig
        # refuses the count before anything is drawn.
        status, out, err = run(
            capsys, "simulate", "--model", "iid", "--n", "6", "--ebar", "0.1",
            "--trials", "10000000000000000000", *mode,
        )
        assert (status, out) == (1, "")
        assert err == "error: trials=10000000000000000000 outside 1..9223372036854775807\n"

    def test_full_decode_trials_beyond_the_cap_is_one(self, capsys):
        # A full-decode estimate's trials are capped before anything is
        # drawn.
        cap = MAX_DECODE_TRIALS
        status, out, err = run(
            capsys, "simulate", "--model", "iid", "--n", "6", "--ebar", "0.1",
            "--mode", "full-decode", "--trials", str(cap + 1),
        )
        assert (status, out) == (1, "")
        assert err == f"error: trials={cap + 1} outside 1..{cap} for full-decode\n"

    def test_full_decode_work_beyond_the_cap_is_one(self, capsys):
        # Every row far at 1000 classes and e = 0.5: 2**30 trials pass the
        # trial cap but would decode for hours, so the expected work caps
        # them at 2**41 // 10**6 before anything is drawn.
        status, out, err = run(
            capsys, "simulate", "--model", "iid", "--n", "1000", "--ebar", "0.5",
            "--mode", "full-decode", "--trials", str(MAX_DECODE_TRIALS),
        )
        assert (status, out) == (1, "")
        assert err == (f"error: trials={MAX_DECODE_TRIALS} outside 1..2199023 for full-decode at "
                       "1e+06 expected decode multiply-adds a trial (at most 2**41 in all)\n")

    def test_commands_in_a_row_match_fresh_processes(self, capsys, monkeypatch):
        commands = [
            ("code", "--classes", "12", "--format", "csv"),
            ("simulate", "--model", "exchangeable", "--n", "12", "--ebar", "0.1",
             "--c", "0.01", "--mode", "full-decode", "--trials", "3000"),
            ("pmf", "--model", "iid", "--n", "5", "--ebar", "0.2"),
            ("simulate", "--model", "pair", "--n", "8", "--ebar", "0.2",
             "--f", "0.05", "--m", "3", "--trials", "3000", "--seed", "9"),
        ]
        monkeypatch.delenv("ECOC_SEED", raising=False)
        src = str(Path(ecoc.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        in_process = [run(capsys, *argv)[:2] for argv in commands]
        for argv, (status, out) in zip(commands, in_process):
            proc = subprocess.run(
                [sys.executable, "-m", "ecoc", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert status == 0
            assert (proc.returncode, proc.stdout) == (status, out)


class TestAnalyzeCommand:
    def test_fixture_json(self, capsys):
        status, out, _ = run(
            capsys, "analyze", "--fixture", "letters_dt", "--kz-policy",
            "always", "--format", "json",
        )
        assert status == 0
        payload = json.loads(out)
        assert len(payload["folds"]) == 10
        agg = payload["aggregate"]
        assert list(agg) == ["experimental", "gs", "chernoff", "kz"]
        for column in agg.values():
            assert list(column) == ["mean", "std", "count"]
        assert agg["experimental"]["mean"] == pytest.approx(0.061, abs=5e-4)
        assert agg["chernoff"]["mean"] == pytest.approx(0.047, abs=0.01)
        assert agg["kz"]["mean"] == pytest.approx(0.055, abs=0.01)

    def test_raw_predictions_path(self, capsys, tmp_path):
        from ecoc.experiment_io import write_predictions, FoldData

        code = build_code_matrix(8)
        rng = np.random.default_rng(1)
        classes = rng.integers(0, 8, size=200)
        noise = (rng.random((200, 8)) < 0.05).astype(np.uint8)
        fold = FoldData("f1", 8, classes, np.bitwise_xor(code.matrix[classes], noise))
        path = tmp_path / "f1.csv"
        write_predictions(fold, path)
        status, out, _ = run(
            capsys, "analyze", "--predictions", str(path), "--classes", "8",
            "--format", "json",
        )
        assert status == 0
        payload = json.loads(out)
        assert payload["folds"][0]["fold"] == "f1"

    def test_python_dash_m_matches_in_process(self, capsys):
        status, out, _ = run(capsys, "analyze", "--fixture", "letters_dt")
        src = str(Path(ecoc.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.run(
            [sys.executable, "-m", "ecoc", "analyze", "--fixture", "letters_dt"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == status == 0
        assert proc.stdout == out

    def test_requires_exactly_one_source(self, capsys):
        status, _, err = run(capsys, "analyze", "--format", "json")
        assert status == 1
        assert "exactly one" in err

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.csv"
        status, out, _ = run(
            capsys, "analyze", "--fixture", "svhn_cnn", "--format", "csv",
            "--out", str(out_path),
        )
        assert status == 0
        assert out == ""
        assert out_path.read_text().startswith("fold,")

    def test_csv_json_encode_identical_values(self, capsys):
        args = ("analyze", "--fixture", "usps_dt", "--kz-policy", "always")
        _, csv_out, _ = run(capsys, *args, "--format", "csv")
        _, json_out, _ = run(capsys, *args, "--format", "json")
        payload = json.loads(json_out)
        lines = csv_out.splitlines()
        header = lines[0].split(",")
        for row, line in zip(payload["folds"], lines[1:11]):
            cells = dict(zip(header, line.split(",")))
            for col in ("mean_bit_error", "experimental", "gs", "chernoff", "kz"):
                assert float(cells[col]) == row[col]


class TestFiguresCommand:
    def test_fig1(self, capsys, tmp_path):
        status, _, err = run(
            capsys, "figures", "--figure", "fig1", "--out", str(tmp_path)
        )
        assert status == 0
        data = (tmp_path / "fig1_curves.csv").read_text().splitlines()
        assert data[0] == "n,e_bar,gs,chernoff"
        # 249 grid points per ensemble size.
        assert len(data) == 1 + 3 * 249

    def test_scatter_fixture(self, capsys, tmp_path):
        status, _, _ = run(
            capsys, "figures", "--figure", "scatter", "--fixture", "letters_dt",
            "--out", str(tmp_path),
        )
        assert status == 0
        folds = (tmp_path / "letters_dt_folds.csv").read_text().splitlines()
        assert len(folds) == 11
        curves = (tmp_path / "letters_dt_curves.csv").read_text().splitlines()
        assert curves[0] == "e_bar,gs,chernoff,kz"

    def test_empty_summary_errors_without_output(self, capsys, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("fold,mean_bit_error,mean_correlation,ecoc_error\n")
        out_dir = tmp_path / "figs"
        with pytest.warns(UserWarning):
            status, _, err = run(
                capsys, "figures", "--figure", "scatter", "--summary", str(src),
                "--classes", "10", "--out", str(out_dir),
            )
        assert status == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("fig1", "--fixture", "letters_dt", "--classes", "5", "--n", "3"), "--fixture"),
            (("fig1", "--n", "3"), "--n"),
            (("fig1", "--summary", "FOLDS"), "--summary"),
            (("scatter", "--fixture", "letters_dt", "--step", "0", "--r", "7",
              "--ns=-5"), "--ns"),
            (("scatter", "--fixture", "letters_dt", "--step", "0.01"), "--step"),
            (("scatter", "--fixture", "letters_dt", "--r", "0.3"), "--r"),
            (("fig1", "--ns", "5", "--orientation", "keep-top-left"), "--orientation"),
        ],
        ids=["fig1-fixture-classes-n", "fig1-n", "fig1-summary", "scatter-step-r-ns",
             "scatter-step", "scatter-r", "fig1-orientation"],
    )
    def test_flag_of_the_other_figure_is_one(self, capsys, tmp_path, argv, flag):
        # Each figure once ignored the other's flags and exited 0.
        out_dir = tmp_path / "figs"
        argv = [str(tmp_path / "folds.csv") if a == "FOLDS" else a for a in argv]
        status, out, err = run(
            capsys, "figures", "--figure", *argv, "--out", str(out_dir)
        )
        assert (status, out) == (1, "")
        other = "scatter" if argv[0] == "fig1" else "fig1"
        assert err == f"error: {flag} applies only to --figure {other}\n"
        assert not out_dir.exists()


class TestExitCodes:
    def test_summary_of_a_header_alone_is_one(self, capsys, tmp_path):
        src = tmp_path / "summary.csv"
        src.write_text("fold,mean_bit_error,mean_correlation,ecoc_error\n")
        with pytest.warns(UserWarning, match="no data rows"):
            status, out, err = run(capsys, "analyze", "--summary", str(src), "--classes", "10")
        assert (status, out, err) == (1, "", "error: no folds to analyze\n")

    def test_empty_summary_is_one(self, capsys, tmp_path):
        src = tmp_path / "summary.csv"
        src.write_text("")
        status, out, err = run(capsys, "analyze", "--summary", str(src), "--classes", "10")
        assert (status, out, err) == (1, "", "error: line 1: empty file\n")

    @pytest.mark.parametrize("argv", [
        ["pmf", "--model", "iid", "--n", "65537", "--ebar", "0.1"],
        ["tail", "--model", "exchangeable", "--n", "65537", "--ebar", "0.1", "--c", "0",
         "--m", "1"],
        ["tail", "--model", "pair", "--n", "65537", "--ebar", "0.1", "--f", "0.01", "--m", "1"],
        ["simulate", "--model", "iid", "--n", "65537", "--ebar", "0.1", "--m", "1"],
    ], ids=["pmf", "tail-exchangeable", "tail-pair", "simulate"])
    def test_n_above_the_exact_row_cap_is_one(self, capsys, argv):
        # No count row above 2**16 classifiers is built: the command exits 1
        # with the library's message, at once.
        status, out, err = run(capsys, *argv)
        assert (status, out) == (1, "")
        assert err == "error: n=65537 exceeds the exact count-row cap 65536\n"

    def test_threshold_mode_without_m_is_one(self, capsys):
        status, out, err = run(
            capsys, "simulate", "--model", "iid", "--n", "26", "--ebar", "0.0686",
            "--trials", "100", "--mode", "threshold",
        )
        assert (status, out, err) == (1, "", "error: threshold mode requires --m\n")

    def test_non_finite_summary_rate_names_line_and_column(self, capsys, tmp_path):
        src = tmp_path / "nan.csv"
        src.write_text(
            "fold,mean_bit_error,mean_correlation,ecoc_error\n"
            "1,0.1,0.02,0.05\n2,nan,0.02,0.05\n"
        )
        status, out, err = run(
            capsys, "analyze", "--summary", str(src), "--classes", "10"
        )
        assert status == 1 and out == ""
        assert err.startswith("error: line 3: mean_bit_error value 'nan'")

    @pytest.mark.parametrize(
        "argv",
        [("analyze",), ("figures", "--figure", "scatter")],
        ids=["analyze", "figures"],
    )
    def test_unknown_fixture_is_one(self, capsys, tmp_path, argv):
        # A path that leads to a bundled file is no fixture name either: it
        # names no dataset (a KeyError traceback once).
        out_dir = tmp_path / "figs"
        for name in ("nosuch", "./letters_dt", "../fixtures/usps_dt"):
            extra = ("--out", str(out_dir)) if argv[0] == "figures" else ()
            status, out, err = run(capsys, *argv, "--fixture", name, *extra)
            assert (status, out) == (1, "")
            assert f"no bundled fixture {name!r}" in err and "Traceback" not in err
            assert not out_dir.exists()

    SCATTER = ("figures", "--figure", "scatter")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("analyze", "--fixture", "letters_dt", "--classes", "26"), "--classes applies"),
            ((*SCATTER, "--fixture", "letters_dt", "--classes", "26"), "--classes applies"),
            ((*SCATTER, "--fixture", "letters_dt", "--summary", "FOLDS"), "exactly one"),
            (("analyze", "--fixture", "letters_dt", "--summary", "FOLDS"), "exactly one"),
            (SCATTER, "exactly one"),
            ((*SCATTER, "--summary", "FOLDS"), "--classes is required"),
            (("analyze", "--predictions", "FOLDS"), "--classes is required"),
        ],
        ids=[
            "analyze-fixture-classes", "scatter-fixture-classes",
            "scatter-fixture-summary", "analyze-fixture-summary", "scatter-none",
            "scatter-summary-no-classes", "analyze-predictions-no-classes",
        ],
    )
    def test_fold_source_rule(self, capsys, tmp_path, argv, message):
        # One source; --classes with --summary or --predictions only.  At
        # first the scatter figure plotted its fixture beside a --summary,
        # and both commands ignored --classes beside a --fixture.
        src = tmp_path / "other.csv"
        src.write_text("fold,mean_bit_error,mean_correlation,ecoc_error\n1,0.1,0.02,0.05\n")
        out_dir = tmp_path / "figs"
        argv = [str(src) if a == "FOLDS" else a for a in argv]
        if argv[0] == "figures":
            argv += ["--out", str(out_dir)]
        status, out, err = run(capsys, *argv)
        assert (status, out) == (1, "")
        assert err.startswith("error: ") and message in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--figure", "fig1", "--step", "0"), "step=0.0 "),
            (("--figure", "fig1", "--step", "0.25"), "step=0.25 "),
            (("--figure", "scatter", "--fixture", "letters_dt", "--n", "0"), "n=0 "),
            (("--figure", "fig1", "--ns", "-1"), "ensemble sizes (-1,) "),
            (("--figure", "scatter", "--fixture", "letters_dt", "--n", "6"), "m=6 "),
            (("--figure", "fig1", "--ns", "5,a"), "--ns entry 'a' "),
            # numpy's arange would ask for 1.82 TiB here, and fail past 2^63 points.
            (("--figure", "fig1", "--step", "1e-12"), "step=1e-12 gives more than 100000 "),
            (("--figure", "fig1", "--step", "1e-300"), "step=1e-300 gives more than 100000 "),
        ],
        ids=["fig1-step=0", "fig1-step=r", "scatter-n=0", "fig1-ns=-1", "scatter-n=m",
             "fig1-ns=5,a", "fig1-step=1e-12", "fig1-step=1e-300"],
    )
    def test_bad_figure_input_is_one(self, capsys, tmp_path, argv, message):
        out_dir = tmp_path / "figs"
        status, out, err = run(capsys, "figures", *argv, "--out", str(out_dir))
        assert (status, out) == (1, "")
        assert err.startswith(f"error: {message}")
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("bahadur", "--n", "10", "--ebar", "1e-19"),
            ("bounds", "--n", "10", "--m", "2", "--ebar", "1e-19", "--c", "0.001"),
            ("analyze", "--summary", "SMALL_E", "--classes", "10"),
        ],
        ids=["bahadur", "bounds", "analyze-summary"],
    )
    def test_tiny_mean_rate_is_zero(self, capsys, tmp_path, argv):
        # (n-1)e(1-e) + 1/4 - gamma used to round to 0 here: ZeroDivisionError.
        src = tmp_path / "small_e.csv"
        src.write_text(
            "fold,mean_bit_error,mean_correlation,ecoc_error\n1,1e-19,0.001,0.0\n"
        )
        argv = [str(src) if a == "SMALL_E" else a for a in argv]
        status, out, err = run(capsys, *argv)
        assert status == 0 and out and "Traceback" not in err

    @pytest.mark.parametrize(
        "exc, message",
        [
            (MemoryError(), "error: out of memory\n"),
            (MemoryError("Unable to allocate 74.5 GiB for an array"),
             "error: out of memory: Unable to allocate 74.5 GiB for an array\n"),
        ],
        ids=["bare", "numpy"],
    )
    def test_out_of_memory_is_one(self, capsys, monkeypatch, exc, message):
        def fail(args):
            raise exc

        monkeypatch.setattr(cli, "_build_model", fail)
        status, out, err = run(capsys, "tail", "--model", "iid", "--n", "5", "--ebar", "0.1",
                               "--m", "2")
        assert (status, out, err) == (1, "", message)

    def test_failed_allocation_in_a_command_is_one(self):
        # The largest code's matrix, 32,768 x 32,768 bytes, is 1 GiB; the
        # child's address space is held to 1 GiB, so that first allocation
        # fails at once, before a page is touched, whatever the host has.
        # (An exact count row that large is refused first: n is capped at
        # MAX_EXACT_N.)
        import resource

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        env = dict(os.environ, PYTHONPATH=str(Path(ecoc.__file__).resolve().parents[1]),
                   OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "ecoc", "code", "--emit", "--classes", "32768"],
            env=env, preexec_fn=limit, capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error: out of memory: Unable to allocate 1.00 GiB")

    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tail", "--bogus"])
        assert exc.value.code == 2

    MODEL_FLAGS = {
        "independent": ("--rates", "0.1,0.2,0.1,0.3,0.1"),
        "iid": ("--n", "5", "--ebar", "0.1"),
        "pair": ("--n", "5", "--ebar", "0.1", "--f", "0.02"),
        "exchangeable": ("--n", "5", "--ebar", "0.1", "--c", "0.01"),
    }

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("tail", "--m", "9"),
            ("tail", "--m", "-1"),
            ("tail", "--m", "6"),
            ("pmf", "--k", "-1"),
            ("pmf", "--k", "6"),
        ],
        ids=["tail-m=9", "tail-m=-1", "tail-m=n+1", "pmf-k=-1", "pmf-k=n+1"],
    )
    @pytest.mark.parametrize("model", list(MODEL_FLAGS))
    def test_domain_error_is_one(self, capsys, model, command, flag, value):
        status, out, err = run(
            capsys, command, "--model", model, *self.MODEL_FLAGS[model],
            flag, value,
        )
        assert status == 1
        assert "error:" in err
        assert f"{flag[2:]}={value} " in err
        assert out == ""


class TestDefaultTables:
    """Default stdout of one command per table layout, byte for byte."""

    def test_one_value_prints_bare(self, capsys):
        argv = ("tail", "--model", "iid", "--n", "10", "--m", "4", "--ebar", "0.1")
        assert run(capsys, *argv)[1] == "0.0127952\n"
        value = Independent(ErrorProfile.iid(10, 0.1)).tail(4)
        expect = json.dumps({"tail": value}) + "\n"
        assert run(capsys, *argv, "--format", "json")[1] == expect

    def test_key_value_lines(self, capsys):
        _, out, _ = run(
            capsys, "bounds", "--n", "26", "--m", "6", "--ebar", "0.0686",
            "--c", "0.0058",
        )
        assert out == (
            "n            26\n"
            "m            6\n"
            "e_bar        0.0686\n"
            "c            0.0058\n"
            "gs           0.2744\n"
            "feller       0.314343\n"
            "chernoff_mu  0.0467774\n"
            "chernoff     0.0467774\n"
            "kz           0.0546185\n"
            "lambda       0.888889\n"
            "omega        0.87564\n"
        )

    def test_count_grid(self, capsys):
        _, out, _ = run(capsys, "pmf", "--model", "iid", "--n", "5", "--ebar", "0.2")
        assert out == (
            "  0  0.32768\n"
            "  1  0.4096\n"
            "  2  0.2048\n"
            "  3  0.0512\n"
            "  4  0.0064\n"
            "  5  0.00032\n"
        )

    def test_report_grid_with_aggregate_rows(self, capsys):
        _, out, _ = run(capsys, "analyze", "--fixture", "svhn_cnn")
        assert out == (
            "        fold         e_bar          corr  experimental            gs      chernoff            kz\n"
            "           1        0.0082        0.2153        0.0116        0.0328     0.0114431             -\n"
            "           2        0.0089        0.1698        0.0109        0.0356     0.0133862             -\n"
            "           3        0.0083        0.1922        0.0108        0.0332     0.0117122             -\n"
            "           4        0.0081        0.1783        0.0107        0.0324     0.0111769             -\n"
            "           5        0.0087        0.1644        0.0108        0.0348     0.0128169             -\n"
            "           6        0.0082        0.1766        0.0092        0.0328     0.0114431             -\n"
            "           7        0.0094        0.2134        0.0124        0.0376      0.014858             -\n"
            "           8        0.0088        0.2033        0.0125        0.0352     0.0131002             -\n"
            "           9        0.0081        0.1723        0.0097        0.0324     0.0111769             -\n"
            "          10        0.0091        0.1746        0.0121        0.0364     0.0139666             -\n"
            "        mean             -             -       0.01107       0.03432      0.012508             -\n"
            "         std             -             -    0.00109752     0.0018552    0.00130437             -\n"
        )


# ---------------------------------------------------------------------------
# every command rejects bad input at its boundary

# Values that no flag of a kind accepts.  Each value is passed as
# --flag=value, so that one starting with "-" reaches the flag's parser;
# every flag also draws "--", which argparse drops from --flag=--.
NON_INT = st.sampled_from(["", "x", "1.5", "nan", "inf", "1e3", "0x10"])
NON_REAL = st.sampled_from(["", "x", "1.2.3", "0,1", "e", "-"])
NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", "-Infinity"])
NEGATIVE = st.floats(max_value=-5e-324, allow_infinity=False).map(repr)
ABOVE_ONE = st.floats(min_value=1.0 + 2**-52, allow_infinity=False).map(repr)
NOT_A_RATE = NON_FINITE | NON_REAL | NEGATIVE | ABOVE_ONE
# The ends of the open interval of the exchangeable and Bahadur rates, and
# subnormal rates, at which the lower end of the Bahadur range (n = 10)
# overflows; the exchangeable model admits them (c = 0.01 is in its range).
ENDS = st.sampled_from(["0", "0.0", "1", "1.0"])
DEEP_SUBNORMAL = st.sampled_from(["5e-324", "1e-320", "1e-315"])
BAD_CHOICE = st.sampled_from(["", "x", "TABLE", "json "])
BAD_FIXTURE = st.sampled_from(
    ["nosuch", "letters", "letters_dt.csv", "./letters_dt", "../fixtures/letters_dt"]
) | st.text(max_size=12).filter(lambda name: name not in fixture_names())
BAD_NS = st.sampled_from(["", ",", "10,,20", "a", "1.5", "10;20", "10,0", "nan"]) | (
    st.integers(-128, 0).map(str)
)
GOOD_FOLDS = "fold,mean_bit_error,mean_correlation,ecoc_error\n1,0.1,0.02,0.05\n"


def _below(lo):
    """A count below lo, or no integer."""
    return st.integers(-128, lo - 1).map(str) | NON_INT


def _outside(lo, hi):
    """A count outside lo..hi, or no integer."""
    return (st.integers(-128, lo - 1) | st.integers(hi + 1, 128)).map(str) | NON_INT


@st.composite
def _bad_rates(draw):
    """A --rates list with one entry that is no rate."""
    rates = draw(st.lists(st.floats(0.0, 1.0).map(repr), max_size=6))
    bad = draw(NOT_A_RATE.filter(lambda v: "," not in v))
    rates.insert(draw(st.integers(0, len(rates))), bad)
    return ",".join(rates)


@st.composite
def _bad_folds(draw):
    """Fold-summary text that load_summaries rejects: a value that is no
    rate or correlation, a short row, a bad header or no text."""
    cells = ["1", "0.1", "0.02", "0.05"]
    col = draw(st.integers(1, 3))
    if col == 2:
        bad = NON_FINITE | NON_REAL | st.floats(1.0 + 2**-52, 1e300).map(repr)
        cells[col] = draw(bad.filter(lambda v: "," not in v))
    else:
        cells[col] = draw(NOT_A_RATE.filter(lambda v: "," not in v))
    header = "fold,mean_bit_error,mean_correlation,ecoc_error\n"
    return draw(st.sampled_from([
        header + ",".join(cells) + "\n", header + "1,0.1,0.02\n", "fold,e\n1,0.1\n", "",
    ]))


# Each dependence model: valid flags at n = 5, and bad values by flag.
MODELS = {
    "iid": ({"--n": "5", "--ebar": "0.1"}, {"--n": _below(1), "--ebar": NOT_A_RATE}),
    "independent": ({"--rates": "0.1,0.2,0.1,0.3,0.1"}, {"--rates": _bad_rates()}),
    "pair": (
        {"--n": "5", "--ebar": "0.1", "--f": "0.02"},
        {
            "--n": _below(2),
            "--ebar": NOT_A_RATE,
            "--rates": _bad_rates(),
            "--f": NON_FINITE | NON_REAL | (
                st.floats(max_value=-1e-9) | st.floats(min_value=0.1 + 1e-9)
            ).filter(math.isfinite).map(repr),
        },
    ),
    "exchangeable": (
        {"--n": "5", "--ebar": "0.1", "--c": "0.01"},
        {
            "--n": _below(2),
            "--ebar": NOT_A_RATE | ENDS,
            "--c": NON_FINITE | NON_REAL | (
                st.floats(min_value=1.0) | st.floats(max_value=-1.0)
            ).filter(math.isfinite).map(repr),
        },
    ),
}


# Model flags that each model's base flags leave unread: pair with --rates
# reads neither --n nor --ebar.
UNREAD = {
    "iid": [["--rates", "0.1,0.2,0.1,0.3,0.1"], ["--f", "0.02"], ["--c", "0.01"]],
    "independent": [["--n", "5"], ["--ebar", "0.1"], ["--f", "0.02"], ["--c", "0.01"]],
    "pair": [["--rates", "0.1,0.2,0.1,0.3,0.1"], ["--c", "0.01"]],
    "exchangeable": [["--rates", "0.1,0.2,0.1,0.3,0.1"], ["--f", "0.02"]],
}


@st.composite
def bad_command(draw):
    """(argv, files) for one command that must fail: a valid command with
    one flag given a bad value, a required flag dropped, or a flag added
    that conflicts (another fold source, --classes beside --fixture, a flag
    of the other simulate mode or figure, a model flag the model does not
    read, an unknown flag).  argv holds the tokens
    FOLDS, BAD_FOLDS and OUT, which stand for files and a directory."""
    command = draw(st.sampled_from(COMMANDS))
    fmt = {"--format": BAD_CHOICE}
    classes = ["--classes", str(draw(st.integers(2, 128)))]
    conflicts = [["--bogus"], ["stray"]]
    if command in ("pmf", "tail", "simulate"):
        model = draw(st.sampled_from(sorted(MODELS)))
        base, bad = MODELS[model]
        flags = {"--model": model, **base}
        conflicts += UNREAD[model]
        required = list(flags)
        bad = {**bad, **fmt, "--model": BAD_CHOICE}
        if command == "pmf":
            bad["--k"] = _outside(0, 5)
        else:
            flags["--m"] = "2"
            required.append("--m")
            bad["--m"] = _outside(0, 5)
        if command == "simulate":
            flags["--trials"] = "100"
            bad.update({
                "--trials": _below(1),
                "--workers": _below(1) | st.just("257"),
                "--seed": (st.integers(-(2**70), -1) | st.integers(2**64, 2**70)).map(str)
                | NON_INT,
                "--mode": BAD_CHOICE,
                "--orientation": BAD_CHOICE,
            })
            conflicts += [classes, ["--true-class", "0"], ["--mode", "full-decode"],
                          ["--orientation", "keep-top-left"]]
    elif command == "code":
        flags = {"--classes": "10"}
        required = ["--classes"]
        bad = {"--classes": _below(2), "--orientation": BAD_CHOICE, **fmt}
    elif command == "bounds":
        flags = {"--n": "26", "--m": "6", "--ebar": "0.0686", "--c": "0.0058"}
        required = ["--n", "--m", "--ebar"]
        bad = {
            "--n": _below(6),
            "--m": _outside(1, 26),
            "--ebar": NOT_A_RATE,
            "--c": NON_FINITE | NON_REAL,
            "--mu": NON_FINITE | NON_REAL | NEGATIVE,
            "--kz-policy": BAD_CHOICE,
            **fmt,
        }
    elif command == "bahadur":
        flags = {"--n": "10", "--ebar": "0.1"}
        required = list(flags)
        bad = {"--n": _below(2), "--ebar": NOT_A_RATE | ENDS | DEEP_SUBNORMAL, **fmt}
    elif command == "analyze" and draw(st.booleans()):
        flags = {"--fixture": "letters_dt"}
        required = ["--fixture"]
        bad = {"--fixture": BAD_FIXTURE, "--n": _below(7), "--kz-policy": BAD_CHOICE, **fmt}
        conflicts += [classes, ["--summary", "FOLDS"], ["--predictions", "FOLDS"]]
    elif command == "analyze":
        flags = {"--summary": "FOLDS", "--classes": "10"}
        required = list(flags)
        bad = {"--summary": st.just("BAD_FOLDS"), "--classes": _below(2), **fmt}
        conflicts += [["--fixture", "letters_dt"]]
    elif draw(st.booleans()):
        flags = {"--figure": "fig1", "--ns": "10", "--out": "OUT"}
        required = ["--figure", "--out"]
        bad = {
            "--figure": BAD_CHOICE,
            "--ns": BAD_NS,
            "--step": NON_FINITE | NON_REAL | NEGATIVE | st.just("0")
            | st.floats(1.0, 1e300).map(repr),
            "--r": NOT_A_RATE | ENDS,
        }
        conflicts += [classes, ["--fixture", "letters_dt"], ["--n", "5"],
                      ["--orientation", "keep-top-left"]]
    else:
        flags = {"--figure": "scatter", "--fixture": "letters_dt", "--out": "OUT"}
        required = list(flags)
        bad = {"--fixture": BAD_FIXTURE, "--n": _below(7), "--orientation": BAD_CHOICE}
        conflicts += [classes, ["--summary", "FOLDS"], ["--ns", "10"], ["--r", "0.3"],
                      ["--step", "0.01"]]
    extra = []
    how = draw(st.sampled_from(["value", "drop", "add"]))
    if how == "value":
        flag = draw(st.sampled_from(sorted(bad)))
        flags[flag] = draw(bad[flag] | st.just("--"))
    elif how == "drop":
        del flags[draw(st.sampled_from(required))]
    else:
        extra = draw(st.sampled_from(conflicts))
    argv = [command, *(f"{flag}={value}" for flag, value in flags.items()), *extra]
    return argv, {"FOLDS": GOOD_FOLDS, "BAD_FOLDS": draw(_bad_folds())}


class TestRejectsBadInput:
    @given(bad_command())
    @settings(max_examples=400, deadline=None)
    def test_exits_one_or_two_without_output(self, drawn):
        # Non-finite, negative, zero, subnormal, empty, non-numeric and "--"
        # values, malformed --rates lists and conflicting fold sources: each
        # exits 1 (domain or data error) or 2 (usage error), writes nothing
        # on stdout or to --out, and raises no exception out of main.
        argv, files = drawn
        with tempfile.TemporaryDirectory() as tmp:
            paths = {token: os.path.join(tmp, token) for token in (*files, "OUT")}
            for token, text in files.items():
                Path(paths[token]).write_text(text)
            for token, path in paths.items():
                argv = [a.replace(token, path) if token in a else a for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    status = main(argv)
                except SystemExit as exc:
                    status = exc.code
            assert not os.path.exists(paths["OUT"]), argv
        assert status in (1, 2), (argv, status)
        assert out.getvalue() == "", argv
        assert err.getvalue() and "Traceback" not in err.getvalue(), argv


# ---------------------------------------------------------------------------
# the one-pass parse of a well-formed command agrees with argparse

# Values that fail a conversion or a choice, are empty, start with "-" or
# hold "=".
ODD_VALUES = st.sampled_from(["", "-", "--", "-1", "-x", "x", "1.5", "nan", " 7", "a=b"])


def _good_value(action):
    if action.choices is not None:
        return st.sampled_from(sorted(action.choices))
    if action.type is int:
        return st.integers(0, 300).map(str)
    if action.type is float:
        return st.floats(0.0, 1.0).map(repr)
    return st.sampled_from(["0.1,0.2", "letters_dt", "out", "5,a"])


@st.composite
def command_line(draw):
    """An argv of a subcommand's own flags: its required flags and some
    others (repeats too) with good values, as --flag value or --flag=value,
    then up to two changes: a required flag dropped, an odd value, a flag
    left bare or abbreviated, or a -h, --help, -- or stray token put in."""
    commands = cli._parser().commands
    name = draw(st.sampled_from([*commands, "nosuch", "-h"]))
    if name not in commands:
        return [name]
    actions = [a for a in commands[name]._actions if a.option_strings]
    values = [a for a in actions if a.nargs != 0]
    chosen = [a for a in actions if a.required]
    chosen += draw(st.lists(st.sampled_from(actions), max_size=4))
    # (action, value, form); a token put in has no action.
    parts = [(a, draw(_good_value(a)) if a.nargs != 0 else None, "") for a in chosen]
    for change in draw(st.lists(st.sampled_from(
        ["drop", "value", "bare", "abbreviate", "insert"]), max_size=2)):
        if change == "value" and values:
            parts.append((draw(st.sampled_from(values)), draw(ODD_VALUES), ""))
        elif change in ("drop", "bare", "abbreviate") and parts:
            i = draw(st.integers(0, len(parts) - 1))
            if change == "drop":
                del parts[i]
            elif parts[i][0] is not None:
                parts[i] = (*parts[i][:2], change)
        elif change == "insert":
            token = draw(st.sampled_from(["-h", "--help", "--", "stray"]))
            parts.insert(draw(st.integers(0, len(parts))), (None, token, ""))
    argv = [name]
    for action, value, form in parts:
        if action is None:
            argv.append(value)
            continue
        flag = action.option_strings[-1]
        if form == "abbreviate":
            flag = flag[: draw(st.integers(min(3, len(flag) - 1), len(flag) - 1))]
        if value is None or form == "bare":
            argv.append(flag)
        elif draw(st.booleans()):
            argv += [flag, value]
        else:
            argv.append(f"{flag}={value}")
    return argv


def _fields(args):
    """A Namespace's fields by repr, so that a nan equals a nan."""
    return {name: repr(value) for name, value in vars(args).items()}


class TestOnePassParse:
    @given(command_line())
    @settings(max_examples=600, deadline=None)
    def test_equals_argparse_or_defers(self, argv):
        # Wherever argparse exits (help or a usage error), the one pass
        # must defer to it; where it reads a command, it reads argparse's.
        got = cli._one_pass(list(argv))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                want = cli._parser().parse_args(list(argv))
            except SystemExit:
                want = None
        assert got is None or (want is not None and _fields(got) == _fields(want)), argv

    @pytest.mark.parametrize(
        "argv",
        [
            ["code", "--classes", "10", "--emit"],
            ["code", "--classes=26", "--orientation", "keep-top-left", "--format", "json"],
            ["pmf", "--model", "independent", "--rates", "0.1,0.2,0.3"],
            ["tail", "--model", "exchangeable", "--n", "26", "--ebar", "0.0686",
             "--c", "0.0058", "--m=6", "--format=csv"],
            ["bounds", "--n", "26", "--m", "6", "--ebar", "0.0686", "--kz-policy", "always"],
            ["bahadur", "--n", "10", "--ebar", "0.1", "--n", "12"],
            ["simulate", "--model", "iid", "--n", "26", "--ebar", "0.0686",
             "--mode", "full-decode", "--seed", "3"],
            ["analyze", "--fixture", "letters_dt", "--out", "report.txt"],
            ["figures", "--figure", "fig1", "--ns", "5,10", "--out", "plots"],
        ],
        ids=["code-emit", "code-json", "pmf", "tail", "bounds", "bahadur-repeat",
             "simulate", "analyze", "figures"],
    )
    def test_reads_a_well_formed_command(self, argv):
        got = cli._one_pass(argv)
        assert got is not None and got == cli._parser().parse_args(argv)
