"""A smoke run of tools/op_shares.py on one exact-sweep round."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "op_shares.py"
_SPEC = importlib.util.spec_from_file_location("op_shares", _PATH)
op_shares = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(op_shares)


def test_one_row_per_label_of_the_round(capsys, tmp_path):
    assert op_shares.main(["--rounds", "1"]) == 0
    header, *lines, rate = capsys.readouterr().out.splitlines()
    assert header.split() == ["label", "count", "median", "ms", "share"]
    [ops] = op_shares.workloads.build_rounds("exact-sweep", 201, 1, tmp_path)
    rows = [line.split() for line in lines]
    labels = [label for label, *_ in rows]
    assert sorted(labels) == sorted({op["label"] for op in ops})
    assert sum(int(count) for _, count, _, _ in rows) == len(ops)
    shares = [float(share.rstrip("%")) for *_, share in rows]
    assert shares == sorted(shares, reverse=True)
    assert sum(shares) == pytest.approx(100, abs=0.05 * len(rows))
    assert all(float(ms) > 0 for _, _, ms, _ in rows)
    words = rate.split()
    assert words[:2] == ["mix", "rate"] and words[-1] == "ops/s" and float(words[2]) > 0


def test_a_failing_operation_is_status_one(capsys, monkeypatch):
    monkeypatch.setattr(op_shares.cli, "main", lambda argv: 1)
    assert op_shares.main(["--rounds", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: code/1000 exited 1")
