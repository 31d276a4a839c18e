"""A smoke run of tools/sampler_floor.py at a tiny trial count."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "sampler_floor.py"
_SPEC = importlib.util.spec_from_file_location("sampler_floor", _PATH)
sampler_floor = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sampler_floor)


def test_one_row_per_model_size_and_mode(capsys):
    assert sampler_floor.main(["--trials", "300", "--repeat", "1"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == ["model", "classes", "mode", "ms", "faults"]
    rows = [line.split() for line in lines]
    assert [(kind, int(n), mode) for kind, n, mode, *_ in rows] == [
        (kind, n, mode)
        for n in (26, 127)
        for kind in sampler_floor.KINDS
        for mode in sampler_floor.MODES
    ]
    for _, _, _, *cells in rows:
        ms, faults = cells
        assert float(ms) > 0
        # A run's minor page faults: a count, zero when every buffer is reused.
        assert faults.isdigit()
