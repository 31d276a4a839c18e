"""A smoke run of tools/fold_floor.py at a tiny fold."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "fold_floor.py"
_SPEC = importlib.util.spec_from_file_location("fold_floor", _PATH)
fold_floor = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(fold_floor)


def test_one_row_per_class_count_and_the_peak_rss(capsys):
    assert fold_floor.main(["--samples", "40", "--repeat", "1"]) == 0
    header, *rows, rss = capsys.readouterr().out.splitlines()
    assert header.split()[:3] == ["classes", "read", "ms"]
    assert [int(line.split()[0]) for line in rows] == list(fold_floor.CLASSES)
    for line in rows:
        times = [float(cell) for cell in line.split()[1:]]
        assert len(times) == len(fold_floor.HEADER) - 1
        assert all(t >= 0 for t in times) and times[-1] > 0
    words = rss.split()
    assert words[:2] == ["peak", "RSS"] and words[-1] == "MB" and float(words[2]) > 0


def test_folds_are_seeded(tmp_path):
    files = []
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        paths = fold_floor.write_folds(tmp_path / side, 26, 30)
        files.append([p.read_bytes() for p in paths])
    assert files[0] == files[1]
    assert len(set(files[0])) == fold_floor.FOLDS
