"""A smoke run of tools/sampler_floor.py at a tiny trial count."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "sampler_floor.py"
_SPEC = importlib.util.spec_from_file_location("sampler_floor", _PATH)
sampler_floor = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(sampler_floor)


def test_one_row_per_model_size_and_mode(capsys):
    trials = 300
    assert sampler_floor.main(["--trials", str(trials), "--repeat", "1"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split()[:4] == ["model", "classes", "mode", "words"]
    rows = [line.split() for line in lines]
    assert [(kind, int(n), mode) for kind, n, mode, *_ in rows] == [
        (kind, n, mode)
        for n in (26, 127)
        for kind in sampler_floor.KINDS
        for mode in sampler_floor.MODES
    ]
    for kind, n, mode, words, *times in rows:
        # Every model here has one rate and draws one count uniform per
        # trial; in full-decode, each far row draws a word per position, the
        # pair's first a state uniform and then words for the other n - 2.
        n = int(n)
        far = _far_rows(sampler_floor.model_of(kind, n), n, trials, mode)
        assert int(words) == trials + (n - 1 if kind == "pair" else n) * far
        assert all(float(t) > 0 for t in times)


def _far_rows(model, n, trials, mode):
    """The far rows of the one chunk of trials that mc_decode_error keeps,
    none in threshold mode: the counts of sample_counts at far_flips."""
    if mode == "threshold":
        return 0
    rng = sampler_floor.simulator._chunk_rng(sampler_floor.simulator.DEFAULT_SEED, 0)
    far_flips = sampler_floor.build_code_matrix(n).far_flips
    return int((model.sample_counts(rng, trials) >= far_flips).sum())


def test_words_counted_from_the_chunk_generators():
    code = sampler_floor.build_code_matrix(26)
    for kind, per_far in (("exchangeable", 26), ("pair", 25)):
        model = sampler_floor.model_of(kind, 26)
        # No far row is kept in threshold mode: the counts' uniforms alone.
        assert sampler_floor.count_words(model, code, "threshold", 1000) == 1000
        far = _far_rows(model, 26, 1000, "full-decode")
        assert far > 0
        words = sampler_floor.count_words(model, code, "full-decode", 1000)
        assert words == 1000 + per_far * far
    # Unequal rates compare a raw word per classifier and trial.
    model = sampler_floor.Independent(sampler_floor.ErrorProfile((0.1, 0.2) * 13))
    assert sampler_floor.count_words(model, code, "threshold", 1000) == 26 * 1000
