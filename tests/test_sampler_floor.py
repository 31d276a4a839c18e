"""A smoke run of tools/sampler_floor.py at a tiny trial count."""

import importlib.util
import math
from pathlib import Path

import numpy as np

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
        # Every model here has one rate.  A threshold chunk draws one count
        # uniform per trial.  A full-decode chunk draws the number of far
        # rows by a binomial, then for each far row a count uniform and a
        # word per position, the pair's first a state uniform and then
        # words for the other n - 2.
        n = int(n)
        per_far = 1 + (n - 1 if kind == "pair" else n)
        if mode == "threshold":
            assert int(words) == trials
        else:
            binomial, far = _binomial_words(sampler_floor.model_of(kind, n), trials)
            assert int(words) == binomial + per_far * far
        assert all(float(t) > 0 for t in times)


def _binomial_words(model, trials):
    """(words, far) of the binomial draw that opens the one chunk of trials
    mc_decode_error draws: far, the number of far rows, and the raw words
    the draw consumed, found as the place, in a replay of the chunk's
    stream, of the first word drawn after it."""
    simulator = sampler_floor.simulator
    rng = simulator._chunk_rng(simulator.DEFAULT_SEED, 0)
    pmf = model.count_pmf()
    k_min = sampler_floor.build_code_matrix(model.n).far_flips
    far = rng.binomial(trials, math.fsum(pmf[k_min:]) / math.fsum(pmf))
    after = rng.bit_generator.random_raw()
    replay = simulator._chunk_rng(simulator.DEFAULT_SEED, 0).bit_generator.random_raw(64)
    (words,) = np.flatnonzero(replay == after)
    return int(words), int(far)


def test_words_counted_from_the_chunk_generators():
    code = sampler_floor.build_code_matrix(26)
    for kind, per_far in (("exchangeable", 27), ("pair", 26)):
        model = sampler_floor.model_of(kind, 26)
        # No far row is drawn in threshold mode: the counts' uniforms alone.
        assert sampler_floor.count_words(model, code, "threshold", 1000) == 1000
        binomial, far = _binomial_words(model, 1000)
        assert far > 0 and binomial > 0
        words = sampler_floor.count_words(model, code, "full-decode", 1000)
        assert words == binomial + per_far * far
    # Unequal rates compare a raw word per classifier and trial.
    model = sampler_floor.Independent(sampler_floor.ErrorProfile((0.1, 0.2) * 13))
    assert sampler_floor.count_words(model, code, "threshold", 1000) == 26 * 1000
