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
        model = sampler_floor.model_of(kind, int(n))
        assert int(words) == _words_by_draw(model, mode, trials)
        assert all(float(t) > 0 for t in times)


class _Halves(np.random.Generator):
    """A generator that counts the 32-bit draws its integers calls make:
    one per two 16-bit keys of a call, one per true class."""

    halves = 0

    def integers(self, low, high=None, size=None, dtype=np.int64, endpoint=False):
        out = super().integers(low, high, size, dtype, endpoint)
        self.halves += -(-out.size // 2) if out.dtype == np.uint16 else out.size
        return out


def _words_by_draw(model, mode, trials):
    """The 64-bit words of the one chunk of trials that mode draws, counted
    draw by draw: the binomial's words, found as the place of the next raw
    word in a replay of the chunk's stream; in full-decode, then, a word
    per far row for its count and, for the pair, one for its state; and
    the 32-bit halves of the position keys and classes, two to a word."""
    simulator = sampler_floor.simulator
    code = sampler_floor.build_code_matrix(model.n)
    k_min = code.m if mode == "threshold" else code.far_flips
    rng = simulator._chunk_rng(simulator.DEFAULT_SEED, 0)
    pmf = model.count_pmf()
    far = rng.binomial(trials, math.fsum(pmf[k_min:]) / math.fsum(pmf))
    after = rng.bit_generator.random_raw()
    replay = simulator._chunk_rng(simulator.DEFAULT_SEED, 0).bit_generator.random_raw(64)
    (words,) = np.flatnonzero(replay == after)
    if mode == "threshold":
        return int(words)
    rng = _Halves(simulator._chunk_rng(simulator.DEFAULT_SEED, 0).bit_generator)
    bits = model.sample_far(rng, trials, k_min)
    assert len(bits) == far > 0
    rng.integers(0, code.num_classes, size=far)
    uniforms = (2 if isinstance(model, sampler_floor.PairModel) else 1) * far
    return int(words) + uniforms + -(-rng.halves // 2)


def test_words_counted_from_the_chunk_generators():
    code = sampler_floor.build_code_matrix(26)
    for kind in ("exchangeable", "pair"):
        model = sampler_floor.model_of(kind, 26)
        for mode in sampler_floor.MODES:
            want = _words_by_draw(model, mode, 1000)
            assert sampler_floor.count_words(model, code, mode, 1000) == want > 0
    # Unequal rates draw their counts first too: a threshold chunk is one
    # binomial.
    model = sampler_floor.Independent(sampler_floor.ErrorProfile((0.1, 0.2) * 13))
    want = _words_by_draw(model, "threshold", 1000)
    assert sampler_floor.count_words(model, code, "threshold", 1000) == want > 0


def test_philox_words_of_half_used_words():
    # Three 32-bit draws take two words and hold the second half of the
    # last; random_raw leaves that half where it is.
    rng = np.random.Generator(np.random.Philox(3))
    assert sampler_floor.philox_words(rng) == 0
    rng.integers(0, 2**32, size=3, dtype=np.uint32)
    assert sampler_floor.philox_words(rng) == 2
    rng.bit_generator.random_raw(7)
    assert sampler_floor.philox_words(rng) == 9
    rng.integers(0, 2**32, dtype=np.uint32)
    assert sampler_floor.philox_words(rng) == 9
