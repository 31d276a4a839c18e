"""Tests for the Monte Carlo estimators: determinism, fidelity, ordering."""

import math
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

import ecoc.code_matrix as code_matrix
import ecoc.prob_engine as prob_engine
import ecoc.simulator as simulator
from ecoc.code_matrix import EXACT_MAX_N, _decode_rows, build_code_matrix
from ecoc.prob_engine import (
    BLOCK_ROWS,
    ErrorProfile,
    ExchangeableModel,
    Independent,
    PairModel,
    _mark_smallest,
    enumerate_outcomes,
    exact_decode_error,
)
from ecoc.simulator import (
    CHUNK_TRIALS,
    MAX_DECODE_TRIALS,
    MAX_DECODE_WORK,
    MAX_WORKERS,
    SimConfig,
    _chunk_rng,
    mc_decode_error,
    mc_threshold_error,
)


def _rng():
    return np.random.default_rng(123)


@pytest.fixture
def threads(monkeypatch):
    """The threads started while the test runs."""
    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self) or start(self))
    return started


class TestSampleOutcome:
    def test_all_zero_rates(self):
        model = Independent(ErrorProfile.iid(6, 0.0))
        for _ in range(20):
            assert model.sample(_rng(), 1)[0].sum() == 0

    def test_all_one_rates(self):
        model = Independent(ErrorProfile.iid(6, 1.0))
        assert model.sample(_rng(), 1)[0].sum() == 6

    def test_shape_and_dtype(self):
        vec = ExchangeableModel(5, 0.3, 0.05).sample(_rng(), 1)[0]
        assert vec.shape == (5,)
        assert set(np.unique(vec)) <= {0, 1}


class TestDeterminism:
    def test_same_seed_same_result(self):
        model = Independent(ErrorProfile.iid(8, 0.2))
        cfg = SimConfig(trials=200_000, seed=7)
        a = mc_threshold_error(model, 3, cfg)
        b = mc_threshold_error(model, 3, cfg)
        assert a == b

    def test_different_seeds_differ(self):
        model = Independent(ErrorProfile.iid(8, 0.2))
        a = mc_threshold_error(model, 3, SimConfig(trials=200_000, seed=1))
        b = mc_threshold_error(model, 3, SimConfig(trials=200_000, seed=2))
        assert a.error_rate != b.error_rate

    @staticmethod
    def _spans_chunks_and_blocks(model, code, trials, seed):
        # Four chunks, whose first holds more than two decode blocks of far
        # rows, so that the run sums chunks and each decodes block by block.
        assert trials > 3 * CHUNK_TRIALS
        far = model.count_far(_chunk_rng(seed, 0), CHUNK_TRIALS, code.far_flips)
        assert far > 2 * _decode_rows(code)

    # The worker-invariance tests run a decode of several chunks at the
    # default worker count and at MAX_WORKERS: the same count, and no thread
    # started at either.
    def test_worker_count_invariance(self, threads):
        code = build_code_matrix(15)
        model = PairModel(ErrorProfile.iid(15, 0.3), _pair_f(0.3, 0.02))
        trials = 3 * CHUNK_TRIALS + 7
        self._spans_chunks_and_blocks(model, code, trials, seed=9)
        base = mc_decode_error(model, code, SimConfig(trials=trials, seed=9))
        cfg = SimConfig(trials=trials, seed=9, workers=MAX_WORKERS)
        assert mc_decode_error(model, code, cfg) == base
        assert threads == []

    def test_decode_worker_invariance(self, threads):
        code = build_code_matrix(10)
        model = Independent(ErrorProfile.iid(10, 0.1))
        a = mc_decode_error(model, code, SimConfig(trials=80_000, seed=5))
        b = mc_decode_error(model, code, SimConfig(trials=80_000, seed=5, workers=MAX_WORKERS))
        assert a == b
        assert threads == []

    def test_decode_worker_invariance_wide_code(self, threads):
        # 127 classes and four chunks of the float32 correlation decoder.
        code = build_code_matrix(127)
        model = ExchangeableModel(127, 0.3, 0.002)
        trials = 3 * CHUNK_TRIALS + 7
        base = mc_decode_error(model, code, SimConfig(trials=trials, seed=11))
        assert 0.0 < base.error_rate < 1.0
        cfg = SimConfig(trials=trials, seed=11, workers=MAX_WORKERS)
        assert mc_decode_error(model, code, cfg) == base
        assert threads == []

    def test_tables_shared_by_threads_that_switch_often(self):
        # Decodes on more threads than cores, switched every microsecond,
        # read one model's count row and its profile's q row and step
        # table, each built on first use: a table two threads both build is
        # the same table, so no count moves, and every kept table is
        # read-only.
        def model():
            return PairModel(ErrorProfile([0.25] * 13 + [0.3, 0.35]), 0.1)

        code = build_code_matrix(15)
        cfg = SimConfig(trials=CHUNK_TRIALS, seed=21)
        base = mc_decode_error(model(), code, cfg)
        shared, got = model(), []
        barrier = threading.Barrier(5)

        def decode():
            barrier.wait(timeout=60)
            got.append(mc_decode_error(shared, code, cfg))

        workers = [threading.Thread(target=decode) for _ in range(barrier.parties)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert got == [base] * len(workers)
        tables = [shared._count_row, *shared.profile._tables.values()]
        assert len(tables) == 3 and not any(t.flags.writeable for t in tables)

    def test_exchangeable_decode_worker_invariance(self, threads):
        code = build_code_matrix(15)
        model = ExchangeableModel(15, 0.3, 0.02)
        trials = 3 * CHUNK_TRIALS + 7
        self._spans_chunks_and_blocks(model, code, trials, seed=12)
        base = mc_decode_error(model, code, SimConfig(trials=trials, seed=12))
        cfg = SimConfig(trials=trials, seed=12, workers=MAX_WORKERS)
        assert mc_decode_error(model, code, cfg) == base
        assert threads == []

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(trials=0)
        with pytest.raises(ValueError):
            SimConfig(trials=10, workers=0)
        with pytest.raises(ValueError):
            SimConfig(trials=10, seed=-1)
        SimConfig(trials=10, seed=0)
        with pytest.raises(ValueError):
            SimConfig(trials=10, seed=2**64)
        SimConfig(trials=10, seed=2**64 - 1)
        # One binomial draw takes at most 2**63 - 1 trials.
        with pytest.raises(ValueError, match=rf"^trials={2**63} outside 1\.\.{2**63 - 1}$"):
            SimConfig(trials=2**63)
        SimConfig(trials=2**63 - 1)

    @pytest.mark.parametrize(
        "name, value", [("trials", 100.5), ("seed", 1.5), ("workers", 1.5), ("seed", "1")]
    )
    def test_config_rejects_non_integers(self, name, value):
        # A float seed is not truncated to another seed, nor a float trial
        # or worker count let through to range().
        with pytest.raises(ValueError, match=rf"^{name}={value!r} is not an integer$"):
            SimConfig(**{"trials": 100, name: value})

    def test_config_accepts_numpy_integers(self):
        cfg = SimConfig(trials=np.int64(100), seed=np.uint64(2**64 - 1), workers=np.int32(2))
        model = Independent(ErrorProfile.iid(4, 0.3))
        assert mc_threshold_error(model, 2, cfg) == mc_threshold_error(
            model, 2, SimConfig(trials=100, seed=2**64 - 1, workers=2)
        )


class TestWorkerBound:
    def test_threshold_runs_no_pool(self, threads, monkeypatch):
        # A threshold estimate is one count_far draw of all its trials, so
        # the worker count changes nothing and no thread is started.
        model = Independent(ErrorProfile.iid(2, 0.3))
        draws, count_far = [], Independent.count_far
        monkeypatch.setattr(Independent, "count_far",
                            lambda self, *a: draws.append(a[1:]) or count_far(self, *a))
        trials = 2 * CHUNK_TRIALS + 1  # three chunks of a full-decode run
        base = mc_threshold_error(model, 1, SimConfig(trials=trials, seed=3))
        for workers in (1, 2, 3, 4, MAX_WORKERS):
            cfg = SimConfig(trials=trials, seed=3, workers=workers)
            assert mc_threshold_error(model, 1, cfg) == base
        assert threads == []
        assert draws == [(trials, 1)] * 6

    def test_workers_above_cap_rejected(self):
        SimConfig(trials=10, workers=MAX_WORKERS)
        for workers in (MAX_WORKERS + 1, 100_000_000):
            with pytest.raises(ValueError, match=f"workers={workers} "):
                SimConfig(trials=100_000_000, workers=workers)


class TestDecodeTrialsCap:
    """A full-decode estimate runs one chunk per CHUNK_TRIALS trials, so it
    takes at most MAX_DECODE_TRIALS, and decodes classes * n multiply-adds
    per far row, so trials * P(K >= far_flips) * classes * n is at most
    MAX_DECODE_WORK, both checked before its first chunk; a threshold
    estimate is one draw, so it takes any count SimConfig admits."""

    class _FirstChunk(Exception):
        pass

    @pytest.fixture
    def no_chunk(self, monkeypatch):
        def first_chunk(seed, j):
            raise self._FirstChunk

        monkeypatch.setattr(simulator, "_chunk_rng", first_chunk)

    def _decode(self, trials):
        code = build_code_matrix(8)
        model = Independent(ErrorProfile.iid(code.n, 0.1))
        return mc_decode_error(model, code, SimConfig(trials=trials))

    def test_cap_plus_one_rejected_before_a_chunk(self, no_chunk):
        cap = MAX_DECODE_TRIALS
        message = rf"^trials={cap + 1} outside 1\.\.{cap} for full-decode$"
        with pytest.raises(ValueError, match=message):
            self._decode(cap + 1)

    def test_cap_reaches_the_first_chunk(self, no_chunk):
        with pytest.raises(self._FirstChunk):
            self._decode(MAX_DECODE_TRIALS)

    def test_work_cap_plus_one_rejected_before_a_chunk(self, no_chunk):
        # At e = 0.5 and 1000 classes every row is far: 10**6 multiply-adds
        # a trial.  At e = 0 no row is, and the trial cap alone binds.
        code = build_code_matrix(1000)
        model = Independent(ErrorProfile.iid(1000, 0.5))
        cap = MAX_DECODE_WORK // 10**6
        message = rf"^trials={cap + 1} outside 1\.\.{cap} for full-decode at 1e\+06 expected "
        with pytest.raises(ValueError, match=message):
            mc_decode_error(model, code, SimConfig(trials=cap + 1))
        with pytest.raises(self._FirstChunk):
            mc_decode_error(model, code, SimConfig(trials=cap))
        with pytest.raises(self._FirstChunk):
            mc_decode_error(Independent(ErrorProfile.iid(1000, 0.0)), code,
                            SimConfig(trials=MAX_DECODE_TRIALS))
        # At 64 classes and e = 1 a trial is 2**12 multiply-adds exactly: 2**29
        # trials spend the whole budget, which is admitted.
        code, model = build_code_matrix(64), Independent(ErrorProfile.iid(64, 1.0))
        with pytest.raises(self._FirstChunk):
            mc_decode_error(model, code, SimConfig(trials=1 << 29))
        with pytest.raises(ValueError, match=rf"^trials={(1 << 29) + 1} outside 1\.\.{1 << 29} "):
            mc_decode_error(model, code, SimConfig(trials=(1 << 29) + 1))

    def test_threshold_takes_max_count(self):
        model = Independent(ErrorProfile.iid(6, 0.1))
        result = mc_threshold_error(model, 2, SimConfig(trials=prob_engine.MAX_COUNT))
        assert result.trials == prob_engine.MAX_COUNT
        assert 0.1 < result.error_rate < 0.12


class TestThresholdConsistency:
    def test_zero_rate_model_never_errs(self):
        model = Independent(ErrorProfile.iid(5, 0.0))
        result = mc_threshold_error(model, 1, SimConfig(trials=50_000, seed=3))
        assert result.error_rate == 0.0
        assert result.std_err == 0.0

    def test_independent_matches_exact_tail(self):
        profile = ErrorProfile.iid(10, 0.1)
        result = mc_threshold_error(
            Independent(profile), 4, SimConfig(trials=1_000_000, seed=17)
        )
        exact = Independent(profile).tail(4)
        assert exact == pytest.approx(0.012795, abs=5e-7)
        assert abs(result.error_rate - exact) <= 3 * result.std_err

    def test_pair_matches_exact_tail(self):
        result = mc_threshold_error(
            PairModel(ErrorProfile.iid(8, 0.2), 0.1),
            3,
            SimConfig(trials=500_000, seed=21),
        )
        exact = PairModel(ErrorProfile.iid(8, 0.2), 0.1).tail(3)
        assert abs(result.error_rate - exact) <= 3 * result.std_err

    def test_exchangeable_matches_exact_tail(self):
        result = mc_threshold_error(
            ExchangeableModel(10, 0.1, 0.05), 4, SimConfig(trials=500_000, seed=31)
        )
        exact = ExchangeableModel(10, 0.1, 0.05).tail(4)
        assert abs(result.error_rate - exact) <= 3 * result.std_err

    def test_exchangeable_zero_count_frequency(self):
        # P(no errors) for the 3-classifier symmetric model is 0.1625, so the
        # at-least-one tail estimates 0.8375.
        result = mc_threshold_error(
            ExchangeableModel(3, 0.5, 0.1), 1, SimConfig(trials=1_000_000, seed=13)
        )
        assert abs((1.0 - result.error_rate) - 0.1625) <= 3 * result.std_err


class TestDistributionalFidelity:
    CASES = [
        Independent(ErrorProfile((0.05, 0.3, 0.5, 0.12, 0.4, 0.22, 0.18))),
        PairModel(ErrorProfile((0.1, 0.25, 0.33, 0.2, 0.3)), 0.12),
        ExchangeableModel(8, 0.2, 0.08),
    ]

    @pytest.mark.parametrize("model", CASES, ids=["independent", "pair", "exchangeable"])
    def test_chi_square_against_enumeration(self, model):
        n = model.n
        trials = 1_000_000
        cfg = SimConfig(trials=trials, seed=2024)
        # Each threshold estimate is a binomial draw of its own, so their
        # differences are no histogram: the counts of one sample are, and
        # each estimate lies within 4 sigma of its exact tail.
        counts = np.bincount(model.sample(_chunk_rng(2024, 0), trials).sum(axis=1),
                             minlength=n + 1)
        for m in range(n + 1):
            tail = model.tail(m)
            estimate = mc_threshold_error(model, m, cfg).error_rate
            assert abs(estimate - tail) <= 4 * math.sqrt(tail * (1 - tail) / trials), m
        expected_dist = enumerate_outcomes(model)
        expected = np.array([expected_dist[k] for k in range(n + 1)]) * trials
        keep = expected >= 5
        chi2 = ((counts[keep] - expected[keep]) ** 2 / expected[keep]).sum()
        # Lumping the sparse bins loses a little mass; renormalize df.
        df = int(keep.sum()) - 1
        p_value = sstats.chi2.sf(chi2, df)
        assert p_value > 0.001, (chi2, df, p_value)


class TestDecode:
    def test_zero_error_model_decodes_perfectly(self):
        code = build_code_matrix(10)
        model = Independent(ErrorProfile.iid(10, 0.0))
        result = mc_decode_error(model, code, SimConfig(trials=30_000, seed=2))
        assert result.error_rate == 0.0
        assert result.mode == "full-decode"

    def test_decode_bounded_by_threshold_mode(self):
        code = build_code_matrix(12)
        cases = [
            Independent(ErrorProfile.iid(12, 0.12)),
            PairModel(ErrorProfile.iid(12, 0.15), 0.06),
            ExchangeableModel(12, 0.1, 0.03),
        ]
        for model in cases:
            cfg = SimConfig(trials=200_000, seed=77)
            dec = mc_decode_error(model, code, cfg)
            thr = mc_threshold_error(model, code.m, cfg)
            combined = math.hypot(dec.std_err, thr.std_err)
            assert dec.error_rate <= thr.error_rate + 3 * combined

    def test_fixed_true_class(self):
        code = build_code_matrix(10)
        model = Independent(ErrorProfile.iid(10, 0.05))
        result = mc_decode_error(
            model, code, SimConfig(trials=50_000, seed=4), true_class=7
        )
        assert 0.0 <= result.error_rate < 0.05

    def test_true_class_zero(self, monkeypatch):
        # Class 0 is a valid pin: every kept trial is decoded from it.
        seen, misdecoded = [], simulator._misdecoded_flips

        def spy(flips, classes, code):
            seen.append(classes)
            return misdecoded(flips, classes, code)

        monkeypatch.setattr(simulator, "_misdecoded_flips", spy)
        code = build_code_matrix(10)
        model = Independent(ErrorProfile.iid(10, 0.2))
        result = mc_decode_error(model, code, SimConfig(trials=5_000, seed=4), true_class=0)
        classes = np.concatenate(seen)
        assert classes.size > 0 and not classes.any()
        assert 0.0 < result.error_rate < 0.2

    def test_dimension_mismatch(self):
        code = build_code_matrix(10)
        with pytest.raises(ValueError, match=r"^model n=8 does not match code n=10$"):
            mc_decode_error(
                Independent(ErrorProfile.iid(8, 0.1)),
                code,
                SimConfig(trials=10, seed=1),
            )
        with pytest.raises(ValueError, match=r"true_class=10 outside 0\.\.9$"):
            mc_decode_error(
                Independent(ErrorProfile.iid(10, 0.1)),
                code,
                SimConfig(trials=10, seed=1),
                true_class=10,
            )

    def test_true_class_must_be_an_integer(self):
        code = build_code_matrix(10)
        model = Independent(ErrorProfile.iid(10, 0.1))
        with pytest.raises(ValueError, match=r"^true_class=1\.5 is not an integer$"):
            mc_decode_error(model, code, SimConfig(trials=10, seed=1), true_class=1.5)
        pinned = mc_decode_error(model, code, SimConfig(trials=500, seed=1), true_class=np.int64(3))
        assert pinned == mc_decode_error(model, code, SimConfig(trials=500, seed=1), true_class=3)

    def test_threshold_m_validation(self):
        with pytest.raises(ValueError):
            mc_threshold_error(
                Independent(ErrorProfile.iid(4, 0.1)), 5, SimConfig(trials=10)
            )
        with pytest.raises(ValueError):
            mc_threshold_error(
                Independent(ErrorProfile.iid(4, 0.1)), -1, SimConfig(trials=10)
            )
        with pytest.raises(ValueError, match=r"^m=2\.0 is not an integer$"):
            mc_threshold_error(
                Independent(ErrorProfile.iid(4, 0.1)), 2.0, SimConfig(trials=10)
            )


def _pair_f(e, c):
    return e * e + c * e * (1.0 - e)


class TestPinnedStreams:
    """Counts of the samplers and the decoder; any change to the streams
    shows here.  Every model here has one rate, so each draws its counts
    first: a threshold estimate one binomial of all its trials, a
    full-decode chunk the number of far rows, then their counts and
    positions (the pair's one state uniform first, then 16-bit position
    keys), then their classes."""

    TRIALS = 2 * CHUNK_TRIALS + 5
    # (n, e, c) -> model -> (threshold count at m = code.m, full-decode count)
    COUNTS = {
        (26, 0.0686, 0.0058): {"iid": (475, 8), "pair": (476, 16), "exchangeable": (790, 27)},
        (127, 0.18, 0.006): {"iid": (1735, 0), "pair": (1735, 0), "exchangeable": (4815, 0)},
    }

    @staticmethod
    def _model(kind, n, e, c):
        if kind == "iid":
            return Independent(ErrorProfile.iid(n, e))
        if kind == "pair":
            return PairModel(ErrorProfile.iid(n, e), _pair_f(e, c))
        return ExchangeableModel(n, e, c)

    @pytest.mark.parametrize("kind", ["iid", "pair", "exchangeable"])
    @pytest.mark.parametrize("point", list(COUNTS), ids=["n26", "n127"])
    def test_counts(self, point, kind):
        n, e, c = point
        model = self._model(kind, n, e, c)
        code = build_code_matrix(n)
        cfg = SimConfig(trials=self.TRIALS, seed=2024)
        threshold = mc_threshold_error(model, code.m, cfg)
        decode = mc_decode_error(model, code, cfg)
        want_threshold, want_decode = self.COUNTS[point][kind]
        assert threshold.error_rate == want_threshold / self.TRIALS
        assert decode.error_rate == want_decode / self.TRIALS

    def test_std_err_of_a_known_count(self):
        # 475 of TRIALS threshold errors (the iid count above): the standard
        # error is the binomial one, sqrt(p (1 - p) / trials).
        model = self._model("iid", 26, 0.0686, 0.0058)
        result = mc_threshold_error(model, 6, SimConfig(trials=self.TRIALS, seed=2024))
        p = 475 / self.TRIALS
        assert result.error_rate == p
        assert result.std_err == math.sqrt(p * (1 - p) / self.TRIALS)


class TestPinnedBlocks:
    """Full-decode counts whose chunks decode many blocks: at 15 classes
    and e = 0.3 a chunk has about 22,000-23,000 far rows, eleven decode
    blocks of _decode_rows(code) = 2,184, and about half of its far rows
    decode wrongly, so a row lost, repeated or misaligned with its class at
    a block edge moves the count.  Taken before the decode was blocked."""

    TRIALS = 2 * CHUNK_TRIALS + 5
    E, C = 0.3, 0.02
    # model -> (full-decode count, the same with the true class pinned to 14)
    COUNTS = {
        "iid": (33638, 41117),
        "pair": (33829, 41115),
        "exchangeable": (33056, 39506),
    }

    @pytest.mark.parametrize("kind", list(COUNTS))
    def test_counts(self, kind):
        code = build_code_matrix(15)
        model = TestPinnedStreams._model(kind, 15, self.E, self.C)
        far = model.count_far(_chunk_rng(2024, 0), CHUNK_TRIALS, code.far_flips)
        assert far > 8 * _decode_rows(code)
        cfg = SimConfig(trials=self.TRIALS, seed=2024)
        free, pinned = self.COUNTS[kind]
        assert mc_decode_error(model, code, cfg).error_rate == free / self.TRIALS
        assert mc_decode_error(model, code, cfg, true_class=14).error_rate == pinned / self.TRIALS


class TestPinnedWidePositions:
    """Full-decode counts at 127 classes and e = 0.3, where most rows are
    far and one trial in 16 to 41 decodes wrongly, so that a change to
    the 127-wide position streams (the far count, the counts, the pair's
    state, the 16-bit keys and their redraws, then the classes) moves them;
    TestPinnedStreams' 127-class decode counts are 0 and pin none of it."""

    TRIALS = CHUNK_TRIALS + 5
    COUNTS = {"iid": 802, "pair": 819, "exchangeable": 2105}

    @pytest.mark.parametrize("kind", list(COUNTS))
    def test_counts(self, kind):
        model = TestPinnedStreams._model(kind, 127, 0.3, 0.006)
        cfg = SimConfig(trials=self.TRIALS, seed=2024)
        result = mc_decode_error(model, build_code_matrix(127), cfg)
        assert result.error_rate == self.COUNTS[kind] / self.TRIALS


SAMPLE_CASES = [
    Independent(ErrorProfile((0.0, 1.0, 0.3))),
    Independent(ErrorProfile.iid(2, 0.4)),
    Independent(ErrorProfile.iid(127, 0.18)),
    PairModel(ErrorProfile((0.0, 1.0)), 0.0),
    PairModel(ErrorProfile((1.0, 0.2, 0.0, 1.0)), 0.0),
    PairModel(ErrorProfile.iid(2, 0.4), 0.3),
    PairModel(ErrorProfile.iid(26, 0.0686), _pair_f(0.0686, 0.0058)),
    ExchangeableModel(2, 0.4, 0.0),
    ExchangeableModel(26, 0.0686, 0.0058),
    ExchangeableModel(127, 0.18, 0.006),
]
SAMPLE_IDS = [
    "iid-0-1", "iid-n2", "iid-127", "pair-0-1", "pair-ends-0-1", "pair-n2",
    "pair-26", "exch-n2", "exch-26", "exch-127",
]


class TestSamplers:
    COUNT = 2 * BLOCK_ROWS + 3  # two whole blocks and a partial one

    @pytest.mark.parametrize("model", SAMPLE_CASES, ids=SAMPLE_IDS)
    def test_sample_counts_match_sample(self, model):
        # On a Philox and on a PCG64 generator, count_far is one
        # rng.binomial draw of count trials at P = P(K >= k_min), and draws
        # nothing at k_min = 0.
        n = model.n
        pmf = model.count_pmf()
        for seed in range(3):
            for make in (
                lambda: _chunk_rng(seed, 0),
                lambda: np.random.Generator(np.random.PCG64(seed)),
            ):
                ref = make()
                bits = model.sample(ref, self.COUNT)
                assert bits.dtype == np.uint8 and bits.shape == (self.COUNT, n)
                assert set(np.unique(bits)) <= {0, 1}
                for k_min in sorted({0, 1, n // 2, n, n + 1}):
                    rng = make()
                    far = model.count_far(rng, self.COUNT, k_min)
                    assert type(far) is int
                    ref, want = make(), self.COUNT
                    if k_min:
                        p = math.fsum(pmf[k_min:]) / math.fsum(pmf)
                        want = ref.binomial(self.COUNT, p)
                    assert far == want
                    assert _state(rng) == _state(ref)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 12),
        rows=st.integers(1, 40),
        levels=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mark_smallest_with_ties(self, n, rows, levels, seed):
        # Few distinct keys force ties.  The rows returned are those whose
        # k-th and (k+1)-th smallest keys tie; every other row holds the k
        # positions of rank below k (ranks of a stable argsort, which agree
        # with the cut wherever the cut is not tied).
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, levels, size=(rows, n), dtype=np.uint16)
        ks = rng.integers(0, n + 1, size=rows)
        out = np.empty((rows, n), dtype=bool)
        tied = _mark_smallest(keys, ks, out)
        srt = np.sort(keys, axis=1)
        want = [i for i in range(rows) if 0 < ks[i] < n and srt[i, ks[i] - 1] == srt[i, ks[i]]]
        assert tied.tolist() == want
        free = np.setdiff1d(np.arange(rows), tied)
        ranks = keys.argsort(axis=1, kind="stable").argsort(axis=1)
        assert np.array_equal(out[free], ranks[free] < ks[free, None])
        assert np.array_equal(out[free].sum(axis=1), ks[free])

    def test_mark_smallest_all_tied_row(self):
        # A row of equal keys ties at every cut inside it, and is returned;
        # at k = 0 and k = n there is no cut to tie, and ties below the cut
        # are kept.
        keys = np.array([[5, 5, 5, 5], [5, 5, 1, 5], [2, 2, 2, 2], [2, 2, 2, 2], [1, 1, 3, 4]],
                        dtype=np.uint16)
        out = np.empty(keys.shape, dtype=bool)
        tied = _mark_smallest(keys, np.array([2, 1, 4, 0, 2]), out)
        assert tied.tolist() == [0]
        assert out[1:].tolist() == [
            [False, False, True, False],
            [True, True, True, True],
            [False, False, False, False],
            [True, True, False, False],
        ]


def _state(rng):
    """The bit generator's state with its arrays as lists, so that two
    states compare with ==."""
    def plain(value):
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value

    return plain(rng.bit_generator.state)


class TestCountFirstEdges:
    """One-rate iid and pair models at the edge rates, through sample,
    sample_far and count_far: no bit set at e = 0, every bit at e = 1.  At
    e = 0 every k_min > 0 has P(K >= k_min) = 0, so no far row is drawn
    (no word either, and no 0/0 from the truncated count pmf); at e = 1,
    P = 1 for every k_min up to n, and every trial is a far row."""

    COUNT = 2 * BLOCK_ROWS + 3

    @pytest.mark.parametrize("e", [0.0, 5e-324, 1.0 - 2.0**-53, 1.0])
    @pytest.mark.parametrize("n", [2, 7])
    def test_edge_rates(self, n, e):
        lo, hi = prob_engine.pair_f_range(e, e)
        models = [Independent(ErrorProfile.iid(n, e)), PairModel(ErrorProfile.iid(n, e), lo),
                  PairModel(ErrorProfile.iid(n, e), hi)]
        for model in models:
            bits = model.sample(_chunk_rng(1, 0), self.COUNT)
            counts = bits.sum(axis=1)
            if e == 0.0:
                assert not bits.any()
            if e == 1.0:
                assert bits.all()
            for k_min in range(n + 2):
                rng = _chunk_rng(1, 0)
                kept = model.sample_far(rng, self.COUNT, k_min)
                assert kept.max(initial=0) <= 1
                assert (kept.sum(axis=1) >= k_min).all()
                if e == 0.0 and k_min:
                    assert kept.shape == (0, n) and _state(rng) == _state(_chunk_rng(1, 0))
                if e == 1.0 and k_min <= n:
                    assert kept.shape == (self.COUNT, n) and kept.all()
                far = model.count_far(_chunk_rng(1, 0), self.COUNT, k_min)
                assert far == np.count_nonzero(counts >= k_min)


def _outcome_chi2_p(model, trials, seed):
    """Chi-square p-value (_pooled_chi2_p) of trials whole outcomes of
    sample against joint_mass over all 2^n of them; an outcome of no mass
    must never be drawn."""
    n = model.n
    bits = model.sample(_chunk_rng(seed, 0), trials)
    observed = np.bincount(bits.astype(np.intp) @ (1 << np.arange(n)), minlength=1 << n)
    outcomes = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)
    expected = model.joint_mass(outcomes) * trials
    assert not observed[expected == 0].any()
    return _pooled_chi2_p(observed, expected)


class TestOneRateLaw:
    """The count-first draws of one-rate iid and pair models have the law
    of the models themselves, not only their counts'."""

    @pytest.mark.parametrize("n", [26, 127])
    def test_iid_equals_exchangeable_at_zero_correlation(self, n):
        e = {26: 0.0686, 127: 0.18}[n]
        iid, exch = Independent(ErrorProfile.iid(n, e)), ExchangeableModel(n, e, 0.0)
        assert iid.count_pmf().tobytes() == exch.count_pmf().tobytes()
        code = build_code_matrix(n)
        for seed in (1, 2):
            cfg = SimConfig(trials=CHUNK_TRIALS + 7, seed=seed)
            assert mc_threshold_error(iid, code.m, cfg) == mc_threshold_error(exch, code.m, cfg)
            assert mc_decode_error(iid, code, cfg) == mc_decode_error(exch, code, cfg)

    @pytest.mark.parametrize(
        "n, e, end",
        [(2, 0.4, 0), (2, 0.4, 1), (2, 0.7, 0), (5, 0.3, 0), (5, 0.3, 1), (8, 0.2, 0),
         (8, 0.2, 1), (8, 0.2, None)],
    )
    def test_pair_outcomes_follow_joint_mass(self, n, e, end):
        # f at either end of pair_f_range (at e = 0.7 the lower end is
        # 2e - 1 > 0), or inside it.
        f = e * e if end is None else prob_engine.pair_f_range(e, e)[end]
        model = PairModel(ErrorProfile.iid(n, e), f)
        for seed in (1, 2):
            assert _outcome_chi2_p(model, 200_000, seed) > 1e-4

    def test_iid_outcomes_follow_joint_mass(self):
        model = Independent(ErrorProfile.iid(6, 0.3))
        for seed in (1, 2):
            assert _outcome_chi2_p(model, 200_000, seed) > 1e-4


# Rates that stress the conditional-Bernoulli draw of unequal rates: both
# ends of [0, 1], the smallest subnormal, rates whose linear suffix rows
# underflow, and the rounding edges of a 53-bit uniform.
EDGE_RATES = (
    0.0, 5e-324, 1e-300, 1e-150, 2.0**-53, np.nextafter(2.0**-53, 0.0), 0.1, 0.18, 0.5,
    np.nextafter(0.5, 1.0), 1.0 - 2.0**-53, 1.0,
)


@st.composite
def _unequal_models(draw):
    """Independent and pair models of 2 to 24 rates, each an edge rate, a
    power u^k (to the subnormals and past them to zero) or one less it."""
    power = st.builds(lambda u, k: u**k, st.floats(0.01, 0.99), st.integers(1, 800))
    rate = st.one_of(st.sampled_from(EDGE_RATES), power, power.map(lambda p: 1.0 - p))
    n = draw(st.integers(2, 24))
    profile = ErrorProfile(draw(st.lists(rate, min_size=n, max_size=n)))
    if draw(st.booleans()):
        return Independent(profile)
    lo, hi = prob_engine.pair_f_range(*profile.rates[-2:])
    return PairModel(profile, draw(st.sampled_from([lo, hi, (lo + hi) / 2])))


class TestUnequalRateLaw:
    """Profiles of unequal rates draw their positions given K by
    conditional Bernoulli: each row holds exactly its K, and the outcomes
    follow joint_mass and a brute sampler that reads no count_pmf."""

    @settings(max_examples=200, deadline=None)
    @given(model=_unequal_models(), seed=st.integers(0, 2**32 - 1))
    @example(model=Independent(ErrorProfile((2e-176, 5e-176, 4e-149))), seed=0)
    @example(model=PairModel(ErrorProfile((2.0**-53, 1.0)), 0.0), seed=0)
    def test_rows_hold_exactly_their_count(self, model, seed):
        # Every K of mass, with no 0/0 or log of zero on the way; the pair's
        # own two bits come from its joint cells, so the rate checks read
        # the other n - 2.  In the first example count_pmf[2] is the
        # subnormal 5e-324, while a linear suffix row's R_0(2) underflows to
        # zero; in the second, 1 - e1 - e2 + f rounds to -2**-53, and P00
        # must be clamped to zero for count_pmf to be a distribution.
        rng = np.random.default_rng(seed)
        n = model.n
        width = n - 2 if isinstance(model, PairModel) else n
        rates = np.array(model.profile.rates[:width])
        with np.errstate(divide="raise", invalid="raise"):
            ks = np.repeat(np.flatnonzero(model.count_pmf() > 0), 8)
            rows = model._positions(rng, ks)
            assert np.array_equal(rows.sum(axis=1), ks)
            assert not rows[:, :width][:, rates == 0.0].any()
            assert rows[:, :width][:, rates == 1.0].all()
            for k_min in sorted({1, n // 2, n}):
                far = model.sample_far(rng, 500, k_min)
                assert (far.sum(axis=1) >= k_min).all()

    @pytest.mark.parametrize(
        "model",
        [
            Independent(ErrorProfile((0.0, 1.0, 0.3))),
            Independent(ErrorProfile((0.05, 0.3, 0.5, 0.12, 0.4, 0.22))),
            PairModel(ErrorProfile((1.0, 0.2, 0.0, 1.0)), 0.0),
            PairModel(ErrorProfile((0.1, 0.25, 0.33, 0.2, 0.3)), 0.0),
            PairModel(ErrorProfile((0.1, 0.25, 0.33, 0.2, 0.3)), 0.2),
            PairModel(ErrorProfile((0.3, 0.45, 0.1, 0.7, 0.6)), prob_engine.pair_f_range(0.7, 0.6)[0]),
            PairModel(ErrorProfile((0.3, 0.45, 0.1, 0.7, 0.6)), 0.6),
        ],
        ids=["iid-0-1", "iid-6", "pair-ends-0-1", "pair-f-lo", "pair-f-hi", "pair-f-lo-positive",
             "pair-f-hi-positive"],
    )
    def test_outcomes_follow_joint_mass(self, model):
        for seed in (1, 2):
            assert _outcome_chi2_p(model, 200_000, seed) > 1e-4

    def test_matches_a_brute_sampler(self):
        # 26 classifiers, two of them at 0 and 1, against one uniform per
        # classifier (rng.random < rates), which reads no count_pmf: the K
        # histograms by a two-sample chi-square (the bins pooled until each
        # pair holds 20 rows), and each position's rate within 5 sigma of
        # the difference of two samples.
        trials, gen = 200_000, np.random.default_rng(26)
        rates = gen.uniform(0.0, 0.5, 26)
        rates[gen.permutation(26)[:2]] = (0.0, 1.0)
        model = Independent(ErrorProfile(rates.tolist()))
        for seed in (1, 2):
            got = model.sample(_chunk_rng(seed, 0), trials).view(bool)
            brute = _chunk_rng(seed, 1).random((trials, 26)) < rates
            a, b = (np.bincount(x.sum(axis=1), minlength=27) for x in (got, brute))
            groups, at = [], 0
            for stop in range(27):
                if a[at:stop + 1].sum() + b[at:stop + 1].sum() >= 20:
                    groups.append((a[at:stop + 1].sum(), b[at:stop + 1].sum()))
                    at = stop + 1
            groups[-1] = tuple(np.add(groups[-1], (a[at:].sum(), b[at:].sum())))
            ga, gb = np.array(groups, dtype=float).T
            chi2 = ((ga - gb) ** 2 / (ga + gb)).sum()
            assert sstats.chi2.sf(chi2, len(groups) - 1) > 1e-4, (chi2, len(groups))
            sigma = np.sqrt(2 * rates * (1 - rates) / trials)
            assert (np.abs(got.mean(axis=0) - brute.mean(axis=0)) <= 5 * sigma).all()

    def test_rates_on_a_32_bit_generator(self):
        # On MT19937, whose raw outputs are 32-bit, each column errs at its
        # own rate (and the pair together at f), within 5 sigma.
        trials = 20_000
        pair = PairModel(ErrorProfile((0.1, 0.5, 0.3, 0.2)), 0.05)
        for model in (Independent(ErrorProfile((0.1, 0.5) * 3)), pair):
            bits = model.sample(np.random.Generator(np.random.MT19937(1)), trials)
            rates = np.array(model.profile.rates)
            means = bits.mean(axis=0)
            if model is pair:
                rates = np.append(rates, pair.f)
                means = np.append(means, (bits[:, -2] & bits[:, -1]).mean())
            sigma = np.sqrt(rates * (1 - rates) / trials)
            assert (np.abs(means - rates) <= 5 * sigma).all(), (means, rates)


class TestFarRows:
    COUNTS = (0, 1, BLOCK_ROWS, 2 * BLOCK_ROWS + 3)

    @pytest.mark.parametrize("model", SAMPLE_CASES, ids=SAMPLE_IDS)
    def test_far_rows_are_the_rows_of_sample(self, model):
        # sample is the far path at k_min = 0: every row is far, no
        # binomial is drawn, and the rows and the state are sample's.
        for count in self.COUNTS:
            ref = _chunk_rng(8, 3)
            want = model.sample(ref, count)
            rng = _chunk_rng(8, 3)
            bits = model.sample_far(rng, count, 0)
            assert bits.dtype == np.uint8 and bits.shape == (count, model.n)
            assert np.array_equal(bits, want)
            assert _state(rng) == _state(ref), count


GENERATORS = {
    "philox": np.random.Philox, "pcg64": np.random.PCG64, "mt19937": np.random.MT19937,
}


def _check_far_law(kind, model):
    """model's far rows on a generator of kind that holds half of a 32-bit
    draw, against the law, at k_min = 0, 1 and the ceiling of E[K]: 0/1
    rows of at least k_min errors, as many as count_far draws from the same
    state, their counts from count_pmf truncated at k_min, and each
    exchangeable position (all but the pair's own two) as often in error
    as any other."""
    n = model.n
    width = n - 2 if isinstance(model, PairModel) else n
    pmf = model.count_pmf()
    count = 2 * BLOCK_ROWS + 3
    for k_min in sorted({0, 1, math.ceil(pmf @ np.arange(n + 1))}):
        rng, ref = (np.random.Generator(GENERATORS[kind](k_min)) for _ in range(2))
        for g in (rng, ref):
            g.integers(0, 2**32, dtype=np.uint32)
        bits = model.sample_far(rng, count, k_min)
        assert bits.dtype == np.uint8 and bits.max(initial=0) <= 1
        assert len(bits) == model.count_far(ref, count, k_min)
        ks = bits.sum(axis=1)
        assert (ks >= k_min).all()
        expected = pmf[k_min:] / pmf[k_min:].sum() * len(bits)
        observed = np.bincount(ks - k_min, minlength=expected.size)
        assert not observed[expected == 0].any()
        if np.count_nonzero(expected >= 5) > 1:
            assert _pooled_chi2_p(observed, expected) > 1e-4, k_min
        if width > 1:
            columns = bits[:, :width].sum(axis=0)
            assert _pooled_chi2_p(columns, np.full(width, columns.sum() / width)) > 1e-4, k_min


FAR_MODELS = [
    ExchangeableModel(2, 0.4, 0.0),
    ExchangeableModel(5, 0.25, 0.02),
    ExchangeableModel(26, 0.0686, 0.0058),
    ExchangeableModel(127, 0.18, 0.006),
]


class TestExchangeableFarRows:
    """The exchangeable far rows against their law (_check_far_law), on
    three bit generators."""

    @pytest.mark.parametrize("kind", list(GENERATORS))
    @pytest.mark.parametrize("model", FAR_MODELS, ids=["n2", "n5", "n26", "n127"])
    def test_matches_reference(self, kind, model):
        _check_far_law(kind, model)


ONE_RATE_MODELS = [
    Independent(ErrorProfile.iid(1, 0.3)),
    Independent(ErrorProfile.iid(26, 0.0686)),
    PairModel(ErrorProfile.iid(2, 0.4), 0.0),
    PairModel(ErrorProfile.iid(2, 0.4), 0.4),
    PairModel(ErrorProfile.iid(5, 0.25), 0.02),
    PairModel(ErrorProfile.iid(26, 0.0686), _pair_f(0.0686, 0.0058)),
]
ONE_RATE_IDS = ["iid-n1", "iid-n26", "pair-n2-f0", "pair-n2-fmax", "pair-n5", "pair-n26"]


class TestOneRateFarRows:
    """The far rows of one-rate iid and pair models, which draw their
    counts first, against their law (_check_far_law), on three bit
    generators."""

    @pytest.mark.parametrize("kind", list(GENERATORS))
    @pytest.mark.parametrize("model", ONE_RATE_MODELS, ids=ONE_RATE_IDS)
    def test_matches_reference(self, kind, model):
        _check_far_law(kind, model)


FAR_LAW_CASES = [
    Independent(ErrorProfile.iid(26, 0.0686)),
    PairModel(ErrorProfile.iid(26, 0.0686), _pair_f(0.0686, 0.0058)),
    ExchangeableModel(26, 0.0686, 0.0058),
    ExchangeableModel(127, 0.18, 0.006),
]
FAR_LAW_IDS = ["iid-26", "pair-26", "exch-26", "exch-127"]


class TestFarFirstLaw:
    """A count-first sample_far at k_min > 0 draws a Binomial(count, P)
    number of rows, P = P(K >= k_min), each with its K from count_pmf
    truncated at k_min: the law of the far rows of count trials."""

    @staticmethod
    def _tail(model, k_min):
        pmf = model.count_pmf()
        return math.fsum(pmf[k_min:]) / math.fsum(pmf)

    @pytest.mark.parametrize("model", FAR_LAW_CASES, ids=FAR_LAW_IDS)
    def test_far_count_is_binomial(self, model):
        k_min = build_code_matrix(model.n).far_flips
        p = self._tail(model, k_min)
        count, chunks = round(20 / p), 2000
        rows = [len(model.sample_far(_chunk_rng(7, j), count, k_min)) for j in range(chunks)]
        observed = np.bincount(rows, minlength=count + 1)
        expected = sstats.binom.pmf(np.arange(count + 1), count, p) * chunks
        assert _pooled_chi2_p(observed, expected) > 1e-4

    @pytest.mark.parametrize("model", FAR_LAW_CASES, ids=FAR_LAW_IDS)
    def test_far_counts_follow_the_truncated_pmf(self, model):
        n = model.n
        for k_min in sorted({1, build_code_matrix(n).far_flips}):
            tail = model.count_pmf()[k_min:]
            for seed in (1, 2):
                ks = model.sample_far(_chunk_rng(seed, 0), 200_000, k_min).sum(axis=1)
                observed = np.bincount(ks, minlength=n + 1)[k_min:]
                assert _pooled_chi2_p(observed, tail / tail.sum() * ks.size) > 1e-4


class TestUniformSubsets:
    """Positions given K are a uniform K-subset: a chi-square over all
    C(w, K) subsets at every K, w = 6 positions of iid and exchangeable
    rows and the pair model's other 4, with 16-bit keys and with keys of
    four values, where most rows tie at the cut and are drawn again (a tie
    rule that favours low positions fails there)."""

    MODELS = [
        Independent(ErrorProfile.iid(6, 0.3)),
        ExchangeableModel(6, 0.35, 0.02),
        PairModel(ErrorProfile.iid(6, 0.3), 0.12),
    ]

    @pytest.mark.parametrize("bound", [1 << 16, 4], ids=["16-bit", "4-valued"])
    @pytest.mark.parametrize("model", MODELS, ids=["iid", "exchangeable", "pair"])
    def test_chi_square_over_subsets(self, model, bound, monkeypatch):
        monkeypatch.setattr(prob_engine, "_KEY_BOUND", bound)
        bits = model.sample(_chunk_rng(17, 0), 120_000)
        if isinstance(model, PairModel):
            bits = bits[:, :-2]
        width = bits.shape[1]
        subset = bits.astype(np.intp) @ (1 << np.arange(width))
        ks = bits.sum(axis=1)
        sizes = np.array([bin(s).count("1") for s in range(1 << width)])
        chi2 = df = 0.0
        for k in range(1, width):
            observed = np.bincount(subset[ks == k], minlength=1 << width)[sizes == k]
            expected = observed.sum() / observed.size
            assert expected >= 5
            chi2 += ((observed - expected) ** 2 / expected).sum()
            df += observed.size - 1
        assert sstats.chi2.sf(chi2, df) > 1e-4, (chi2, df)


class TestCountFar:
    """count_far is the binomial draw that opens sample_far: from one
    generator state, count_far(rng, c, k) == len(sample_far(rng, c, k)),
    on three bit generators."""

    COUNT = 2 * BLOCK_ROWS + 3

    @pytest.mark.parametrize("kind", list(GENERATORS))
    @pytest.mark.parametrize("model", SAMPLE_CASES, ids=SAMPLE_IDS)
    def test_equals_len_sample_far(self, model, kind):
        for k_min in range(model.n + 2):
            for seed in (0, 1):
                rng, ref = (np.random.Generator(GENERATORS[kind](seed)) for _ in range(2))
                far = model.count_far(rng, self.COUNT, k_min)
                assert far == len(model.sample_far(ref, self.COUNT, k_min)), k_min

    @pytest.mark.parametrize("kind", list(GENERATORS))
    def test_certain_and_impossible(self, kind):
        # k_min = 0 counts every trial and P = 0 none, with nothing drawn;
        # P = 1 counts every trial.
        def make():
            return np.random.Generator(GENERATORS[kind](9))

        for model in (Independent(ErrorProfile.iid(4, 0.3)), ExchangeableModel(4, 0.3, 0.01)):
            for k_min, want in ((0, 2000), (5, 0)):
                rng = make()
                assert model.count_far(rng, 2000, k_min) == want
                assert _state(rng) == _state(make())
        certain = Independent(ErrorProfile.iid(4, 1.0)), PairModel(ErrorProfile.iid(4, 1.0), 1.0)
        for model in certain:
            assert model.count_far(make(), 2000, 4) == 2000
            assert model.count_far(make(), 2000, 5) == 0


class _NoDraw:
    """A generator that fails the test when anything is drawn from it."""

    def __getattr__(self, name):
        pytest.fail(f"rng.{name} used before the width was checked")


class TestWidthCap:
    """Row counts are float32 sums, exact below 2**24 = EXACT_MAX_N; every
    sampler rejects wider rows before it draws a word."""

    @staticmethod
    def _wide(kind, n):
        # Models of width n built without their n rates or weights.
        if kind == "iid":
            return Independent(SimpleNamespace(n=n))
        model = object.__new__(PairModel if kind == "pair" else ExchangeableModel)
        if kind == "pair":
            object.__setattr__(model, "profile", SimpleNamespace(n=n))
        else:
            object.__setattr__(model, "n", n)
        return model

    @pytest.mark.parametrize("kind", ["iid", "pair", "exchangeable"])
    def test_rejected_before_a_draw(self, kind):
        model = self._wide(kind, EXACT_MAX_N)
        for draw in (
            lambda: model.sample_far(_NoDraw(), 1, 0),
            lambda: model.count_far(_NoDraw(), 1, 1),
            lambda: model.sample(_NoDraw(), 1),
        ):
            with pytest.raises(ValueError, match="2\\*\\*24"):
                draw()

    @pytest.mark.parametrize("kind", ["iid", "pair", "exchangeable"])
    def test_cap_is_the_first_rejected_width(self, kind, monkeypatch):
        monkeypatch.setattr(code_matrix, "EXACT_MAX_N", 6)
        models = {
            "iid": lambda n: Independent(ErrorProfile.iid(n, 0.3)),
            "pair": lambda n: PairModel(ErrorProfile.iid(n, 0.3), 0.1),
            "exchangeable": lambda n: ExchangeableModel(n, 0.3, 0.0),
        }
        assert models[kind](5).sample(_chunk_rng(1, 0), 4).shape == (4, 5)
        with pytest.raises(ValueError):
            models[kind](6).count_far(_NoDraw(), 4, 1)


class TestSamplerInputs:
    """count and k_min are checked once, by DependenceModel, before any
    word is drawn: count an integer at least 0, k_min an integer in
    0..n + 1, for sample_far and count_far alike."""

    MODELS = [
        Independent(ErrorProfile.iid(4, 0.2)),
        PairModel(ErrorProfile.iid(4, 0.2), 0.05),
        ExchangeableModel(4, 0.2, 0.01),
    ]

    @pytest.mark.parametrize("model", MODELS, ids=["iid", "pair", "exchangeable"])
    def test_rejected_before_a_draw(self, model):
        for count, match in ((-1, r"^count=-1 must be at least 0$"),
                             (2.5, r"^count=2\.5 is not an integer$"),
                             (2**63, rf"^count={2**63} outside 0\.\.{2**63 - 1}$")):
            for draw in (
                lambda: model.sample(_NoDraw(), count),
                lambda: model.sample_far(_NoDraw(), count, 0),
                lambda: model.count_far(_NoDraw(), count, 1),
            ):
                with pytest.raises(ValueError, match=match):
                    draw()
        for k_min, match in ((2.5, r"^k_min=2\.5 is not an integer$"),
                             (-1, r"^k_min=-1 outside 0\.\.5$"),
                             (6, r"^k_min=6 outside 0\.\.5$")):
            for draw in (model.sample_far, model.count_far):
                with pytest.raises(ValueError, match=match):
                    draw(_NoDraw(), 5, k_min)

    @pytest.mark.parametrize("model", MODELS, ids=["iid", "pair", "exchangeable"])
    def test_edges_accepted(self, model):
        # No trials; a NumPy count; k_min = n + 1, where no row is kept.
        assert model.sample(_chunk_rng(1, 0), 0).shape == (0, 4)
        assert 0 <= model.count_far(_chunk_rng(1, 0), np.int64(7), np.int64(1)) <= 7
        assert model.count_far(_chunk_rng(1, 0), 7, np.int64(5)) == 0
        assert model.sample_far(_chunk_rng(1, 0), 7, np.int64(5)).shape == (0, 4)


COUNT_CASES = [
    Independent(ErrorProfile((0.05, 0.3, 0.5, 0.12, 0.4, 0.22, 0.18))),
    Independent(ErrorProfile.iid(2, 0.4)),
    Independent(ErrorProfile.iid(127, 0.18)),
    PairModel(ErrorProfile((0.1, 0.25, 0.33, 0.2, 0.3)), 0.12),
    PairModel(ErrorProfile.iid(2, 0.4), 0.3),
    PairModel(ErrorProfile.iid(26, 0.0686), _pair_f(0.0686, 0.0058)),
    ExchangeableModel(2, 0.4, 0.0),
    ExchangeableModel(8, 0.2, 0.08),
    ExchangeableModel(26, 0.0686, 0.0058),
    ExchangeableModel(127, 0.18, 0.006),
]
COUNT_IDS = [
    "iid-7-mixed", "iid-n2", "iid-127", "pair-5", "pair-n2", "pair-26",
    "exch-n2", "exch-8", "exch-26", "exch-127",
]


def _pooled_chi2_p(observed: np.ndarray, expected: np.ndarray) -> float:
    """Chi-square p-value after pooling adjacent bins, left to right, until
    each expects at least 5; a short last group joins the one before it."""
    groups, obs, exp = [], 0.0, 0.0
    for o, e in zip(observed, expected):
        obs, exp = obs + o, exp + e
        if exp >= 5:
            groups.append([obs, exp])
            obs = exp = 0.0
    groups[-1][0] += obs
    groups[-1][1] += exp
    o, e = np.array(groups).T
    return float(sstats.chi2.sf(((o - e) ** 2 / e).sum(), len(groups) - 1))


class TestCountDistribution:
    TRIALS = 200_000

    @pytest.mark.parametrize("model", COUNT_CASES, ids=COUNT_IDS)
    def test_sample_counts_follow_the_exact_pmf(self, model):
        # The histogram of one draw's counts: count_far is one binomial per
        # k, so its differences are no histogram, and the rows of sample are
        # counted.
        n = model.n
        exact = [model.count_pmf()]
        if n <= 12:
            oracle = enumerate_outcomes(model)
            exact.append(np.array([oracle[k] for k in range(n + 1)]))
        for seed in (101, 202):
            ks = model.sample(_chunk_rng(seed, 0), self.TRIALS).sum(axis=1)
            observed = np.bincount(ks, minlength=n + 1)
            for pmf in exact:
                p_value = _pooled_chi2_p(observed, pmf * self.TRIALS)
                assert p_value > 1e-4, (seed, p_value)


def _decode_cases():
    for n in (8, 10, 12):
        rates = tuple(0.05 + 0.02 * i for i in range(n))
        yield f"iid-{n}", Independent(ErrorProfile.iid(n, 0.12))
        yield f"mixed-{n}", Independent(ErrorProfile(rates))
        yield f"pair-{n}", PairModel(ErrorProfile.iid(n, 0.15), 0.06)
        yield f"exch-{n}", ExchangeableModel(n, 0.1, 0.03)
        yield f"exch-negative-c-{n}", ExchangeableModel(n, 0.15, -0.002)


DECODE_IDS, DECODE_CASES = zip(*_decode_cases())


class TestExactDecodeError:
    """mc_decode_error against the exact decode error of enumeration, for
    every model: a check of the far rows' law as a whole, the exchangeable
    ones included, which rank words of their own."""

    TRIALS = 1 << 17

    def test_iid_12_matches_the_roadmap_table(self):
        model = Independent(ErrorProfile.iid(12, 0.12))
        assert exact_decode_error(model, build_code_matrix(12)) == pytest.approx(0.08280, abs=5e-6)

    @pytest.mark.parametrize("model", DECODE_CASES, ids=DECODE_IDS)
    def test_within_four_sigma(self, model):
        code = build_code_matrix(model.n)
        exact = exact_decode_error(model, code)
        assert 0.05 < exact < 0.5
        result = mc_decode_error(model, code, SimConfig(trials=self.TRIALS, seed=3))
        sigma = math.sqrt(exact * (1.0 - exact) / self.TRIALS)
        assert abs(result.error_rate - exact) <= 4 * sigma, (result.error_rate, exact)


def _other_codes():
    """Codes other than the default block: keep-top-left at 10 and 12
    classes (d = 2 and 4), and 8 classes with rows 2 and 5 equal (d = 0, so
    far_flips = 0 and every row is decoded)."""
    yield "top-left-10", build_code_matrix(10, code_matrix.KEEP_TOP_LEFT)
    yield "top-left-12", build_code_matrix(12, code_matrix.KEEP_TOP_LEFT)
    matrix = build_code_matrix(8).matrix.copy()
    matrix[5] = matrix[2]
    yield "duplicate-rows-8", code_matrix.CodeMatrix(matrix)


OTHER_CODE_IDS, OTHER_CODES = zip(*_other_codes())


class TestOtherCodes:
    """mc_decode_error on codes other than build_code_matrix(n)'s default
    block, against the exact decode error of enumeration."""

    TRIALS = 1 << 17

    def test_the_codes(self):
        assert [(c.d, c.far_flips) for c in OTHER_CODES] == [(2, 1), (4, 2), (0, 0)]

    @pytest.mark.parametrize("kind", ["iid", "pair", "exchangeable"])
    @pytest.mark.parametrize("code", OTHER_CODES, ids=OTHER_CODE_IDS)
    def test_within_four_sigma(self, code, kind):
        n = code.n
        model = {
            "iid": lambda: Independent(ErrorProfile.iid(n, 0.12)),
            "pair": lambda: PairModel(ErrorProfile.iid(n, 0.15), 0.06),
            "exchangeable": lambda: ExchangeableModel(n, 0.1, 0.03),
        }[kind]()
        exact = exact_decode_error(model, code)
        assert 0.05 < exact < 0.5
        result = mc_decode_error(model, code, SimConfig(trials=self.TRIALS, seed=5))
        sigma = math.sqrt(exact * (1.0 - exact) / self.TRIALS)
        assert abs(result.error_rate - exact) <= 4 * sigma, (result.error_rate, exact)


class TestExactDecodeBlocks:
    """exact_decode_error walks the 2^n outcomes in blocks and sums its
    terms with math.fsum, so its value is the same, to the bit, whatever the
    block size."""

    @pytest.mark.parametrize("code", OTHER_CODES, ids=OTHER_CODE_IDS)
    def test_blocks_of_a_few_rows_equal_one_block(self, code, monkeypatch):
        n = code.n
        models = (
            Independent(ErrorProfile(tuple(0.05 + 0.02 * i for i in range(n)))),
            PairModel(ErrorProfile.iid(n, 0.15), 0.06),
            ExchangeableModel(n, 0.15, -0.002),
        )
        assert 1 << n <= prob_engine._OUTCOME_BLOCK_ROWS
        whole = [exact_decode_error(model, code) for model in models]
        # 7 rows: many blocks, and a last one cut short.
        monkeypatch.setattr(prob_engine, "_OUTCOME_BLOCK_ROWS", 7)
        assert [exact_decode_error(model, code) for model in models] == whole
