"""Ground-truth computations on raw symbol streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnpsketch import oracle
from bnpsketch.experiment import draw
from bnpsketch.genmodel import PriorParams, RawSample, sample_pyp_sequence, sample_zipf_sequence
from bnpsketch.numkit import DomainError


def sample_with_weights(symbols, weights):
    ids = np.array(sorted(weights), dtype=np.int64)
    w = np.array([weights[i] for i in ids], dtype=float)
    return RawSample(symbols=np.array(symbols, dtype=np.int64), atom_ids=ids, atom_weights=w)


class TestPartitionStats:
    def test_simple(self):
        stats = oracle.partition_stats(RawSample(symbols=np.array([7, 7, 9])))
        assert stats.k == 2
        assert stats.m[1] == 1 and stats.m[2] == 1

    def test_empty(self):
        stats = oracle.partition_stats(RawSample(symbols=np.empty(0, dtype=np.int64)))
        assert stats.k == 0 and stats.n == 0

    def test_constant_stream(self):
        stats = oracle.partition_stats(RawSample(symbols=np.zeros(9, dtype=np.int64)))
        assert stats.k == 1 and stats.m[9] == 1

    @given(st.lists(st.integers(0, 20), max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_identities(self, ids):
        stats = oracle.partition_stats(RawSample(symbols=np.array(ids, dtype=np.int64)))
        assert int(stats.m.sum()) == stats.k
        assert int(np.dot(np.arange(stats.m.size), stats.m)) == len(ids)


class TestTrueCoverage:
    def test_worked_example(self):
        s = sample_with_weights([1, 1, 2], {1: 0.5, 2: 0.3})
        assert abs(oracle.true_coverage(s, 0) - 0.2) < 1e-15
        assert abs(oracle.true_coverage(s, 1) - 0.3) < 1e-15
        assert abs(oracle.true_coverage(s, 2) - 0.5) < 1e-15

    def test_empty_sample(self):
        s = sample_with_weights([], {1: 0.4})
        assert oracle.true_coverage(s, 0) == 1.0

    def test_total_mass_one_for_generated_sample(self):
        smp = sample_pyp_sequence(PriorParams(0.4, 3.0), 20_000, seed=4)
        stats = oracle.partition_stats(smp)
        top = int(stats.m.nonzero()[0].max())
        profile = oracle.true_coverage_profile(smp, top)
        assert abs(profile.sum() - 1.0) < 1e-12

    def test_requires_weights(self):
        with pytest.raises(DomainError):
            oracle.true_coverage(RawSample(symbols=np.array([1, 2])), 0)


def per_order_scan(sample, r_max):
    """The reference profile: one mask over the observed symbols' weights per order."""
    ids, freqs = np.unique(sample.symbols, return_counts=True)
    w = sample.atom_weights[np.searchsorted(sample.atom_ids, ids)]
    out = np.zeros(r_max + 1)
    out[0] = 1.0 - w.sum()
    for r in range(1, r_max + 1):
        out[r] = w[freqs == r].sum()
    return out


class TestGroundTruth:
    @pytest.fixture(params=["sticks", "dp-sticks", "zipf", "file", "empty"])
    def sample(self, request, tmp_path):
        if request.param == "file":
            data = tmp_path / "tokens.txt"
            data.write_bytes(b"".join(f"w{i % 97} w{i % 13}\n".encode() for i in range(3000)))
            return draw("file", {"path": str(data), "tokenizer": "words"}, 4000, 6)[0]
        return {
            "sticks": lambda: sample_pyp_sequence(PriorParams(0.5, 10.0), 5000, seed=3),
            "dp-sticks": lambda: sample_pyp_sequence(PriorParams(0.0, 50.0), 5000, seed=4),
            "zipf": lambda: sample_zipf_sequence(1.1, 2000, 20_000, seed=5),
            "empty": lambda: sample_zipf_sequence(1.5, 10, 0, seed=1),
        }[request.param]()

    def test_grouped_profile_is_the_per_order_scan_bit_for_bit(self, sample):
        top = int(np.unique(sample.symbols, return_counts=True)[1].max(initial=0))
        for r_max in (top // 2, top, top + 3):
            ref = per_order_scan(sample, r_max)
            stats, profile = oracle.ground_truth(sample, r_max)
            assert profile.tobytes() == ref.tobytes()
            assert oracle.true_coverage_profile(sample, r_max).tobytes() == ref.tobytes()
            assert [oracle.true_coverage(sample, r) for r in range(r_max + 1)] == ref.tolist()
        want = oracle.partition_stats(sample)
        assert (stats.k, stats.n) == (want.k, want.n) and np.array_equal(stats.m, want.m)
        assert oracle.ground_truth(sample)[1].tobytes() == per_order_scan(sample, top).tobytes()

    def test_no_profile_without_weights(self):
        smp = sample_pyp_sequence(PriorParams(0.5, 10.0), 300, seed=2, with_weights=False)
        stats, profile = oracle.ground_truth(smp, 4)
        assert profile is None and stats.k == oracle.partition_stats(smp).k


class TestRawCoverageEstimator:
    def test_single_observation(self):
        stats = oracle.partition_stats(RawSample(symbols=np.array([5])))
        for alpha, theta in ((0.3, 1.0), (0.0, 2.0)):
            got = oracle.raw_bnp_coverage(stats, 1, PriorParams(alpha, theta), 0)
            assert abs(got - (theta + alpha) / (theta + 1)) < 1e-15

    def test_zero_discount_missing_mass_ignores_k(self):
        p = PriorParams(0.0, 2.0)
        for ids in ([1, 1, 1], [1, 2, 3]):
            stats = oracle.partition_stats(RawSample(symbols=np.array(ids)))
            assert abs(oracle.raw_bnp_coverage(stats, 3, p, 0) - 2.0 / 5.0) < 1e-15

    @given(st.lists(st.integers(0, 12), min_size=1, max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_normalization(self, ids):
        stats = oracle.partition_stats(RawSample(symbols=np.array(ids, dtype=np.int64)))
        p = PriorParams(0.4, 1.7)
        total = sum(
            oracle.raw_bnp_coverage(stats, len(ids), p, r) for r in range(len(ids) + 1)
        )
        assert abs(total - 1.0) < 1e-12


class TestGoodTuring:
    def test_formula(self):
        stats = oracle.partition_stats(RawSample(symbols=np.array([1, 1, 2, 3])))
        # two singletons: missing-mass estimate 2/4
        assert abs(oracle.good_turing_coverage(stats, 0) - 0.5) < 1e-15
        # one doubleton: order-1 estimate 2*1/4
        assert abs(oracle.good_turing_coverage(stats, 1) - 0.5) < 1e-15
        assert oracle.good_turing_coverage(stats, 2) == 0.0
