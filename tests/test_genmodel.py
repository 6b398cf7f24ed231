"""Generative samplers against exact laws and closed-form recursions."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from bnpsketch import genmodel as gm
from bnpsketch import pyp
from bnpsketch.numkit import DomainError
from bnpsketch.sketch import HashSpec, Sketch, buckets_u64, prehash_u64


def instantiated_mass(sample) -> float:
    """The total weight of the atoms a stick-breaking sample instantiated."""
    return float(np.sum(sample.atom_weights))


def sample_distinct_prefix(c, params, seed) -> np.ndarray:
    """One trajectory of ``distinct_chain``, returned as [K_c, ..., K_0]."""
    ks = [int(k[0]) for _, k in gm.distinct_chain(c, params, 1, gm.rng_from(seed))]
    return np.array(ks[::-1], dtype=np.int64)


class TestPriorParams:
    def test_validation(self):
        gm.PriorParams(alpha=0.0, theta=1.0)
        gm.PriorParams(alpha=0.5, theta=-0.4)
        with pytest.raises(DomainError):
            gm.PriorParams(alpha=1.0, theta=1.0)
        with pytest.raises(DomainError):
            gm.PriorParams(alpha=0.5, theta=-0.5)


class TestStickBreakingSampler:
    def test_empty_sample(self):
        s = gm.sample_pyp_sequence(gm.PriorParams(0.5, 1.0), 0, seed=0)
        assert s.n == 0

    def test_single_draw_single_symbol(self):
        s = gm.sample_pyp_sequence(gm.PriorParams(0.5, 1.0), 1, seed=0)
        assert s.n == 1 and len(set(s.symbols.tolist())) == 1

    def test_two_draw_distinct_probability(self):
        # new-symbol probability after one draw is (theta + alpha)/(theta + 1)
        alpha, theta = 0.3, 2.0
        want = (theta + alpha) / (theta + 1.0)
        hits = 0
        trials = 4000
        for s in np.random.SeedSequence(7).spawn(trials):
            smp = gm.sample_pyp_sequence(gm.PriorParams(alpha, theta), 2, s)
            hits += smp.symbols[0] != smp.symbols[1]
        se = math.sqrt(want * (1 - want) / trials)
        assert abs(hits / trials - want) < 3 * se

    def test_weight_bookkeeping_identity(self):
        smp = gm.sample_pyp_sequence(gm.PriorParams(0.5, 2.0), 500, seed=9)
        instantiated = instantiated_mass(smp)
        assert 0.0 <= 1.0 - instantiated <= 1.0
        observed = set(smp.symbols.tolist())
        observed_mass = float(sum(smp.atom_weights[i] for i in observed))
        unseen_instantiated = instantiated - observed_mass
        true_missing = 1.0 - observed_mass
        assert abs(true_missing - ((1.0 - instantiated) + unseen_instantiated)) < 1e-12

    def test_crp_mode_has_no_weights_same_law(self):
        # both modes must reproduce the distinct-count law at n = 5
        law = gm.dist_distinct(5, gm.PriorParams(0.5, 1.0))
        for with_weights in (True, False):
            counts = np.zeros(6)
            trials = 4000
            for s in np.random.SeedSequence(3).spawn(trials):
                smp = gm.sample_pyp_sequence(
                    gm.PriorParams(0.5, 1.0), 5, s, with_weights=with_weights
                )
                counts[len(set(smp.symbols.tolist()))] += 1
            stat, pval = scipy.stats.chisquare(counts[1:], law[1:] * trials)
            assert pval > 0.001, (with_weights, pval)

    def test_atom_budget_guard(self):
        with pytest.raises(DomainError):
            gm.sample_pyp_sequence(gm.PriorParams(0.95, 1.0), 200_000, seed=0)


class TestLockstepSampler:
    PARAMS = [(0.0, 0.1), (0.0, 1e5), (0.95, 0.1), (0.95, 1e5), (0.5, 10.0)]
    B = gm._BLOCK_STEPS

    @staticmethod
    def streams(n, count=3):
        seeds = np.random.SeedSequence(n).spawn(count)
        u = np.empty((count, n))
        pick = np.empty_like(u)
        for k, s in enumerate(seeds):
            rng = np.random.default_rng(s)
            u[k] = rng.random(n)
            pick[k] = rng.random(n)
        return seeds, u, pick

    def check_rows(self, n, width):
        # rows with mixed (alpha, theta) over shared streams, as the fit uses them
        spec = HashSpec.random(width, seed=11)
        seeds, u, pick = self.streams(n)
        rows = [(a, t, k) for a, t in self.PARAMS for k in range(len(seeds))]
        alpha, theta, stream = (list(col) for col in zip(*rows))
        bucket_of_id = buckets_u64(
            prehash_u64(np.arange(n), spec.symbol_seed), spec.a, spec.b, spec.width
        )
        got = gm.crp_bucket_counts(alpha, theta, stream, u, pick, bucket_of_id, spec.width)
        assert got.shape == (len(rows), spec.width)
        for (a, t, k), counts in zip(rows, got):
            smp = gm.sample_pyp_sequence(
                gm.PriorParams(a, t), n, np.random.default_rng(seeds[k]), with_weights=False
            )
            want = Sketch(spec)
            want.insert_ids(smp.symbols)
            assert np.array_equal(counts, want.counts), (a, t, k)

    # one step, one block, a block and one step, two blocks and one step
    @pytest.mark.parametrize("n", [1, 2, B, B + 1, 2 * B + 1, 500])
    def test_rows_match_single_stream_sketches(self, n):
        self.check_rows(n, width=32)

    @pytest.mark.parametrize("n", [1, B + 1, 500])
    def test_width_past_the_stream_length(self, n):
        self.check_rows(n, width=1024)

    @pytest.mark.parametrize("n,width", [(2000, 128), (10_000, 128), (300, 32)])
    def test_a_batch_of_the_fit_keeps_to_its_budget(self, n, width):
        # one call at the fit's batch size: the table, block buffers and counts stay
        # within the budget; 64 KB allow for the arrays of a few entries and the
        # Python objects (about 4 KB measured)
        budget = pyp._LOCKSTEP_BYTES
        rows = gm.lockstep_rows(n, width, budget)
        assert n != 2000 or rows >= 1000  # the fit's 1000-row grid stage at n' = 2000 is one batch
        _, u, pick = self.streams(n, count=5)
        rng = np.random.default_rng(n)
        alpha = rng.choice([0.0, 0.5, 0.95], rows).tolist()
        theta = rng.choice([0.1, 10.0, 1e5], rows).tolist()
        stream = rng.integers(0, 5, rows).tolist()
        bucket_of_id = rng.integers(0, width, n)
        tracemalloc.start()
        try:
            gm.crp_bucket_counts(alpha, theta, stream, u, pick, bucket_of_id, width)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= budget + (1 << 16), (rows, peak)


class TestZipfSampler:
    def test_single_symbol_vocab(self):
        s = gm.sample_zipf_sequence(1.0, 1, 10, seed=0)
        assert s.symbols.tolist() == [1] * 10

    def test_flat_exponent_is_uniform(self):
        s = gm.sample_zipf_sequence(1e-9, 4, 0, seed=0)
        np.testing.assert_allclose(s.atom_weights, 0.25, rtol=1e-6)

    def test_harmonic_weights(self):
        s = gm.sample_zipf_sequence(1.0, 3, 0, seed=0)
        want = np.array([1.0, 0.5, 1.0 / 3.0])
        np.testing.assert_allclose(s.atom_weights, want / want.sum(), rtol=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            gm.sample_zipf_sequence(0.0, 3, 1, seed=0)
        with pytest.raises(DomainError):
            gm.sample_zipf_sequence(1.0, 0, 1, seed=0)


class TestDistinctPrefixSampler:
    def test_degenerate_prefixes(self):
        assert sample_distinct_prefix(0, gm.PriorParams(0.0, 1.0), 0).tolist() == [0]
        traj = sample_distinct_prefix(1, gm.PriorParams(0.0, 1.0), 0)
        assert traj.tolist() == [1, 0]

    def test_reversed_order(self):
        traj = sample_distinct_prefix(10, gm.PriorParams(0.5, 1.0), 5)
        assert traj[-1] == 0 and traj[-2] == 1
        assert all(traj[i] >= traj[i + 1] for i in range(len(traj) - 1))

    @pytest.mark.parametrize("c,size", [(40, 3), (12, 500)])
    def test_caller_buffers_walk_the_same_chains(self, c, size):
        # buffers passed in, holding stale values, give the walk's own trajectory
        # and generator end state, and K is yielded in the caller's array
        params = gm.PriorParams(0.5, 2.0)
        own = np.random.default_rng(c)
        want = [(i, k.copy()) for i, k in gm.distinct_chain(c, params, size, own)]
        buffers = np.full(size, 7, np.int64), np.full(size, 0.5), np.full(size, 0.5), np.ones(size, dtype=bool)
        given = np.random.default_rng(c)
        got = []
        for i, k in gm.distinct_chain(c, params, size, given, buffers=buffers):
            assert k is buffers[0]
            got.append((i, k.copy()))
        assert [i for i, _ in got] == [i for i, _ in want] == list(range(c + 1))
        assert all(np.array_equal(g, w) for (_, g), (_, w) in zip(got, want))
        assert given.bit_generator.state == own.bit_generator.state

    @pytest.mark.parametrize("alpha,theta", [(0.5, 1.0), (0.9, 0.01), (0.3, 1e12)])
    def test_steps_past_the_samples_match_the_table(self, alpha, theta):
        # past step size + 1 the walk computes p elementwise; the table of
        # (theta + alpha k)/(theta + i - 1) it replaces gives the same bits
        c, size, params = 300, 4, gm.PriorParams(alpha, theta)
        rng = np.random.default_rng(11)
        k, want = np.zeros(size, np.int64), [np.zeros(size, np.int64), np.ones(size, np.int64)]
        k += 1
        numerators = theta + alpha * np.arange(c)
        for i in range(2, c + 1):
            u = rng.random(size)
            k += u < np.take(numerators[:i] / (theta + i - 1), k)
            want.append(k.copy())
        walk = np.random.default_rng(11)
        got = [k.copy() for _, k in gm.distinct_chain(c, params, size, walk)]
        assert np.array_equal(got, want)
        assert walk.bit_generator.state == rng.bit_generator.state

    def test_three_draw_law(self, rng):
        # Pr[K_3 = 1] = 1/3 at alpha = 0, theta = 1
        _, k3 = gm.sample_distinct_pairs(3, 0, gm.PriorParams(0.0, 1.0), 100_000, rng)
        p = float(np.mean(k3 == 1))
        se = math.sqrt((1 / 3) * (2 / 3) / 100_000)
        assert abs(p - 1 / 3) < 3 * se

    def test_pair_reads_are_consistent(self, rng):
        k_cr, k_c = gm.sample_distinct_pairs(12, 4, gm.PriorParams(0.5, 2.0), 5000, rng)
        assert (k_cr <= k_c).all()
        assert (k_c - k_cr <= 4).all()
        assert k_cr.min() >= 1

    def test_law_matches_distribution(self, rng):
        for alpha, theta in ((0.0, 1.0), (0.5, 1.0), (0.25, 5.0)):
            n = 7
            _, k = gm.sample_distinct_pairs(n, 0, gm.PriorParams(alpha, theta), 50_000, rng)
            law = gm.dist_distinct(n, gm.PriorParams(max(alpha, 1e-12) if alpha else 0.0, theta))
            observed = np.bincount(k, minlength=n + 1)[1:]
            stat, pval = scipy.stats.chisquare(observed, law[1:] * 50_000)
            assert pval > 0.001, (alpha, theta, pval)


class TestExpectedDistinct:
    def test_hand_values(self):
        assert gm.expected_distinct_exact(1, gm.PriorParams(0.3, 2.0)) == 1.0
        assert math.isclose(
            gm.expected_distinct_exact(2, gm.PriorParams(0.0, 1.0)), 1.5, rel_tol=1e-15
        )
        assert math.isclose(
            gm.expected_distinct_exact(2, gm.PriorParams(0.5, 1.0)), 1.75, rel_tol=1e-15
        )

    def test_sampler_mean_matches(self, rng):
        for c, alpha, theta in ((50, 0.0, 1.0), (50, 0.5, 1.0), (200, 0.25, 10.0)):
            _, k = gm.sample_distinct_pairs(
                c, 0, gm.PriorParams(alpha, theta), 100_000, rng
            )
            want = gm.expected_distinct_exact(c, gm.PriorParams(alpha, theta))
            se = float(np.std(k, ddof=1)) / math.sqrt(k.size)
            assert abs(float(np.mean(k)) - want) < 4 * se, (c, alpha, theta)


class TestDirichletMultinomialSketch:
    def test_empty(self):
        s = gm.sample_sketch_dirmult(0, 4, 2.0, seed=0)
        assert s.n == 0 and int(s.counts.sum()) == 0

    def test_counts_sum(self):
        s = gm.sample_sketch_dirmult(100, 8, 2.0, seed=1)
        assert int(s.counts.sum()) == 100

    def test_two_bucket_symmetry(self):
        # first draw lands in bucket 0 with probability 1/2
        hits = 0
        trials = 3000
        for i, s in enumerate(np.random.SeedSequence(11).spawn(trials)):
            sk = gm.sample_sketch_dirmult(1, 2, 2.0, s)
            hits += int(sk.counts[0]) == 1
        se = math.sqrt(0.25 / trials)
        assert abs(hits / trials - 0.5) < 3 * se

    def test_mean_per_bucket(self, rng):
        total = np.zeros(4)
        trials = 2000
        n = 12
        for s in np.random.SeedSequence(13).spawn(trials):
            total += gm.sample_sketch_dirmult(n, 4, 1.5, s).counts.astype(float)
        mean = total / trials
        # exchangeability: each bucket averages n/J; generous 4-SE band
        se = math.sqrt(n * 1.0 / trials)
        np.testing.assert_allclose(mean, n / 4, atol=4 * se)


class TestDistinctLaw:
    def test_point_mass_at_one(self):
        law = gm.dist_distinct(1, gm.PriorParams(0.5, 1.0))
        np.testing.assert_allclose(law, [0.0, 1.0], atol=1e-15)

    def test_zero_discount_hand_values(self):
        law = gm.dist_distinct(3, gm.PriorParams(0.0, 1.0))
        np.testing.assert_allclose(law[1:], [1 / 3, 1 / 2, 1 / 6], rtol=1e-12)

    def test_normalization(self):
        for alpha, theta in ((0.0, 3.0), (0.3, 0.5), (0.8, 10.0)):
            law = gm.dist_distinct(40, gm.PriorParams(alpha, theta))
            assert abs(law.sum() - 1.0) < 1e-10
