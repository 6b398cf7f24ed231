"""Zero-discount estimators: frozen hand values, identities, fitting."""

import itertools
import math

import numpy as np
import pytest

from bnpsketch import dp
from bnpsketch.genmodel import PriorParams
from bnpsketch.numkit import DomainError
from bnpsketch.oracle import partition_stats, raw_bnp_coverage
from bnpsketch.genmodel import RawSample
from bnpsketch.report import EstimateReport
from bnpsketch.sketch import HashSpec, Sketch
from conftest import make_sketch


class TestLogLikelihood:
    def test_hand_values(self):
        # enumerate symbol placements by hand: (1,0) has probability 1/2,
        # (1,1) probability 1/3, at theta = 2 and two buckets
        assert math.isclose(dp.dp_loglik(make_sketch([1, 0]), 2.0), math.log(0.5), rel_tol=1e-12)
        assert math.isclose(dp.dp_loglik(make_sketch([1, 1]), 2.0), math.log(1 / 3), rel_tol=1e-12)

    @pytest.mark.parametrize("n,width,theta", [(4, 2, 1.7), (5, 3, 0.4), (3, 3, 9.0)])
    def test_normalization_over_compositions(self, n, width, theta):
        total = 0.0
        for c in itertools.product(range(n + 1), repeat=width):
            if sum(c) == n:
                total += math.exp(dp.dp_loglik(make_sketch(c), theta))
        assert abs(total - 1.0) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            dp.dp_loglik(make_sketch([1, 0]), 0.0)


class TestCoverage:
    def test_missing_mass_closed_form(self):
        for counts, theta in (([1, 0], 2.0), ([5, 2, 0, 1], 0.7)):
            s = make_sketch(counts)
            assert math.isclose(
                dp.dp_coverage(s, theta, 0), theta / (theta + s.n), rel_tol=1e-14
            )

    def test_two_bucket_hand_value(self):
        # single observation, theta = 2: orders 0 and 1 split 2/3, 1/3
        s = make_sketch([1, 0])
        assert math.isclose(dp.dp_coverage(s, 2.0, 1), 1 / 3, rel_tol=1e-12)

    def test_single_bucket_uniform_orders(self):
        s = make_sketch([2])
        for r in range(3):
            assert math.isclose(dp.dp_coverage(s, 1.0, r), 1 / 3, rel_tol=1e-12)

    def test_vanishes_beyond_max_count(self):
        assert dp.dp_coverage(make_sketch([2, 1]), 1.0, 3) == 0.0

    def test_normalization_random_sketches(self, rng):
        for _ in range(40):
            width = int(rng.choice([8, 128]))
            n = int(rng.integers(1, 10_000))
            theta = float(rng.choice([0.5, 5.0, 50.0, 500.0]))
            counts = np.bincount(rng.integers(0, width, n), minlength=width)
            s = make_sketch(counts, width=width)
            profile = dp.dp_coverage_profile(s, theta, int(counts.max()))
            assert abs(profile.sum() - 1.0) < 1e-8


class TestFreqCountsAndDistinct:
    def test_hand_values(self):
        s = make_sketch([2])
        assert math.isclose(dp.dp_freq_counts(s, 1.0, 1), 1.0, rel_tol=1e-12)
        assert math.isclose(dp.dp_freq_counts(s, 1.0, 2), 0.5, rel_tol=1e-12)
        assert dp.dp_freq_counts(s, 1.0, 5) == 0.0
        assert math.isclose(dp.dp_distinct(s, 1.0), 1.5, rel_tol=1e-12)

    def test_two_singleton_buckets_are_two_symbols(self):
        for theta in (0.1, 3.0, 250.0):
            assert math.isclose(dp.dp_distinct(make_sketch([1, 1]), theta), 2.0, rel_tol=1e-12)

    def test_rejects_order_zero(self):
        with pytest.raises(DomainError):
            dp.dp_freq_counts(make_sketch([2]), 1.0, 0)

    def test_mass_and_aggregation_identities(self, rng):
        for _ in range(15):
            width = int(rng.choice([8, 64]))
            n = int(rng.integers(2, 3000))
            theta = float(rng.choice([0.5, 5.0, 50.0]))
            counts = np.bincount(rng.integers(0, width, n), minlength=width)
            s = make_sketch(counts, width=width)
            c_max = int(counts.max())
            m = np.array([dp.dp_freq_counts(s, theta, r) for r in range(1, c_max + 1)])
            assert abs(float(np.dot(np.arange(1, c_max + 1), m)) - n) <= 1e-6 * max(1, n)
            assert abs(dp.dp_distinct(s, theta) - m.sum()) < 1e-6

    def test_harmonic_equals_digamma_form(self, rng):
        s = make_sketch([5, 0, 2, 9, 1, 0, 0, 3])
        for theta in (0.7, 3.3, 41.0, 1001.5):
            a = dp.dp_distinct(s, theta)
            b = dp.dp_distinct_digamma_literal(s, theta)
            assert abs(a - b) <= 1e-8 * max(1.0, abs(a)), theta


class TestThetaFit:
    def test_increasing_likelihood_hits_upper_bound(self):
        theta, boundary = dp.dp_fit_theta(make_sketch([1, 1]), (1e-2, 1e6))
        assert boundary and theta > 9e5

    def test_decreasing_likelihood_hits_lower_bound(self):
        theta, boundary = dp.dp_fit_theta(make_sketch([2, 0]), (1e-2, 1e6))
        assert boundary and theta < 1.1e-2

    def test_beats_reference_grid(self):
        # bucket counts actually drawn from the symmetric compound law with
        # theta = 100 give an interior optimum near the truth
        from bnpsketch.genmodel import sample_sketch_dirmult

        s = sample_sketch_dirmult(10_000, 128, 100.0, seed=6)
        theta, boundary = dp.dp_fit_theta(s)
        assert not boundary
        assert 30.0 < theta < 300.0
        grid = np.exp(np.linspace(math.log(1e-3), math.log(1e9), 400))
        best_grid = max(dp.dp_loglik(s, t) for t in grid)
        assert dp.dp_loglik(s, theta) >= best_grid - 1e-9

    def test_empty_sketch_rejected(self):
        with pytest.raises(DomainError):
            dp.dp_fit_theta(make_sketch([0, 0]))


class TestLosslessWidthReduction:
    def test_matches_raw_estimator(self):
        # one distinct symbol per bucket in a huge-width sketch: the sketch
        # estimates collapse to the raw-data posterior-predictive values
        freqs = [3, 2, 2, 1, 1, 1, 1]
        width = 1_000_000
        n = sum(freqs)
        s = make_sketch(freqs, width=width)
        sample = RawSample(
            symbols=np.repeat(np.arange(len(freqs)), freqs).astype(np.int64)
        )
        stats = partition_stats(sample)
        theta = 1.3
        prior = PriorParams(0.0, theta)
        for r in range(0, max(freqs) + 1):
            want = raw_bnp_coverage(stats, n, prior, r)
            got = dp.dp_coverage(s, theta, r)
            assert abs(got - want) < 1e-3, (r, got, want)


class TestReport:
    def test_bundles_and_sums(self):
        rep = dp.dp_report(make_sketch([2]), theta=1.0)
        assert abs(sum(rep.coverage.values()) - 1.0) < 1e-12
        assert rep.method == "dp-exact"
        assert rep.prior.provenance == "given"

    def test_empty_sketch(self):
        rep = dp.dp_report(make_sketch([0, 0]), theta=100.0)
        assert rep.coverage[0] == 1.0
        assert rep.distinct == 0.0
        assert rep.freq_counts == {}

    def test_json_round_trip(self):
        rep = dp.dp_report(make_sketch([3, 1, 0]), fit="eb-mle")
        back = EstimateReport.from_json(rep.to_json())
        assert back.coverage == rep.coverage
        assert back.freq_counts == rep.freq_counts
        assert back.prior.theta == rep.prior.theta
        assert back.prior.provenance == "eb-mle"

    @pytest.mark.parametrize("width", [1, 16, 1 << 10, 1 << 16])
    def test_matches_per_order_functions(self, rng, width):
        # the report groups the counts once; the public functions group per
        # call; both must produce the same floats
        # a uniform body plus a heavy head of a few hundred repeats
        ids = np.concatenate([rng.integers(0, 3 * width, 10 * width), rng.zipf(1.5, 500)])
        s = Sketch(HashSpec.random(width, seed=width))
        s.insert_ids(ids)
        for fit, theta in (("none", 3.7), ("eb-mle", None)):
            rep = dp.dp_report(s, theta=theta, fit=fit)
            theta_hat = rep.prior.theta
            r_max = int(s.counts.max())
            assert sorted(rep.coverage) == list(range(r_max + 1))
            cov = [dp.dp_coverage(s, theta_hat, r) for r in range(r_max + 1)]
            freq = [dp.dp_freq_counts(s, theta_hat, r) for r in range(1, r_max + 1)]
            assert np.array_equal([rep.coverage[r] for r in range(r_max + 1)], cov)
            assert np.array_equal([rep.freq_counts[r] for r in range(1, r_max + 1)], freq)
            assert np.array_equal(dp.dp_coverage_profile(s, theta_hat, r_max), cov)
            assert rep.distinct == dp.dp_distinct(s, theta_hat)

    def test_requires_theta_without_fit(self):
        with pytest.raises(DomainError):
            dp.dp_report(make_sketch([1, 0]))

    def test_profile_rejects_negative_r_max(self):
        with pytest.raises(DomainError):
            dp.dp_coverage_profile(make_sketch([3, 1]), 1.0, -1)

    def test_orders_past_array_limit_name_r_max(self):
        # the default r_max is the largest count: 2^62 + 1 float64 orders
        # cannot be one array, so the report refuses before allocating
        s = make_sketch([1 << 62, 5])
        with pytest.raises(DomainError, match="r_max"):
            dp.dp_report(s, theta=2.5)
        with pytest.raises(DomainError, match="r_max"):
            dp.dp_coverage_profile(s, 2.5, 1 << 62)

    def test_orders_past_memory_name_r_max(self, no_huge_arrays):
        # 10^10 + 1 orders fit the array limit but would take 80 GB
        s = make_sketch([10**10, 5])
        with pytest.raises(DomainError, match="--r-max"):
            dp.dp_report(s, theta=2.5)
        with pytest.raises(DomainError, match="--r-max"):
            dp.dp_coverage_profile(s, 2.5, 10**10)
        assert dp.dp_coverage_profile(s, 2.5, 3).size == 4


def _mp_profile(vals, mult, n, width, theta, r_max):
    """Coverage of orders 0..r_max in 40-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        theta = mpmath.mpf(theta)
        z = theta / width
        out = [theta / (theta + n)]
        for r in range(1, r_max + 1):
            total = mpmath.fsum(
                m * mpmath.exp(
                    mpmath.loggamma(c + 1) - mpmath.loggamma(c - r + 1)
                    + mpmath.loggamma(z + c - r) - mpmath.loggamma(z + c)
                )
                for c, m in zip(vals, mult)
                if c >= r
            )
            out.append(z * total / (theta + n))
        return np.array([float(x) for x in out])


class TestProfileAccuracy:
    def test_every_order_against_mpmath(self):
        # a Zipf stream whose largest bucket count is about 3000, so the
        # log1p sums run over thousands of orders
        ids = np.random.default_rng(11).zipf(1.1, 30_000)
        s = Sketch(HashSpec.random(4096, seed=7))
        s.insert_ids(ids)
        vals, mult = np.unique(s.counts.astype(np.int64), return_counts=True)
        r_max = int(vals[-1])
        assert r_max > 2500
        for theta in (3.7, 1500.0):
            want = _mp_profile(vals.tolist(), mult.tolist(), s.n, s.spec.width, theta, r_max)
            got = dp.dp_coverage_profile(s, theta, r_max)
            assert np.max(np.abs(got - want) / want) < 1e-11, theta

    def test_counts_near_2_63_per_order(self):
        # the log1p sums start at j = 2^62 and stop after three orders
        big = 1 << 62
        s = make_sketch([big, 5])
        want = _mp_profile([5, big], [1, 1], s.n, 2, 2.5, 3)
        got = dp.dp_coverage_profile(s, 2.5, 3)
        assert np.max(np.abs(got - want) / want) < 1e-11
        rep = dp.dp_report(s, theta=2.5, r_max=3)
        assert np.array_equal([rep.coverage[r] for r in range(4)], got)

    @pytest.mark.parametrize("c", [10**6, 10**8, 10**12])
    def test_large_counts(self, c):
        # the terms are not differences of log-gamma values near c log c
        s = make_sketch([c, 5])
        want = _mp_profile([5, c], [1, 1], s.n, 2, 2.5, 6)
        got = dp.dp_coverage_profile(s, 2.5, 6)
        assert np.max(np.abs(got - want) / want) < 1e-14

    @pytest.mark.parametrize(
        "width,theta",
        # theta/J = 1.5e-8 needs log(z) for the j = 1 term; log1p(z - 1) loses its digits
        [(1 << 16, 1e-3), (1 << 16, 1e9), (2, 1e9)],
    )
    def test_zipf_head_every_order(self, width, theta):
        ids = np.random.default_rng(11).zipf(1.1, 30_000)[:3000]
        s = Sketch(HashSpec.random(width, seed=7))
        s.insert_ids(ids)
        vals, mult = np.unique(s.counts.astype(np.int64), return_counts=True)
        r_max = int(vals[-1])
        want = _mp_profile(vals.tolist(), mult.tolist(), s.n, width, theta, r_max)
        got = dp.dp_coverage_profile(s, theta, r_max)
        # at theta = 1e9 the top orders underflow: compare the normal floats
        normal = want > np.finfo(float).tiny
        assert np.max(np.abs(got - want)[normal] / want[normal]) < 2e-12
        assert np.all(got[~normal] < np.finfo(float).tiny)
