"""Two-parameter estimators: brute-force equivalence, identities, MC, fit."""

import itertools
import math

import numpy as np
import pytest

from bnpsketch import dp, pyp
from bnpsketch.genmodel import PriorParams, sample_pyp_sequence
from bnpsketch.numkit import (
    DomainError,
    GfcTable,
    gfc_direct,
    log_convolve,
    log_correlate,
    log_rising_factorial,
    log_rising_factorial_prefix,
    logsumexp,
)
from bnpsketch.sketch import HashSpec, Sketch
from conftest import make_sketch

PARAM_GRID = [(0.25, 0.5), (0.5, 1.0), (0.75, 5.0)]


def rising(x, u):
    out = 1.0
    for i in range(u):
        out *= x + i
    return out


def brute_force_coverage(counts, width, alpha, theta, r):
    """Direct Cartesian-product evaluation over all latent block vectors."""
    n = sum(counts)
    rows = [[gfc_direct(c, v, alpha) for v in range(c + 1)] for c in counts]
    den = 0.0
    for i in itertools.product(*[range(c + 1) for c in counts]):
        term = rising(theta / alpha, sum(i)) / width ** sum(i)
        for s, iv in enumerate(i):
            term *= rows[s][iv]
        den += term
    total = 0.0
    for j, c in enumerate(counts):
        if c < r:
            continue
        rows_j = list(rows)
        rows_j[j] = [gfc_direct(c - r, v, alpha) for v in range(c - r + 1)]
        num = 0.0
        for i in itertools.product(*[range(len(rw)) for rw in rows_j]):
            term = rising(1.0 + theta / alpha, sum(i)) / width ** sum(i)
            for s, iv in enumerate(i):
                term *= rows_j[s][iv]
            num += term
        total += math.comb(c, r) * num / den
    return (theta / width) * rising(1.0 - alpha, r) / (theta + n) * total


def brute_force_loglik(counts, width, alpha, theta):
    n = sum(counts)
    rows = [[gfc_direct(c, v, alpha) for v in range(c + 1)] for c in counts]
    total = 0.0
    for i in itertools.product(*[range(c + 1) for c in counts]):
        term = rising(theta / alpha, sum(i)) / width ** sum(i)
        for s, iv in enumerate(i):
            term *= rows[s][iv]
        total += term
    mult = math.factorial(n)
    for c in counts:
        mult //= math.factorial(c)
    return math.log(mult * total / rising(theta, n))


def per_bucket_exact(counts, width, alpha, theta):
    """Exact profile, log-likelihood and distinct count, one bucket at a time.

    The reference builds the leave-one-out weights of every occupied bucket
    from prefix and suffix convolutions over the buckets, with no grouping
    of equal counts.
    """
    n = int(sum(counts))
    occ = [int(c) for c in counts if c > 0]
    table = GfcTable(alpha)
    log_j = math.log(width)
    seqs = [table.row(c) - np.arange(c + 1) * log_j for c in occ]
    prefix = [np.array([0.0])]
    for g in seqs:
        prefix.append(log_convolve(prefix[-1], g))
    suffix = [np.array([0.0])]
    for g in reversed(seqs):
        suffix.append(log_convolve(g, suffix[-1]))
    suffix.reverse()
    logf_den = log_rising_factorial_prefix(theta / alpha, n)
    logf_num = log_rising_factorial_prefix(1.0 + theta / alpha, n)
    log_den = logsumexp(prefix[-1] + logf_den)
    profile = []
    for r in range(max(occ, default=0) + 1):
        log_pre = (
            math.log(theta / width) + log_rising_factorial(1.0 - alpha, r) - math.log(theta + n)
        )
        if r == 0:
            log_num = math.log(width) + logsumexp(prefix[-1] + logf_num)
        else:
            terms = []
            for j, c in enumerate(occ):
                if c >= r:
                    corr = log_correlate(log_convolve(prefix[j], suffix[j + 1]), logf_num)
                    g_repl = table.row(c - r) - np.arange(c - r + 1) * log_j
                    terms.append(
                        math.log(math.comb(c, r)) + logsumexp(g_repl + corr[: c - r + 1])
                    )
            log_num = logsumexp(terms)
        profile.append(math.exp(log_pre + log_num - log_den))
    loglik = (
        math.lgamma(n + 1)
        - sum(math.lgamma(c + 1) for c in occ)
        - log_rising_factorial(theta, n)
        + log_den
    )
    distinct = (theta + n) / alpha * profile[0] - theta / alpha
    return np.array(profile), loglik, distinct


def assert_rel_close(got, want, rel, floor=0.0):
    assert abs(got - want) <= rel * max(abs(want), floor), (got, want)


class TestBlockWeights:
    def test_single_count_sequence(self):
        w = pyp.block_weights([1], 0.5, width=4)
        assert w.values.tolist() == [1] and w.multiplicity.tolist() == [1]
        assert w.per_count[0][0] == -np.inf
        assert math.isclose(math.exp(w.per_count[0][1]), 0.5 / 4, rel_tol=1e-12)
        np.testing.assert_allclose(w.total, w.per_count[0])

    def test_two_singletons_top_weight(self):
        w = pyp.block_weights([1, 1], 0.5, width=2)
        assert math.isclose(math.exp(w.total[2]), 1.0 / 16.0, rel_tol=1e-12)

    def test_total_length_and_zero_head(self):
        w = pyp.block_weights([3, 2], 0.4, width=2)
        assert w.total.size == 6
        assert w.total[0] == -np.inf

    def test_leave_one_out_matches_direct_rebuild(self):
        counts = [3, 1, 2, 3, 0, 1, 1]
        w = pyp.block_weights(counts, 0.3, width=7)
        assert w.values.tolist() == [1, 2, 3]
        assert w.multiplicity.tolist() == [3, 1, 2]
        table = GfcTable(0.3)
        for k, c in enumerate(w.values.tolist()):
            rest = list(counts)
            rest.remove(c)
            direct = np.array([0.0])
            for c_s in rest:
                direct = log_convolve(direct, table.row(c_s) - np.arange(c_s + 1) * math.log(7))
            np.testing.assert_allclose(w.without_one[k], direct, atol=1e-10)

    def test_cap(self):
        with pytest.raises(pyp.ExactCapError):
            pyp.block_weights([1500, 1000], 0.5, width=2)


class TestGroupedEngine:
    """The exact engine over distinct counts against the per-bucket reference."""

    def check(self, counts, width, alpha, theta):
        s = make_sketch(counts, width=width)
        params = PriorParams(alpha, theta)
        want_profile, want_ll, want_distinct = per_bucket_exact(counts, width, alpha, theta)
        rep = pyp.pyp_report(s, params=params)
        got = np.array([rep.coverage[r] for r in range(want_profile.size)])
        for g, w in zip(got, want_profile):
            assert_rel_close(g, w, 1e-10)
        # a single occupied bucket is certain: log-likelihood 0
        assert_rel_close(pyp.pyp_loglik(s, params), want_ll, 1e-10, floor=1.0)
        assert_rel_close(pyp.pyp_distinct(s, params), want_distinct, 1e-10)

    @pytest.mark.parametrize("alpha,theta", PARAM_GRID)
    def test_random_sketches_with_repeated_counts(self, rng, alpha, theta):
        for _ in range(3):
            width = int(rng.integers(8, 40))
            n = int(rng.integers(20, 120))
            counts = np.bincount(rng.integers(0, width, n), minlength=width)
            assert np.unique(counts[counts > 0]).size < np.count_nonzero(counts)
            self.check(counts.tolist(), width, alpha, theta)

    def test_empty_sketch(self):
        s = make_sketch([0, 0, 0])
        params = PriorParams(0.5, 2.0)
        assert pyp.pyp_coverage_exact(s, params, 0) == 1.0
        assert pyp.pyp_coverage_exact(s, params, 1) == 0.0
        assert pyp.pyp_loglik(s, params) == 0.0
        assert pyp.pyp_distinct(s, params) == 0.0

    @pytest.mark.parametrize("alpha,theta", PARAM_GRID)
    def test_single_bucket(self, alpha, theta):
        self.check([7], 1, alpha, theta)
        self.check([0, 0, 5, 0], 4, alpha, theta)


class TestExactEstimators:
    def test_brute_force_equivalence(self, rng):
        for trial in range(10):
            width = int(rng.integers(1, 4))
            n = int(rng.integers(1, 9))
            counts = np.bincount(rng.integers(0, width, n), minlength=width).tolist()
            for alpha, theta in PARAM_GRID:
                s = make_sketch(counts, width=width)
                params = PriorParams(alpha, theta)
                want_ll = brute_force_loglik(counts, width, alpha, theta)
                assert abs(pyp.pyp_loglik(s, params) - want_ll) <= 1e-9 * max(1.0, abs(want_ll))
                for r in range(0, max(counts) + 1):
                    want = brute_force_coverage(counts, width, alpha, theta, r)
                    got = pyp.pyp_coverage_exact(s, params, r)
                    assert abs(got - want) <= 1e-9 * max(abs(want), 1e-300)

    def test_single_bucket_likelihood_is_certain(self):
        for alpha, theta in PARAM_GRID:
            assert abs(pyp.pyp_loglik(make_sketch([4]), PriorParams(alpha, theta))) < 1e-10

    @pytest.mark.parametrize("n,width", [(4, 2), (5, 2)])
    def test_likelihood_normalization(self, n, width):
        params = PriorParams(0.5, 1.3)
        total = 0.0
        for c in itertools.product(range(n + 1), repeat=width):
            if sum(c) == n:
                total += math.exp(pyp.pyp_loglik(make_sketch(c), params))
        assert abs(total - 1.0) < 1e-8

    def test_single_observation_closed_forms(self):
        for alpha, theta in PARAM_GRID:
            s = make_sketch([1])
            params = PriorParams(alpha, theta)
            assert math.isclose(
                pyp.pyp_coverage_exact(s, params, 0), (theta + alpha) / (theta + 1), rel_tol=1e-12
            )
            assert math.isclose(
                pyp.pyp_coverage_exact(s, params, 1), (1 - alpha) / (theta + 1), rel_tol=1e-12
            )
            assert abs(pyp.pyp_distinct(s, params) - 1.0) < 1e-10

    def test_coverage_normalization(self, rng):
        for alpha in (0.25, 0.5, 0.75):
            for theta in (0.5, 5.0):
                width = int(rng.integers(2, 9))
                n = int(rng.integers(5, 51))
                counts = np.bincount(rng.integers(0, width, n), minlength=width)
                s = make_sketch(counts, width=width)
                params = PriorParams(alpha, theta)
                total = sum(
                    pyp.pyp_coverage_exact(s, params, r) for r in range(int(counts.max()) + 1)
                )
                assert abs(total - 1.0) < 1e-8

    def test_vanishes_beyond_max_count(self):
        params = PriorParams(0.5, 1.0)
        assert pyp.pyp_coverage_exact(make_sketch([2, 1]), params, 3) == 0.0
        assert pyp.pyp_freq_counts(make_sketch([2, 1]), params, 3) == 0.0

    def test_distinct_equals_freq_sum(self, rng):
        for _ in range(6):
            width = int(rng.integers(2, 6))
            n = int(rng.integers(3, 25))
            counts = np.bincount(rng.integers(0, width, n), minlength=width)
            s = make_sketch(counts, width=width)
            params = PriorParams(0.5, 2.0)
            total = sum(
                pyp.pyp_freq_counts(s, params, r) for r in range(1, int(counts.max()) + 1)
            )
            assert abs(pyp.pyp_distinct(s, params) - total) < 1e-8

    def test_zero_discount_limit(self, rng):
        for _ in range(5):
            width = int(rng.integers(2, 7))
            n = int(rng.integers(10, 201))
            counts = np.bincount(rng.integers(0, width, n), minlength=width)
            s = make_sketch(counts, width=width)
            theta = float(rng.choice([0.7, 5.0, 40.0]))
            params = PriorParams(1e-6, theta)
            assert abs(pyp.pyp_loglik(s, params) - dp.dp_loglik(s, theta)) < 1e-4
            for r in range(int(counts.max()) + 1):
                want = dp.dp_coverage(s, theta, r)
                got = pyp.pyp_coverage_exact(s, params, r)
                if want > 1e-12:
                    assert abs(got - want) / want < 1e-4, (r, got, want)

    def test_missing_mass_increases_with_theta(self):
        s = make_sketch([4, 2, 1, 0])
        values = [
            pyp.pyp_coverage_exact(s, PriorParams(0.5, t), 0)
            for t in (0.1, 0.5, 1.0, 5.0, 20.0, 100.0)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_exact_cap_names_fallback(self):
        with pytest.raises(pyp.ExactCapError, match="Monte Carlo"):
            pyp.pyp_coverage_exact(make_sketch([3000]), PriorParams(0.5, 1.0), 0)


class TestMonteCarlo:
    def test_matches_exact_within_three_stderr(self):
        params = PriorParams(0.5, 1.0)
        s = make_sketch([5, 3, 0, 2], width=4)
        for r in (0, 1, 2):
            exact = pyp.pyp_coverage_exact(s, params, r)
            est, se = pyp.pyp_coverage_mc(s, params, r, 100_000, seed=123)
            assert abs(est - exact) < max(3 * se, 5e-3), (r, est, exact, se)

    def test_zero_beyond_max_count(self):
        est, se = pyp.pyp_coverage_mc(make_sketch([2, 1]), PriorParams(0.5, 1.0), 9, 1000, seed=0)
        assert est == 0.0 and se == 0.0

    def test_sample_floor(self):
        with pytest.raises(DomainError):
            pyp.pyp_coverage_mc(make_sketch([2, 1]), PriorParams(0.5, 1.0), 0, 99, seed=0)

    def test_debias_validation(self):
        with pytest.raises(DomainError):
            pyp.pyp_coverage_mc(make_sketch([2]), PriorParams(0.5, 1.0), 0, 1000, 0, debias="x")

    def test_tin_beats_plain_ratio_usually(self):
        # same seed, both corrections from one set of draws: the corrected
        # value should be at least as close to the exact one most of the
        # time.  The regime must be bias-dominated (enough observations for
        # the statistics to be skewed, few enough samples that the ratio
        # bias is visible against per-run noise) or both land within noise
        # of each other and the comparison is a coin flip.
        params = PriorParams(0.5, 1.0)
        wins = 0
        trials = 50
        rng = np.random.default_rng(5)
        for t in range(trials):
            width = int(rng.integers(4, 10))
            n = int(rng.integers(100, 200))
            counts = np.bincount(rng.integers(0, width, n), minlength=width)
            s = make_sketch(counts, width=width)
            exact = pyp.pyp_coverage_exact(s, params, 0)
            seed = 1000 + t
            plain, _ = pyp.pyp_coverage_mc(s, params, 0, 150, seed, debias="none")
            tin, _ = pyp.pyp_coverage_mc(s, params, 0, 150, seed, debias="tin")
            if abs(tin - exact) <= abs(plain - exact):
                wins += 1
        assert wins >= 0.6 * trials, wins


class TestAsymptotic:
    def test_constant_value(self):
        params = PriorParams(0.5, 1.0)
        const = 2.0 * math.gamma(3.5) / math.gamma(3.0)
        got = pyp.pyp_missing_asymptotic(100, 4, params)
        assert math.isclose(got, const / 10.0, rel_tol=1e-12)

    def test_decreasing_in_n(self):
        params = PriorParams(0.3, 2.0)
        values = [pyp.pyp_missing_asymptotic(n, 8, params) for n in (10, 100, 1000)]
        assert values[0] > values[1] > values[2]

    def test_power_law_scaling(self):
        params = PriorParams(0.3, 2.0)
        ratio = pyp.pyp_missing_asymptotic(400, 8, params) / pyp.pyp_missing_asymptotic(
            100, 8, params
        )
        assert math.isclose(ratio, 4.0 ** (0.3 - 1.0), rel_tol=1e-12)

    def test_requires_positive_discount(self):
        with pytest.raises(DomainError):
            pyp.pyp_missing_asymptotic(100, 8, PriorParams(0.0, 1.0))

    def test_exact_ratio_approaches_constant(self):
        # equal buckets, growing n: n^(1-alpha) times the exact missing-mass
        # estimate drifts toward the asymptotic constant
        alpha, theta, width = 0.5, 1.0, 4
        params = PriorParams(alpha, theta)
        const = pyp.pyp_missing_asymptotic(1, width, params)
        gaps = []
        for n in (40, 100, 400):
            s = make_sketch([n // width] * width, width=width)
            ratio = n ** (1 - alpha) * pyp.pyp_coverage_exact(s, params, 0)
            gaps.append(abs(ratio - const))
        assert gaps[0] > gaps[1] > gaps[2]


class TestWassersteinFit:
    def test_distance_to_self_is_zero(self):
        counts = np.array([4.0, 1.0, 0.0, 3.0])
        assert pyp.sorted_count_distance(counts, counts) == 0.0

    def test_distance_requires_equal_width(self):
        with pytest.raises(DomainError):
            pyp.sorted_count_distance([1.0, 2.0], [1.0])

    def test_small_grid_smoke(self):
        smp = sample_pyp_sequence(PriorParams(0.0, 20.0), 2000, seed=3)
        spec = HashSpec.random(32, seed=4)
        s = Sketch(spec)
        s.insert_ids(smp.symbols)
        fit = pyp.wasserstein_fit(
            s,
            alpha_grid=[0.0, 0.4, 0.8],
            theta_grid=[2.0, 20.0, 200.0],
            num_reps=3,
            n_sim=1000,
            seed=9,
            refine_theta=0,
            rescore_top=0,
        )
        assert fit.prior.provenance == "eb-wasserstein"
        assert fit.surface.shape == (9, 3)
        assert fit.prior.alpha in (0.0, 0.4, 0.8)

    def test_empty_sketch_rejected(self):
        with pytest.raises(DomainError):
            pyp.wasserstein_fit(make_sketch([0, 0]))

    def test_replicate_count_validated(self):
        with pytest.raises(DomainError):
            pyp.wasserstein_fit(make_sketch([3, 1]), num_reps=0)

    @staticmethod
    def per_stream_surface(sketch, alpha_grid, theta_grid, num_reps, n_sim, seed,
                           refine_theta, rescore_top):
        """The fit's surface rebuilt one stream at a time: sample, sketch, compare."""
        target = np.sort(sketch.counts.astype(float)) * (n_sim / sketch.n)
        rep_seeds = seed.spawn(4 * num_reps)

        def mean_distance(a, t, reps):
            dist = 0.0
            for rs in rep_seeds[:reps]:
                sim = sample_pyp_sequence(
                    PriorParams(a, t), n_sim, np.random.default_rng(rs), with_weights=False
                )
                shadow = Sketch(spec=sketch.spec)
                shadow.insert_ids(sim.symbols)
                dist += pyp.sorted_count_distance(shadow.counts, target)
            return dist / reps

        scores = {(a, t): mean_distance(a, t, num_reps) for a in alpha_grid for t in theta_grid}
        t_best = min(scores, key=lambda at: (scores[at], at))[1]
        extra = np.logspace(
            math.log10(t_best) - 0.5, math.log10(t_best) + 0.5, refine_theta + 2
        )[1:-1]
        for a in alpha_grid:
            for t in map(float, extra):
                if (a, t) not in scores:
                    scores[(a, t)] = mean_distance(a, t, num_reps)
        shortlist = sorted(scores, key=lambda at: (scores[at], at))[:rescore_top]
        for at in shortlist:
            scores[at] = mean_distance(*at, 4 * num_reps)
        return np.array(sorted((a, t, d) for (a, t), d in scores.items()))

    @pytest.mark.parametrize("fit_seed", [9, 10])
    @pytest.mark.parametrize("cells", [None, 7 * 300])
    def test_surface_matches_per_stream_fit(self, fit_seed, cells, monkeypatch):
        # cells = 7 rows of 300 observations forces batches that split replicates
        if cells is not None:
            monkeypatch.setattr(pyp, "_LOCKSTEP_CELLS", cells)
        smp = sample_pyp_sequence(PriorParams(0.5, 20.0), 1500, seed=3, with_weights=False)
        s = Sketch(HashSpec.random(32, seed=4))
        s.insert_ids(smp.symbols)
        grid = dict(alpha_grid=[0.0, 0.5, 0.9], theta_grid=[0.1, 20.0, 1e5])
        kw = dict(num_reps=2, n_sim=300, refine_theta=2, rescore_top=3)
        # spawn is stateful: each fit gets its own SeedSequence
        fit = pyp.wasserstein_fit(s, seed=np.random.SeedSequence(fit_seed), **grid, **kw)
        want = self.per_stream_surface(s, seed=np.random.SeedSequence(fit_seed), **grid, **kw)
        assert np.array_equal(fit.surface, want)
        best = min(want.tolist(), key=lambda row: (row[2], row[0], row[1]))
        assert (fit.prior.alpha, fit.prior.theta) == (best[0], best[1])


class TestReport:
    def test_exact_report_consistency(self):
        s = make_sketch([4, 2, 0, 1])
        params = PriorParams(0.5, 2.0)
        rep = pyp.pyp_report(s, params=params)
        assert rep.method == "pyp-exact"
        assert abs(sum(rep.coverage.values()) - 1.0) < 1e-8
        assert abs(rep.distinct - sum(rep.freq_counts.values())) < 1e-8

    def test_mc_report_has_stderr(self):
        s = make_sketch([3, 1])
        rep = pyp.pyp_report(
            s, params=PriorParams(0.5, 1.0), method="mc", mc_samples=2000, r_max=1, seed=7
        )
        assert rep.method == "pyp-mc"
        assert set(rep.mc_stderr) == {0, 1}

    def test_asymptotic_report(self):
        s = make_sketch([50, 50], width=2)
        rep = pyp.pyp_report(s, params=PriorParams(0.5, 1.0), method="asymptotic", r_max=0)
        assert rep.method == "pyp-asymptotic"
        assert rep.distinct is None
        assert 0.0 < rep.coverage[0] < 1.0

    def test_zero_discount_requires_dp_route(self):
        with pytest.raises(DomainError):
            pyp.pyp_report(make_sketch([2, 1]), params=PriorParams(0.0, 1.0))

    def test_exact_cap_checked_before_the_fit(self, monkeypatch):
        def fit_must_not_run(*args, **kwargs):
            raise AssertionError("the fit ran on an over-cap sketch")

        monkeypatch.setattr(pyp, "wasserstein_fit", fit_must_not_run)
        with pytest.raises(pyp.ExactCapError, match="Monte Carlo"):
            pyp.pyp_report(make_sketch([1500, 1000]), fit="eb-wasserstein", method="exact")
