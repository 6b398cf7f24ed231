"""Two-parameter estimators: brute-force equivalence, identities, MC, fit."""

import itertools
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from bnpsketch import dp, numkit, pyp
from bnpsketch.genmodel import (
    PriorParams,
    crp_bucket_counts,
    distinct_chain,
    rng_from,
    sample_distinct_pairs,
    sample_pyp_sequence,
)
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
from bnpsketch.report import SpecError
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


def convolution_oracle(counts, width, alpha, theta):
    """The exact engine as grouped log-space convolutions, O(U n^2).

    Returns (W, log_profile, loglik): W[t] = log of the sum of the products
    of per-bucket coefficients / J^t over the assignments of t latent
    blocks; the profile's leave-one-out numerators come from one reverse
    sweep of correlations over the groups of equal counts.
    """
    n = int(sum(counts))
    values, mult = np.unique([int(c) for c in counts if c > 0], return_counts=True)
    table = GfcTable(alpha)
    log_j = math.log(width)
    per_count = [table.row(c) - np.arange(c + 1) * log_j for c in values.tolist()]
    powers = []  # g_c^{*(m-1)}
    for g, m in zip(per_count, mult.tolist()):
        power = np.array([0.0])
        for _ in range(m - 1):
            power = log_convolve(power, g)
        powers.append(power)
    prefix = [np.array([0.0])]
    for g, power in zip(per_count, powers):
        prefix.append(log_convolve(prefix[-1], log_convolve(power, g)))
    total = prefix[-1]

    def log_rf(a):
        """log (a)_(t), t = 0..n, by compensated summation: a plain cumsum drifts by 1e-10."""
        out, run, comp = [0.0], 0.0, 0.0
        for t in range(n):
            term = math.log(a + t)
            nxt = run + term
            comp += (run - nxt) + term if abs(run) >= abs(term) else (term - nxt) + run
            run = nxt
            out.append(run + comp)
        return np.array(out)

    logf_num = log_rf(1.0 + theta / alpha)
    log_den = logsumexp(total + log_rf(theta / alpha))
    numerator = [None] * values.size
    acc = logf_num  # f_num correlated with every group above k
    for k in reversed(range(values.size)):
        b = log_correlate(powers[k], acc)
        numerator[k] = log_correlate(prefix[k], b)
        acc = log_correlate(per_count[k], b)
    c_max = int(values.max(initial=0))
    profile = np.full(c_max + 1, -np.inf)
    for r in range(c_max + 1):
        log_pre = (
            math.log(theta / width) + log_rising_factorial(1.0 - alpha, r) - math.log(theta + n)
        )
        if r == 0:
            log_num = math.log(width) + logsumexp(total + logf_num)
        else:
            terms = []
            for k in range(int(np.searchsorted(values, r)), values.size):
                c = int(values[k])
                g_repl = table.row(c - r) - np.arange(c - r + 1) * log_j
                log_binom = math.lgamma(c + 1) - math.lgamma(r + 1) - math.lgamma(c - r + 1)
                terms.append(
                    math.log(mult[k]) + log_binom + logsumexp(g_repl + numerator[k][: c - r + 1])
                )
            log_num = logsumexp(terms)
        profile[r] = log_pre + log_num - log_den
    loglik = (
        math.lgamma(n + 1)
        - sum(m * math.lgamma(c + 1) for c, m in zip(values.tolist(), mult.tolist()))
        - log_rising_factorial(theta, n)
        + log_den
    )
    return total, profile, loglik


def _shifted_moments(log_x):
    shift = float(np.max(log_x))
    if shift == -np.inf:
        return 0.0, 0.0
    return shift, float(np.mean(np.exp(log_x - shift)))


def per_order_mc_reference(sketch, params, r, num_samples, seed, debias="tin"):
    """The single-order Monte Carlo estimator, one chain draw per call.

    Every bucket's chains are drawn under the prior scale theta with
    ``sample_distinct_pairs`` and kept; each bucket's ratio is Tin-corrected
    on its own and the corrected ratios are summed with their weights.
    """
    values = np.asarray(sketch.counts, dtype=np.int64)
    c_max = int(values.max(initial=0))
    n, width = sketch.n, sketch.spec.width
    theta, alpha = params.theta, params.alpha
    if r > c_max:
        return 0.0, 0.0
    rng = rng_from(seed)
    log_rf_ratio = log_rising_factorial_prefix(theta / alpha, c_max)
    log_f_den = log_rising_factorial_prefix(theta / alpha, n)
    log_f_num = log_rising_factorial_prefix(1.0 + theta / alpha, n)
    log_theta_rf = log_rising_factorial_prefix(theta, c_max)
    log_j = math.log(width)
    t_total = np.zeros(num_samples, dtype=np.int64)
    s_total = np.zeros(num_samples)
    stored = []
    for c in values[values > 0].tolist():
        k_cr, k_c = sample_distinct_pairs(c, r if c >= r else 0, params, num_samples, rng)
        t_total += k_c
        s_total += log_rf_ratio[k_c]
        if c >= r:
            stored.append((c, k_cr, k_c))
    log_zden = log_f_den[t_total] - t_total * log_j - s_total
    den_shift, den_mean = _shifted_moments(log_zden)
    zden_sh = np.exp(log_zden - den_shift)
    var_den = float(np.var(zden_sh, ddof=1))
    log_prefactor = (
        math.log(theta / width)
        + float(log_rising_factorial_prefix(1.0 - alpha, max(r, 1))[r])
        - math.log(theta + n)
    )

    def corrected_ratio(log_znum):
        num_shift, num_mean = _shifted_moments(log_znum)
        if num_mean == 0.0:
            return 0.0
        value = math.exp(num_shift - den_shift) * num_mean / den_mean
        if debias == "tin":
            znum_sh = np.exp(log_znum - num_shift)
            cov = float(np.cov(znum_sh, zden_sh, ddof=1)[0, 1])
            value *= 1.0 + (
                cov / (num_samples * num_mean * den_mean)
                - var_den / (num_samples * den_mean**2)
            )
        return value

    total = 0.0
    log_agg = np.full(num_samples, -np.inf)
    if r == 0:
        log_znum = log_f_num[t_total] - t_total * log_j - s_total
        total = width * corrected_ratio(log_znum)
        log_agg = math.log(width) + log_znum
    else:
        for c, k_cr, k_c in stored:
            t_j = t_total - k_c + k_cr
            s_j = s_total - log_rf_ratio[k_c] + log_rf_ratio[k_cr]
            log_znum = log_f_num[t_j] - t_j * log_j - s_j
            logw = (
                math.lgamma(c + 1)
                - math.lgamma(r + 1)
                - math.lgamma(c - r + 1)
                + log_theta_rf[c - r]
                - log_theta_rf[c]
            )
            total += math.exp(logw) * corrected_ratio(log_znum)
            np.logaddexp(log_agg, logw + log_znum, out=log_agg)
    agg_shift, agg_mean = _shifted_moments(log_agg)
    stderr = 0.0
    if agg_mean > 0.0:
        agg_sh = np.exp(log_agg - agg_shift)
        residuals = agg_sh - agg_mean / den_mean * zden_sh
        stderr = (
            math.exp(log_prefactor + agg_shift - den_shift)
            * math.sqrt(float(np.var(residuals, ddof=1)) / num_samples)
            / den_mean
        )
    return math.exp(log_prefactor) * total, stderr


def count_walks(monkeypatch) -> list:
    """The counts of the chains ``pyp`` walks from now on, one entry per walk."""
    walked = []

    def counting_chain(c, params, size, rng, **kwargs):
        walked.append(c)
        return distinct_chain(c, params, size, rng, **kwargs)

    monkeypatch.setattr(pyp, "distinct_chain", counting_chain)
    return walked


def must_not_run(*args, **kwargs):
    raise AssertionError("ran past a refusal")


def assert_rel_close(got, want, rel, floor=0.0):
    assert abs(got - want) <= rel * max(abs(want), floor), (got, want)


class TestBlockWeights:
    def test_single_count_sequence(self):
        w = pyp.block_weights([1], 0.5, width=4)
        assert w.values.tolist() == [1] and w.multiplicity.tolist() == [1]
        assert w.per_count[0][0] == -np.inf
        assert math.isclose(math.exp(w.per_count[0][1]), 0.5 / 4, rel_tol=1e-12)

    def test_two_singletons_top_weight(self):
        total, _, _ = convolution_oracle([1, 1], 2, 0.5, 1.0)
        assert math.isclose(math.exp(total[2]), 1.0 / 16.0, rel_tol=1e-12)

    def test_total_length_and_zero_head(self):
        total, _, _ = convolution_oracle([3, 2], 2, 0.4, 1.0)
        assert total.size == 6
        assert total[0] == -np.inf

    def test_leave_one_out_matches_direct_rebuild(self):
        counts = [3, 1, 2, 3, 0, 1, 1]
        params = PriorParams(0.3, 2.0)
        engine = pyp._ExactEngine(make_sketch(counts, width=7), params)
        w = engine.weights
        assert w.values.tolist() == [1, 2, 3]
        assert w.multiplicity.tolist() == [3, 1, 2]
        table = GfcTable(0.3)
        logf_num = log_rising_factorial_prefix(1.0 + params.theta / params.alpha, sum(counts))
        for k, c in enumerate(w.values.tolist()):
            rest = list(counts)
            rest.remove(c)
            direct = np.array([0.0])
            for c_s in rest:
                direct = log_convolve(direct, table.row(c_s) - np.arange(c_s + 1) * math.log(7))
            want = log_correlate(direct, logf_num)
            np.testing.assert_allclose(engine._numerator(k)[: c + 1], want, atol=1e-10)

    def test_cap(self, monkeypatch):
        # one bucket of 10^6: 10^6 + 1 rows of 257 columns pass the table's budget
        monkeypatch.setattr(pyp, "_gfc_rows", must_not_run)
        with pytest.raises(pyp.ExactCapError):
            pyp.block_weights([10**6, 10], 0.5, width=2)


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


def single_bucket_log_profile(c, alpha, theta):
    """Closed form at J = 1: theta/(theta+c) (1-alpha)_(r) C(c, r) (theta+alpha)_(c-r) / (theta)_(c)."""

    def log_rf(a, u):
        return math.lgamma(a + u) - math.lgamma(a)

    return np.array([
        math.log(theta / (theta + c)) + log_rf(1.0 - alpha, r)
        + math.lgamma(c + 1) - math.lgamma(r + 1) - math.lgamma(c - r + 1)
        + log_rf(theta + alpha, c - r) - log_rf(theta, c)
        for r in range(c + 1)
    ])


class TestQuadratureEngine:
    """The integral engine against the convolution oracle and closed forms."""

    @staticmethod
    def assert_matches_oracle(sketch, alpha, theta, atol=1e-10):
        counts = sketch.counts.astype(np.int64).tolist()
        _, want, want_ll = convolution_oracle(counts, sketch.spec.width, alpha, theta)
        engine = pyp._ExactEngine(sketch, PriorParams(alpha, theta))
        got = engine.log_profile(engine.c_max)
        assert np.array_equal(np.isfinite(got), np.isfinite(want))
        live = np.isfinite(want)
        assert np.max(np.abs(got[live] - want[live])) <= atol
        assert_rel_close(engine.loglik(), want_ll, 1e-10, floor=1.0)

    @pytest.mark.parametrize("alpha", [0.05, 0.5, 0.95])
    def test_drawn_sketches_match_oracle(self, alpha):
        # every theta from 0.01 to 1e5, every width and n up to 8000 once per alpha
        sizes = [50, 500, 2000, 8000]
        for i, theta in enumerate([0.01, 1.0, 100.0, 1e5]):
            width, n = (16, 128, 1024)[i % 3], sizes[(i + int(20 * alpha)) % 4]
            seed = 1000 * i + int(100 * alpha)
            s = Sketch(HashSpec.random(width, seed))
            s.insert_ids(sample_pyp_sequence(PriorParams(alpha, theta), n, seed, with_weights=False).symbols)
            self.assert_matches_oracle(s, alpha, theta)

    @pytest.mark.parametrize("counts,width,alpha,theta", [
        # the node step: 1/(3 sqrt(x*)), not sigma/3 (7.5e-7 off)
        pytest.param([0, 0, 5, 0], 4, 0.95, 0.01, id="step"),
        # the peak sits on the bracket's upper end, log(s + n)
        pytest.param([7], 1, 0.95, 0.01, id="peak"),
        # the block counts' means move with u: the tail check widens the grid (7e-7 off)
        pytest.param([91, 94, 97, 98, 98, 103, 114, 115, 116, 116, 137, 138, 142, 157, 161, 223],
                     16, 0.95, 1.0, id="moving-means"),
    ])
    def test_rule_cases_match_oracle(self, counts, width, alpha, theta):
        self.assert_matches_oracle(make_sketch(counts, width=width), alpha, theta)

    @pytest.mark.parametrize("alpha", [0.75, 0.95])
    @pytest.mark.parametrize("theta", [0.01, 100.0])
    def test_single_bucket_closed_form(self, alpha, theta):
        # at theta = 100, alpha = 0.95 order 2000 needs the grid's left end at
        # the peak of the leave-one-out integrand, far left of the main peak
        engine = pyp._ExactEngine(make_sketch([2000]), PriorParams(alpha, theta))
        want = single_bucket_log_profile(2000, alpha, theta)
        np.testing.assert_allclose(engine.log_profile(2000), want, rtol=0, atol=1e-9)

    def test_node_density_doubling_moves_nothing(self, monkeypatch):
        sketches = [
            (make_sketch([0, 0, 5, 0]), PriorParams(0.95, 0.01)),
            (make_sketch([300, 2, 40, 1, 1, 7], width=8), PriorParams(0.5, 10.0)),
            (make_sketch([2000]), PriorParams(0.75, 0.01)),
        ]
        want = [pyp._ExactEngine(s, p).log_profile(int(s.counts.max())) for s, p in sketches]
        monkeypatch.setattr(pyp, "_NODE_DENSITY", 2 * pyp._NODE_DENSITY)
        for (s, p), w in zip(sketches, want):
            got = pyp._ExactEngine(s, p).log_profile(int(s.counts.max()))
            assert np.max(np.abs(got - w)) < 1e-10

    def test_report_at_n_8000_matches_oracle(self):
        # c_max, not n, bounds the engine: a drawn sketch of n = 8000 runs as it is
        s = Sketch(HashSpec.random(128, 81))
        s.insert_ids(sample_pyp_sequence(PriorParams(0.5, 10.0), 8000, 80, with_weights=False).symbols)
        rep = pyp.pyp_report(s, params=PriorParams(0.5, 10.0))
        _, want, _ = convolution_oracle(s.counts.astype(np.int64).tolist(), 128, 0.5, 10.0)
        with np.errstate(divide="ignore"):
            got = np.log([rep.coverage[r] for r in range(want.size)])
        assert np.array_equal(np.isfinite(got), np.isfinite(want))
        live = np.isfinite(want)
        assert np.max(np.abs(got[live] - want[live])) <= 1e-10

    @pytest.mark.parametrize("counts,alpha,theta", [
        pytest.param([2000], 0.95, 0.01, id="one-bucket"),
        pytest.param(list(range(1, 301)), 0.5, 10.0, id="ladder"),
    ])
    def test_blocks_of_orders_do_not_change_the_profile(self, counts, alpha, theta, monkeypatch):
        # 2^11 cells: one order per block of [2000], a few per block of the ladder
        engine = pyp._ExactEngine(make_sketch(counts), PriorParams(alpha, theta))
        want = engine.log_profile(max(counts))
        monkeypatch.setattr(pyp, "_PROFILE_CELLS", 1 << 11)
        assert np.array_equal(engine.log_profile(max(counts)), want)

    @pytest.mark.parametrize("counts,alpha,theta,cells", [
        pytest.param([2000], 0.95, 0.01, 1 << 11, id="one-bucket"),
        # 6 356 nodes in blocks of 5 for the row of 2 001 entries: the last would hold one
        pytest.param([2000], 0.95, 0.01, 5 * 2001, id="lone-node"),
        pytest.param(list(range(1, 301)), 0.5, 10.0, 1 << 11, id="ladder"),
    ])
    def test_blocks_of_nodes_do_not_change_the_engine(self, counts, alpha, theta, cells, monkeypatch):
        # node sums two or a few nodes at a time, numerators one or a few orders at
        # a time, each bit for bit that of the whole grid
        params, c_max = PriorParams(alpha, theta), max(counts)
        want = pyp._ExactEngine(make_sketch(counts), params)
        node_blocks = []

        def spy(xs, axis=None):
            if axis == 0:
                node_blocks.append(xs.shape[1])
            return logsumexp(xs, axis)

        monkeypatch.setattr(pyp, "_PROFILE_CELLS", cells)
        monkeypatch.setattr(pyp, "logsumexp", spy)
        got = pyp._ExactEngine(make_sketch(counts), params)
        # numpy adds a column in row order within a block of two or more nodes, but
        # a lone column pairwise
        assert min(node_blocks) >= 2
        assert np.array_equal(got.log_profile(c_max), want.log_profile(c_max))
        assert got.loglik() == want.loglik()

    def test_worst_single_bucket_memory_is_bounded(self):
        # [2000] at (0.95, 0.01): V = 2001 rows by some 6 400 nodes, 97 MB per
        # whole-grid array; in blocks the engine and its profile peak near 70 MB
        import tracemalloc

        tracemalloc.start()
        try:
            pyp.pyp_report(make_sketch([2000]), params=PriorParams(0.95, 0.01))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20

    def test_profile_past_the_old_count_limit(self, monkeypatch):
        # c_max 13 663: the table keeps 257 of 13 664 columns; the whole profile sums to 1
        # and a grid of twice the nodes moves no order by 1e-9 (2.3e-10 measured)
        s = Sketch(HashSpec.random(128, 1))
        params = PriorParams(0.5, 10.0)
        s.insert_ids(sample_pyp_sequence(params, 100_000, 1, with_weights=False).symbols)
        engine = pyp._ExactEngine(s, params)
        assert engine.c_max == 13_663 and engine.weights.table.shape == (13_664, 257)
        want = engine.log_profile(engine.c_max)
        assert abs(np.exp(want).sum() - 1.0) < 1e-8
        monkeypatch.setattr(pyp, "_NODE_DENSITY", 2 * pyp._NODE_DENSITY)
        got = pyp._ExactEngine(s, params).log_profile(engine.c_max)
        live = np.isfinite(want)
        assert np.array_equal(np.isfinite(got), live)
        assert np.max(np.abs(got[live] - want[live])) < 1e-9

    def test_table_doubles_and_frees_the_old_one(self, monkeypatch):
        # [2000] at (0.95, 0.01) keeps nearly the whole row: V doubles from 256 to 2000,
        # and each table is freed before the wider one is built
        import weakref

        built = []

        def spy(alpha, u_max, cols):
            assert all(ref() is None for ref in built)
            table = numkit._gfc_rows(alpha, u_max, cols)
            built.append(weakref.ref(table))
            return table

        monkeypatch.setattr(pyp, "_gfc_rows", spy)
        engine = pyp._ExactEngine(make_sketch([2000]), PriorParams(0.95, 0.01))
        assert len(built) == 4 and engine.weights.table.shape == (2001, 2001)

    def test_refusal_while_the_table_doubles(self, monkeypatch):
        # a budget of 2001 x 257 cells: [2000] passes the first check, and the wider
        # table it needs is refused before it is built
        widths = []

        def spy(alpha, u_max, cols):
            widths.append(cols)
            return numkit._gfc_rows(alpha, u_max, cols)

        monkeypatch.setattr(pyp, "_EXACT_MAX_CELLS", 2001 * 257)
        monkeypatch.setattr(pyp, "_gfc_rows", spy)
        with pytest.raises(pyp.ExactCapError, match=re.escape("(2001 rows x 513 columns)")):
            pyp.pyp_report(make_sketch([2000]), params=PriorParams(0.95, 0.01))
        assert widths == [257]

    def test_order_is_read_from_the_profile_up_to_it(self):
        s = make_sketch([9, 4, 4, 1, 0], width=8)
        params = PriorParams(0.5, 3.0)
        rep = pyp.pyp_report(s, params=params, r_max=12)
        for r in range(13):
            assert pyp.pyp_coverage_exact(s, params, r) == rep.coverage[r]


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

    def test_exact_cap_names_the_budget(self):
        want = ("exact mode needs a coefficient table of 257000257 cells (1000001 rows x 257 "
                "columns) for a largest bucket count of 1000000; its budget is 67108864 cells "
                "(512 MB)")
        with pytest.raises(pyp.ExactCapError, match=re.escape(want)) as err:
            pyp.pyp_coverage_exact(make_sketch([10**6]), PriorParams(0.5, 1.0), 0)
        # MC is no stand-in there: measured 28% off at a largest count of 2 901
        assert "--method mc" not in str(err.value) and "instead" not in str(err.value)


class TestParameterRanges:
    """The estimators check theta and alpha against the estimator table."""

    ESTIMATORS = {
        "loglik": pyp.pyp_loglik,
        "coverage_exact": lambda s, p: pyp.pyp_coverage_exact(s, p, 1),
        "coverage_mc": lambda s, p: pyp.pyp_coverage_mc(s, p, 0, num_samples=200, seed=0)[0],
    }

    @pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
    @pytest.mark.parametrize("alpha,theta,rule", [
        (0.5, -0.2, "theta must be > 0"),
        (0.5, 0.0, "theta must be > 0"),
        (0.0, 1.0, "alpha must lie in (0, 1)"),
    ])
    def test_parameter_ranges_from_the_table(self, estimator, alpha, theta, rule):
        s = make_sketch([3, 1, 0])
        with pytest.raises(DomainError, match=re.escape(rule)) as err:
            self.ESTIMATORS[estimator](s, PriorParams(alpha, theta))
        assert not isinstance(err.value, SpecError)  # out of range: CLI exit 3, not a usage error
        assert math.isfinite(self.ESTIMATORS[estimator](s, PriorParams(0.5, 1.0)))


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

    def test_sample_ceiling(self, monkeypatch):
        # refused before the generator is made, so nothing of 2^24 samples is drawn or allocated
        monkeypatch.setattr(pyp, "rng_from", must_not_run)
        with pytest.raises(DomainError, match="--mc-samples"):
            pyp.pyp_coverage_mc(make_sketch([2, 1]), PriorParams(0.5, 1.0), 0, 2**24 + 1, seed=0)

    def test_debias_validation(self):
        with pytest.raises(DomainError):
            pyp.pyp_coverage_mc(make_sketch([2]), PriorParams(0.5, 1.0), 0, 1000, 0, debias="x")

    @pytest.mark.parametrize("counts,samples", [([2**31, 5], 200), ([2**63 - 1], 200),
                                                ([2**21, 3], 1000)],
                             ids=["n-2^31", "n-2^63", "steps-2^31"])
    def test_work_past_limit_refused_before_allocation(self, monkeypatch, counts, samples):
        # the f tables hold n + 1 floats each, and the walk takes sum(c - 1) steps per sample
        monkeypatch.setattr(pyp, "log_rising_factorial_prefix", must_not_run)
        monkeypatch.setattr(pyp, "wasserstein_fit", must_not_run)
        s, params = make_sketch(counts), PriorParams(0.5, 1.0)
        with pytest.raises(DomainError, match="--mc-samples"):
            pyp.pyp_coverage_mc(s, params, 0, samples, seed=0)
        for kw in (dict(params=params), dict(fit="eb-wasserstein")):
            with pytest.raises(DomainError, match="--mc-samples"):
                pyp.pyp_report(s, method="mc", r_max=3, mc_samples=samples, **kw)

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


    @pytest.mark.parametrize("alpha,theta", PARAM_GRID + [(0.5, 10.0)])
    @pytest.mark.parametrize("debias", ["tin", "none"])
    def test_matches_per_order_reference(self, rng, alpha, theta, debias):
        # one chain draw for all orders: bit for bit at r = 0, where nothing
        # is summed over buckets, and to roundoff at r >= 1, where the Tin
        # correction is applied to the weighted sum instead of to each term
        params = PriorParams(alpha, theta)
        sketches = []
        for _ in range(3):
            width = int(rng.integers(2, 40))
            counts = np.bincount(rng.integers(0, width, int(rng.integers(1, 60))), minlength=width)
            sketches.append(counts)
        # a wide sketch of mostly count-1 buckets, whose chains the profile
        # never walks.  Its order-1 numerator is nearly proportional to Z', so
        # the SE's residuals A - R*B cancel to ~1e-5 of A and roundoff in A
        # moves the SE by up to ~2e-10 relative (the unfolded profile too)
        sketches.append(np.bincount(rng.integers(0, 4096, 200), minlength=4096))
        for trial, counts in enumerate(sketches):
            s = make_sketch(counts, width=counts.size)
            se_rel = 1e-12 if trial < 3 else 1e-9
            for r in range(int(counts.max()) + 2):
                seed = 100 * trial + r
                want = per_order_mc_reference(s, params, r, 400, seed, debias)
                got = pyp.pyp_coverage_mc(s, params, r, 400, seed, debias=debias)
                if r == 0:
                    assert got == want
                else:
                    assert_rel_close(got[0], want[0], 1e-12)
                    assert_rel_close(got[1], want[1], se_rel)
                # a generator is left where the draws end, as one pass leaves it
                gen_ref, gen = np.random.default_rng(seed), np.random.default_rng(seed)
                per_order_mc_reference(s, params, r, 400, gen_ref, debias)
                pyp.pyp_coverage_mc(s, params, r, 400, gen, debias=debias)
                assert gen.bit_generator.state == gen_ref.bit_generator.state

    def test_count_past_signed_range_is_domain_error(self):
        s = Sketch(HashSpec(a=1, b=0, width=3, symbol_seed=0),
                   counts=np.array([2**63, 5, 0], dtype=np.uint64), n=2**63 + 5)
        params = PriorParams(0.5, 1.0)
        with pytest.raises(DomainError, match="2\\^63"):
            pyp.pyp_coverage_mc(s, params, 0, 1000, seed=0)
        with pytest.raises(DomainError, match="2\\^63"):
            pyp.pyp_report(s, params=params, method="mc", r_max=0, mc_samples=1000)


class TestMonteCarloProfile:
    """``pyp_report(method="mc")``: one draw of the chains under theta/J for every order."""

    @pytest.mark.parametrize("theta", [1.0, 10.0, 100.0])
    def test_every_order_within_three_stderr_of_exact(self, theta):
        # at J = 128 the prior-scale proposal misses the weight at r >= 1
        # (coverages several times the exact value, with small SEs); the
        # per-bucket scale must agree at every order of every sketch
        params = PriorParams(0.5, theta)
        misses = []
        for ss in np.random.SeedSequence(31).spawn(4):
            s_data, s_hash, s_mc = ss.spawn(3)
            sk = Sketch(HashSpec.random(128, s_hash))
            sk.insert_ids(sample_pyp_sequence(params, 30, s_data).symbols)
            exact = pyp.pyp_report(sk, params=params)
            mc = pyp.pyp_report(sk, params=params, method="mc", mc_samples=50_000, seed=s_mc)
            assert sorted(mc.coverage) == list(range(int(sk.counts.max()) + 1))
            for r, want in exact.coverage.items():
                got, se = mc.coverage[r], mc.mc_stderr[r]
                if abs(got - want) > 3 * se + 1e-12 * max(1.0, want):
                    misses.append((r, got, want, se))
        assert not misses, misses

    def test_orders_past_the_float_range_of_the_prefactor(self):
        # (1 - alpha)_(r) exceeds 1e308 from r = 171 at alpha = 0.5; the
        # prefactor is folded into the log-space sum, so high orders stay finite
        s = make_sketch([400, 3, 1], width=4)
        params = PriorParams(0.5, 1.0)
        exact = pyp.pyp_report(s, params=params)
        mc = pyp.pyp_report(s, params=params, method="mc", mc_samples=2000, seed=1)
        for r, want in exact.coverage.items():
            assert abs(mc.coverage[r] - want) <= 3 * mc.mc_stderr[r] + 1e-12, r
        est, se = pyp.pyp_coverage_mc(s, params, 300, 1000, seed=2)
        assert 0.0 < est < 1.0 and 0.0 < se < 1.0

    @pytest.mark.parametrize("cells,share", [(1, 16), (2 * 1000, 16), (1, 1)])
    def test_blocks_of_orders_do_not_change_the_profile(self, cells, share, monkeypatch):
        # cells = 1 gives one order per block, 2000 two, and so does a kept
        # share of 1 (16 kept reads of 1000 bytes: two rows of 8000): each
        # block reads the chain values pass 1 kept, so nothing moves, the
        # work counter included
        s = make_sketch([7, 1, 0, 3, 5, 2, 1, 4], width=16)
        kw = dict(params=PriorParams(0.5, 3.0), method="mc", mc_samples=1000, seed=5)
        want = pyp.pyp_report(s, **kw).to_dict()
        monkeypatch.setattr(pyp, "_MC_CELLS", cells)
        monkeypatch.setattr(pyp, "_MC_KEPT_SHARE", share)
        walked = count_walks(monkeypatch)
        got = pyp.pyp_report(s, **kw).to_dict()
        del want["wall_time"], got["wall_time"]
        assert walked == [7, 3, 5, 2, 4]
        assert got["diagnostics"]["chain_steps"] == 6 + 2 + 4 + 1 + 3
        assert got == want

    def test_count_one_buckets_are_never_walked(self, monkeypatch):
        # a count-1 bucket's chain is K_1 = 1: its constant and its order-1
        # term need no walk; pass 1 walks each other bucket once, and pass 2
        # reads what pass 1 kept
        walked = count_walks(monkeypatch)
        s = make_sketch([1, 3, 1, 1, 2, 0, 1, 1], width=8)
        rep = pyp.pyp_report(s, params=PriorParams(0.5, 2.0), method="mc", mc_samples=500, seed=4)
        assert sorted(walked) == [2, 3]
        assert rep.diagnostics["chain_steps"] == 2 + 1
        assert rep.coverage[1] > 0.0 and rep.mc_stderr[1] > 0.0

    @pytest.mark.parametrize("cells", [1, 1000, 2000])
    def test_each_bucket_walked_once(self, cells, monkeypatch):
        # one order per block (1, 1000) or two (2000): the buckets are walked
        # once each, in bucket order, and the profile, its diagnostics and the
        # generator's end state are those of one block for every order
        s = make_sketch([12, 1, 0, 9, 2, 30, 1, 4], width=16)

        def profile():
            gen = np.random.default_rng(17)
            cov, se, diag = pyp._mc_profile(s, PriorParams(0.5, 3.0), range(32), 1000, gen, "tin", 3.0 / 16)
            return cov, se, diag, gen.bit_generator.state

        cov, se, diag, state = profile()
        monkeypatch.setattr(pyp, "_MC_CELLS", cells)
        walked = count_walks(monkeypatch)
        cov_r, se_r, diag_r, state_r = profile()
        assert walked == [12, 9, 2, 30, 4]
        assert diag["chain_steps"] == diag_r["chain_steps"] == 11 + 8 + 1 + 29 + 3
        assert list(cov) == list(cov_r) == list(range(32))
        assert np.array_equal(list(cov.values()), list(cov_r.values()))
        assert np.array_equal(list(se.values()), list(se_r.values()))
        for key, value in diag.items():
            want = list(value.values()) if isinstance(value, dict) else value
            got = list(diag_r[key].values()) if isinstance(value, dict) else diag_r[key]
            assert np.array_equal(got, want), key
        assert state_r == state

    def test_chain_steps_are_one_walk_per_bucket(self, monkeypatch):
        # at n = 1000, J = 128 and 2000 samples a profile to c_max spans
        # several blocks of 65 orders; each bucket is still walked once
        ss = np.random.SeedSequence(4000)
        s_data, s_hash = ss.spawn(2)
        sk = Sketch(HashSpec.random(128, s_hash))
        sk.insert_ids(sample_pyp_sequence(PriorParams(0.5, 1.0), 1000, s_data).symbols)
        counts = sk.counts.astype(np.int64)
        walked = count_walks(monkeypatch)
        rep = pyp.pyp_report(sk, params=PriorParams(0.5, 1.0), method="mc", mc_samples=2000, seed=6)
        assert int(counts.max()) > pyp._MC_CELLS // 2000
        assert walked == counts[counts > 1].tolist()
        assert rep.diagnostics["chain_steps"] == int(np.sum(counts[counts > 1] - 1))

    @pytest.mark.parametrize("c_max", [127, 128, 129, 255, 256, 32767, 32768])
    def test_kept_chain_values_at_small_int_limits(self, c_max):
        # pass 1 keeps K_c, which can equal c_max, in the smallest integer type
        # that holds c_max: at scale 1e12 almost every chain ends at c_max.  A
        # type too small wraps K_c, and the kept path would then part from the
        # reference, which reads K_c and K_(c-r) as int64 (roundoff: 1e-12 at c ~ 3e4)
        s = make_sketch([c_max, 3], width=2)
        params = PriorParams(0.5, 1e12)
        for _, k in distinct_chain(c_max, params, 100, np.random.default_rng(c_max)):
            pass
        assert (k == c_max).any()
        for r in (1, 2):
            got = pyp.pyp_coverage_mc(s, params, r, 100, seed=c_max + r)
            want = per_order_mc_reference(s, params, r, 100, c_max + r)
            assert_rel_close(got[0], want[0], 1e-10)

    def test_kept_reads_are_counted_before_any_draw(self, monkeypatch):
        # one bucket of count 257: a profile to c_max keeps K_257 and K_2..K_255,
        # 256 reads of 2 bytes a sample, at most 2^29 bytes: 2^20 samples
        monkeypatch.setattr(pyp, "distinct_chain", must_not_run)
        s = make_sketch([257, 0], width=2)
        assert pyp._check_mc_work(s, 1 << 20, range(258)) == (257, list(range(1, 258)))
        with pytest.raises(DomainError, match="--mc-samples.*--r-max.*exact"):
            pyp._check_mc_work(s, (1 << 20) + 1, range(258))
        # fewer orders keep fewer reads; r = 0 alone, or orders past c_max, keep none
        for orders in ([0], [300], [1], range(200)):
            pyp._check_mc_work(s, (1 << 20) + 1, orders)
        with pytest.raises(DomainError, match="chain reads"):
            pyp.pyp_report(s, params=PriorParams(0.5, 1.0), method="mc", mc_samples=(1 << 20) + 1)

    def test_workspace_bounds_the_memory_of_a_profile(self):
        # a profile to c_max = 11 at N = 10^5, J = 128: one order per block, so
        # every per-sample array is one of the workspace's 7 + 1 rows of N
        # floats, and the rest is the kept chain reads, one byte each, and
        # arrays of n or c_max entries (64 KB allow for them; one more array
        # of N floats would be 800 KB)
        num_samples = 100_000
        counts = [4, 1, 0, 1, 1, 0, 1, 1, 11] + [0] * 119
        s = make_sketch(counts, width=128)
        kw = dict(params=PriorParams(0.5, 1.0), method="mc", seed=3)
        pyp.pyp_report(s, mc_samples=1000, **kw)  # what a first call imports and caches is not the profile's
        _, live = pyp._check_mc_work(s, num_samples, range(12))
        kept = sum(pyp._kept_reads(c, live) for c in counts if c > 1) * num_samples
        tracemalloc.start()
        try:
            pyp.pyp_report(s, mc_samples=num_samples, **kw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 8 * num_samples + kept + (1 << 16), (peak, kept)

    def test_report_does_not_depend_on_the_blas_thread_count(self):
        # at N = 10^5 OpenBLAS splits a vector dot product across its threads, and a
        # different split rounds differently: every reduction of a report must not use it
        code = (
            "import json\n"
            "from bnpsketch import HashSpec, PriorParams, Sketch, pyp_report\n"
            "from bnpsketch.genmodel import sample_pyp_sequence\n"
            "s = Sketch(HashSpec.random(128, 5))\n"
            "s.insert_ids(sample_pyp_sequence(PriorParams(0.5, 10.0), 300, 6, with_weights=False).symbols)\n"
            "rep = pyp_report(s, params=PriorParams(0.5, 10.0), method='mc', mc_samples=100_000, seed=7)\n"
            "print(json.dumps({k: v for k, v in rep.to_dict().items() if k != 'wall_time'}))\n"
        )
        src = str(pathlib.Path(pyp.__file__).parents[1])
        outs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads}
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_trust_measures(self):
        s = make_sketch([4, 1, 0, 2, 1], width=8)
        rep = pyp.pyp_report(s, params=PriorParams(0.5, 2.0), method="mc", mc_samples=2000,
                             r_max=6, seed=3)
        d = rep.diagnostics
        assert set(d["ess"]) == set(d["max_weight_share"]) == set(range(5))
        for r in range(5):
            assert 1.0 <= d["ess"][r] <= 2000.0
            assert 1.0 / 2000 <= d["max_weight_share"][r] <= 1.0
        assert 1.0 <= d["den_ess"] <= 2000.0
        assert d["chain_steps"] == 3 + 1  # one walk each of the counts 4 and 2
        assert rep.coverage[5] == rep.coverage[6] == 0.0
        back = type(rep).from_json(rep.to_json())
        assert back.diagnostics == d

    def test_empty_sketch_matches_exact(self):
        # nothing is drawn: the missing mass is exactly 1 and the generator is untouched
        s = make_sketch([0] * 8)
        params = PriorParams(0.5, 1.0)
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        mc = pyp.pyp_report(s, params=params, method="mc", mc_samples=1000, seed=rng)
        exact = pyp.pyp_report(s, params=params)
        assert rng.bit_generator.state == state
        assert mc.coverage == exact.coverage == {0: 1.0}
        assert mc.distinct == exact.distinct == 0.0
        assert mc.freq_counts == exact.freq_counts

    def test_deterministic_reports_carry_no_diagnostics(self):
        s = make_sketch([4, 1, 0, 2, 1], width=8)
        rep = pyp.pyp_report(s, params=PriorParams(0.5, 2.0))
        assert rep.diagnostics == {} and "diagnostics" not in rep.to_dict()
        d = rep.to_dict()
        assert type(rep).from_dict(d).to_dict() == d


class TestWassersteinFit:
    def test_distance_to_self_is_zero(self):
        counts = np.array([4.0, 1.0, 0.0, 3.0])
        assert pyp.sorted_count_distance(counts, counts) == 0.0

    def test_distance_requires_equal_width(self):
        with pytest.raises(DomainError):
            pyp.sorted_count_distance([1.0, 2.0], [1.0])
        with pytest.raises(DomainError):
            pyp.sorted_count_distance(np.ones((3, 2)), [1.0])

    def test_batch_distance_equals_per_row_calls(self):
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 400, size=(200, 128))
        target = np.sort(rng.integers(0, 400, size=128)) * 0.37
        batch = pyp.sorted_count_distance(rows, target)
        assert batch.shape == (200,)
        assert batch.tolist() == [pyp.sorted_count_distance(row, target) for row in rows]
        assert pyp.sorted_count_distance(target, rows).tolist() == batch.tolist()
        assert isinstance(pyp.sorted_count_distance(rows[0], target), float)

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

    @pytest.mark.parametrize("kw", [dict(n_sim=20.7), dict(n_sim=True), dict(refine_theta=1.5),
                                    dict(rescore_top=-3), dict(refine_theta=-1), dict(num_reps=True),
                                    dict(num_reps=1.5), dict(num_reps=np.float64(2.0))])
    def test_integer_arguments_refused_before_simulating(self, monkeypatch, kw):
        # a bool or a float where an integer is read is refused, not truncated
        monkeypatch.setattr(pyp, "crp_bucket_counts", must_not_run)
        with pytest.raises(DomainError, match=next(iter(kw))):
            pyp.wasserstein_fit(make_sketch([30, 12, 0, 5]), **kw)

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
        # cells = 7 rows of 300 observations (2-byte ids) forces batches that split replicates
        if cells is not None:
            monkeypatch.setattr(pyp, "_LOCKSTEP_BYTES", 2 * cells)
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

    @pytest.mark.parametrize("batch_rows", [1, 7, 13])
    def test_surface_matches_across_batch_sizes(self, batch_rows, monkeypatch):
        # batches of a few rows start and end inside a replicate and span two of them
        monkeypatch.setattr(pyp, "lockstep_rows", lambda n, width, budget: batch_rows)
        smp = sample_pyp_sequence(PriorParams(0.5, 20.0), 1500, seed=3, with_weights=False)
        s = Sketch(HashSpec.random(32, seed=4))
        s.insert_ids(smp.symbols)
        grid = dict(alpha_grid=[0.0, 0.5, 0.9], theta_grid=[0.1, 20.0, 1e5])
        kw = dict(num_reps=2, n_sim=300, refine_theta=2, rescore_top=3)
        fit = pyp.wasserstein_fit(s, seed=np.random.SeedSequence(9), **grid, **kw)
        want = self.per_stream_surface(s, seed=np.random.SeedSequence(9), **grid, **kw)
        assert np.array_equal(fit.surface, want)

    def test_each_replicate_is_simulated_once(self, monkeypatch):
        # rescoring reuses the replicates of the grid and refinement stages
        rows = []

        def spy(alphas, thetas, reps, u, *args):
            rows.extend((a, t, u[r].tobytes()) for a, t, r in zip(alphas, thetas, reps))
            return crp_bucket_counts(alphas, thetas, reps, u, *args)

        monkeypatch.setattr(pyp, "crp_bucket_counts", spy)
        s = Sketch(HashSpec.random(32, seed=4))
        s.insert_ids(sample_pyp_sequence(PriorParams(0.5, 20.0), 1500, seed=3, with_weights=False).symbols)
        fit = pyp.wasserstein_fit(s, alpha_grid=[0.0, 0.5, 0.9], theta_grid=[0.1, 20.0, 1e5], num_reps=2,
                                  n_sim=300, refine_theta=2, rescore_top=3)
        assert len(rows) == len(set(rows)) == len(fit.surface) * 2 + 3 * (4 - 1) * 2


def fit_sketch(params, n, stream_seed, hash_seed):
    """A sketch at J = 128 of n observations drawn from the sequential sampler."""
    s = Sketch(HashSpec.random(128, hash_seed))
    s.insert_ids(sample_pyp_sequence(params, n, stream_seed, with_weights=False).symbols)
    return s


def without(report, *keys):
    return {k: v for k, v in report.to_dict().items() if k not in keys}


class TestReport:
    def test_numerators_built_only_when_read(self, monkeypatch):
        builds = []
        build = pyp._ExactEngine._numerator

        def counted(engine, k):
            builds.append(k)
            return build(engine, k)

        monkeypatch.setattr(pyp._ExactEngine, "_numerator", counted)
        s, params = make_sketch([5, 3, 3, 1, 0, 7, 1]), PriorParams(0.5, 10.0)
        p0 = pyp.pyp_report(s, params=params, r_max=0).coverage[0]
        pyp.pyp_distinct(s, params)
        assert pyp.pyp_coverage_exact(s, params, 0) == p0
        pyp.pyp_loglik(s, params)
        assert builds == []  # order 0 and the likelihood stop at the node sums
        full = pyp.pyp_report(s, params=params)
        assert sorted(builds) == [0, 1, 2, 3]  # one per distinct count: 1, 3, 5, 7
        assert full.coverage[0] == p0

    @pytest.mark.parametrize("method, kw", [("exact", {}), ("mc", dict(r_max=5, mc_samples=2000))])
    def test_wasserstein_fit_report(self, method, kw):
        # PY(0.5, 10) data fit at alpha = 0.3: the report is that of the fitted prior given,
        # its draws seeded alike, apart from the provenance
        s = fit_sketch(PriorParams(0.5, 10.0), 3000, 1, 101)
        rep = pyp.pyp_report(s, fit="eb-wasserstein", method=method, seed=0, **kw)
        assert (rep.method, rep.prior.alpha, rep.prior.provenance) == (f"pyp-{method}", 0.3, "eb-wasserstein")
        given = pyp.pyp_report(s, params=PriorParams(0.3, rep.prior.theta), method=method, seed=0, **kw)
        assert given.prior.theta == rep.prior.theta
        assert without(rep, "prior", "wall_time") == without(given, "prior", "wall_time")
        assert (rep.mc_stderr is None) == (method == "exact")

    @pytest.mark.parametrize("method", ["exact", "mc"])
    def test_wasserstein_fit_at_alpha_zero_is_the_dp_report(self, method):
        # DP(50) data fit at alpha = 0: the zero-discount report at the fitted theta, which
        # draws nothing under either method
        s = fit_sketch(PriorParams(0.0, 50.0), 4000, 0, 100)
        rep = pyp.pyp_report(s, fit="eb-wasserstein", method=method, mc_samples=1000, seed=0)
        assert (rep.method, rep.prior.alpha, rep.prior.provenance) == ("dp-exact", 0.0, "eb-wasserstein")
        assert math.isclose(rep.prior.theta, 46.4, rel_tol=1e-3)
        want = dp.dp_report(s, theta=rep.prior.theta)
        assert (rep.coverage, rep.distinct) == (want.coverage, want.distinct)
        assert without(rep, "prior", "wall_time") == without(want, "prior", "wall_time")
        assert rep.mc_stderr is None and rep.diagnostics == {}

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

    def test_zero_discount_requires_dp_route(self):
        with pytest.raises(DomainError):
            pyp.pyp_report(make_sketch([2, 1]), params=PriorParams(0.0, 1.0))

    @pytest.mark.parametrize("method", ["exact", "mc"])
    def test_orders_past_memory_name_r_max(self, method, monkeypatch):
        # 10^10 + 1 orders fit the array limit but would take 80 GB; they are
        # refused before a fit or a profile runs, with the text of dp's limit
        for name in ("wasserstein_fit", "_ExactEngine", "_mc_profile"):
            monkeypatch.setattr(pyp, name, must_not_run)
        s = make_sketch([5, 3])
        for kw in (dict(params=PriorParams(0.5, 1.0)), dict(fit="eb-wasserstein")):
            for r_max in (10**10, 1 << 24):
                with pytest.raises(DomainError, match="--r-max"):
                    pyp.pyp_report(s, method=method, r_max=r_max, **kw)
        # the default r_max is the largest count
        with pytest.raises(DomainError, match="--r-max"):
            pyp.pyp_report(make_sketch([10**10, 5]), params=PriorParams(0.5, 1.0), method=method)

    def test_mc_samples_past_ceiling_refused_before_the_fit(self, monkeypatch):
        monkeypatch.setattr(pyp, "wasserstein_fit", must_not_run)
        monkeypatch.setattr(pyp, "_mc_profile", must_not_run)
        for kw in (dict(params=PriorParams(0.5, 1.0)), dict(fit="eb-wasserstein")):
            with pytest.raises(DomainError, match="--mc-samples"):
                pyp.pyp_report(make_sketch([5, 3]), method="mc", mc_samples=2**24 + 1, **kw)

    @pytest.mark.parametrize("bad", [dict(method="bogus"), dict(method="asymptotic"),
                                     dict(method="mc", debias="bogus")])
    def test_unknown_method_or_debias_refused_before_the_fit(self, bad, monkeypatch):
        for name in ("wasserstein_fit", "_ExactEngine", "_mc_profile"):
            monkeypatch.setattr(pyp, name, must_not_run)
        for kw in (dict(params=PriorParams(0.5, 1.0)), dict(fit="eb-wasserstein")):
            with pytest.raises(DomainError, match="unknown"):
                pyp.pyp_report(make_sketch([5, 3]), **bad, **kw)

    def test_largest_count_limit_at_one_bucket(self, monkeypatch):
        rep = pyp.pyp_report(make_sketch([2000]), params=PriorParams(0.5, 10.0))
        assert abs(sum(rep.coverage.values()) - 1.0) < 1e-8
        # refused from the count multiset, before the coefficient table is built
        monkeypatch.setattr(pyp, "_gfc_rows", must_not_run)
        with pytest.raises(pyp.ExactCapError, match="1000001 rows"):
            pyp.pyp_report(make_sketch([10**6]), params=PriorParams(0.5, 10.0))
        with pytest.raises(pyp.ExactCapError, match="1000001 rows"):
            pyp.pyp_loglik(make_sketch([10**6]), PriorParams(0.5, 10.0))

    def test_exact_cap_checked_before_the_fit(self, monkeypatch):
        def fit_must_not_run(*args, **kwargs):
            raise AssertionError("the fit ran on an over-cap sketch")

        monkeypatch.setattr(pyp, "wasserstein_fit", fit_must_not_run)
        monkeypatch.setattr(pyp, "_gfc_rows", must_not_run)
        with pytest.raises(pyp.ExactCapError, match="budget"):
            pyp.pyp_report(make_sketch([10**6, 10]), fit="eb-wasserstein", method="exact")
