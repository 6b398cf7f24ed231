"""Sketch-only estimators under the two-parameter (Pitman-Yor) prior.

The exact posterior expressions sum a product of generalized factorial
coefficients over the Cartesian product of per-bucket latent block counts,
which is astronomically large as written.  Every summand, however, is
(s)_(t) * prod_j g_j(i_j) with t = |i|, s = theta/alpha, and (s)_(t) =
E[X^t] for X ~ Gamma(s): the sum is the one-dimensional integral
E[prod_j G_j(X)], G_j the polynomial of bucket j, over the U <= min(sqrt(2n),
c_max) distinct counts: the cost follows c_max, not n, through one table of coefficient rows
cut where the integrand ends.  A Monte Carlo representation over distinct-count chains (drawn
per bucket under theta/J for a profile, under theta by ``pyp_coverage_mc``) is unreliable past small n.
These are the only two methods: the closed-form power law derived under equal
bucket fill misses the exact missing mass by a factor that grows with J, even
under equal fill (2x at J = 4, 32x at J = 1024 for alpha = 0.5, theta = 1).
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass

import numpy as np

from .dp import dp_coverage_profile, dp_distinct
from .genmodel import PriorParams, crp_bucket_counts, distinct_chain, lockstep_rows, rng_from
from .numkit import (
    _LGAMMA_SWITCH,
    DomainError,
    _gfc_rows,
    _stirling_series,
    log_gamma,
    log_rising_factorial,
    log_rising_factorial_prefix,
    logsumexp,
)
from .report import (DEFAULTS, EstimateReport, FittedPrior, build_report, check_estimator,
                     check_freq_order, check_value, distinct_from, freq_counts_from, given, json_number,
                     last_order)
from .sketch import Sketch, buckets_u64, count_multiset, prehash_u64

__all__ = [
    "ExactCapError",
    "WassersteinFit",
    "block_weights",
    "pyp_coverage_exact",
    "pyp_coverage_mc",
    "pyp_distinct",
    "pyp_freq_counts",
    "pyp_loglik",
    "pyp_report",
    "sorted_count_distance",
    "wasserstein_fit",
]

_FIRST_V = 256  # the coefficient table keeps entries v <= V of each row; V doubles from here
_EXACT_MAX_CELLS = 1 << 26  # cells of the exact engine's coefficient table (512 MB of float64)
_NODE_DENSITY = 3  # nodes per 1/sqrt(x*) of the exact engine's grid
_PROFILE_CELLS = 1 << 20  # cells of one block of nodes or orders of the exact engine (8 MB)


class ExactCapError(DomainError):
    """The exact path's coefficient table would pass its budget of cells."""


def _check_table(c_max: int, v: int) -> int:
    """The columns of rows 0..c_max cut to entries v <= V; over the budget, ``ExactCapError``."""
    cols = min(v, c_max) + 1
    if (c_max + 1) * cols > _EXACT_MAX_CELLS:
        raise ExactCapError(
            f"exact mode needs a coefficient table of {(c_max + 1) * cols} cells ({c_max + 1} rows "
            f"x {cols} columns) for a largest bucket count of {c_max}; its budget is "
            f"{_EXACT_MAX_CELLS} cells ({_EXACT_MAX_CELLS * 8 >> 20} MB)")
    return cols


@dataclass
class LogBlockWeights:
    """Per-count rows of the latent block-count expansion.

    table[u][v] = log C(u, v; alpha), u = 0..c_max, -inf past u; values[k] is a distinct
    occupied count, held by multiplicity[k] buckets; per_count[k][i] = table[values[k]][i] - i log J.
    """

    values: np.ndarray
    multiplicity: np.ndarray
    per_count: np.ndarray
    table: np.ndarray


def block_weights(counts, alpha, width: int | None = None, v: int = _FIRST_V) -> LogBlockWeights:
    """Build the coefficient table, cut to entries v <= ``v``, and each occupied count's row.

    counts are the bucket counts (empty buckets are neutral); width defaults
    to len(counts) and fixes the 1/J^i attenuation.  A table over the budget
    raises ``ExactCapError`` before it is built.
    """
    counts = np.asarray(counts)
    values, mult = count_multiset(counts)
    c_max, alpha = int(values.max(initial=0)), check_value("alpha", alpha)
    cols = _check_table(c_max, v)
    width = int(width) if width is not None else int(counts.size)
    values, mult = values[values > 0], mult[values > 0]
    table = _gfc_rows(alpha, c_max, cols)
    per_count = table[values] - np.arange(cols) * math.log(width)
    return LogBlockWeights(values=values, multiplicity=mult, per_count=per_count, table=table)


class _ExactEngine:
    """Shared state for exact estimates at many coverage orders.

    With P(x) = prod_k G_k(x)^m_k, G_k of coefficients exp(per_count[k]),
    log_den = log E_s[P(X)], log_num_full = log E_{s+1}[P(X)] and the
    leave-one-out numerator[k][i] = log E_{s+1}[X^i P(X) / G_k(X)]: trapezoid
    sums on one grid in u = log X.  Count k's numerator is built only when an order 1 <= r
    <= min(c, r_max) reads it, so a likelihood or an r_max = 0 profile stops at the node sums.
    """

    def __init__(self, sketch: Sketch, params: PriorParams):
        check_value("theta", params.theta)  # alpha is block_weights' to check
        self.params, self.n, self.width = params, sketch.n, sketch.spec.width
        self.log_den, self.log_num_full, self._sizes, self._log_g = 0.0, 0.0, [], []  # empty: P = 1
        v, self.weights = _FIRST_V, block_weights(sketch.counts, params.alpha, width=self.width)
        self.c_max = int(self.weights.values.max(initial=0))
        while self.c_max and not self._integrate(params.theta / params.alpha):
            self.weights, v = None, 2 * v  # the old table is freed before the wider one is built
            self.weights = block_weights(sketch.counts, params.alpha, width=self.width, v=v)

    def _integrate(self, s: float) -> bool:
        """The node sums, or False before any when the rows' cut lies past the table."""
        w = self.weights
        mult = w.multiplicity.astype(float)
        buckets, index = float(mult.sum()), np.arange(w.per_count.shape[1])
        # Newton for the peak u = log(s + T), T = sum m E_k: E_k, Var_k moments of i ~ g_k[i] e^(iu)
        lo, hi = math.log(s + buckets), math.log(s + self.n)
        u = 0.5 * (lo + hi)
        p, dev = np.empty_like(w.per_count), np.empty_like(w.per_count)  # U x V each, reused
        for _ in range(200):
            np.add(w.per_count, index * u, out=p)
            p -= np.max(p, axis=1, keepdims=True)
            np.exp(p, out=p)
            p /= p.sum(axis=1, keepdims=True)
            mean = p @ index
            np.subtract(index, mean[:, None], out=dev)
            np.square(dev, out=dev)
            dev *= p
            var = np.sum(dev, axis=1)
            total = s + float(mult @ mean)
            psi = math.log(total) - u
            lo, hi = (u, hi) if psi > 0.0 else (lo, u)
            step = u - psi / min(float(mult @ var) / total - 1.0, -1e-300)
            step = step if lo <= step <= hi else 0.5 * (lo + hi)  # the bracket is closed
            if abs(step - u) <= 1e-14 * max(1.0, abs(u)):
                break
            u = step
        del p, dev
        # step 1/(3 sqrt(x*)); 14 widths right of the peak and left of that of the
        # numerator without a bucket of the largest E_k; rows cut at exp(-45) at the last node
        x, var_all, top = math.exp(u), float(mult @ var), int(np.argmax(mean))
        x_left = x + 1.0 - mean[top]
        h = 1.0 / (_NODE_DENSITY * math.sqrt(x))
        right = u + 14.0 / math.sqrt(max(x - var_all, 1e-2))
        extend = max(14.0 / math.sqrt(max(x_left - var_all + var[top], 1e-2)), 45.0 / (s + buckets))
        last = w.per_count[-1] + index * right
        cut = np.flatnonzero((last < last.max() - 45.0) & (index > last.argmax()))
        if not cut.size and index.size <= self.c_max:
            return False
        keep = cut[0] + 1 if cut.size else index.size
        rows = [g[: min(c + 1, keep)] for c, g in zip(w.values.tolist(), w.per_count)]
        # s log s - s - log Gamma(s), from the Stirling series where it cancels
        log_norm = (0.5 * math.log(s / (2.0 * math.pi)) - float(_stirling_series(s))
                    if s >= _LGAMMA_SWITCH else s * math.log(s) - s - math.lgamma(s))
        # E_k moves with u: grow left until each leave-one-out integrand is below
        # exp(-36) of its maximum at the first node
        left = math.log(x_left) - extend
        while True:
            nodes = right - h * np.arange(math.ceil((right - left) / h), -1, -1)
            v = nodes - math.log(s)
            # node sums in blocks of at most _PROFILE_CELLS cells; numpy adds each node's
            # column in row order, as over the whole grid, but that of a lone node
            # pairwise, so the last block starts early rather than hold one node
            log_g = np.empty((len(rows), nodes.size))
            for g, row in zip(rows, log_g):
                per_block = max(2, _PROFILE_CELLS // g.size)
                for lo in range(0, nodes.size, per_block):
                    lo = max(0, min(lo, nodes.size - 2))
                    terms = np.arange(g.size)[:, None] * nodes[lo : lo + per_block]
                    row[lo : lo + per_block] = logsumexp(g[:, None] + terms, axis=0)
            base = log_norm + math.log(h) - s * (np.expm1(v) - v) + mult @ log_g  # shape s
            loo = (base + v) - log_g
            if (loo[:, 0] < loo.max(axis=1) - 36.0).all():
                break
            left -= extend
        self.log_den = logsumexp(base)
        base += v  # shape s + 1
        self.log_num_full = logsumexp(base)
        self._nodes, self._base, self._log_g, self._sizes = nodes, base, log_g, [g.size for g in rows]
        return True

    def _numerator(self, k: int) -> np.ndarray:
        """Count k's leave-one-out numerator, from the node sums ``_integrate`` keeps."""
        num, lg = np.empty(self._sizes[k]), self._log_g[k]
        per_block = max(1, _PROFILE_CELLS // lg.size)  # lg: one sum per node
        for lo in range(0, num.size, per_block):
            i = np.arange(lo, min(lo + per_block, num.size))
            num[lo : lo + per_block] = logsumexp((self._base - lg) + i[:, None] * self._nodes, axis=1)
        return num

    def log_profile(self, r_max: int) -> np.ndarray:
        """log coverage at orders 0..r_max, each bit for bit that of any longer profile.

        Count c adds logsumexp_i table[c-r][i] J^-i + numerator[k][i] to orders r <= c.
        """
        theta, alpha, w = self.params.theta, self.params.alpha, self.weights
        top = min(r_max, self.c_max)
        # (1 - alpha)_(r) from log-gamma: a cumsum drifts by 3e-10 over 6 000 orders
        log_pre = log_gamma(1.0 - alpha + np.arange(top + 1)) - log_gamma(1.0 - alpha)
        log_pre = math.log(theta / self.width) + log_pre - math.log(theta + self.n) - self.log_den
        log_fact = log_gamma(np.arange(self.c_max + 1) + 1.0)  # log u!, read as a table
        out = np.full(r_max + 1, -np.inf)
        # at r = 0 every bucket keeps its row: the full numerator, J times
        out[0] = log_pre[0] + math.log(self.width) + self.log_num_full
        counts = zip(w.values.tolist(), w.multiplicity.tolist()) if top else ()  # order 0 reads none
        for k, (c, m) in enumerate(counts):
            num = self._numerator(k)
            per_block = max(1, _PROFILE_CELLS // num.size)
            for lo in range(1, min(c, top) + 1, per_block):
                orders = np.arange(lo, min(c, top, lo + per_block - 1) + 1)
                cols = min(c - lo + 1, num.size)  # row c - r has c - r + 1 entries
                rows = w.table[c - orders, :cols]
                rows += num[:cols] - np.arange(cols) * math.log(self.width)
                terms = logsumexp(rows, axis=1) + math.log(m) + log_fact[c]
                terms -= log_fact[orders] + log_fact[c - orders]  # m C(c, r)
                out[orders] = np.logaddexp(out[orders], terms)
        out[1 : top + 1] += log_pre[1:]
        return out

    def loglik(self) -> float:
        w = self.weights
        log_multinom = math.lgamma(self.n + 1) - sum(
            m * math.lgamma(c + 1) for c, m in zip(w.values.tolist(), w.multiplicity.tolist())
        )
        return log_multinom - log_rising_factorial(self.params.theta, self.n) + self.log_den


def pyp_loglik(sketch: Sketch, params: PriorParams) -> float:
    """Exact log probability of the bucket counts under the prior."""
    return _ExactEngine(sketch, params).loglik()


def pyp_coverage_exact(sketch: Sketch, params: PriorParams, r: int) -> float:
    """Exact estimated mass of symbols with frequency r: order r of the profile 0..r."""
    r, engine = check_value("r", r), _ExactEngine(sketch, params)
    return float(np.exp(engine.log_profile(min(r, engine.c_max))[r])) if r <= engine.c_max else 0.0


def pyp_freq_counts(sketch: Sketch, params: PriorParams, r: int) -> float:
    """Exact estimated number of distinct symbols with frequency r >= 1."""
    r = check_freq_order(r)
    p_r = pyp_coverage_exact(sketch, params, r)
    return freq_counts_from({r: p_r}, sketch.n, params.theta, params.alpha)[r]


def pyp_distinct(sketch: Sketch, params: PriorParams) -> float:
    """Exact estimated number of distinct symbols in the un-sketched stream."""
    p0 = pyp_coverage_exact(sketch, params, 0)
    return distinct_from(p0, sketch.n, params.theta, params.alpha)


_MC_CELLS = 1 << 17  # orders x samples of one block of the Monte Carlo profile's float64 sums (1 MB)
_MC_KEPT_SHARE = 16  # ... or up to 1/16 of the kept chain reads' bytes, where that is more
# Monte Carlo work, at most: n + 1 floats in each of three f tables (32 MB each), and
# sum(c - 1) chain steps x samples (~10 s at r = 0, ~2.5 min for every order).  The
# chain reads pass 1 keeps share the exact engine's budget, _EXACT_MAX_CELLS x 8 bytes.
_MC_MAX_N, _MC_MAX_STEPS = 1 << 22, 1 << 30


def _kept_reads(c: int, live: list) -> int:
    """The chain reads pass 2 takes from a count-c bucket at the ``live`` orders (sorted, >= 1):
    K_c and each depth c - r >= 2 (K_0 = 0 and K_1 = 1 are known); none if no order is <= c."""
    return 1 + bisect.bisect_right(live, c - 2) if live and live[0] <= c else 0


def _check_mc_work(sketch: Sketch, num_samples: int, orders) -> tuple[int, list]:
    """(c_max, the live orders 1..c_max of ``orders``, sorted); before any allocation, refuses work
    past ``_MC_MAX_N`` or ``_MC_MAX_STEPS`` and kept chain reads past the exact engine's bytes."""
    values, mult = count_multiset(sketch.counts)  # refuses counts of 2^63 or more
    steps = (sketch.n - int(np.count_nonzero(sketch.counts))) * num_samples  # c walks c - 1
    if sketch.n > _MC_MAX_N or steps > _MC_MAX_STEPS:
        raise DomainError(f"Monte Carlo work past its limits: n = {sketch.n} (at most 2^22), "
                          f"{steps} chain steps x samples (at most 2^30); pass fewer samples "
                          "(CLI: --mc-samples)")
    c_max = int(values.max(initial=0))
    live = sorted({int(r) for r in orders if 0 < r <= c_max})
    reads = sum(m * _kept_reads(c, live) for c, m in zip(values.tolist(), mult.tolist()) if c > 1)
    kept, budget = reads * num_samples * np.min_scalar_type(c_max).itemsize, _EXACT_MAX_CELLS * 8
    if kept > budget:
        raise DomainError(f"the Monte Carlo profile would keep {math.ceil(kept / 2**20)} MB of chain reads, "
                          f"past its budget of {budget >> 20} MB; pass fewer samples (CLI: --mc-samples) "
                          "or orders (CLI: --r-max), or use the exact method (CLI: --method exact)")
    return c_max, live


def _dot(a, b) -> float:
    """a . b of two vectors, summed in the same order at any BLAS thread count
    (``np.dot`` splits a long sum across OpenBLAS threads)."""
    return float(np.einsum("i,i->", a, b))


def _mc_profile(sketch: Sketch, params: PriorParams, orders, num_samples: int, seed, debias: str,
                scale: float):
    """(coverage, stderr, diagnostics) at each of ``orders`` from one draw of the chains.

    Each occupied bucket's chains are drawn under PY(alpha, scale), in bucket
    order, from one generator.  A count-1 bucket's chain is K_1 = 1 and draws
    nothing, so such buckets are never walked: pass 1 adds their constant to
    Z' in bucket order, and their order-1 terms, all equal, enter pass 2 once
    with weight m_1.  Pass 1 walks every other bucket once, to depth c for Z',
    keeping K_c and every depth c - r >= 2 an order reads (``_kept_reads``;
    ``_check_mc_work`` bounds their bytes); pass 2 sums w_j Z_j per order, in
    blocks of ``_MC_CELLS``, from the kept reads alone, the scale entering as
    (scale)_(c-r)/(scale)_(c) and the lookup (scale/alpha)_(K).  The Tin
    correction is linear in Z_j, so it and the SE go on the sum.  Diagnostics:
    Kish's ESS, top weight share, chain steps (sum(c - 1) over walked buckets).

    Every per-sample array is a row of one float64 workspace, made once:
    t_total (as int64), s_total, Z', a scratch row, three rows shared by phase
    (the walk's K, u and p; the r = 0 terms; pass 2's two indices and lookup),
    a bucket's rest sum if a block holds several orders, and one row of sums
    per order of a block.  So the profile holds the kept reads plus those rows,
    8N bytes each.  The r = 0 moments run ``np.cov``'s and ``np.var``'s own
    operations in those rows.
    """
    check_value("theta", params.theta)
    check_value("alpha", params.alpha)
    coverage = dict.fromkeys((int(r) for r in orders), 0.0)
    stderr = dict(coverage)
    c_max, live = _check_mc_work(sketch, num_samples, coverage)
    if min(coverage) > c_max or c_max == 0:  # every order r >= 1 vanishes, and nothing is drawn
        if 0 in coverage:
            coverage[0] = 1.0  # no occupied bucket: all of the mass is missing
        return coverage, stderr, {}
    n, width = sketch.n, sketch.spec.width
    theta, alpha = params.theta, params.alpha
    rng = rng_from(seed)
    counts = np.asarray(sketch.counts, dtype=np.int64)
    occ_counts = counts[counts > 0].tolist()  # chains are drawn in bucket order
    walked = [c for c in occ_counts if c > 1]
    ones = len(occ_counts) - len(walked)
    chain = PriorParams(alpha, scale)

    # the chain-value lookup, and the two f tables times J^(-t)
    log_rf_chain = log_rising_factorial_prefix(scale / alpha, c_max)
    log_scale_rf = log_rising_factorial_prefix(scale, c_max)
    log_jt = np.arange(n + 1) * math.log(width)
    log_f_den = log_rising_factorial_prefix(theta / alpha, n) - log_jt
    log_f_num = log_rising_factorial_prefix(1.0 + theta / alpha, n) - log_jt
    # log (theta/J) (1-alpha)_(r) / (theta + n), the prefactor of order r
    log_pre = log_rising_factorial_prefix(1.0 - alpha, max(c_max, 1))
    log_pre = math.log(theta / width) + log_pre - math.log(theta + n)

    small = np.min_scalar_type(c_max)  # chain values lie in 0..c_max, K_c included
    # a bucket's rest is formed once per block: where the kept reads are large, wider
    # blocks cost little memory against them and save a third of pass 2's gathers
    kept_bytes = sum(_kept_reads(c, live) for c in walked) * num_samples * small.itemsize
    per_block = max(1, _MC_CELLS // num_samples, kept_bytes // (_MC_KEPT_SHARE * 8 * num_samples))
    rows = min(len(live), per_block)
    work = np.empty((7 + (rows > 1) + rows, num_samples))  # made first, not amid the kept reads
    t_total, s_total, zden, term = work[0].view(np.int64), work[1], work[2], work[3]
    shared = work[4:7]
    kept = []  # {depth: K} of each walked bucket, as small ints
    t_total.fill(ones)
    s_total.fill(0.0)
    # the step mask is the scratch row's first N bytes: a walk is done before s_total reads the row
    walk = shared[0].view(np.int64), shared[1], shared[2], term.view(bool)[:num_samples]
    for c in occ_counts:
        if c == 1:  # K_1 = 1: the term a walk would add, in the same place of the sum
            s_total += log_rf_chain[1]
            continue
        reads = _kept_reads(c, live)
        depths = {c, *(c - r for r in live[: reads - 1])} if reads else ()
        kept.append({})
        for i, k in distinct_chain(c, chain, num_samples, rng, buffers=walk):
            if i in depths:
                kept[-1][i] = k.astype(small)
        t_total += k
        s_total += np.take(log_rf_chain, k, out=term, mode="clip")  # "raise" would buffer the output

    # Z' / e^den_shift, in place of log Z'
    np.subtract(np.take(log_f_den, t_total, out=zden, mode="clip"), s_total, out=zden)
    den_shift = float(np.max(zden))
    zden -= den_shift
    np.exp(zden, out=zden)
    den_mean = float(np.mean(zden))
    tin = debias == "tin"

    def var(row):
        """``np.var(row, ddof=1)``, its operations in the scratch row."""
        np.subtract(row, np.add.reduce(row) / num_samples, out=term)
        return float(np.add.reduce(np.square(term, out=term))) / (num_samples - 1)

    def shifted_mean(log_x, out):
        """(shift, mean of exp(log_x - shift)), the exponentials written to ``out``; robust to -inf."""
        shift = float(np.max(log_x))
        shift = 0.0 if shift == -np.inf else shift
        np.exp(np.subtract(log_x, shift, out=out), out=out)
        return shift, float(np.mean(out))

    def kish(w_sh):
        total = float(np.sum(w_sh))
        return total * total / _dot(w_sh, w_sh), float(np.max(w_sh)) / total

    var_den = var(zden)
    den_ess, den_share = kish(zden)
    diagnostics = {"ess": {}, "max_weight_share": {}, "den_ess": den_ess,
                   "den_max_weight_share": den_share}

    if 0 in coverage:  # every bucket keeps depth c_s: all J ratios coincide, with weight 1
        log_agg, pair = shared[0], shared[1:]
        np.subtract(np.take(log_f_num, t_total, out=log_agg, mode="clip"), s_total, out=log_agg)
        num_shift, num_mean = shifted_mean(log_agg, pair[0])
        value = math.exp(num_shift - den_shift) * num_mean / den_mean
        if tin:  # np.cov(exp(log_agg - num_shift), zden, ddof=1)[0, 1]
            np.copyto(pair[1], zden)
            pair -= (np.add.reduce(pair, axis=1) / num_samples)[:, None]
            cov = np.dot(pair, pair.T)  # np.cov's product; BLAS splits it by output, not along a sum
            cov *= np.true_divide(1, num_samples - 1)
            value *= 1.0 + (
                float(cov[0, 1]) / (num_samples * num_mean * den_mean)
                - var_den / (num_samples * den_mean**2)
            )
        coverage[0] = math.exp(float(log_pre[0])) * (value * width)
        # delta-method SE of mean(A)/mean(B) from the residuals A_i - R*B_i (no cancellation)
        log_agg += math.log(width)
        agg_shift, agg_mean = shifted_mean(log_agg, pair[0])
        resid = np.subtract(pair[0], np.multiply(zden, agg_mean / den_mean, out=pair[1]), out=pair[1])
        stderr[0] = (math.exp(float(log_pre[0]) + agg_shift - den_shift)
                     * math.sqrt(var(resid) / num_samples) / den_mean)
        diagnostics["ess"][0], diagnostics["max_weight_share"][0] = kish(pair[0])

    # orders >= 1 are finished from their linear sums: the covariance and the
    # SE residual of mean(A)/mean(B) are dot products with the centred Z'
    zden -= den_mean
    idx, rest, lookup = shared[0].view(np.int64), shared[1].view(np.int64), shared[2]
    s_rest = work[7] if rows > 1 else lookup  # one order a block: its lookup may overwrite the rest

    def finish(r, log_scale, lin_row):
        total = float(np.sum(lin_row))
        mean = total / num_samples
        factor = math.exp(log_scale - den_shift) / den_mean
        value = factor * mean
        if tin:
            cov = _dot(lin_row, zden) / (num_samples - 1)
            value *= 1.0 + (
                cov / (num_samples * mean * den_mean)
                - var_den / (num_samples * den_mean**2)
            )
        coverage[r] = value
        resid = np.subtract(lin_row, np.multiply(zden, mean / den_mean, out=term), out=term)
        resid -= np.mean(resid)
        var_resid = _dot(resid, resid) / (num_samples - 1)
        stderr[r] = factor * math.sqrt(var_resid / num_samples)
        diagnostics["ess"][r] = total * total / _dot(lin_row, lin_row)
        diagnostics["max_weight_share"][r] = float(np.max(lin_row)) / total

    def add_term(row, logw, idx, log_chain):
        """lin[row] += exp(logw + log_f_num[idx] - log_chain - shift[row])."""
        np.take(log_f_num, idx, out=term, mode="clip")
        np.subtract(term, log_chain, out=term)
        np.add(term, logw, out=term)
        top = float(np.max(term))
        if top > shift[row]:
            lin[row] *= math.exp(shift[row] - top)
            shift[row] = top
        np.subtract(term, shift[row], out=term)
        lin[row] += np.exp(term, out=term)

    for lo in range(0, len(live), per_block):
        block = live[lo : lo + per_block]
        shift = np.full(len(block), -np.inf)
        lin = work[-rows:][: len(block)]  # sum_j w_j Z_j of each order is exp(shift) * lin
        lin.fill(0.0)
        if ones and block[0] == 1:  # every count-1 bucket reads K_0 = 0 at order 1: one term
            add_term(0, math.log(ones) - float(log_scale_rf[1]),
                     np.subtract(t_total, 1, out=idx), np.subtract(s_total, log_rf_chain[1], out=lookup))
        for c, reads in zip(walked, kept):
            if block[0] > c:
                continue
            # the bucket's rest: t_total - K_c and s_total - lookup(K_c)
            np.copyto(rest, reads[c])  # a small-int index would be converted in a temporary
            np.subtract(s_total, np.take(log_rf_chain, rest, out=s_rest, mode="clip"), out=s_rest)
            np.subtract(t_total, rest, out=rest)
            for row, r in enumerate(block):
                if r > c:
                    break
                i = c - r
                logw = math.lgamma(c + 1) - math.lgamma(c - i + 1) - math.lgamma(i + 1)
                logw = logw + log_scale_rf[i] - log_scale_rf[c]
                if i < 2:  # K_0 = 0 and K_1 = 1: nothing to gather
                    np.add(s_rest, log_rf_chain[i], out=lookup)
                    np.add(rest, i, out=idx)
                else:
                    np.copyto(idx, reads[i])  # an int64 index gathers ~4x faster than a small-int one
                    np.add(np.take(log_rf_chain, idx, out=term, mode="clip"), s_rest, out=lookup)
                    idx += rest
                add_term(row, logw, idx, lookup)
        # the prefactor goes into the sum: (1-alpha)_(r) passes 1e308 from r ~ 170
        for r, row_shift, row in zip(block, shift, lin):
            finish(r, row_shift + log_pre[r], row)
    diagnostics["chain_steps"] = sum(walked) - len(walked)  # K_1 draws nothing
    return coverage, stderr, diagnostics


def pyp_coverage_mc(
    sketch: Sketch,
    params: PriorParams,
    r: int,
    num_samples: int,
    seed,
    debias: str = DEFAULTS["debias"],
):
    """Monte Carlo estimate of the coverage mass at order r, with its SE.

    The exact estimator can be rewritten as a weighted sum over buckets of
    ratios E[Z_j]/E[Z'], where Z' evaluates a rising-factorial statistic of a
    tuple of independent distinct-count chains read at depth c_s, and Z_j
    evaluates a companion statistic of the same tuple with bucket j's chain
    read at depth c_j - r.  (Read exactly this way round: any mixing of the
    depths breaks the identity with the exact value, which the tests check.)

    Each bucket draws one chain per sample, giving both depths at once; all
    Z statistics are assembled from log values with max shifts.  Ratios of
    sample means are biased for all but small n; debias="tin" applies the
    classical second-order correction

        ratio * (1 + cov(Z, Z')/(N m_Z m_Z') - var(Z')/(N m_Z'^2)),

    which mitigates but does not remove the skew-driven overestimation at
    large n.  The reported standard error is a delta-method value for the
    aggregated ratio and ignores the (second-order) debiasing term.

    The chains are drawn under the prior scale theta.  At r >= 1 that misses
    the weight once theta*J is large (estimates many times the exact value,
    with SEs that cannot see it), so profiles go through
    ``pyp_report(method="mc")``, which draws under the per-bucket scale
    theta/J; at r = 0 with few samples the prior scale's Tin-corrected
    estimate is the closer one, and seeded r = 0 studies reproduce its draws.
    """
    r = check_value("r", r)
    num_samples, debias = check_value("mc_samples", num_samples), check_value("debias", debias)
    coverage, stderr, _ = _mc_profile(sketch, params, [r], num_samples, seed, debias, params.theta)
    return coverage[r], stderr[r]


def sorted_count_distance(counts_a, counts_b):
    """Mean absolute difference of sorted bucket counts (same width).

    Either argument may be a batch of rows: each is sorted and averaged along
    its last axis, and a batch gives an array of the row-by-row values.
    """
    a = np.sort(np.asarray(counts_a, dtype=float), axis=-1)
    b = np.sort(np.asarray(counts_b, dtype=float), axis=-1)
    if a.shape[-1:] != b.shape[-1:]:
        raise DomainError("sorted-count distance needs equal widths")
    out = np.mean(np.abs(a - b), axis=-1)
    return float(out) if out.ndim == 0 else out


DEFAULT_ALPHA_GRID = tuple(np.round(np.arange(0.0, 0.951, 0.05), 10))
DEFAULT_THETA_GRID = tuple(np.logspace(-1.0, 5.0, 10))

# Working set of one lockstep batch of the fit, 8 MB: ``genmodel.lockstep_rows``
# fits the id table, the block buffers and the counts of its rows in it.
_LOCKSTEP_BYTES = 1 << 23


@dataclass
class WassersteinFit:
    """Grid minimizer plus the full distance surface (alpha, theta, distance)."""

    prior: FittedPrior
    surface: np.ndarray
    n_sim: int
    num_reps: int

    def surface_rows(self):
        for a, t, d in self.surface:
            yield float(a), float(t), float(d)


def wasserstein_fit(
    sketch: Sketch,
    alpha_grid=DEFAULT_ALPHA_GRID,
    theta_grid=DEFAULT_THETA_GRID,
    num_reps: int = 5,
    n_sim: int | None = None,
    seed=0,
    refine_theta: int = 7,
    rescore_top: int = 12,
) -> WassersteinFit:
    """Likelihood-free fit of (alpha, theta) by simulation matching.

    For every grid point, ``num_reps`` synthetic streams of size n_sim are
    drawn from the prior, sketched with the *same* hash spec as the input,
    and compared to the (n_sim/n)-downscaled sorted original counts by mean
    absolute difference; the grid minimizer (ties broken toward the
    lexicographically smallest point) is returned along with the full
    surface.

    Three variance-control measures matter in practice.  Replication seeds
    are shared across grid points (common random numbers), so grid
    comparisons are not dominated by simulation noise.  Because a coarse
    log-spaced theta grid confounds the two parameters (a wrong theta can be
    partially compensated by a wrong alpha), a second pass re-scans every
    alpha against ``refine_theta`` extra theta values packed within half a
    decade of the first-pass minimizer.  Finally the ``rescore_top`` lowest
    candidates are re-scored with quadruple replications before the winner
    is declared, since the argmin of many noisy means is biased low; only
    the replicates a candidate has not had yet are simulated.  Set
    refine_theta=0 / rescore_top=0 to disable either stage.  num_reps, n_sim,
    refine_theta and rescore_top are integers: a bool or a float is refused.

    Simulation uses the sequential predictive sampler: the sketch depends
    only on the symbol sequence, and stick coverage would be intractable on
    the heavy-discount end of the grid.  The streams of a stage (grid, theta
    refinement, rescoring) run in lockstep, one row per (alpha, theta,
    replicate), in blocks of observation steps (``crp_bucket_counts``) and
    in batches of rows whose whole working set, id table, block buffers and
    counts, fits in ``_LOCKSTEP_BYTES`` (8 MB: 1 362 rows at n_sim = 2000,
    J = 128); the bucket of each symbol id is hashed once per fit.  The
    surface equals that of sampling and sketching each stream on its own,
    bit for bit.
    """
    if sketch.n == 0:
        raise DomainError("cannot fit parameters on an empty sketch")
    spec = sketch.spec
    alpha_grid = sorted(float(a) for a in alpha_grid)
    theta_grid = sorted(float(t) for t in theta_grid)
    if not alpha_grid or not theta_grid:
        raise DomainError("parameter grid must be nonempty")
    num_reps, refine_theta, rescore_top = (json_number(k, v, int) for k, v in (
        ("num_reps", num_reps), ("refine_theta", refine_theta), ("rescore_top", rescore_top)))
    if num_reps < 1:
        raise DomainError(f"num_reps must be >= 1, got {num_reps}")
    if min(refine_theta, rescore_top) < 0:
        raise DomainError(f"refine_theta and rescore_top must be >= 0, got {refine_theta}, {rescore_top}")
    n = sketch.n
    n_sim = json_number("n_sim", n_sim, int) if n_sim is not None else min(n, 10_000)
    if not 1 <= n_sim <= n:
        raise DomainError(f"n_sim must lie in [1, n], got {n_sim}")
    target = np.sort(np.asarray(sketch.counts, dtype=float)) * (n_sim / n)

    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rep_seeds = ss.spawn(4 * num_reps)
    bucket_of_id = buckets_u64(
        prehash_u64(np.arange(n_sim), spec.symbol_seed), spec.a, spec.b, spec.width
    )
    batch_rows = lockstep_rows(n_sim, spec.width, _LOCKSTEP_BYTES)

    known = {}  # (alpha, theta) -> its replicate distances so far, in replicate order

    def mean_distances(points, reps: int) -> dict:
        """Distance of each (alpha, theta) point averaged over the first reps replicates;
        only the replicates not simulated before are."""
        for a, t in points:
            PriorParams(alpha=a, theta=t)
        dist = np.empty((len(points), reps))
        done = [known.get(at, ())[:reps] for at in points]
        for row, d in zip(dist, done):
            row[: len(d)] = d
        jobs = [(p, r) for r in range(reps) for p in range(len(points)) if r >= len(done[p])]
        for lo in range(0, len(jobs), batch_rows):
            batch = jobs[lo : lo + batch_rows]
            first, last = batch[0][1], batch[-1][1] + 1
            u = np.empty((last - first, n_sim))
            pick = np.empty_like(u)
            for k, rs in enumerate(rep_seeds[first:last]):
                rng = np.random.default_rng(rs)
                u[k] = rng.random(n_sim)
                pick[k] = rng.random(n_sim)
            counts = crp_bucket_counts(
                [points[p][0] for p, _ in batch],
                [points[p][1] for p, _ in batch],
                [r - first for _, r in batch],
                u,
                pick,
                bucket_of_id,
                spec.width,
            )
            dist[tuple(zip(*batch))] = sorted_count_distance(counts, target)
        known.update(zip(points, dist))
        # replicate distances are added in replicate order, as a running sum
        means = dist.cumsum(axis=1)[:, -1] / reps
        return {at: float(d) for at, d in zip(points, means)}

    scores = mean_distances([(a, t) for a in alpha_grid for t in theta_grid], num_reps)
    if refine_theta > 0:
        t_best = min(scores, key=lambda at: (scores[at], at))[1]
        extra = np.logspace(
            math.log10(t_best) - 0.5, math.log10(t_best) + 0.5, refine_theta + 2
        )[1:-1]
        scores.update(mean_distances([(a, float(t)) for a in alpha_grid for t in extra], num_reps))
    if rescore_top > 0:
        shortlist = sorted(scores, key=lambda at: (scores[at], at))[:rescore_top]
        scores.update(mean_distances(shortlist, 4 * num_reps))
    best = min(scores, key=lambda at: (scores[at], at))
    rows = sorted((a, t, d) for (a, t), d in scores.items())
    prior = FittedPrior(alpha=best[0], theta=best[1], provenance="eb-wasserstein")
    return WassersteinFit(
        prior=prior, surface=np.array(rows, dtype=float), n_sim=n_sim, num_reps=num_reps
    )


def pyp_report(
    sketch: Sketch,
    params: PriorParams | None = None,
    fit: str = "none",
    method: str = DEFAULTS["method"],
    r_max: int | None = None,
    mc_samples: int = DEFAULTS["mc_samples"],
    debias: str = DEFAULTS["debias"],
    seed=0,
) -> EstimateReport:
    """Bundle fitting and estimation under the two-parameter prior.

    A Wasserstein fit may land on alpha = 0, where the two-parameter
    estimators degenerate; the report then falls back to the closed-form
    zero-discount estimators at the fitted theta (method tag "dp-exact").
    r_max is read by ``report.last_order``.  Before a fit or an allocation
    it refuses, in turn: what the estimator table refuses (``SpecError`` for an
    unknown fit, method or debias mode, a value of the wrong type or fit "none"
    without params; theta <= 0, alpha outside (0, 1), mc_samples outside
    [100, 2^24], r_max outside [0, 2^24)); a default r_max outside that range; for the
    exact method a coefficient table of 257 columns over its budget (``ExactCapError``),
    for the Monte Carlo one n above 2^22, over 2^30 chain steps x samples or chain reads
    kept past the exact table's 512 MB.
    """
    t0 = time.perf_counter()
    spec = check_estimator({"prior": "pyp", "fit": fit, "method": method, "mc_samples": mc_samples,
                            "debias": debias, **given(r_max=r_max)}, params and vars(params))
    # refusals before a fit, which a refused sketch would waste
    c_max = int(count_multiset(sketch.counts)[0][-1])
    r_max = last_order(spec["r_max"], c_max)
    if method == "exact":
        _check_table(c_max, _FIRST_V)
    else:
        _check_mc_work(sketch, spec["mc_samples"], range(r_max + 1))
    prior = (wasserstein_fit(sketch, seed=seed).prior if fit == "eb-wasserstein"
             else FittedPrior(alpha=params.alpha, theta=params.theta))
    theta, alpha = prior.theta, prior.alpha
    params = PriorParams(alpha=alpha, theta=theta)
    if alpha == 0.0:  # a fit on the grid's alpha = 0; a given alpha = 0 was refused
        return build_report(sketch, prior, "dp-exact", dp_coverage_profile(sketch, theta, r_max),
                            dp_distinct(sketch, theta), t0)
    if method == "exact":
        coverage, stderr, diagnostics = np.exp(_ExactEngine(sketch, params).log_profile(r_max)), None, {}
    else:
        coverage, stderr, diagnostics = _mc_profile(sketch, params, range(r_max + 1), spec["mc_samples"],
                                                    seed, debias, theta / sketch.spec.width)
    return build_report(sketch, prior, f"pyp-{method}", coverage,
                        distinct_from(float(coverage[0]), sketch.n, theta, alpha), t0, stderr, diagnostics)
