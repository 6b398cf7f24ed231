"""Sketch-only estimators under the two-parameter (Pitman-Yor) prior.

The exact posterior expressions sum a product of generalized factorial
coefficients over the Cartesian product of per-bucket latent block counts,
which is astronomically large as written.  Every summand, however, is
(s)_(t) * prod_j g_j(i_j) with t = |i|, s = theta/alpha, and (s)_(t) =
E[X^t] for X ~ Gamma(s): the sum is the one-dimensional integral
E[prod_j G_j(X)], G_j the polynomial of bucket j, over the U <= sqrt(2n)
distinct counts.  Beyond the cap a Monte Carlo representation over
distinct-count chains takes over (drawn per bucket under theta/J for a
profile, under theta by ``pyp_coverage_mc``: see its docstring).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .dp import _check_orders, dp_report
from .genmodel import PriorParams, crp_bucket_counts, distinct_chain, rng_from
from .numkit import (
    _LGAMMA_SWITCH,
    DomainError,
    GfcTable,
    _stirling_series,
    log_gamma,
    log_rising_factorial,
    log_rising_factorial_prefix,
)
from .report import EstimateReport, FittedPrior
from .sketch import Sketch, buckets_u64, count_multiset, prehash_u64

__all__ = [
    "DEFAULT_EXACT_CAP",
    "ExactCapError",
    "LogBlockWeights",
    "WassersteinFit",
    "block_weights",
    "pyp_coverage_exact",
    "pyp_coverage_mc",
    "pyp_distinct",
    "pyp_freq_counts",
    "pyp_loglik",
    "pyp_missing_asymptotic",
    "pyp_report",
    "sorted_count_distance",
    "wasserstein_fit",
]

DEFAULT_EXACT_CAP = 2000

_NODE_DENSITY = 3  # nodes per 1/sqrt(x*) of the exact engine's grid
_PROFILE_CELLS = 1 << 20  # cells of one block of orders of an exact profile (8 MB)


class ExactCapError(DomainError):
    """The exact path refuses totals above its cap."""


@dataclass
class LogBlockWeights:
    """Per-count rows of the latent block-count expansion.

    values[k] is a distinct occupied count, held by multiplicity[k] buckets;
    per_count[k][i] = log of (its coefficient from ``table``) / J^i.
    """

    values: np.ndarray
    multiplicity: np.ndarray
    per_count: list
    table: GfcTable


def _check_cap(n: int, cap: int | None) -> None:
    if cap is not None and n > cap:
        raise ExactCapError(
            f"exact mode handles totals up to {cap}, got n={n}; "
            "use the Monte Carlo estimator (pyp_coverage_mc) instead"
        )


def block_weights(counts, alpha, width: int | None = None, cap: int = DEFAULT_EXACT_CAP) -> LogBlockWeights:
    """Build the row of each distinct occupied bucket count.

    counts are the bucket counts (empty buckets are neutral); width defaults
    to len(counts) and fixes the 1/J^i attenuation.  Totals above the cap
    raise ``ExactCapError`` pointing at the Monte Carlo path.
    """
    counts = np.asarray(counts)
    values, mult = count_multiset(counts)
    _check_cap(sum(c * m for c, m in zip(values.tolist(), mult.tolist())), cap)
    width = int(width) if width is not None else int(counts.size)
    values, mult = values[values > 0], mult[values > 0]
    table = GfcTable(float(alpha))
    per_count = [table.row(c) - np.arange(c + 1) * math.log(width) for c in values.tolist()]
    return LogBlockWeights(values=values, multiplicity=mult, per_count=per_count, table=table)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log sum exp along ``axis``, shifted by the maximum of each slice."""
    top = np.max(a, axis=axis, keepdims=True)
    return np.log(np.sum(np.exp(a - top), axis=axis)) + np.squeeze(top, axis=axis)


class _ExactEngine:
    """Shared state for exact estimates at many coverage orders.

    With P(x) = prod_k G_k(x)^m_k, G_k of coefficients exp(per_count[k]),
    log_den = log E_s[P(X)], log_num_full = log E_{s+1}[P(X)] and the
    leave-one-out numerator[k][i] = log E_{s+1}[X^i P(X) / G_k(X)]: trapezoid
    sums on one grid in u = log X.
    """

    def __init__(self, sketch: Sketch, params: PriorParams, cap: int = DEFAULT_EXACT_CAP):
        params.require_estimable(need_alpha_positive=True)
        self.params, self.n, self.width = params, sketch.n, sketch.spec.width
        self.weights = block_weights(sketch.counts, params.alpha, width=self.width, cap=cap)
        self.c_max = int(self.weights.values.max(initial=0))
        self.log_den, self.log_num_full, self.numerator = 0.0, 0.0, []  # an empty sketch: P = 1
        if self.c_max:
            self._integrate(params.theta / params.alpha)

    def _integrate(self, s: float) -> None:
        w = self.weights
        mult = w.multiplicity.astype(float)
        buckets, index = float(mult.sum()), np.arange(self.c_max + 1)
        padded = np.array([np.pad(g, (0, index.size - g.size), constant_values=-np.inf)
                           for g in w.per_count])
        # Newton for the peak u = log(s + T), T = sum m E_k: E_k, Var_k moments of i ~ g_k[i] e^(iu)
        lo, hi = math.log(s + buckets), math.log(s + self.n)
        u = 0.5 * (lo + hi)
        for _ in range(200):
            p = np.exp(padded + index * u - np.max(padded + index * u, axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            mean = p @ index
            var = np.sum(p * (index - mean[:, None]) ** 2, axis=1)
            total = s + float(mult @ mean)
            psi = math.log(total) - u
            lo, hi = (u, hi) if psi > 0.0 else (lo, u)
            step = u - psi / min(float(mult @ var) / total - 1.0, -1e-300)
            step = step if lo <= step <= hi else 0.5 * (lo + hi)  # the bracket is closed
            if abs(step - u) <= 1e-14 * max(1.0, abs(u)):
                break
            u = step
        # step 1/(3 sqrt(x*)); 14 widths right of the peak and left of that of the
        # numerator without a bucket of the largest E_k; rows cut at exp(-45)
        x, var_all, top = math.exp(u), float(mult @ var), int(np.argmax(mean))
        x_left = x + 1.0 - mean[top]
        h = 1.0 / (_NODE_DENSITY * math.sqrt(x))
        right = u + 14.0 / math.sqrt(max(x - var_all, 1e-2))
        extend = max(14.0 / math.sqrt(max(x_left - var_all + var[top], 1e-2)), 45.0 / (s + buckets))
        last = w.per_count[-1] + index * right
        cut = np.flatnonzero((last < last.max() - 45.0) & (index > last.argmax()))
        rows = [g[: cut[0] + 1] if cut.size else g for g in w.per_count]
        # s log s - s - log Gamma(s), from the Stirling series where it cancels
        log_norm = (0.5 * math.log(s / (2.0 * math.pi)) - float(_stirling_series(s))
                    if s >= _LGAMMA_SWITCH else s * math.log(s) - s - math.lgamma(s))
        # E_k moves with u: grow left until each leave-one-out integrand is below
        # exp(-36) of its maximum at the first node
        left = math.log(x_left) - extend
        while True:
            nodes = right - h * np.arange(math.ceil((right - left) / h), -1, -1)
            v = nodes - math.log(s)
            log_g = np.array([_logsumexp(g[:, None] + np.arange(g.size)[:, None] * nodes, axis=0)
                              for g in rows])
            base = log_norm + math.log(h) - s * (np.expm1(v) - v) + mult @ log_g  # shape s
            loo = (base + v) - log_g
            if (loo[:, 0] < loo.max(axis=1) - 36.0).all():
                break
            left -= extend
        self.log_den = float(_logsumexp(base, axis=0))
        base += v  # shape s + 1
        self.log_num_full = float(_logsumexp(base, axis=0))
        self.numerator = [_logsumexp((base - lg) + np.arange(g.size)[:, None] * nodes, axis=1)
                          for g, lg in zip(rows, log_g)]

    def log_profile(self, r_max: int) -> np.ndarray:
        """log coverage at orders 0..r_max, each bit for bit that of any longer profile.

        Count c adds logsumexp_i g_{c-r}[i] + numerator[k][i] to orders r <= c.
        """
        if r_max < 0:
            raise DomainError(f"r must be >= 0, got {r_max}")
        theta, alpha, w = self.params.theta, self.params.alpha, self.weights
        top = min(int(r_max), self.c_max)
        # (1 - alpha)_(r) from log-gamma: a cumsum drifts by 3e-10 over 6 000 orders
        log_pre = log_gamma(1.0 - alpha + np.arange(top + 1)) - log_gamma(1.0 - alpha)
        log_pre = math.log(theta / self.width) + log_pre - math.log(theta + self.n) - self.log_den
        out = np.full(int(r_max) + 1, -np.inf)
        # at r = 0 every bucket keeps its row: the full numerator, J times
        out[0] = log_pre[0] + math.log(self.width) + self.log_num_full
        for c, m, num in zip(w.values.tolist(), w.multiplicity.tolist(), self.numerator):
            per_block = max(1, _PROFILE_CELLS // num.size)
            for lo in range(1, min(c, top) + 1, per_block):
                orders = np.arange(lo, min(c, top, lo + per_block - 1) + 1)
                cols = min(c - lo + 1, num.size)  # row c - r has c - r + 1 entries
                rows = np.full((orders.size, cols), -np.inf)
                for row, r in zip(rows, orders.tolist()):
                    g = w.table.row(c - r)[:cols]
                    row[: g.size] = g
                rows += num[:cols] - np.arange(cols) * math.log(self.width)
                terms = _logsumexp(rows, axis=1) + math.log(m) + log_gamma(c + 1.0)
                terms -= log_gamma(orders + 1.0) + log_gamma(c + 1.0 - orders)  # m C(c, r)
                out[orders] = np.logaddexp(out[orders], terms)
        out[1 : top + 1] += log_pre[1:]
        return out

    def loglik(self) -> float:
        w = self.weights
        log_multinom = math.lgamma(self.n + 1) - sum(
            m * math.lgamma(c + 1) for c, m in zip(w.values.tolist(), w.multiplicity.tolist())
        )
        return log_multinom - log_rising_factorial(self.params.theta, self.n) + self.log_den


def pyp_loglik(sketch: Sketch, params: PriorParams, cap: int = DEFAULT_EXACT_CAP) -> float:
    """Exact log probability of the bucket counts under the prior."""
    return _ExactEngine(sketch, params, cap=cap).loglik()


def pyp_coverage_exact(
    sketch: Sketch, params: PriorParams, r: int, cap: int = DEFAULT_EXACT_CAP
) -> float:
    """Exact estimated mass of symbols with frequency r: order r of the profile 0..r."""
    r, engine = int(r), _ExactEngine(sketch, params, cap=cap)
    return float(np.exp(engine.log_profile(min(r, engine.c_max))[r])) if r <= engine.c_max else 0.0


def pyp_freq_counts(
    sketch: Sketch, params: PriorParams, r: int, cap: int = DEFAULT_EXACT_CAP
) -> float:
    """Exact estimated number of distinct symbols with frequency r >= 1."""
    if int(r) < 1:
        raise DomainError(f"frequency order must be >= 1, got {r}")
    p_r = pyp_coverage_exact(sketch, params, r, cap=cap)
    return (params.theta + sketch.n) / (int(r) - params.alpha) * p_r


def pyp_distinct(sketch: Sketch, params: PriorParams, cap: int = DEFAULT_EXACT_CAP) -> float:
    """Exact estimated number of distinct symbols in the un-sketched stream."""
    p0 = pyp_coverage_exact(sketch, params, 0, cap=cap)
    return (params.theta + sketch.n) / params.alpha * p0 - params.theta / params.alpha


def _shifted_moments(log_x: np.ndarray):
    """(shift, mean of exp(log_x - shift)); robust to -inf entries."""
    shift = float(np.max(log_x))
    if shift == -np.inf:
        return 0.0, 0.0
    return shift, float(np.mean(np.exp(log_x - shift)))


# Working set of one block of orders of the Monte Carlo profile: orders x
# samples cells of one float64 sum and one small-int chain read, about 9 MB.
_MC_CELLS = 1 << 20
_MAX_MC_SAMPLES = 1 << 24  # samples of one profile, at most: 128 MB per float64 array


def _check_mc_samples(num_samples) -> int:
    num_samples = int(num_samples)
    if num_samples < 100:
        raise DomainError(f"need at least 100 Monte Carlo samples, got {num_samples}")
    if num_samples > _MAX_MC_SAMPLES:
        raise DomainError(
            f"{num_samples} Monte Carlo samples exceed the limit of {_MAX_MC_SAMPLES}; "
            "pass fewer samples (CLI: --mc-samples)"
        )
    return num_samples


def _mc_profile(sketch: Sketch, params: PriorParams, orders, num_samples: int, seed, debias: str,
                scale: float):
    """(coverage, stderr, diagnostics) at each of ``orders`` from one draw of the chains.

    Each occupied bucket's chains are drawn under PY(alpha, scale), in bucket
    order, from one generator.  A count-1 bucket's chain is K_1 = 1 and draws
    nothing, so such buckets are never walked: pass 1 adds their constant to
    Z' in bucket order, and their order-1 terms, all equal, enter pass 2 once
    with weight m_1.  Pass 1 walks every other bucket to depth c for Z'; pass
    2 replays it from the state saved in pass 1, reads depth c - r for a
    block of orders (``_MC_CELLS``) and sums w_j Z_j per order, the scale
    entering as (scale)_(c-r)/(scale)_(c) and the lookup (scale/alpha)_(K).
    The Tin correction is linear in Z_j, so it and the SE are applied to the
    sum.  Diagnostics: Kish's ESS (sum w)^2/sum w^2, largest share max w/sum w.
    """
    params.require_estimable(need_alpha_positive=True)
    num_samples = _check_mc_samples(num_samples)
    if debias not in ("none", "tin"):
        raise DomainError(f"unknown debias mode {debias!r}")
    values, _ = count_multiset(sketch.counts)  # refuses counts of 2^63 or more
    c_max = int(values.max(initial=0))
    coverage = dict.fromkeys((int(r) for r in orders), 0.0)
    stderr = dict(coverage)
    if min(coverage) > c_max:
        return coverage, stderr, {}  # every order vanishes, and nothing is drawn
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

    states = []
    t_total = np.full(num_samples, ones, dtype=np.int64)
    s_total = np.zeros(num_samples)
    for c in occ_counts:
        if c == 1:  # K_1 = 1: the term a walk would add, in the same place of the sum
            s_total += log_rf_chain[1]
            continue
        states.append(rng.bit_generator.state)
        for _, k_c in distinct_chain(c, chain, num_samples, rng):
            pass
        t_total += k_c
        s_total += log_rf_chain[k_c]
    end_state = rng.bit_generator.state

    # Z' / e^den_shift, in place of log Z'
    zden = log_f_den[t_total] - s_total
    den_shift = float(np.max(zden))
    zden -= den_shift
    np.exp(zden, out=zden)
    den_mean = float(np.mean(zden))
    var_den = float(np.var(zden, ddof=1))
    tin = debias == "tin"

    def kish(w_sh):
        total = float(np.sum(w_sh))
        return total * total / float(np.dot(w_sh, w_sh)), float(np.max(w_sh)) / total

    den_ess, den_share = kish(zden)
    diagnostics = {"ess": {}, "max_weight_share": {}, "den_ess": den_ess,
                   "den_max_weight_share": den_share}

    if 0 in coverage:  # every bucket keeps depth c_s: all J ratios coincide, with weight 1
        log_agg = log_f_num[t_total] - s_total
        num_shift, num_mean = _shifted_moments(log_agg)
        value = math.exp(num_shift - den_shift) * num_mean / den_mean
        if tin:
            cov = float(np.cov(np.exp(log_agg - num_shift), zden, ddof=1)[0, 1])
            value *= 1.0 + (
                cov / (num_samples * num_mean * den_mean)
                - var_den / (num_samples * den_mean**2)
            )
        coverage[0] = math.exp(float(log_pre[0])) * (value * width)
        # delta-method SE of mean(A)/mean(B) from the residuals A_i - R*B_i (no cancellation)
        log_agg = math.log(width) + log_agg
        agg_shift, agg_mean = _shifted_moments(log_agg)
        agg_sh = np.exp(log_agg - agg_shift)
        var_resid = float(np.var(agg_sh - agg_mean / den_mean * zden, ddof=1))
        stderr[0] = (math.exp(float(log_pre[0]) + agg_shift - den_shift)
                     * math.sqrt(var_resid / num_samples) / den_mean)
        diagnostics["ess"][0], diagnostics["max_weight_share"][0] = kish(agg_sh)
        del log_agg, agg_sh  # not held through pass 2

    # orders >= 1 are finished from their linear sums: the covariance and the
    # SE residual of mean(A)/mean(B) are dot products with the centred Z'
    zden -= den_mean

    def finish(r, log_scale, lin_row):
        total = float(np.sum(lin_row))
        mean = total / num_samples
        factor = math.exp(log_scale - den_shift) / den_mean
        value = factor * mean
        if tin:
            cov = float(np.dot(lin_row, zden)) / (num_samples - 1)
            value *= 1.0 + (
                cov / (num_samples * mean * den_mean)
                - var_den / (num_samples * den_mean**2)
            )
        coverage[r] = value
        resid = lin_row - (mean / den_mean) * zden
        resid -= np.mean(resid)
        var_resid = float(np.dot(resid, resid)) / (num_samples - 1)
        stderr[r] = factor * math.sqrt(var_resid / num_samples)
        diagnostics["ess"][r] = total * total / float(np.dot(lin_row, lin_row))
        diagnostics["max_weight_share"][r] = float(np.max(lin_row)) / total

    def add_term(row, logw, idx, log_chain):
        """lin[row] += exp(logw + log_f_num[idx] - log_chain - shift[row])."""
        term = log_f_num.take(idx, mode="clip")
        term -= log_chain
        term += logw
        top = float(np.max(term))
        if top > shift[row]:
            lin[row] *= math.exp(shift[row] - top)
            shift[row] = top
        term -= shift[row]
        lin[row] += np.exp(term, out=term)

    def add_bucket(c, k_c, rows):
        """The terms of one walked bucket, from its final chains k_c and its reads."""
        t_rest, s_rest = t_total - k_c, s_total - log_rf_chain[k_c]
        idx, lookup = np.empty_like(t_rest), np.empty(num_samples)
        for i, row in rows.items():
            logw = math.lgamma(c + 1) - math.lgamma(c - i + 1) - math.lgamma(i + 1)
            logw = logw + log_scale_rf[i] - log_scale_rf[c]
            np.copyto(idx, reads[row])  # an int64 index gathers ~4x faster than a small-int one
            np.take(log_rf_chain, idx, out=lookup, mode="clip")  # "raise" would buffer the output
            lookup += s_rest
            idx += t_rest
            add_term(row, logw, idx, lookup)

    live = sorted(r for r in coverage if 0 < r <= c_max)
    per_block = max(1, _MC_CELLS // num_samples)
    for lo in range(0, len(live), per_block):
        block = live[lo : lo + per_block]
        # sum_j w_j Z_j of each order is exp(shift) * lin
        shift = np.full(len(block), -np.inf)
        lin = np.zeros((len(block), num_samples))
        reads = np.empty(lin.shape, dtype=np.min_scalar_type(-c_max))  # chain values are <= c_max
        if ones and block[0] == 1:  # every count-1 bucket reads K_0 = 0 at order 1: one term
            add_term(0, math.log(ones) - float(log_scale_rf[1]), t_total - 1, s_total - log_rf_chain[1])
        for c, state in zip(walked, states):
            rows = {c - r: row for row, r in enumerate(block) if r <= c}  # depth -> row
            if not rows:
                continue
            rng.bit_generator.state = state
            for i, k_c in distinct_chain(c, chain, num_samples, rng):
                if i in rows:
                    reads[rows[i]] = k_c
            add_bucket(c, k_c, rows)
        rng.bit_generator.state = end_state
        # the prefactor goes into the sum: (1-alpha)_(r) passes 1e308 from r ~ 170
        for r, row_shift, row in zip(block, shift, lin):
            finish(r, row_shift + log_pre[r], row)
    return coverage, stderr, diagnostics


def pyp_coverage_mc(
    sketch: Sketch,
    params: PriorParams,
    r: int,
    num_samples: int,
    seed,
    debias: str = "tin",
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
    r = int(r)
    if r < 0:
        raise DomainError(f"r must be >= 0, got {r}")
    coverage, stderr, _ = _mc_profile(sketch, params, [r], num_samples, seed, debias, params.theta)
    return coverage[r], stderr[r]


def pyp_missing_asymptotic(n: int, width: int, params: PriorParams) -> float:
    """Power-law large-n approximation of the missing-mass estimate.

    n^(alpha-1) * J^(1-alpha) * Gamma(theta + J*alpha - alpha + 1) /
    Gamma(theta + J*alpha), derived under equal bucket fill; qualitative
    only (no error bound), and restricted to alpha in (0, 1).
    """
    if not 0.0 < params.alpha < 1.0:
        raise DomainError("the asymptotic approximation requires alpha in (0, 1)")
    n = int(n)
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    width = int(width)
    alpha, theta = params.alpha, params.theta
    log_const = (
        (1.0 - alpha) * math.log(width)
        + math.lgamma(theta + width * alpha - alpha + 1.0)
        - math.lgamma(theta + width * alpha)
    )
    return math.exp((alpha - 1.0) * math.log(n) + log_const)


def sorted_count_distance(counts_a, counts_b) -> float:
    """Mean absolute difference of sorted bucket counts (same width)."""
    a = np.sort(np.asarray(counts_a, dtype=float))
    b = np.sort(np.asarray(counts_b, dtype=float))
    if a.size != b.size:
        raise DomainError("sorted-count distance needs equal widths")
    return float(np.mean(np.abs(a - b)))


DEFAULT_ALPHA_GRID = tuple(np.round(np.arange(0.0, 0.951, 0.05), 10))
DEFAULT_THETA_GRID = tuple(np.logspace(-1.0, 5.0, 10))

# Working set of one lockstep batch of the fit: rows x max(n_sim, width)
# cells, i.e. about 8 MB of int32 repeat table.
_LOCKSTEP_CELLS = 1 << 21


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
    is declared, since the argmin of many noisy means is biased low.  Set
    refine_theta=0 / rescore_top=0 to disable either stage.

    Simulation uses the sequential predictive sampler: the sketch depends
    only on the symbol sequence, and stick coverage would be intractable on
    the heavy-discount end of the grid.  The streams of a stage (grid, theta
    refinement, rescoring) run in lockstep, one row per (alpha, theta,
    replicate), in batches of a fixed working set (``_LOCKSTEP_CELLS``:
    about 8 MB of repeat table); the bucket of each symbol id is hashed once
    per fit.  The surface equals that of sampling and sketching each stream
    on its own, bit for bit.
    """
    if sketch.n == 0:
        raise DomainError("cannot fit parameters on an empty sketch")
    spec = sketch.spec
    alpha_grid = sorted(float(a) for a in alpha_grid)
    theta_grid = sorted(float(t) for t in theta_grid)
    if not alpha_grid or not theta_grid:
        raise DomainError("parameter grid must be nonempty")
    if num_reps < 1:
        raise DomainError(f"num_reps must be >= 1, got {num_reps}")
    n = sketch.n
    n_sim = int(n_sim) if n_sim is not None else min(n, 10_000)
    if not 1 <= n_sim <= n:
        raise DomainError(f"n_sim must lie in [1, n], got {n_sim}")
    target = np.sort(np.asarray(sketch.counts, dtype=float)) * (n_sim / n)

    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rep_seeds = ss.spawn(4 * num_reps)
    bucket_of_id = buckets_u64(
        prehash_u64(np.arange(n_sim), spec.symbol_seed), spec.a, spec.b, spec.width
    )
    batch_rows = max(1, _LOCKSTEP_CELLS // max(n_sim, spec.width))

    def mean_distances(points, reps: int) -> dict:
        """Distance of each (alpha, theta) point averaged over the first reps replicates."""
        for a, t in points:
            PriorParams(alpha=a, theta=t)
        jobs = [(p, r) for r in range(reps) for p in range(len(points))]
        dist = np.empty((len(points), reps))
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
            for (p, r), row in zip(batch, counts):
                dist[p, r] = sorted_count_distance(row, target)
        # replicate distances are added in replicate order, as a running sum
        means = dist.cumsum(axis=1)[:, -1] / reps
        return {at: float(d) for at, d in zip(points, means)}

    scores = mean_distances([(a, t) for a in alpha_grid for t in theta_grid], num_reps)
    if refine_theta > 0:
        t_best = min(scores, key=lambda at: (scores[at], at))[1]
        extra = np.logspace(
            math.log10(t_best) - 0.5, math.log10(t_best) + 0.5, int(refine_theta) + 2
        )[1:-1]
        fresh = [(a, float(t)) for a in alpha_grid for t in extra]
        scores.update(mean_distances([at for at in fresh if at not in scores], num_reps))
    if rescore_top > 0:
        shortlist = sorted(scores, key=lambda at: (scores[at], at))[: int(rescore_top)]
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
    method: str = "exact",
    r_max: int | None = None,
    mc_samples: int = 100_000,
    debias: str = "tin",
    seed=0,
    cap: int = DEFAULT_EXACT_CAP,
) -> EstimateReport:
    """Bundle fitting and estimation under the two-parameter prior.

    A Wasserstein fit may land on alpha = 0, where the two-parameter
    estimators degenerate; the report then falls back to the closed-form
    zero-discount estimators at the fitted theta (method tag "dp-exact").
    r_max defaults to the largest bucket count.  The exact and Monte Carlo
    profiles refuse more orders than the zero-discount one (2^24), and the
    Monte Carlo profile more than 2^24 samples, before a fit or an allocation.
    """
    t0 = time.perf_counter()
    if r_max is not None and r_max < 0:
        raise DomainError(f"r_max must be >= 0, got {r_max}")
    # refusals before a fit, which a refused sketch would waste
    if method == "exact":
        _check_cap(sketch.n, cap)
    r_max = int(count_multiset(sketch.counts)[0][-1]) if r_max is None else int(r_max)
    if method in ("exact", "mc"):
        _check_orders(r_max)
    if method == "mc":
        mc_samples = _check_mc_samples(mc_samples)
    if fit == "eb-wasserstein":
        wf = wasserstein_fit(sketch, seed=seed)
        prior = wf.prior
        params = PriorParams(alpha=prior.alpha, theta=prior.theta)
    elif fit == "none":
        if params is None:
            raise DomainError("fit='none' requires explicit prior parameters")
        prior = FittedPrior(alpha=params.alpha, theta=params.theta, provenance="given")
    else:
        raise DomainError(f"unknown fit mode {fit!r} for the two-parameter prior")
    if params.alpha == 0.0:
        if fit != "eb-wasserstein":
            raise DomainError("alpha = 0 is the zero-discount prior; use the dp estimators")
        rep = dp_report(sketch, theta=params.theta, fit="none", r_max=r_max)
        rep.prior = prior
        rep.wall_time = time.perf_counter() - t0
        return rep

    theta, alpha = params.theta, params.alpha
    n = sketch.n
    coverage: dict[int, float] = {}
    stderr: dict[int, float] | None = None
    diagnostics: dict = {}

    if method == "exact":
        engine = _ExactEngine(sketch, params, cap=cap)
        coverage = dict(enumerate(np.exp(engine.log_profile(r_max)).tolist()))
        tag = "pyp-exact"
    elif method == "mc":
        coverage, stderr, diagnostics = _mc_profile(
            sketch, params, range(r_max + 1), mc_samples, seed, debias, theta / sketch.spec.width
        )
        tag = "pyp-mc"
    elif method == "asymptotic":
        coverage[0] = pyp_missing_asymptotic(n, sketch.spec.width, params)
        tag = "pyp-asymptotic"
    else:
        raise DomainError(f"unknown method {method!r}")
    freq = {r: (theta + n) / (r - alpha) * c for r, c in coverage.items() if r >= 1}
    distinct = None if method == "asymptotic" else (theta + n) / alpha * coverage[0] - theta / alpha

    return EstimateReport(
        n=n,
        width=sketch.spec.width,
        prior=prior,
        method=tag,
        coverage=coverage,
        freq_counts=freq,
        distinct=distinct,
        mc_stderr=stderr,
        diagnostics=diagnostics,
        wall_time=time.perf_counter() - t0,
    )
