"""Sketch-only estimators under the two-parameter (Pitman-Yor) prior.

The exact posterior expressions sum a product of generalized factorial
coefficients over the Cartesian product of per-bucket latent block counts,
which is astronomically large as written.  Every summand, however, factors
as f(t) * prod_s g_s(i_s) where t = |i| is the latent total block count, so
the whole sum collapses to sum_t f(t) * exp(W[t]) with W the log-space
convolution of the per-bucket coefficient sequences.  A bucket's sequence
depends only on its count, so the work runs over the U <= sqrt(2n) distinct
counts: the exact estimators are O(U * n^2) instead of exponential,
practical to a few thousand observations; beyond the cap a Monte Carlo
representation over distinct-count chains takes over (with the documented
upward bias for large n).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .genmodel import PriorParams, crp_bucket_counts, rng_from, sample_distinct_pairs
from .numkit import (
    DomainError,
    GfcTable,
    log_convolve,
    log_correlate,
    log_rising_factorial_prefix,
    logsumexp,
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


class ExactCapError(DomainError):
    """The exact convolution path refuses totals above its cap."""


@dataclass
class LogBlockWeights:
    """Log-space machinery of the latent total-block-count expansion.

    values[k] is a distinct occupied bucket count and multiplicity[k] the
    number of buckets holding it; per_count[k][i] = log of (coefficient
    expanding count values[k]) / J^i; total[t] sums every assignment with t
    latent blocks overall; without_one[k] is the same sum with one bucket of
    count values[k] left out.
    """

    values: np.ndarray
    multiplicity: np.ndarray
    per_count: list
    without_one: list
    total: np.ndarray


def _check_cap(n: int, cap: int | None) -> None:
    if cap is not None and n > cap:
        raise ExactCapError(
            f"exact mode handles totals up to {cap}, got n={n}; "
            "use the Monte Carlo estimator (pyp_coverage_mc) instead"
        )


def block_weights(counts, alpha, width: int | None = None, cap: int = DEFAULT_EXACT_CAP) -> LogBlockWeights:
    """Build the per-count sequences and their convolutions.

    counts are the bucket counts (empty buckets are neutral); width defaults
    to len(counts) and fixes the 1/J^i attenuation.  Totals above the cap
    raise ``ExactCapError`` pointing at the Monte Carlo path.

    The m buckets sharing a count c contribute g_c^{*m}, so the work runs
    over the U distinct counts: the leave-one-out weights of count c are
    g_c^{*(m-1)} convolved with the prefix and suffix products of the other
    groups.
    """
    counts = np.asarray(counts)
    values, mult = count_multiset(counts)
    _check_cap(sum(c * m for c, m in zip(values.tolist(), mult.tolist())), cap)
    width = int(width) if width is not None else int(counts.size)
    occupied = values > 0
    values, mult = values[occupied], mult[occupied]
    table = GfcTable(float(alpha))
    log_j = math.log(width)
    per_count = [table.row(c) - np.arange(c + 1) * log_j for c in values.tolist()]
    powers = []  # g_c^{*(m-1)}
    for g, m in zip(per_count, mult.tolist()):
        power = np.array([0.0])
        for _ in range(m - 1):
            power = log_convolve(power, g)
        powers.append(power)
    groups = [log_convolve(power, g) for g, power in zip(per_count, powers)]  # g_c^{*m}
    prefix = [np.array([0.0])]
    for w in groups:
        prefix.append(log_convolve(prefix[-1], w))
    suffix = [np.array([0.0])]
    for w in reversed(groups):
        suffix.append(log_convolve(w, suffix[-1]))
    suffix.reverse()
    without_one = [
        log_convolve(log_convolve(prefix[k], power), suffix[k + 1]) for k, power in enumerate(powers)
    ]
    return LogBlockWeights(
        values=values, multiplicity=mult, per_count=per_count, without_one=without_one, total=prefix[-1]
    )


class _ExactEngine:
    """Shared state for exact estimates at many coverage orders.

    Leave-one-out weights and the numerator correlation per distinct count
    are independent of the order r, so a full profile costs barely more than
    a single order.  The correlations are built on first use.
    """

    def __init__(self, sketch: Sketch, params: PriorParams, cap: int = DEFAULT_EXACT_CAP):
        params.require_estimable(need_alpha_positive=True)
        self.params = params
        self.n = sketch.n
        self.width = sketch.spec.width
        self.weights = block_weights(sketch.counts, params.alpha, width=self.width, cap=cap)
        self.c_max = int(self.weights.values.max(initial=0))
        self.table = GfcTable(params.alpha)
        theta, alpha = params.theta, params.alpha
        ratio = theta / alpha
        self.logf_den = log_rising_factorial_prefix(ratio, self.n)
        self.logf_num = log_rising_factorial_prefix(1.0 + ratio, self.n)
        self.log_den = logsumexp(self.weights.total + self.logf_den)
        self.log_num_full = logsumexp(self.weights.total + self.logf_num)
        self.log_j = math.log(self.width)
        self._correlations = [None] * self.weights.values.size

    def _numerator_correlation(self, k: int) -> np.ndarray:
        """F[i] = logsumexp_t exp(without_one[k][t]) * f_num(t + i), i = 0..values[k]."""
        if self._correlations[k] is None:
            self._correlations[k] = log_correlate(self.weights.without_one[k], self.logf_num)
        return self._correlations[k]

    def log_coverage(self, r: int) -> float:
        """log of the coverage estimate at order r (-inf when it is zero)."""
        r = int(r)
        if r < 0:
            raise DomainError(f"r must be >= 0, got {r}")
        theta, alpha = self.params.theta, self.params.alpha
        if r > self.c_max:
            return -np.inf
        log_pre = (
            math.log(theta / self.width)
            + float(log_rising_factorial_prefix(1.0 - alpha, max(r, 1))[r])
            - math.log(theta + self.n)
        )
        if r == 0:
            # every bucket keeps its own sequence, so the leave-one-out sum
            # is the full one and the bucket sum contributes a factor J
            return log_pre + self.log_j + self.log_num_full - self.log_den
        values, mult = self.weights.values, self.weights.multiplicity
        terms = []
        for k in range(int(np.searchsorted(values, r)), values.size):
            c = int(values[k])
            g_repl = self.table.row(c - r) - np.arange(c - r + 1) * self.log_j
            log_num = logsumexp(g_repl + self._numerator_correlation(k)[: c - r + 1])
            log_binom = (
                math.lgamma(c + 1) - math.lgamma(r + 1) - math.lgamma(c - r + 1)
            )
            terms.append(math.log(mult[k]) + log_binom + log_num)
        return log_pre + logsumexp(np.array(terms)) - self.log_den

    def coverage(self, r: int) -> float:
        return float(np.exp(self.log_coverage(r)))

    def loglik(self) -> float:
        theta = self.params.theta
        w = self.weights
        log_multinom = math.lgamma(self.n + 1) - sum(
            m * math.lgamma(c + 1) for c, m in zip(w.values.tolist(), w.multiplicity.tolist())
        )
        log_rf_total = float(log_rising_factorial_prefix(theta, self.n)[self.n])
        return log_multinom - log_rf_total + self.log_den

    def freq_counts(self, r: int) -> float:
        r = int(r)
        if r < 1:
            raise DomainError(f"frequency order must be >= 1, got {r}")
        return (self.params.theta + self.n) / (r - self.params.alpha) * self.coverage(r)

    def distinct(self) -> float:
        p0 = self.coverage(0)
        theta, alpha = self.params.theta, self.params.alpha
        return (theta + self.n) / alpha * p0 - theta / alpha


def pyp_loglik(sketch: Sketch, params: PriorParams, cap: int = DEFAULT_EXACT_CAP) -> float:
    """Exact log probability of the bucket counts under the prior."""
    return _ExactEngine(sketch, params, cap=cap).loglik()


def pyp_coverage_exact(
    sketch: Sketch, params: PriorParams, r: int, cap: int = DEFAULT_EXACT_CAP
) -> float:
    """Exact estimated mass of symbols with frequency r, via the convolution."""
    return _ExactEngine(sketch, params, cap=cap).coverage(r)


def pyp_freq_counts(
    sketch: Sketch, params: PriorParams, r: int, cap: int = DEFAULT_EXACT_CAP
) -> float:
    """Exact estimated number of distinct symbols with frequency r >= 1."""
    return _ExactEngine(sketch, params, cap=cap).freq_counts(r)


def pyp_distinct(sketch: Sketch, params: PriorParams, cap: int = DEFAULT_EXACT_CAP) -> float:
    """Exact estimated number of distinct symbols in the un-sketched stream."""
    return _ExactEngine(sketch, params, cap=cap).distinct()


def _shifted_moments(log_x: np.ndarray):
    """(shift, mean of exp(log_x - shift)); robust to -inf entries."""
    shift = float(np.max(log_x))
    if shift == -np.inf:
        return 0.0, 0.0
    return shift, float(np.mean(np.exp(log_x - shift)))


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
    read at depth c_j - r.  (The two statistics must be read exactly this
    way round; any mixing of the depths breaks the identity with the exact
    convolution value, which the test suite checks on small instances.)

    Each bucket draws one chain per sample, giving both depths at once; all
    Z statistics are assembled from log values with max shifts.  Ratios of
    sample means are biased for all but small n; debias="tin" applies the
    classical second-order correction

        ratio * (1 + cov(Z, Z')/(N m_Z m_Z') - var(Z')/(N m_Z'^2)),

    which mitigates but does not remove the skew-driven overestimation at
    large n.  The reported standard error is a delta-method value for the
    aggregated ratio and ignores the (second-order) debiasing term; once n
    is large enough that a handful of draws carry nearly all the weight,
    the empirical variance cannot see the missing tail and the reported SE
    itself becomes an underestimate, so only the small-n reading is
    quantitative.
    """
    params.require_estimable(need_alpha_positive=True)
    r = int(r)
    if r < 0:
        raise DomainError(f"r must be >= 0, got {r}")
    num_samples = int(num_samples)
    if num_samples < 100:
        raise DomainError(f"need at least 100 Monte Carlo samples, got {num_samples}")
    if debias not in ("none", "tin"):
        raise DomainError(f"unknown debias mode {debias!r}")
    counts = np.asarray(sketch.counts, dtype=np.int64)
    n = sketch.n
    width = sketch.spec.width
    theta, alpha = params.theta, params.alpha
    c_max = int(counts.max(initial=0))
    if r > c_max:
        return 0.0, 0.0
    rng = rng_from(seed)
    occ = np.flatnonzero(counts)
    occ_counts = counts[occ]

    # log (theta/alpha)_(k) lookup for chain values, and the two f tables
    ratio = theta / alpha
    log_rf_ratio = log_rising_factorial_prefix(ratio, c_max)
    log_f_den = log_rising_factorial_prefix(ratio, n)
    log_f_num = log_rising_factorial_prefix(1.0 + ratio, n)
    log_theta_rf = log_rising_factorial_prefix(theta, c_max)
    log_j = math.log(width)

    t_total = np.zeros(num_samples, dtype=np.int64)
    s_total = np.zeros(num_samples)
    stored = []  # (bucket count c, K_{c-r}, K_c) for buckets that admit order r
    for c in occ_counts.tolist():
        r_eff = r if c >= r else 0
        k_cr, k_c = sample_distinct_pairs(c, r_eff, params, num_samples, rng)
        t_total += k_c
        s_total += log_rf_ratio[k_c]
        if c >= r:
            stored.append((c, k_cr.astype(np.int32), k_c.astype(np.int32)))

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
        # every bucket (occupied or not) keeps depth c_s, so all J ratios
        # coincide and their weights are 1
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

    estimate = math.exp(log_prefactor) * total

    # delta-method SE of the aggregated ratio mean(A)/mean(B), computed from
    # the residuals A_i - R*B_i: algebraically the same first-order variance,
    # but free of the catastrophic cancellation the textbook three-term form
    # suffers when A and B are nearly proportional
    agg_shift, agg_mean = _shifted_moments(log_agg)
    if agg_mean > 0.0:
        agg_sh = np.exp(log_agg - agg_shift)
        ratio_sh = agg_mean / den_mean
        residuals = agg_sh - ratio_sh * zden_sh
        var_resid = float(np.var(residuals, ddof=1))
        stderr = (
            math.exp(log_prefactor + agg_shift - den_shift)
            * math.sqrt(var_resid / num_samples)
            / den_mean
        )
    else:
        stderr = 0.0
    return estimate, stderr


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
    hash_spec=None,
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
    spec = hash_spec if hash_spec is not None else sketch.spec
    if spec != sketch.spec:
        raise DomainError("fit must sketch simulations with the input sketch's own hash spec")
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
    fit_kwargs: dict | None = None,
) -> EstimateReport:
    """Bundle fitting and estimation under the two-parameter prior.

    A Wasserstein fit may land on alpha = 0, where the two-parameter
    estimators degenerate; the report then falls back to the closed-form
    zero-discount estimators at the fitted theta (method tag "dp-exact").
    """
    t0 = time.perf_counter()
    if method == "exact":
        _check_cap(sketch.n, cap)  # before a fit, which an over-cap sketch would waste
    if fit == "eb-wasserstein":
        wf = wasserstein_fit(sketch, seed=seed, **(fit_kwargs or {}))
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
        from .dp import dp_report

        rep = dp_report(sketch, theta=params.theta, fit="none", r_max=r_max)
        rep.prior = prior
        rep.wall_time = time.perf_counter() - t0
        return rep

    r_max = int(count_multiset(sketch.counts)[0][-1]) if r_max is None else int(r_max)
    theta, alpha = params.theta, params.alpha
    n = sketch.n
    coverage: dict[int, float] = {}
    freq: dict[int, float] = {}
    stderr: dict[int, float] | None = None

    if method == "exact":
        engine = _ExactEngine(sketch, params, cap=cap)
        for r in range(r_max + 1):
            coverage[r] = engine.coverage(r)
            if r >= 1:
                freq[r] = engine.freq_counts(r)
        distinct = engine.distinct()
        tag = "pyp-exact"
    elif method == "mc":
        stderr = {}
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        children = ss.spawn(r_max + 1)
        for r in range(r_max + 1):
            est, se = pyp_coverage_mc(sketch, params, r, mc_samples, children[r], debias=debias)
            coverage[r] = est
            stderr[r] = se
            if r >= 1:
                freq[r] = (theta + n) / (r - alpha) * est
        distinct = (theta + n) / alpha * coverage[0] - theta / alpha
        tag = "pyp-mc"
    elif method == "asymptotic":
        coverage[0] = pyp_missing_asymptotic(n, sketch.spec.width, params)
        distinct = None
        tag = "pyp-asymptotic"
    else:
        raise DomainError(f"unknown method {method!r}")

    return EstimateReport(
        n=n,
        width=sketch.spec.width,
        prior=prior,
        method=tag,
        coverage=coverage,
        freq_counts=freq,
        distinct=distinct,
        mc_stderr=stderr,
        wall_time=time.perf_counter() - t0,
    )
