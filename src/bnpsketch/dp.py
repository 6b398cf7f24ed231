"""Sketch-only estimators under the zero-discount (Dirichlet-process) prior.

Conditioned on the bucket counts, the posterior mean of the probability mass
of symbols seen exactly r times has a closed form: each bucket j with count
c_j >= r contributes

    (theta/J) * r! * C(c_j, r) * (theta/J)_(c_j - r) / (theta/J)_(c_j)

divided by theta + n.  The bucket counts themselves follow a symmetric
Dirichlet-Multinomial law with per-bucket weight theta/J, which doubles as
the marginal likelihood for empirical-Bayes fitting of theta.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .numkit import DomainError, digamma
from .report import EstimateReport, FittedPrior
from .sketch import Sketch, count_multiset

__all__ = [
    "dp_coverage",
    "dp_coverage_profile",
    "dp_distinct",
    "dp_fit_theta",
    "dp_freq_counts",
    "dp_loglik",
    "dp_report",
]

# Above this bucket count the distinct-count harmonic sum switches to a
# digamma difference (identical value, O(1) per bucket).
_HARMONIC_CUTOFF = 1_000_000

DEFAULT_THETA_BOUNDS = (1e-3, 1e9)


def _check_theta(theta) -> float:
    theta = float(theta)
    if theta <= 0.0:
        raise DomainError(f"theta must be > 0, got {theta}")
    return theta


# The private evaluators below read the count multiset (vals, mult) from
# ``count_multiset``, so a caller that needs several quantities groups once.


def _loglik(vals, mult, n, width, theta) -> float:
    from scipy.special import gammaln

    z = theta / width
    log_multinom = gammaln(n + 1) - float(np.dot(mult, gammaln(vals + 1.0)))
    log_rf_buckets = float(np.dot(mult, gammaln(z + vals))) - mult.sum() * gammaln(z)
    log_rf_total = gammaln(theta + n) - gammaln(theta)
    return log_multinom + log_rf_buckets - log_rf_total


def _coverage(vals, mult, n, width, theta, r) -> float:
    """Sum over counts c >= r of C(c, r) * r! * (theta/J)_(c-r) / (theta/J)_(c), scaled."""
    from scipy.special import gammaln

    if r == 0:
        return theta / (theta + n)
    keep = vals >= r
    if not keep.any():
        return 0.0
    vals, mult = vals[keep], mult[keep]
    z = theta / width
    log_fall = gammaln(vals + 1.0) - gammaln(vals - r + 1.0)  # c!/(c-r)! = C(c,r)*r!
    log_rf_ratio = gammaln(z + vals - r) - gammaln(z + vals)
    logs = log_fall + log_rf_ratio + np.log(mult)
    m = logs.max()
    total = math.exp(m) * float(np.sum(np.exp(logs - m)))
    return z * total / (theta + n)


def _distinct(vals, mult, width, theta) -> float:
    z = theta / width
    c_max = int(vals.max(initial=0))
    if c_max == 0:
        return 0.0
    if c_max <= _HARMONIC_CUTOFF:
        prefix = np.concatenate(([0.0], np.cumsum(1.0 / (z + np.arange(c_max, dtype=float)))))
        per_count = prefix[vals]
    else:
        psi_z = digamma(z)
        per_count = np.array([digamma(z + c) - psi_z for c in vals])
    return z * float(np.dot(mult, per_count))


def dp_loglik(sketch: Sketch, theta) -> float:
    """Log marginal likelihood of the bucket counts given theta.

    log multinomial coefficient - log (theta)_(n) + sum_j log (theta/J)_(c_j).
    """
    theta = _check_theta(theta)
    vals, mult = count_multiset(sketch.counts)
    return _loglik(vals, mult, sketch.n, sketch.spec.width, theta)


def dp_fit_theta(sketch: Sketch, bounds=DEFAULT_THETA_BOUNDS):
    """Maximize the marginal likelihood over theta by golden-section search.

    The likelihood is log-concave in log(theta), so the search runs on
    log(theta) to relative tolerance 1e-6 and is guaranteed unimodal.
    Returns (theta_hat, boundary_hit): uniform-ish sketches push the optimum
    to the upper bound and degenerate single-bucket sketches to the lower
    one, so callers must watch the flag.
    """
    lo, hi = float(bounds[0]), float(bounds[1])
    if not 0.0 < lo < hi:
        raise DomainError(f"need 0 < lo < hi, got {bounds}")
    if sketch.n == 0:
        raise DomainError("cannot fit theta on an empty sketch (flat likelihood)")
    vals, mult = count_multiset(sketch.counts)

    def f(log_t):
        return _loglik(vals, mult, sketch.n, sketch.spec.width, math.exp(log_t))

    a, b = math.log(lo), math.log(hi)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while abs(b - a) > 1e-6 * max(1.0, abs(a), abs(b)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    log_t = 0.5 * (a + b)
    best, f_best = log_t, f(log_t)
    for edge in (math.log(lo), math.log(hi)):
        fe = f(edge)
        if fe > f_best:
            best, f_best = edge, fe
    theta_hat = math.exp(best)
    boundary = best in (math.log(lo), math.log(hi)) or (
        min(best - math.log(lo), math.log(hi) - best) < 1e-5
    )
    return theta_hat, boundary


def dp_coverage(sketch: Sketch, theta, r: int) -> float:
    """Estimated probability mass of symbols with sample frequency r.

    r = 0 collapses to theta/(theta+n): under the zero-discount prior the
    missing-mass answer depends on the data only through n.  Orders above the
    largest bucket count are exactly zero.
    """
    theta = _check_theta(theta)
    r = int(r)
    if r < 0:
        raise DomainError(f"r must be >= 0, got {r}")
    vals, mult = count_multiset(sketch.counts)
    return _coverage(vals, mult, sketch.n, sketch.spec.width, theta, r)


def dp_coverage_profile(sketch: Sketch, theta, r_max: int) -> np.ndarray:
    """Coverage estimates for every order r = 0..r_max."""
    theta = _check_theta(theta)
    vals, mult = count_multiset(sketch.counts)
    n, width = sketch.n, sketch.spec.width
    return np.array([_coverage(vals, mult, n, width, theta, r) for r in range(int(r_max) + 1)])


def dp_freq_counts(sketch: Sketch, theta, r: int) -> float:
    """Estimated number of distinct symbols with frequency r >= 1."""
    r = int(r)
    if r < 1:
        raise DomainError(f"frequency order must be >= 1, got {r}")
    theta = _check_theta(theta)
    vals, mult = count_multiset(sketch.counts)
    return (theta + sketch.n) / r * _coverage(vals, mult, sketch.n, sketch.spec.width, theta, r)


def dp_distinct(sketch: Sketch, theta) -> float:
    """Estimated number of distinct symbols in the un-sketched stream.

    Evaluated as the harmonic sum sum_j sum_{m < c_j} z/(z+m) with z = theta/J.
    The equivalent digamma difference z*(psi(z+c_j) - psi(z)) is used instead
    for very large buckets; it is pole-free because both arguments stay
    positive (the textbook form with negated arguments has spurious poles at
    integer z although the difference is finite).
    """
    theta = _check_theta(theta)
    vals, mult = count_multiset(sketch.counts)
    return _distinct(vals, mult, sketch.spec.width, theta)


def dp_distinct_digamma_literal(sketch: Sketch, theta) -> float:
    """Reference evaluation via reflected digamma arguments.

    Equal to ``dp_distinct`` wherever theta/J is not an integer; kept only as
    an independent cross-check of the harmonic form.
    """
    theta = _check_theta(theta)
    z = theta / sketch.spec.width
    total = -theta * digamma(1.0 - z)
    for c in np.asarray(sketch.counts, dtype=np.int64):
        total += z * digamma(1.0 - z - float(c))
    return total


def dp_report(
    sketch: Sketch,
    theta=None,
    fit: str = "none",
    r_max: int | None = None,
    theta_bounds=DEFAULT_THETA_BOUNDS,
) -> EstimateReport:
    """Bundle fitting, coverage, frequency counts and the distinct count.

    fit = "none" uses the supplied theta; fit = "eb-mle" maximizes the sketch
    marginal likelihood.  r_max defaults to the largest bucket count (beyond
    which every estimate is exactly zero).
    """
    t0 = time.perf_counter()
    boundary = False
    if fit == "eb-mle":
        theta_hat, boundary = dp_fit_theta(sketch, bounds=theta_bounds)
        provenance = "eb-mle"
    elif fit == "none":
        if theta is None:
            raise DomainError("fit='none' requires an explicit theta")
        theta_hat = _check_theta(theta)
        provenance = "given"
    else:
        raise DomainError(f"unknown fit mode {fit!r} for the zero-discount prior")
    vals, mult = count_multiset(sketch.counts)
    n, width = sketch.n, sketch.spec.width
    r_max = int(vals[-1]) if r_max is None else int(r_max)
    coverage = {r: float(_coverage(vals, mult, n, width, theta_hat, r)) for r in range(r_max + 1)}
    freq = {r: float((theta_hat + n) / r * coverage[r]) for r in range(1, r_max + 1)}
    report = EstimateReport(
        n=n,
        width=width,
        prior=FittedPrior(alpha=0.0, theta=theta_hat, provenance=provenance, boundary_hit=boundary),
        method="dp-exact",
        coverage=coverage,
        freq_counts=freq,
        distinct=float(_distinct(vals, mult, width, theta_hat)),
        mc_stderr=None,
        wall_time=time.perf_counter() - t0,
    )
    return report
