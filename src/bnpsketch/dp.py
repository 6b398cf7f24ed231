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

from .numkit import DomainError, digamma, log_gamma
from .report import (EstimateReport, FittedPrior, check_estimator, check_freq_order, check_value,
                     freq_counts_from, given)
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

# The private evaluators below read the count multiset (vals, mult) from
# ``count_multiset``, so a caller that needs several quantities groups once.


def _loglik_fn(vals, mult, n, width):
    """theta -> log marginal likelihood; log n! - sum m log c! is computed once."""
    log_multinom = log_gamma(n + 1.0) - float(np.dot(mult, log_gamma(vals + 1.0)))
    buckets = float(mult.sum())

    def loglik(theta) -> float:
        z = theta / width
        # one log_gamma call per evaluation: the golden-section fit makes ~60
        lg = log_gamma(np.concatenate(([z, theta, theta + n], z + vals)))
        log_rf_buckets = float(np.dot(mult, lg[3:])) - buckets * lg[0]
        log_rf_total = lg[2] - lg[1]
        return log_multinom + log_rf_buckets - log_rf_total

    return loglik


def _coverage(vals, mult, n, width, theta, r_max) -> np.ndarray:
    """Coverage of orders 0..r_max, as an array.

    Order r >= 1 sums m * C(c, r) * r! * (z)_(c-r) / (z)_(c), z = theta/J,
    over the counts c >= r of multiplicity m.  The ratio is the product of
    j / (z + j - 1) over j = c - r + 1..c, so a count's log-terms for orders
    1..min(c, r_max) are a cumulative sum of log1p((z - 1)/j) from j = c
    down; no term is a difference of log-gamma values near c log c.  The
    counts are added into one log-space profile in ascending order, in
    sum min(c, r_max) <= n elements: a single order r costs sum min(c, r)
    and equals that order of any longer profile bit for bit.
    """
    out = np.zeros(r_max + 1)
    out[0] = theta / (theta + n)
    z = theta / width
    top = min(r_max, int(vals[-1]) if vals.size else 0)
    log_profile = np.full(top, -np.inf)
    for c, m in zip(vals.tolist(), mult.tolist()):
        k = min(c, top)
        if k == 0:
            continue
        steps = np.log1p((z - 1.0) / np.arange(c, c - k, -1))
        if k == c:
            steps[-1] = math.log(z)  # j = 1: log1p(z - 1) loses the digits of a small z
        log_profile[:k] = np.logaddexp(log_profile[:k], math.log(m) - np.cumsum(steps))
    out[1 : top + 1] = z * np.exp(log_profile) / (theta + n)
    return out


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
    theta = check_value("theta", theta)
    vals, mult = count_multiset(sketch.counts)
    return _loglik_fn(vals, mult, sketch.n, sketch.spec.width)(theta)


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
    loglik = _loglik_fn(*count_multiset(sketch.counts), sketch.n, sketch.spec.width)

    def f(log_t):
        return loglik(math.exp(log_t))

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
    largest bucket count are exactly zero.  The value is order r of the
    profile 0..r, so it costs sum over counts of min(c, r), not O(U), and
    equals ``dp_report``'s order r bit for bit.
    """
    r, theta = check_value("r", r), check_value("theta", theta)
    vals, mult = count_multiset(sketch.counts)
    # the profile stops at the largest count: a larger r reads zero
    profile = _coverage(vals, mult, sketch.n, sketch.spec.width, theta, min(r, int(vals[-1])))
    return float(profile[r]) if r < profile.size else 0.0


def dp_coverage_profile(sketch: Sketch, theta, r_max: int) -> np.ndarray:
    """Coverage estimates for every order r = 0..r_max."""
    r_max, theta = check_value("r_max", r_max), check_value("theta", theta)
    vals, mult = count_multiset(sketch.counts)
    return _coverage(vals, mult, sketch.n, sketch.spec.width, theta, r_max)


def dp_freq_counts(sketch: Sketch, theta, r: int) -> float:
    """Estimated number of distinct symbols with frequency r >= 1."""
    r, theta = check_freq_order(r), check_value("theta", theta)
    return freq_counts_from({r: dp_coverage(sketch, theta, r)}, sketch.n, theta)[r]


def dp_distinct(sketch: Sketch, theta) -> float:
    """Estimated number of distinct symbols in the un-sketched stream.

    Evaluated as the harmonic sum sum_j sum_{m < c_j} z/(z+m) with z = theta/J.
    The equivalent digamma difference z*(psi(z+c_j) - psi(z)) is used instead
    for very large buckets; it is pole-free because both arguments stay
    positive (the textbook form with negated arguments has spurious poles at
    integer z although the difference is finite).
    """
    theta = check_value("theta", theta)
    vals, mult = count_multiset(sketch.counts)
    return _distinct(vals, mult, sketch.spec.width, theta)


def dp_distinct_digamma_literal(sketch: Sketch, theta) -> float:
    """Reference evaluation via reflected digamma arguments.

    Equal to ``dp_distinct`` wherever theta/J is not an integer; kept only as
    an independent cross-check of the harmonic form.
    """
    theta = check_value("theta", theta)
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
) -> EstimateReport:
    """Bundle fitting, coverage, frequency counts and the distinct count.

    fit = "none" uses the supplied theta; fit = "eb-mle" maximizes the sketch
    marginal likelihood.  r_max defaults to the largest bucket count (beyond
    which every estimate is exactly zero); either is checked by the table's
    r_max rule, which refuses 2^24 orders or more before anything is allocated.
    """
    t0 = time.perf_counter()
    spec = check_estimator({"prior": "dp", "fit": fit, **given(theta=theta, r_max=r_max)})
    vals, mult = count_multiset(sketch.counts)
    r_max = check_value("r_max", int(vals[-1])) if spec["r_max"] is None else spec["r_max"]
    if spec["fit"] == "eb-mle":
        theta_hat, boundary = dp_fit_theta(sketch)
        provenance = "eb-mle"
    else:
        theta_hat, boundary, provenance = spec["theta"], False, "given"
    n, width = sketch.n, sketch.spec.width
    coverage = dict(enumerate(_coverage(vals, mult, n, width, theta_hat, r_max).tolist()))
    return EstimateReport(
        n=n,
        width=width,
        prior=FittedPrior(alpha=0.0, theta=theta_hat, provenance=provenance, boundary_hit=boundary),
        method="dp-exact",
        coverage=coverage,
        freq_counts=freq_counts_from(coverage, n, theta_hat),
        distinct=float(_distinct(vals, mult, width, theta_hat)),
        mc_stderr=None,
        wall_time=time.perf_counter() - t0,
    )
