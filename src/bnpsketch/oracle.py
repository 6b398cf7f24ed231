"""Ground truth from raw (non-sketched) symbol streams.

Everything here sees the actual symbols, which the sketch estimators never
do; it exists to score them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .genmodel import PriorParams, RawSample
from .numkit import DomainError
from .report import check_value

__all__ = [
    "PartitionStats",
    "good_turing_coverage",
    "ground_truth",
    "partition_stats",
    "raw_bnp_coverage",
    "true_coverage",
    "true_coverage_profile",
]


@dataclass
class PartitionStats:
    """Distinct-symbol count and the frequency-of-frequencies table.

    ``m[r]`` is the number of distinct symbols observed exactly r times,
    indexed 1..n (index 0 unused); sum(m) = k and sum(r*m[r]) = n.
    """

    k: int
    m: np.ndarray
    n: int


def ground_truth(sample: RawSample, r_max: int | None = None):
    """The stream's ``PartitionStats`` and, from the same tabulation, its true coverage masses
    for r = 0..r_max (default: the largest frequency), or None for a sample with no atom weights.
    Sorted stably by frequency, each order's weights sum in symbol order, as under a mask.
    A given r_max is checked by the estimator table's rule; the default is not."""
    r_max = None if r_max is None else check_value("r_max", r_max)
    ids, freqs = np.unique(np.asarray(sample.symbols), return_counts=True)
    n = int(freqs.sum())
    m = np.bincount(freqs, minlength=n + 1).astype(np.int64)
    m[0] = 0
    stats = PartitionStats(k=int(freqs.size), m=m, n=n)
    if not sample.has_weights:
        return stats, None
    pos = np.searchsorted(sample.atom_ids, ids)
    if ids.size and (
        pos.max(initial=-1) >= sample.atom_ids.size
        or not np.array_equal(sample.atom_ids[pos], ids)
    ):
        raise DomainError("sample contains a symbol with no recorded weight")
    w = sample.atom_weights[pos]
    out = np.zeros((int(freqs.max(initial=0)) if r_max is None else r_max) + 1)
    out[0] = 1.0 - w.sum()
    order = np.argsort(freqs, kind="stable")
    rs, starts = np.unique(freqs[order], return_index=True)
    for r, part in zip(rs[rs < out.size], np.split(w[order], starts[1:])):
        out[r] = part.sum()
    return stats, out


def partition_stats(sample: RawSample) -> PartitionStats:
    """Tabulate symbol frequencies of the stream."""
    return ground_truth(RawSample(sample.symbols))[0]  # no weights: no profile


def true_coverage(sample: RawSample, r: int) -> float:
    """Total probability mass of the symbols observed exactly r times.

    r = 0 gives the missing mass, 1 minus the mass of everything observed;
    exact (truncation-free) whenever the sample records exact atom weights.
    """
    r = check_value("r", r)
    profile = true_coverage_profile(sample)
    return float(profile[r]) if r < profile.size else 0.0


def true_coverage_profile(sample: RawSample, r_max: int | None = None) -> np.ndarray:
    """Vector of true coverage masses for r = 0..r_max (default: the largest frequency)."""
    profile = ground_truth(sample, r_max)[1]
    if profile is None:
        raise DomainError("true coverage needs a sample with atom weights")
    return profile


def raw_bnp_coverage(stats: PartitionStats, n: int, params: PriorParams, r: int) -> float:
    """Posterior-predictive coverage estimate from the raw partition.

    (theta + k*alpha)/(theta + n) for r = 0, m_r*(r - alpha)/(theta + n) for
    r >= 1: the full-data counterpart that the sketch estimators collapse to
    under a lossless hash.
    """
    r, n = check_value("r", r), int(n)
    if r == 0:
        return (params.theta + stats.k * params.alpha) / (params.theta + n)
    m_r = int(stats.m[r]) if r < stats.m.size else 0
    return m_r * (r - params.alpha) / (params.theta + n)


def good_turing_coverage(stats: PartitionStats, r: int) -> float:
    """Classical frequency-smoothing baseline: (r+1) m_{r+1} / n.

    Comparison column only; never applied to sketched data.
    """
    r = check_value("r", r)
    if stats.n == 0:
        return 1.0 if r == 0 else 0.0
    m_next = int(stats.m[r + 1]) if r + 1 < stats.m.size else 0
    return (r + 1) * m_next / stats.n
