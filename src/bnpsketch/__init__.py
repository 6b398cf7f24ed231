"""Coverage, missing-mass and distinct-count estimation from hashed sketches.

A token stream is compressed through one strongly-universal hash into J
bucket counts; from those counts alone, Bayesian nonparametric estimators
recover the probability mass of symbols seen r times (r = 0 is the missing
mass), the number of distinct symbols, and the number of symbols at each
frequency, under zero-discount (Dirichlet-process) and two-parameter
(Pitman-Yor) priors, with empirical-Bayes parameter fitting, exact and
Monte Carlo evaluation, generative simulators, a ground-truth oracle, and
an experiment harness.
"""

from .dp import (
    dp_coverage,
    dp_coverage_profile,
    dp_distinct,
    dp_fit_theta,
    dp_freq_counts,
    dp_loglik,
    dp_report,
)
from .experiment import ExperimentConfig, run_experiment
from .genmodel import (
    PriorParams,
    RawSample,
    dist_distinct,
    expected_distinct_exact,
    sample_distinct_prefix,
    sample_pyp_sequence,
    sample_sketch_dirmult,
    sample_zipf_sequence,
)
from .numkit import (
    DomainError,
    GfcTable,
    digamma,
    gfc_direct,
    log_convolve,
    log_rising_factorial,
    logsumexp,
    stirling_signless,
)
from .oracle import (
    PartitionStats,
    good_turing_coverage,
    partition_stats,
    raw_bnp_coverage,
    true_coverage,
    true_coverage_profile,
)
from .pyp import (
    ExactCapError,
    LogBlockWeights,
    block_weights,
    pyp_coverage_exact,
    pyp_coverage_mc,
    pyp_distinct,
    pyp_freq_counts,
    pyp_loglik,
    pyp_missing_asymptotic,
    pyp_report,
    wasserstein_fit,
)
from .report import EstimateReport, FittedPrior
from .sketch import (
    HashSpec,
    Sketch,
    SketchFormatError,
    hash_eval,
    sketch_deserialize,
    sketch_load,
    sketch_merge,
    sketch_save,
    sketch_serialize,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "EstimateReport",
    "ExactCapError",
    "ExperimentConfig",
    "FittedPrior",
    "GfcTable",
    "HashSpec",
    "LogBlockWeights",
    "PartitionStats",
    "PriorParams",
    "RawSample",
    "Sketch",
    "SketchFormatError",
    "block_weights",
    "digamma",
    "dist_distinct",
    "dp_coverage",
    "dp_coverage_profile",
    "dp_distinct",
    "dp_fit_theta",
    "dp_freq_counts",
    "dp_loglik",
    "dp_report",
    "expected_distinct_exact",
    "gfc_direct",
    "good_turing_coverage",
    "hash_eval",
    "log_convolve",
    "log_rising_factorial",
    "logsumexp",
    "partition_stats",
    "pyp_coverage_exact",
    "pyp_coverage_mc",
    "pyp_distinct",
    "pyp_freq_counts",
    "pyp_loglik",
    "pyp_missing_asymptotic",
    "pyp_report",
    "raw_bnp_coverage",
    "run_experiment",
    "sample_distinct_prefix",
    "sample_pyp_sequence",
    "sample_sketch_dirmult",
    "sample_zipf_sequence",
    "sketch_deserialize",
    "sketch_load",
    "sketch_merge",
    "sketch_save",
    "sketch_serialize",
    "stirling_signless",
    "true_coverage",
    "true_coverage_profile",
    "wasserstein_fit",
]
