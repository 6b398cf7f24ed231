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

import importlib

# public name -> defining module, imported on first use (PEP 562), so a
# command loads only the modules it runs
_EXPORTS = {
    "dp": ("dp_coverage", "dp_coverage_profile", "dp_distinct", "dp_fit_theta", "dp_freq_counts",
           "dp_loglik", "dp_report"),
    "experiment": ("ExperimentConfig", "run_experiment"),
    "genmodel": ("PriorParams", "RawSample", "dist_distinct", "expected_distinct_exact",
                 "sample_pyp_sequence", "sample_sketch_dirmult", "sample_zipf_sequence"),
    "numkit": ("DomainError", "GfcTable", "digamma", "gfc_direct", "log_convolve",
               "log_rising_factorial", "logsumexp", "stirling_signless"),
    "oracle": ("PartitionStats", "good_turing_coverage", "ground_truth", "partition_stats",
               "raw_bnp_coverage", "true_coverage", "true_coverage_profile"),
    "pyp": ("ExactCapError", "block_weights", "pyp_coverage_exact", "pyp_coverage_mc",
            "pyp_distinct", "pyp_freq_counts", "pyp_loglik", "pyp_report", "wasserstein_fit"),
    "report": ("EstimateReport", "FittedPrior"),
    "sketch": ("HashSpec", "Sketch", "SketchFormatError", "hash_eval", "sketch_deserialize",
               "sketch_load", "sketch_merge", "sketch_save", "sketch_serialize"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
