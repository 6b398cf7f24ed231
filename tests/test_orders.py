"""Coverage orders: every function that takes one reads the estimator table's rule."""

import numpy as np
import pytest

from bnpsketch import dp, oracle, pyp
from bnpsketch.genmodel import PriorParams, RawSample
from bnpsketch.numkit import DomainError
from bnpsketch.report import SpecError
from conftest import make_sketch

SKETCH = make_sketch([3, 1, 2, 0])
PARAMS = PriorParams(0.5, 1.0)
SAMPLE = RawSample(symbols=np.array([1, 1, 2, 3, 3, 3]), atom_ids=np.array([1, 2, 3]),
                   atom_weights=np.array([0.3, 0.2, 0.4]))
STATS = oracle.partition_stats(SAMPLE)

# each function of one order r, the order its last argument
ORDER = {
    "dp_coverage": lambda r: dp.dp_coverage(SKETCH, 1.0, r),
    "dp_freq_counts": lambda r: dp.dp_freq_counts(SKETCH, 1.0, r),
    "pyp_coverage_exact": lambda r: pyp.pyp_coverage_exact(SKETCH, PARAMS, r),
    "pyp_freq_counts": lambda r: pyp.pyp_freq_counts(SKETCH, PARAMS, r),
    "pyp_coverage_mc": lambda r: pyp.pyp_coverage_mc(SKETCH, PARAMS, r, 200, 0),
    "true_coverage": lambda r: oracle.true_coverage(SAMPLE, r),
    "raw_bnp_coverage": lambda r: oracle.raw_bnp_coverage(STATS, STATS.n, PARAMS, r),
    "good_turing_coverage": lambda r: oracle.good_turing_coverage(STATS, r),
}
# each function of an order limit r_max: a profile of orders 0..r_max
PROFILE = {
    "dp_coverage_profile": lambda r_max: dp.dp_coverage_profile(SKETCH, 1.0, r_max),
    "dp_report": lambda r_max: dp.dp_report(SKETCH, theta=1.0, r_max=r_max).coverage,
    "pyp_report": lambda r_max: pyp.pyp_report(SKETCH, params=PARAMS, r_max=r_max).coverage,
    "ground_truth": lambda r_max: oracle.ground_truth(SAMPLE, r_max)[1],
    "true_coverage_profile": lambda r_max: oracle.true_coverage_profile(SAMPLE, r_max),
}
EVERY = ORDER | PROFILE


@pytest.mark.parametrize("name", sorted(EVERY))
def test_non_integral_boolean_and_negative_orders_are_refused(name):
    for bad in (True, False, 1.5, 1.0, "1"):
        with pytest.raises(SpecError, match="must be an integer"):
            EVERY[name](bad)
    with pytest.raises(DomainError, match="must be >= "):
        EVERY[name](-1)


@pytest.mark.parametrize("name", sorted(EVERY))
def test_numpy_integer_order_reads_as_the_int(name):
    a, b = EVERY[name](np.int64(1)), EVERY[name](1)
    assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


@pytest.mark.parametrize("name", sorted(ORDER))
def test_a_single_order_has_no_upper_limit(name):
    value = ORDER[name](10**9)
    assert (value[0] if name == "pyp_coverage_mc" else value) == 0.0


@pytest.mark.parametrize("name", sorted(PROFILE))
def test_order_limit_past_2_24_names_r_max(name, no_huge_arrays):
    for r_max in (1 << 24, 2**40):
        with pytest.raises(DomainError, match="--r-max") as exc:
            PROFILE[name](r_max)
        assert not isinstance(exc.value, SpecError)


def test_exact_orders_refused_before_the_engine_is_built(monkeypatch):
    def must_not_build(*args, **kwargs):
        raise AssertionError("the exact engine was built for a refused order")

    monkeypatch.setattr(pyp, "_ExactEngine", must_not_build)
    big = make_sketch([2000])
    for call in (lambda: pyp.pyp_coverage_exact(big, PriorParams(0.95, 0.01), -1),
                 lambda: pyp.pyp_freq_counts(big, PriorParams(0.95, 0.01), 0),
                 lambda: pyp.pyp_coverage_exact(big, PriorParams(0.95, 0.01), 1.5)):
        with pytest.raises(DomainError):
            call()


def test_default_order_limit_is_checked_before_the_fit(monkeypatch):
    monkeypatch.setattr(dp, "dp_fit_theta", lambda *a, **k: pytest.fail("fit ran"))
    with pytest.raises(DomainError, match="--r-max"):
        dp.dp_report(make_sketch([1 << 24, 5]), fit="eb-mle")

