"""The Monte Carlo path: accurate at small n, biased upward as n grows.

Besides the exact integral, the heavy-tail estimators can average ratio
statistics of simulated distinct-count chains.
Those statistics grow extremely skewed with n, so the ratio estimate acquires
a positive bias that the second-order (Tin) correction mitigates but does not
remove.  This demo
makes that visible on one synthetic stream per sample size.
"""

import numpy as np

from bnpsketch import (
    HashSpec,
    PriorParams,
    Sketch,
    pyp_coverage_exact,
    pyp_coverage_mc,
    sample_pyp_sequence,
    true_coverage,
)

params = PriorParams(alpha=0.5, theta=1.0)
print(f"{'n':>6} {'truth':>9} {'exact':>9} {'mc plain':>9} {'mc tin':>9} {'3*se':>8}")
for n in (10, 30, 100, 300, 1000):
    root = np.random.SeedSequence(300 + n)
    s_data, s_hash, s_mc = root.spawn(3)
    sample = sample_pyp_sequence(params, n, s_data)
    sketch = Sketch(HashSpec.random(128, s_hash))
    sketch.insert_ids(sample.symbols)

    exact = pyp_coverage_exact(sketch, params, 0)
    plain, se = pyp_coverage_mc(sketch, params, 0, 100_000, s_mc, debias="none")
    tin, _ = pyp_coverage_mc(sketch, params, 0, 100_000, s_mc, debias="tin")
    print(
        f"{n:6d} {true_coverage(sample, 0):9.5f} {exact:9.5f} "
        f"{plain:9.5f} {tin:9.5f} {3 * se:8.5f}"
    )

print("\nthe drift of both MC columns above the exact one at large n is the")
print("documented skew-driven overestimation; the tin column sits closer.")
