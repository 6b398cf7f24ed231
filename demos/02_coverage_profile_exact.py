"""Exact coverage profile under the two-parameter prior, on a small sketch.

The heavy-tail prior has no closed-form sketch posterior; the exact values
come from one Gamma integral of the product of the buckets' latent
block-count polynomials, summed on a grid of nodes.  This demo prints the full
profile, shows it sums to one, and cross-checks the distinct-count identity.
"""

import numpy as np

from bnpsketch import (
    HashSpec,
    PriorParams,
    Sketch,
    pyp_coverage_exact,
    pyp_distinct,
    pyp_freq_counts,
    sample_pyp_sequence,
    true_coverage,
)

params = PriorParams(alpha=0.5, theta=5.0)
root = np.random.SeedSequence(7)
s_data, s_hash = root.spawn(2)
sample = sample_pyp_sequence(params, 40, s_data)
sketch = Sketch(HashSpec.random(16, s_hash))
sketch.insert_ids(sample.symbols)

c_max = int(max(sketch.counts))
print(f"bucket counts: {[int(c) for c in sketch.counts]}")
print(f"{'r':>3} {'estimate':>10} {'truth':>10} {'freq count':>11}")
total = 0.0
freq_total = 0.0
for r in range(c_max + 1):
    est = pyp_coverage_exact(sketch, params, r)
    total += est
    m = pyp_freq_counts(sketch, params, r) if r >= 1 else float("nan")
    if r >= 1:
        freq_total += m
    print(f"{r:3d} {est:10.6f} {true_coverage(sample, r):10.6f} {m:11.4f}")

print(f"\nprofile sum: {total:.12f} (exactly 1 up to roundoff)")
print(f"distinct-count estimate: {pyp_distinct(sketch, params):.6f}")
print(f"sum of frequency counts: {freq_total:.6f} (identical by construction)")
