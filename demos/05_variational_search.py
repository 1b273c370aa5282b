"""Maximal-entropy invariant measures.

On a partition that pins a coordinate (here the zero cylinders) the entropy
of an invariant Markov family is its chain-rule rate, and the random Parry
family, built from the Perron vectors of each theta-cycle's adjacency
product, attains the spectral rate: ``maximize_invariant_entropy`` returns it
in one evaluation.  On the alternating golden-mean system it is the two-step
analogue of the maximal-entropy Markov measure, at the spectral value
(1/2) ln 3.  Covers and partitions that pin no coordinate have no such closed
form; there the budget and seed steer a hill climb over the transition rows.
"""

import math

from rdelab import maximize_invariant_entropy, presets, zero_cylinders

for name, bundle, target_rate in (
    ("full shift on two symbols", presets.full_shift(2), math.log(2)),
    ("two fixed points", presets.identity_shift(2), 0.0),
    ("alternating golden mean", presets.alternating_golden_mean(), 0.5 * math.log(3)),
):
    result = maximize_invariant_entropy(zero_cylinders(bundle), 1500, seed=0)
    print(f"=== {name} ===")
    print(f"  best rate found {result.value:.6f}")
    print(f"  reference       {result.reference:.6f} (target {target_rate:.6f})")
    print(f"  gap             {result.gap:.6f} after {result.evaluations} evaluations")
    for omega, q in enumerate(result.measure.transitions):
        rows = ["[" + ", ".join(f"{x:.4f}" for x in row) + "]" for row in q]
        print(f"  Q[{bundle.base.labels[omega]}] = {rows}")
    print()
