"""The cover lattice and exact subcover counting.

A positioned cover holds one word set per fiber over a coordinate window.
Joins intersect element by element, pullbacks shift the window along the
dynamics, and the minimal-subcover kernel counts how few elements of an
iterated join still cover a fiber.  Averaging the log counts over the base
and normalizing per step gives a subadditive sequence, so its running minimum
is a certified upper bound for the limit rate.
"""

from rdelab import (
    cover_count,
    is_finer,
    join,
    presets,
    product_cover,
    product_partitions_finer,
    pullback,
    topological_cover_entropy,
    zero_cylinders,
)

bundle = presets.alternating_golden_mean()
zero = zero_cylinders(bundle)

two_step = join(zero, pullback(zero, 1))
print("two-step join window:", two_step.window)
for omega, label in enumerate(bundle.base.labels):
    nonempty = sum(1 for elem in two_step.sections if elem[omega])
    print(f"  nonempty cells in fiber {label}: {nonempty}")

print("\nRefinement order:")
print("  join refines each factor:", is_finer(two_step, zero))
print("  coarse does not refine fine:", is_finer(zero, two_step))

# an overlapping cover: {a, b} and {b} -- not a partition
overlap = product_cover(bundle, [[(0,), (1,)], [(1,)]])
# one count per fiber of the n-step join, for n = 1..3 (n = 1 is the cover)
counts = cover_count(overlap, 3)
print("\nOverlapping cover {a,b},{b}:")
print("  minimal subcover per fiber:", list(counts[0]))
print("  joined counts at n=3:", list(counts[-1]))

print("  product refinements (each word assigned one containing element):")
for part in product_partitions_finer(overlap):
    cells = [sorted("".join(bundle.alphabet[s] for s in w) for w in cell)
             for cell in part.product_sections]
    print("   ", cells)

print("\nStep-averaged log counts for the coordinate partition:")
rep = topological_cover_entropy(zero, 12)
for n, value in rep.sequence:
    print(f"  n={n:<2d} {value:.6f}")
print(f"certified upper bound {rep.certified_upper:.6f}")
print(f"exact spectral rate   {rep.exact_rate:.6f}")
