"""Separated sets and the empirical measures they carry.

The construction behind the finite-horizon variational certificates: pull the
cover n steps into the future, list its product refinements, and pick a
maximal set of horizon words no two of which share an atom of any refinement's
iterated join.  Maximality forces the set to have at least floor(N/K) members,
where N is the pulled minimal-subcover count.  Equidistributing on the set,
spreading over admissible completions, and averaging along the skew product
yields a measure whose block entropies dominate explicit counting bounds; the
report evaluates every one of those inequalities numerically.
"""

from rdelab import presets, witness_measures, zero_cylinders

bundle = presets.alternating_golden_mean()
zero = zero_cylinders(bundle)

for n in (1, 2):
    separated, nu, mu, rep = witness_measures(zero, n)
    print(f"=== n = {n} (horizon {rep.horizon}, {rep.refinement_count} refinement(s)) ===")
    for omega, label in enumerate(bundle.base.labels):
        words = ["".join(bundle.alphabet[s] for s in w) for w in separated[omega]]
        print(f"  fiber {label}: separated {rep.separated_sizes[omega]} words "
              f"(pulled count {rep.pulled_counts[omega]}, "
              f"full count {rep.full_counts[omega]})")
        if n == 1:
            print(f"    {words}")
    ok = sum(1 for c in rep.separation_checks if c.ok)
    print(f"  separation inequalities: {ok}/{len(rep.separation_checks)}")
    for check in rep.averaged_checks:
        print(f"  averaged, block {check.block}: "
              f"{check.lhs:.6f} >= {check.rhs:.6f}"
              + ("  (vacuous floor)" if check.vacuous else ""))
    print(f"  averaged measure lives at horizon {rep.common_horizon} "
          f"with support sizes "
          + str([mu.support_size(w) for w in range(2)]))
    print()
