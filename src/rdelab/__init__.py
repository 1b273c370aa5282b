"""Entropy calculus for desk-scale random subshifts of finite type.

The package models a finite driven system (a probability base with an
invertible measure-preserving permutation) carrying one 0/1 transition matrix
per base point, and computes, exactly at finite horizons:

* admissible word counts and spectral growth rates (``base``);
* the lattice of positioned covers and partitions with joins and pullbacks
  (``covers``), plus exact minimal subcovers and maximal multi-separated word
  sets (``covercomb``);
* invariant Markov families, horizon-limited word measures, and their
  skew-product calculus (``measures``);
* topological and measure-theoretic cover entropies with Fekete-certified
  bounds (``entropy``), the separated-set witness construction and
  variational search (``variational``);
* a deterministic fuzzing harness that mechanically checks the calculus on
  random instances (``harness``), instance file I/O (``instances``), the
  solver guard errors (``guards``) and a command line (``cli``);
* the forked task pool that runs the suite's checks and the search's
  restarts across CPUs (``forked``).
"""

from . import presets
from .base import (
    BundleError,
    CycleRate,
    CycleRates,
    PowerIterationError,
    ProbBase,
    SymbolicBundle,
    ValidationReport,
    Word,
    WordListSizeError,
    admissible_words,
    cycle_growth_rate,
    spectral_radius,
    validate,
    word_count,
)
from .covercomb import (
    SeparationError,
    SetCoverSizeError,
    UncoveredUniverseError,
    cover_count,
    exact_min_cover,
    global_min_subcover_count,
    maximal_multi_separated,
    min_subcover_count,
)
from .covers import (
    CoverError,
    JoinSizeError,
    PartitionEnumeration,
    PositionedCover,
    PositionedPartition,
    full_word_partition,
    is_finer,
    join,
    per_fiber_cover,
    product_cover,
    product_partitions_finer,
    pullback,
    range_join,
    trivial_cover,
    zero_cylinders,
)
from .entropy import (
    EntropyReport,
    EnumerationGuardError,
    HPlusResult,
    MassShiftCheck,
    PowerSystem,
    block_power_system,
    cover_complexity,
    cover_conditional_entropy,
    h_minus_report,
    h_plus_value,
    mass_shift_entropy_check,
    partition_conditional_entropy,
    partition_entropy_report,
    shannon,
    topological_cover_entropy,
)
from .measures import (
    MarkovMeasure,
    MeasureError,
    WordMeasure,
    invariance_residual,
    markov_to_word,
    mix,
    parry_measure,
    pushforward,
    pushforward_markov,
    restrict,
    stationary_starts,
)
from .variational import (
    HorizonGuardError,
    MaximizeResult,
    WitnessReport,
    maximize_invariant_entropy,
    witness_measures,
)

__version__ = "0.1.0"
