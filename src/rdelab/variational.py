"""Witness measures and variational search for the entropy calculus.

``witness_measures`` runs the separated-set construction at a finite horizon:
pull the cover and a finite family of its product refinements ``n`` steps in,
pick a maximal multi-separated word set over ``n**2`` further steps, spread
the uniform measure on it over its admissible completions, and average the
resulting measure along the skew product.  Every counting inequality the
construction is designed to certify is evaluated numerically per fiber and
collected in the returned report; a floor hitting zero makes the bound vacuous
and is marked as such rather than asserted.  A separation check has two
floors: its ``vacuous`` flag is set only when both are zero (the check then
holds trivially); a single zero floor shows as a ``null`` ``rhs_pulled`` or
``rhs_submult`` in the JSON report, and that side is not tested.

``maximize_invariant_entropy`` is the variational half.  On a partition
that pins a coordinate the score of a Markov family is its chain-rule rate,
whose supremum over invariant Markov families is the integrated spectral
rate, attained by the random Parry family
(:func:`~rdelab.measures.parry_measure`); that family is the answer there.
On covers and on partitions that pin no coordinate no closed form is known,
and the search is random-restart hill climbing over the transition family,
rows projected back onto their supported simplices, scored by the certified
conditional-entropy rate.  It is a best-effort optimizer; the gap to the
topological reference is reported, never asserted.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .base import admissible_tuples
from .covercomb import _join_labels, cover_count, maximal_multi_separated
from .covers import (
    CoverError,
    PositionedCover,
    PositionedPartition,
    join_sequence,
    product_partitions_finer,
)
from .entropy import (
    VALUE_TOL,
    cover_conditional_entropy,
    topological_cover_entropy,
    _cell_entropy,
    _chain_rule_rate,
    _join_entropies,
    _pins_coordinate,
)
from .forked import run_tasks
from .measures import (
    MarkovMeasure,
    WordMeasure,
    markov_to_word,
    mix,
    parry_measure,
    pushforward,
    restrict,
    stationary_starts,
)

__all__ = [
    "HorizonGuardError",
    "SeparationCheck",
    "AveragedCheck",
    "WitnessReport",
    "witness_measures",
    "MaximizeResult",
    "maximize_invariant_entropy",
]


class HorizonGuardError(RuntimeError):
    """The witness construction would exceed the configured horizon."""


@dataclass(frozen=True)
class SeparationCheck:
    """Entropy of the separated-set measure against one pulled partition join.

    ``lhs`` is the fiber entropy of the empirical measure over the atoms of
    the ``shift``-pulled join of refinement ``refinement``; the two right-hand
    sides are the log floors coming from the separated-set cardinality chain.
    A zero floor is stored as ``-inf`` (``null`` in JSON) and its side is not
    tested.  ``vacuous`` is true only when *both* floors are zero, so the
    check holds trivially; with one zero floor it is false and ``ok`` rests
    on the other side alone.
    """

    omega: int
    shift: int
    refinement: int
    lhs: float
    rhs_pulled: float
    rhs_submult: float
    vacuous: bool
    ok: bool


@dataclass(frozen=True)
class AveragedCheck:
    """Averaged-measure entropy bound for one refinement and block length."""

    refinement: int
    block: int
    lhs: float
    rhs: float
    vacuous: bool
    ok: bool


@dataclass(frozen=True)
class WitnessReport:
    n: int
    refinement_count: int
    cover_size: int
    horizon: int
    common_horizon: int
    separated_sizes: tuple[int, ...]
    pulled_counts: tuple[int, ...]
    full_counts: tuple[int, ...]
    separation_checks: tuple[SeparationCheck, ...]
    averaged_checks: tuple[AveragedCheck, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.separation_checks) and all(
            c.ok for c in self.averaged_checks
        )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "refinement_count": self.refinement_count,
            "cover_size": self.cover_size,
            "horizon": self.horizon,
            "common_horizon": self.common_horizon,
            "separated_sizes": list(self.separated_sizes),
            "pulled_counts": list(self.pulled_counts),
            "full_counts": list(self.full_counts),
            "separation_checks": [_json_check(c) for c in self.separation_checks],
            "averaged_checks": [_json_check(c) for c in self.averaged_checks],
            "all_ok": self.all_ok,
        }


def _json_check(check) -> dict:
    """Fields of a check; a vacuous ``-inf`` floor becomes ``None`` (JSON null)."""
    return {k: None if v == -math.inf else v for k, v in vars(check).items()}


def _log_floor(value: int) -> tuple[float, bool]:
    """Natural log of a floor count; zero floors are vacuous lower bounds."""
    if value <= 0:
        return (-math.inf, True)
    return (math.log(value), False)


def witness_measures(
    cover: PositionedCover, n: int, *, horizon_cap: int = 24
) -> tuple[dict[int, tuple], WordMeasure, WordMeasure, WitnessReport]:
    """Separated-set empirical measures and their finite-horizon certificates.

    Returns ``(separated_words_per_fiber, nu, mu, report)`` where ``nu`` is
    the empirical measure spread uniformly over the completions of each
    separated word, and ``mu`` is its skew-product average over
    ``n**2 + n`` steps, materialized at the largest common horizon.

    No join or pullback is built.  An ``n``-step pullback's joins at
    ``omega`` are the joins at ``theta^n omega`` on the same word tuples, so
    the separated sets are :func:`maximal_multi_separated`'s sets read there.
    The separation checks read each word's joined cell from its label
    (:func:`_join_labels`), the averaged checks the joined refinements'
    entropies from the same labels (:func:`~rdelab.entropy._join_entropies`),
    and every floor is a :func:`cover_count`; each gives the bits the built
    joins give.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not cover.product_form:
        raise CoverError("witness construction needs a product-form cover")
    if cover.start != 0:
        raise CoverError("witness construction expects a cover anchored at 0")
    m0 = cover.length
    span = n * n + n
    horizon = span + n + m0 - 1
    if horizon > horizon_cap:
        raise HorizonGuardError(
            f"witness horizon {horizon} exceeds the cap {horizon_cap}"
        )
    enum = product_partitions_finer(cover)
    refinements = list(itertools.islice(iter(enum), min(n, enum.count)))
    if not refinements:
        raise CoverError("no product refinements available")
    d = cover.element_count
    bundle = cover.bundle
    base = bundle.base

    shifted = [base.apply_theta(w, n) for w in range(base.omega_count)]
    sets = maximal_multi_separated(refinements, cover, n * n)
    separated = {w: sets[t] for w, t in enumerate(shifted)}
    rows = cover_count(cover, span)
    pulled_counts = tuple(rows[n * n - 1][t] for t in shifted)
    full_counts = rows[-1]

    # empirical measure: uniform over separated words, split uniformly over
    # each word's admissible completions to the full horizon window
    core_start, core_len = n, span + m0 - 1 - n
    tables = []
    for omega in range(base.omega_count):
        core = set(separated[omega])
        groups: dict[tuple, list] = {w: [] for w in core}
        for u in admissible_tuples(bundle, omega, 0, horizon):
            r = u[core_start : core_start + core_len]
            if r in groups:
                groups[r].append(u)
        per: dict[tuple, float] = {}
        share = 1.0 / len(core)
        for w, completions in groups.items():
            # no-dead-symbols guarantees at least one completion
            piece = share / len(completions)
            for u in completions:
                per[u] = per.get(u, 0.0) + piece
        tables.append(per)
    nu = WordMeasure(bundle=bundle, horizon=horizon, weights=tuple(tables))

    separation_checks: list[SeparationCheck] = []
    # per refinement and fiber, the labels of the cells of its span-step join
    labels = [deque(_join_labels(r, span), maxlen=1)[0] for r in refinements]
    width = span + m0 - 1
    for shift in range(n + 1):
        for l, lab in enumerate(labels):
            # the shift-pulled join holds at omega the join's cells at
            # theta^shift omega, on the window moved right by shift
            for omega in range(base.omega_count):
                cell = lab[base.apply_theta(omega, shift)]
                lhs = _cell_entropy(
                    nu.weights[omega], lambda u: cell[u[shift : shift + width]]
                )
                rhs1, vac1 = _log_floor(pulled_counts[omega] // n)
                rhs2, vac2 = _log_floor(full_counts[omega] // (n * d**n))
                vac = vac1 and vac2
                ok = (vac1 or lhs >= rhs1 - VALUE_TOL) and (
                    vac2 or lhs >= rhs2 - VALUE_TOL
                )
                separation_checks.append(
                    SeparationCheck(
                        omega=omega,
                        shift=shift,
                        refinement=l,
                        lhs=lhs,
                        rhs_pulled=rhs1,
                        rhs_submult=rhs2,
                        vacuous=vac,
                        ok=ok,
                    )
                )

    common_horizon = horizon - (span - 1)
    pieces = [restrict(nu, common_horizon)]
    pushed = nu
    for _ in range(span - 1):
        pushed = pushforward(pushed)
        pieces.append(restrict(pushed, common_horizon))
    mu = mix(pieces, [1.0 / span] * span)

    averaged_checks: list[AveragedCheck] = []
    logdet = 0.0
    vac_int = False
    for omega in range(base.omega_count):
        term, vac = _log_floor(full_counts[omega] // (n * d**n))
        vac_int = vac_int or vac
        logdet += base.weights[omega] * term
    for l, refinement in enumerate(refinements):
        for m, lhs in enumerate(_join_entropies(mu, refinement, n), 1):
            rhs = (m / span) * (logdet - m * math.log(d))
            ok = vac_int or lhs >= rhs - VALUE_TOL
            averaged_checks.append(
                AveragedCheck(
                    refinement=l, block=m, lhs=lhs, rhs=rhs, vacuous=vac_int, ok=ok
                )
            )

    report = WitnessReport(
        n=n,
        refinement_count=len(refinements),
        cover_size=d,
        horizon=horizon,
        common_horizon=common_horizon,
        separated_sizes=tuple(len(separated[w]) for w in range(base.omega_count)),
        pulled_counts=pulled_counts,
        full_counts=full_counts,
        separation_checks=tuple(separation_checks),
        averaged_checks=tuple(averaged_checks),
    )
    return separated, nu, mu, report


# ---------------------------------------------------------------------------
# variational search
# ---------------------------------------------------------------------------


def _project_simplex(v: list[float]) -> list[float]:
    """Euclidean projection onto the probability simplex (sort-based).

    Python floats throughout, with numpy's operations in numpy's order:
    sort descending, a left-to-right running sum (``np.cumsum``) and
    ``max(0.0, x + lam)`` (``np.maximum(v + lam, 0.0)``), so the result has
    the bits of the array version.
    """
    u = sorted(v, reverse=True)
    css = []
    total = 0.0
    for x in u:
        total += x
        css.append(total)
    rho = 0
    for j in range(len(u)):
        if u[j] + (1.0 - css[j]) / (j + 1) > 0:
            rho = j
    lam = (1.0 - css[rho]) / (rho + 1)
    return [max(0.0, x + lam) for x in v]


@dataclass(frozen=True)
class MaximizeResult:
    measure: MarkovMeasure
    value: float
    reference: float
    gap: float
    evaluations: int

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "reference": self.reference,
            "gap": self.gap,
            "evaluations": self.evaluations,
            "transitions": [q.tolist() for q in self.measure.transitions],
            "starts": [p.tolist() for p in self.measure.starts],
        }


# steps of the certified rate that scores a non-chain-rule target, and of the
# topological reference the best value is compared with
SCORE_NMAX = 4
REFERENCE_NMAX = 8


def maximize_invariant_entropy(
    target: PositionedCover, budget: int, seed: int
) -> MaximizeResult:
    """An invariant Markov family of high entropy rate on the target.

    On a partition that pins a coordinate the answer is the random Parry
    family (:func:`~rdelab.measures.parry_measure`), valued by its chain-rule
    rate in one evaluation; ``budget`` and ``seed`` steer only the hill
    climb.  Other targets go to :func:`_hill_climb`.  The reference is the
    topological rate over :data:`REFERENCE_NMAX` steps.

    On a hill-climb target ``value`` is the returned measure's certified
    upper bound at step :data:`SCORE_NMAX`, not its entropy, so ``gap``
    compares two upper bounds and can be negative: on the diagonal
    partition of the one-fiber golden mean (budget 400, seed 0) it is
    -0.0474.
    """
    if budget < 1:
        raise ValueError("need budget >= 1")
    if isinstance(target, PositionedPartition) and _pins_coordinate(target):
        measure = parry_measure(target.bundle)
        value = _chain_rule_rate(measure)
        evaluations = 1
    else:
        measure, value, evaluations = _hill_climb(target, budget, seed)
    ref_report = topological_cover_entropy(target, REFERENCE_NMAX)
    reference = (
        ref_report.exact_rate
        if ref_report.exact_rate is not None
        else ref_report.certified_upper
    )
    return MaximizeResult(
        measure=measure,
        value=value,
        reference=reference,
        gap=reference - value,
        evaluations=evaluations,
    )


def _hill_climb(
    target: PositionedCover, budget: int, seed: int
) -> tuple[MarkovMeasure, float, int]:
    """The best measure, its value and the evaluations spent by a hill climb
    on a cover or on a partition that pins no coordinate.

    A measure scores the step-:data:`SCORE_NMAX` certified
    conditional-entropy rate, in the fiber-dependent (``"general"``)
    infimum class: ``min_k H_k / k`` over ``k <= SCORE_NMAX``, an upper
    bound on the measure's entropy, which the returned value is.  Hill
    climbing restarts from deterministic seeds derived from
    ``(seed, restart)``.  The restarts are independent tasks, run
    across the available CPUs in forked processes
    (:func:`~rdelab.forked.run_tasks`) and merged in restart order, so the
    result does not depend on how many CPUs there are; there is no option
    for this.
    """
    bundle = target.bundle
    base = bundle.base
    d = bundle.alphabet_size
    supports = [
        np.flatnonzero(bundle.adjacency[w][a])
        for w in range(base.omega_count)
        for a in range(d)
    ]
    free_rows = [i for i, s in enumerate(supports) if len(s) > 1]
    joined_targets = list(join_sequence(target, SCORE_NMAX))

    def fiber_matrix(qrows: list[list[float]], w: int) -> np.ndarray:
        m = np.zeros((d, d))
        for a in range(d):
            m[a, supports[w * d + a]] = qrows[w * d + a]
        return m

    def build(qrows: list[list[float]]) -> MarkovMeasure:
        qs = [fiber_matrix(qrows, w) for w in range(base.omega_count)]
        return stationary_starts(bundle, qs)

    def score(mu: MarkovMeasure) -> float:
        nu = markov_to_word(mu, target.stop + SCORE_NMAX - 1)
        return min(
            cover_conditional_entropy(nu, joined) / k
            for k, joined in enumerate(joined_targets, start=1)
        )

    def uniform_rows() -> list[list[float]]:
        return [[1.0 / len(s)] * len(s) for s in supports]

    restarts = max(1, min(8, budget // 50)) if free_rows else 1
    per_restart = max(1, budget // restarts)

    def restart(r: int) -> tuple[float, tuple, int]:
        """Climb from restart ``r``'s start; returns the best value, the
        measure that reached it as its (transitions, starts, flags), and the
        number of evaluations.  The measure travels as its arrays, so a
        forked restart sends no bundle.

        Only improvements are accepted, so the last accepted measure is the
        first to reach the restart's best value.  ``restarts * per_restart
        <= budget``, so no restart needs to check the budget.
        """
        rng = np.random.default_rng(np.random.SeedSequence((seed, r)))
        if r == 0:
            qrows = uniform_rows()
        else:
            qrows = [rng.dirichlet(np.ones(len(s))).tolist() for s in supports]
        mu = build(qrows)
        cur = score(mu)
        if not free_rows:
            return cur, (mu.transitions, mu.starts, mu.flags), 1
        steps = per_restart - 1
        for t in range(steps):
            sigma = 0.4 * (0.05 / 0.4) ** (t / max(1, steps - 1))
            i = free_rows[int(rng.integers(len(free_rows)))]
            old = qrows[i]
            noise = rng.normal(0.0, sigma, len(old)).tolist()
            qrows[i] = _project_simplex([x + y for x, y in zip(old, noise)])
            # only fiber ``w`` differs from the accepted ``mu``: the other
            # fibers' matrices are its arrays, byte for byte, and the cycles
            # left alone keep its starts instead of being solved again
            w = i // d
            qs = list(mu.transitions)
            qs[w] = fiber_matrix(qrows, w)
            mu_new = stationary_starts(bundle, qs, previous=mu)
            val = score(mu_new)
            if val > cur:
                cur, mu = val, mu_new
            else:
                qrows[i] = old
        return cur, (mu.transitions, mu.starts, mu.flags), per_restart

    evaluations = 0
    best_value = -math.inf
    best_measure = None
    tasks = [functools.partial(restart, r) for r in range(restarts)]
    # strict ``>`` in restart order: ties go to the earliest restart
    for value, (transitions, starts, flags), count in run_tasks(tasks):
        evaluations += count
        if value > best_value:
            # a forked restart's arrays arrive writable
            for a in transitions + starts:
                a.setflags(write=False)
            best_value = value
            best_measure = MarkovMeasure._adopt(bundle, transitions, starts, flags)
    return best_measure, best_value, evaluations
