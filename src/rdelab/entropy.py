"""Entropy functionals over covers, partitions, and fibered measures.

Conventions used throughout:

* the unit is nats (natural logarithm) and ``0 * ln 0 == 0``;
* no limit is ever asserted: every rate comes back as a finite sequence of
  per-step values, a certified upper bound (the running minimum, valid by
  subadditivity), and, where a closed form exists, an exact rate;
* comparisons use absolute tolerance ``1e-9`` unless an identity is exact by
  construction, in which case ``1e-12``.

Conditional entropy of a cover given the base sigma-algebra is an infimum over
refining partitions.  Two infimum classes are exposed: ``"general"`` allows
fiber-dependent refinements (minimized per fiber, independently) and
``"product"`` restricts to refinements whose cells look the same in every
fiber.  Both reduce to a minimum-entropy assignment problem: each window word
must be handed to one cover element containing it, and the objective (the
P-weighted Shannon entropy of the induced cell masses) is concave in the
assignment masses, so the minimum over all measurable refinements is attained
at such an integral assignment.  The assignment minimum is computed exactly by
component decomposition plus branch and bound; its only caller is
:func:`cover_conditional_entropy`, which the step-n reports and the block
power system (on a wider hull) go through.  General mode poses one problem
per fiber and product mode one over all fibers, so every general-mode
problem, and every product-mode problem on a one-fiber bundle, has one
fiber.  Those are searched on plain floats, which give the bits and visit
the nodes that per-fiber lists give; only product mode on several fibers
keeps the lists.  Sums that reach a report are added left to right by
:func:`~rdelab.base.plain_sum`.

Every partition entropy adds its cell masses in :func:`_cell_entropy`.  The
step-n reports of :func:`h_minus_report` and :func:`h_plus_value` build no
partition join: a cell of the n-step join is the sequence of cells a word
visits, so :func:`_join_entropies` reads each word's cell from the label walk
:func:`rdelab.covercomb._join_labels`, with the bits a built join gives.
:class:`PowerSystem` still builds its joins.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .base import (
    admissible_tuples,
    cycle_growth_rate,
    plain_sum,
    word_count,
)
from .covercomb import _join_labels, cover_count
from .covers import (
    CoverError,
    PositionedCover,
    PositionedPartition,
    check_join_size,
    join_sequence,
    product_partitions_finer,
)
from .measures import (
    NORM_TOL,
    MarkovMeasure,
    WordMeasure,
    invariance_residual,
    markov_to_word,
)

__all__ = [
    "EXACT_TOL",
    "VALUE_TOL",
    "EnumerationGuardError",
    "EntropyReport",
    "shannon",
    "MassShiftCheck",
    "mass_shift_entropy_check",
    "cover_complexity",
    "topological_cover_entropy",
    "partition_conditional_entropy",
    "cover_conditional_entropy",
    "h_minus_report",
    "partition_entropy_report",
    "HPlusResult",
    "h_plus_value",
    "PowerSystem",
    "block_power_system",
]

EXACT_TOL = 1e-12
VALUE_TOL = 1e-9

WordTuple = tuple[int, ...]


class EnumerationGuardError(RuntimeError):
    """An exact enumeration exceeded its configured budget."""

    def __init__(
        self,
        message: str,
        partial_minimum: float | None = None,
        nodes: int | None = None,
    ):
        self.message = message
        details = []
        if nodes is not None:
            details.append(f"{nodes} nodes")
        if partial_minimum is not None:
            details.append(f"partial minimum {partial_minimum:.12g}")
        if details:
            message = f"{message} ({', '.join(details)})"
        super().__init__(message)
        self.partial_minimum = partial_minimum
        self.nodes = nodes

    def __reduce__(self):
        # rebuilt from the constructor's arguments, so it survives pickling
        return (
            type(self),
            (self.message, self.partial_minimum, self.nodes),
            self.__dict__,
        )


def _xlnx(x: float) -> float:
    return x * math.log(x) if x > 0.0 else 0.0


def shannon(p: Iterable[float]) -> float:
    """Shannon entropy ``-sum p ln p`` in nats, with ``0 ln 0 = 0``."""
    total = 0.0
    for x in p:
        if not x >= 0:  # NaN fails too
            raise ValueError(f"probability entries must be nonnegative, got {x!r}")
        total -= _xlnx(float(x))
    return total


@dataclass(frozen=True)
class MassShiftCheck:
    """Outcome of the strict entropy-drop check under a mass shift.

    ``hypothesis_errors`` lists violated preconditions field by field; the
    verdict and margin are only present when the hypotheses hold.
    """

    hypothesis_errors: tuple[str, ...]
    holds: bool | None
    margin: float | None
    lhs: float | None
    rhs: float | None


def mass_shift_entropy_check(
    p: Sequence[float], delta: Sequence[float]
) -> MassShiftCheck:
    """Check that removing ``delta[0]`` from the smallest probability and
    distributing it over the others strictly lowers the entropy.

    Hypotheses: ``p`` sorted ascending with entries in (0, 1) summing to at
    most 1; ``0 < delta[0] < p[0]``; for k >= 1, ``delta[k]`` in
    ``[0, 1 - p[k])``; and the distributed mass balances,
    ``sum(delta[1:]) == delta[0]``.
    """
    p = [float(x) for x in p]
    d = [float(x) for x in delta]
    errors: list[str] = []
    k = len(p)
    if k < 2:
        errors.append("need at least two probabilities")
    if len(d) != k:
        errors.append("delta must have the same length as p")
    if any(not 0.0 < x < 1.0 for x in p):
        errors.append("p entries must lie strictly inside (0, 1)")
    if any(p[i] > p[i + 1] for i in range(k - 1)):
        errors.append("p must be sorted ascending")
    if plain_sum(p) > 1.0 + EXACT_TOL:
        errors.append("p must sum to at most 1")
    if d and p and not 0.0 < d[0] < p[0]:
        errors.append("delta[0] must satisfy 0 < delta[0] < p[0] (strictly)")
    if len(d) == k and k >= 2:
        for i in range(1, k):
            if not 0.0 <= d[i] < 1.0 - p[i]:
                errors.append(f"delta[{i}] must lie in [0, 1 - p[{i}])")
        if abs(plain_sum(d[1:]) - d[0]) > EXACT_TOL:
            errors.append("sum(delta[1:]) must equal delta[0]")
    if errors:
        return MassShiftCheck(tuple(errors), None, None, None, None)
    lhs = shannon(p)
    shifted = [p[0] - d[0]] + [p[i] + d[i] for i in range(1, k)]
    rhs = shannon(shifted)
    margin = lhs - rhs
    return MassShiftCheck((), margin > 0.0, margin, lhs, rhs)


@dataclass(frozen=True)
class EntropyReport:
    """Finite-step entropy values with a Fekete-certified upper bound.

    ``sequence`` holds ``(n, value_n)`` pairs where ``value_n`` is the step-n
    average; ``certified_upper`` is their minimum, a true upper bound for the
    limit by subadditivity; ``exact_rate`` is present when a closed form
    (spectral radius or chain rule) applies.
    """

    sequence: tuple[tuple[int, float], ...]
    certified_upper: float
    exact_rate: float | None = None
    tags: tuple[str, ...] = ()

    def prefix_minima(self) -> tuple[float, ...]:
        out: list[float] = []
        cur = math.inf
        for _, v in self.sequence:
            cur = min(cur, v)
            out.append(cur)
        return tuple(out)

    def to_dict(self) -> dict:
        return {
            "sequence": [[n, v] for n, v in self.sequence],
            "certified_upper": self.certified_upper,
            "exact_rate": self.exact_rate,
            "tags": list(self.tags),
        }


def _report(sequence: list[tuple[int, float]], exact_rate, tags) -> EntropyReport:
    certified = min(v for _, v in sequence)
    if exact_rate is not None and exact_rate > certified + VALUE_TOL:
        raise AssertionError(
            f"closed-form rate {exact_rate!r} exceeds the certified bound {certified!r}"
        )
    return EntropyReport(
        sequence=tuple(sequence),
        certified_upper=certified,
        exact_rate=exact_rate,
        tags=tuple(tags),
    )


def cover_complexity(cover: PositionedCover, nmax: int) -> list[float]:
    """P-averages of the log minimal subcover counts of the 1..nmax-step
    joins, from :func:`~rdelab.covercomb.cover_count`."""
    weights = cover.bundle.base.weights
    return [
        plain_sum(w * math.log(c) for w, c in zip(weights, row))
        for row in cover_count(cover, nmax)
    ]


def _is_singleton_cell_partition(cover: PositionedCover) -> bool:
    if not isinstance(cover, PositionedPartition):
        return False
    return all(
        len(sect) <= 1 for elem in cover.sections for sect in elem
    )


def topological_cover_entropy(cover: PositionedCover, nmax: int) -> EntropyReport:
    """Step-averaged cover complexities with their Fekete upper bound.

    For partitions whose cells are single window words, the count of the
    n-step join is an admissible word count, so the exact rate is the
    integrated spectral growth rate of the transition cycle products.
    """
    logs = cover_complexity(cover, nmax)
    seq = [(n, v / n) for n, v in enumerate(logs, 1)]
    exact = None
    tags = ["fekete"]
    if _is_singleton_cell_partition(cover):
        exact = cycle_growth_rate(cover.bundle).integrated
        tags.append("spectral")
    return _report(seq, exact, tags)


# ---------------------------------------------------------------------------
# minimum-entropy assignments
# ---------------------------------------------------------------------------


def _direction(mass: Sequence[float]) -> tuple[Fraction, ...]:
    """A mass vector divided by its first nonzero entry, in exact rationals:
    two vectors have the same direction exactly when they are proportional."""
    lead = Fraction(next((x for x in mass if x), 1.0))
    return tuple(Fraction(x) / lead for x in mass)


def _min_entropy_assignment(
    words: Sequence[tuple[tuple[float, ...], tuple[int, ...]]],
    pvec: Sequence[float],
    *,
    node_cap: int = 10**6,
) -> float:
    """Minimum of ``sum_f pvec[f] * H(cell masses in fiber f)`` over all ways
    of assigning each word's mass vector to one of its candidate elements.

    ``words`` holds ``(mass_vector, candidate_elements)`` pairs; mass vectors
    are tuples of floats indexed by fiber, and each fiber's masses add up to
    at most one (the concentration bound below is no lower bound once a cell
    can hold more than one, so a larger total raises ``ValueError``).
    ``pvec`` holds the fiber weights.  Exact: forced words accumulate
    first, words with the same candidates and proportional mass vectors
    merge, the rest decompose into components that share no reachable cell,
    and each component is searched with a concentration lower bound.

    All arithmetic is on plain Python floats.  Every sum is added term by
    term from left to right (:func:`~rdelab.base.plain_sum` or an explicit
    loop): builtin ``sum`` is compensated for floats from Python 3.12 on, so
    it would make the result depend on the interpreter.
    The two values that order the search, a word's weight ``pvec . mass``
    (words are searched heaviest first) and a cell's weight (the greedy
    incumbent's target), are numpy dot products when there are several
    fibers: BLAS may fuse or reorder those products, which a Python loop
    would not reproduce, and a changed order changes the result's last bits.

    Everything up to the greedy incumbent is one piece of code for any
    fiber count: the mass check, the common-candidate shortcut, forced
    words, grouping, components and the incumbent.  The branch and bound
    then takes one of two forms, chosen by the fiber count:

    * on one fiber (every general-mode problem, and product mode on a
      one-fiber bundle) :func:`_search_one_fiber` holds each mass, cap and
      bound term as a plain float.  On one fiber an elementwise sum of
      lists is one float addition and a loop over fibers adds one term to
      ``0.0`` (kept as ``0.0 + x``, so even the sign of a zero matches), so
      it does the same float operations in the same order as the list form:
      it returns the same bits, visits the same nodes and trips
      ``node_cap`` at the same count with the same partial minimum, without
      the lists' allocations and loops;
    * on two or more fibers (product mode only) :func:`_search_fibers` holds
      per-fiber lists.

    Raises :class:`EnumerationGuardError` with the best value found so far
    and the node count once more than ``node_cap`` search nodes are visited.
    """
    dim = len(pvec)
    for f in range(dim):
        held = math.fsum(mass[f] for mass, _ in words)
        if not held <= 1.0 + NORM_TOL:  # NaN fails too
            raise ValueError(f"fiber {f} holds mass {held!r}, not at most 1")
    pv = [float(p) for p in pvec]
    log = math.log
    if words:
        common = set(words[0][1])
        for _, cands in words[1:]:
            if not common:
                break
            common &= set(cands)
        if common:
            return 0.0

    if dim == 1:
        p0 = pv[0]
        words = [(mass[0], cands) for mass, cands in words]
        zero = 0.0
        add = operator.add
        sub = operator.sub
        search = _search_one_fiber

        def g(x) -> float:
            # the several-fiber g below on one fiber: one term added to 0.0
            return -(0.0 + p0 * (x * log(x) if x > 0.0 else 0.0))

        # a one-term dot product is a single rounded product
        def weight(x) -> float:
            return p0 * x

    else:
        zero = [0.0] * dim
        search = _search_fibers

        def add(a, b) -> list[float]:
            return [x + y for x, y in zip(a, b)]

        def sub(a, b) -> list[float]:
            return [x - y for x, y in zip(a, b)]

        def g(vec) -> float:
            # P-weighted -M ln M summed over fibers
            s = 0.0
            for p, x in zip(pv, vec):
                s += p * (x * log(x) if x > 0.0 else 0.0)
            return -s

        parr = np.array(pv)

        def weight(vec) -> float:
            return float(parr @ np.array(vec))

    # masses are never mutated: every sum below builds a new one
    base: dict[int, object] = {}
    grouped: dict[tuple, tuple[object, tuple[int, ...]]] = {}
    for mass, cands in words:
        if len(cands) == 1:
            e = cands[0]
            base[e] = add(base[e], mass) if e in base else mass
        elif len(cands) == 0:
            raise CoverError("a positive-mass word has no containing element")
        else:
            # words with identical candidate sets and proportional mass
            # vectors move together at some optimum (concavity along their
            # common direction: a split assignment lies between the two
            # merged ones), so merging them is exact; words whose vectors
            # point different ways may be apart at every optimum
            key = cands if dim == 1 else (cands, _direction(mass))
            if key in grouped:
                grouped[key] = (add(grouped[key][0], mass), cands)
            else:
                grouped[key] = (mass, cands)
    free = list(grouped.values())

    if not free:
        return plain_sum(map(g, base.values()))

    # components over shared reachable cells
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(a: int, b: int):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for _, cands in free:
        for e in cands[1:]:
            union(cands[0], e)
    comp_words: dict[int, list] = {}
    for mass, cands in free:
        comp_words.setdefault(find(cands[0]), []).append((mass, cands))
    comp_elems: dict[int, set[int]] = {}
    for mass, cands in free:
        comp_elems.setdefault(find(cands[0]), set()).update(cands)

    touched = set().union(*comp_elems.values())
    total = plain_sum(g(v) for e, v in base.items() if e not in touched)

    nodes = 0
    for root, wlist in comp_words.items():
        elems = sorted(comp_elems[root])
        # cells are addressed by their slot in ``elems``, which keeps the
        # element order wherever ties are broken
        slot = {e: k for k, e in enumerate(elems)}
        wlist = sorted(wlist, key=lambda mc: (-weight(mc[0]), mc[1]))
        wl = [(mass, tuple(slot[e] for e in cands)) for mass, cands in wlist]
        n_words = len(wl)
        ms = [base.get(e, zero) for e in elems]
        # pending[i][k]: total mass of words at depth >= i that can reach k
        pending: list[list] = [[]] * n_words + [[zero] * len(elems)]
        suffix = [zero] * (n_words + 1)
        for i in range(n_words - 1, -1, -1):
            mass, cands = wl[i]
            row = list(pending[i + 1])
            for k in cands:
                row[k] = add(row[k], mass)
            pending[i] = row
            suffix[i] = add(suffix[i + 1], mass)

        # incumbent: greedy concentration, then single-move local search
        choice = []
        trial = list(ms)
        for mass, cands in wl:
            target = max(cands, key=lambda k: weight(trial[k]))
            trial[target] = add(trial[target], mass)
            choice.append(target)
        for _ in range(30):
            improved = False
            for j, (mass, cands) in enumerate(wl):
                here = choice[j]
                trial[here] = sub(trial[here], mass)
                val_here = g(add(trial[here], mass)) - g(trial[here])
                better, gain = here, val_here
                for k in cands:
                    if k == here:
                        continue
                    v = g(add(trial[k], mass)) - g(trial[k])
                    if v < gain - 1e-15:
                        better, gain = k, v
                trial[better] = add(trial[better], mass)
                if better != here:
                    choice[j] = better
                    improved = True
            if not improved:
                break
        incumbent = plain_sum(map(g, trial))
        best, nodes = search(
            wl, ms, pending, suffix, pv, g, incumbent, total, nodes, node_cap
        )
        total += best
    return total


# Both searches below are the branch and bound of _min_entropy_assignment on
# one component.  They take its words in search order with their candidate
# slots (``wl``), the forced mass of each cell (``ms``, reused as the search's
# cell masses), ``pending`` and ``suffix``, the fiber weights, the weighted
# ``-M ln M`` of a cell mass (``g``), the incumbent's value, the total of the
# components before (for a tripped guard's partial minimum), the nodes
# visited so far and the cap; they return the component's minimum and the
# nodes visited.  The lower bound is incremental, with the same bits as one
# built from scratch at every node:
#
# * a cell's terms (its cap U, U ln U, -ln U and the linear terms of the mass
#   it holds) are a function of ``ms[k]`` and ``pending[i][k]``, which are
#   never mutated once built: between a node and its parent only the previous
#   word's candidates hold other masses, and only those cells and the words
#   that can reach them are recomputed;
# * each fiber's heaviest cell mass is carried down the search as a running
#   maximum, which is exact because ``max`` does no rounding;
# * every sum of the bound is still added term by term in its from-scratch
#   order (cells in slot order, then words by depth), so each node prunes
#   exactly when a from-scratch bound would, and the search visits the same
#   nodes.
#
# Pruning uses three valid relaxations of the cheapest completion; a node is
# pruned when any one reaches the incumbent less a margin at float
# resolution, far below value tolerances:
#
# * dump: all remaining mass of a fiber lands on its heaviest cell;
# * increments: each remaining word pays at least its entropy increment at
#   the cap (the increment decreases in the base mass and increments
#   telescope per cell);
# * linearization: every final cell mass M is at most its cap U, so
#   ``-M ln M >= -M ln U`` bounds the objective by a per-word minimum.


def _search_one_fiber(wl, ms, pending, suffix, pv, g, best, total, nodes, node_cap):
    """The branch and bound on one fiber, every mass a plain float.  A cell's
    terms are ``(U, U ln U, -ln U, linear term of its mass)``: ``-ln U`` is 0
    unless ``0 < U < 1``, the other two are 0 where ``U`` or the mass is 0,
    and a word of zero mass costs nothing."""
    log = math.log
    p = pv[0]
    n_words = len(wl)
    masses = [m for m, _ in wl]
    slots = [c for _, c in wl]
    gs = [g(x) for x in ms]
    dirty_at: list = [None] * n_words

    def cell_terms(k: int, i: int):
        held = ms[k]
        cap = held + pending[i][k]
        if cap > 0.0:
            lc = log(cap)
            nl = -lc if cap < 1.0 else 0.0
            return cap, cap * lc, nl, p * held * nl if held > 0.0 else 0.0
        return cap, 0.0, 0.0, 0.0

    def word_cost(j: int, cells):
        m = masses[j]
        if not m > 0.0:
            return 0.0, 0.0
        pm = p * m
        cheapest = math.inf
        cheapest_lin = math.inf
        for k in slots[j]:
            cap, xl, nl, _ = cells[k]
            # the cap holds this word, so U >= m > 0
            r = cap - m
            inc = 0.0 - p * (xl - (r * log(r) if r > 0.0 else 0.0))
            lin = 0.0 + pm * nl
            if inc < cheapest:
                cheapest = inc
            if lin < cheapest_lin:
                cheapest_lin = lin
        return cheapest, cheapest_lin

    def dfs(i: int, cur: float, cells, incs, lins, top: float):
        nonlocal nodes, best
        nodes += 1
        if nodes > node_cap:
            raise EnumerationGuardError(
                f"assignment search exceeded node cap {node_cap}",
                partial_minimum=total + best,
                nodes=nodes,
            )
        if i == n_words:
            if cur < best:
                best = cur
            return
        threshold = best - 1e-13
        r = suffix[i]
        dump = 0.0 if r <= 0.0 else 0.0 + p * (_xlnx(top) - _xlnx(top + r))
        if cur + dump >= threshold:
            return
        if i:
            cells = list(cells)
            incs = list(incs)
            lins = list(lins)
            touched = slots[i - 1]
            for k in touched:
                cells[k] = cell_terms(k, i)
            dirty = dirty_at[i]
            if dirty is None:
                dirty = dirty_at[i] = [
                    j for j in range(i, n_words) if any(k in touched for k in slots[j])
                ]
            for j in dirty:
                incs[j], lins[j] = word_cost(j, cells)
        by_word = 0.0
        for x in incs[i:]:
            by_word += x
        if cur + by_word >= threshold:
            return
        linear = 0.0
        for cell in cells:
            linear += cell[3]
        for x in lins[i:]:
            linear += x
        if linear >= threshold:
            return
        mass = masses[i]
        scored = []
        for k in slots[i]:
            new = ms[k] + mass
            g_new = g(new)
            scored.append((g_new - gs[k], k, new, g_new))
        scored.sort()
        for delta, k, new, g_new in scored:
            old, g_old = ms[k], gs[k]
            ms[k], gs[k] = new, g_new
            dfs(i + 1, cur + delta, cells, incs, lins, new if new > top else top)
            ms[k], gs[k] = old, g_old

    cells = [cell_terms(k, 0) for k in range(len(ms))]
    costs = [word_cost(j, cells) for j in range(n_words)]
    dfs(
        0,
        plain_sum(map(g, ms)),
        cells,
        [inc for inc, _ in costs],
        [lin for _, lin in costs],
        max(ms),
    )
    return best, nodes


def _search_fibers(wl, ms, pending, suffix, pv, g, best, total, nodes, node_cap):
    """The branch and bound on two or more fibers, every mass a list indexed
    by fiber.  A cell's terms are its cap, ``U ln U`` and ``-ln U`` per fiber
    (0 unless ``0 < U < 1``) and the linear terms of the mass it holds."""
    log = math.log
    dim = len(pv)
    n_words = len(wl)
    # per word, the fibers it has mass in: (fiber, weight, mass, weight * mass)
    terms = [
        [(f, pv[f], m, pv[f] * m) for f, m in enumerate(mass) if m > 0.0]
        for mass, _ in wl
    ]
    gs = [g(v) for v in ms]
    dirty_at: list = [None] * n_words

    def cell_terms(k: int, i: int):
        held = ms[k]
        cap = [x + y for x, y in zip(held, pending[i][k])]
        xl = []
        nl = []
        held_terms = []
        for f, c in enumerate(cap):
            if c > 0.0:
                lc = log(c)
                xl.append(c * lc)
                nl.append(-lc if c < 1.0 else 0.0)
                if held[f] > 0.0:
                    held_terms.append(pv[f] * held[f] * nl[f])
            else:
                xl.append(0.0)
                nl.append(0.0)
        return cap, xl, nl, held_terms

    def word_cost(j: int, cells):
        cheapest = math.inf
        cheapest_lin = math.inf
        word_terms = terms[j]
        for k in wl[j][1]:
            cap, xl, nl, _ = cells[k]
            inc = 0.0
            lin = 0.0
            for f, p, m, pm in word_terms:
                # the cap holds this word, so U >= m > 0
                r = cap[f] - m
                inc -= p * (xl[f] - (r * log(r) if r > 0.0 else 0.0))
                lin += pm * nl[f]
            if inc < cheapest:
                cheapest = inc
            if lin < cheapest_lin:
                cheapest_lin = lin
        return cheapest, cheapest_lin

    def dfs(i: int, cur: float, cells, incs, lins, top):
        nonlocal nodes, best
        nodes += 1
        if nodes > node_cap:
            raise EnumerationGuardError(
                f"assignment search exceeded node cap {node_cap}",
                partial_minimum=total + best,
                nodes=nodes,
            )
        if i == n_words:
            if cur < best:
                best = cur
            return
        threshold = best - 1e-13
        dump = 0.0
        for f in range(dim):
            r = suffix[i][f]
            if r <= 0.0:
                continue
            mx = top[f]
            dump += pv[f] * (_xlnx(mx) - _xlnx(mx + r))
        if cur + dump >= threshold:
            return
        if i:
            cells = list(cells)
            incs = list(incs)
            lins = list(lins)
            touched = wl[i - 1][1]
            for k in touched:
                cells[k] = cell_terms(k, i)
            dirty = dirty_at[i]
            if dirty is None:
                dirty = dirty_at[i] = [
                    j for j in range(i, n_words) if any(k in touched for k in wl[j][1])
                ]
            for j in dirty:
                incs[j], lins[j] = word_cost(j, cells)
        by_word = 0.0
        for x in incs[i:]:
            by_word += x
        if cur + by_word >= threshold:
            return
        linear = 0.0
        for cell in cells:
            for x in cell[3]:
                linear += x
        for x in lins[i:]:
            linear += x
        if linear >= threshold:
            return
        mass = wl[i][0]
        scored = []
        for k in wl[i][1]:
            new = [x + y for x, y in zip(ms[k], mass)]
            g_new = g(new)
            scored.append((g_new - gs[k], k, new, g_new))
        scored.sort()
        for delta, k, new, g_new in scored:
            old, g_old = ms[k], gs[k]
            ms[k], gs[k] = new, g_new
            # cell masses only grow, so the heaviest is the old one or k
            dfs(
                i + 1,
                cur + delta,
                cells,
                incs,
                lins,
                [y if y > x else x for x, y in zip(top, new)],
            )
            ms[k], gs[k] = old, g_old

    cells = [cell_terms(k, 0) for k in range(len(ms))]
    costs = [word_cost(j, cells) for j in range(n_words)]
    dfs(
        0,
        plain_sum(map(g, ms)),
        cells,
        [inc for inc, _ in costs],
        [lin for _, lin in costs],
        [max(v[f] for v in ms) for f in range(dim)],
    )
    return best, nodes


def _measure_at(mu, cover: PositionedCover, horizon: int) -> WordMeasure:
    """``mu`` as a word measure on the window ``[0, horizon)``, once it is
    known to live on the bundle of ``cover``: every measure meets a cover
    here, so a mismatched pair fails here."""
    if not isinstance(mu, (WordMeasure, MarkovMeasure)):
        raise TypeError(f"unsupported measure type {type(mu)!r}")
    if mu.bundle is not cover.bundle:
        raise ValueError("measure and cover must live on the same bundle")
    if isinstance(mu, MarkovMeasure):
        return markov_to_word(mu, horizon)
    if mu.horizon < horizon:
        raise ValueError(
            f"word measure horizon {mu.horizon} too short for window end {horizon}"
        )
    return mu


def partition_conditional_entropy(
    mu, partition: PositionedPartition, *, hull: tuple[int, int] | None = None
) -> float:
    """P-average over fibers of the Shannon entropy of the cell masses.

    The masses are read on ``hull`` (default: the partition's window), each
    hull word counting for the cell of its restriction to the window.
    """
    if not isinstance(partition, PositionedPartition):
        raise TypeError("need a partition; use cover_conditional_entropy for covers")
    hs, he = hull if hull is not None else partition.window
    nu = _measure_at(mu, partition, he)
    bundle = partition.bundle
    total = 0.0
    for omega in range(bundle.base.omega_count):
        cell_of = partition.cell_of(omega, (hs, he))
        masses = nu.window_masses(omega, hs, he - hs)
        total += bundle.base.weights[omega] * _cell_entropy(masses, cell_of.__getitem__)
    return total


def _cell_entropy(masses: dict, cell: Callable[[WordTuple], int]) -> float:
    """Shannon entropy of the cells ``cell(w)`` of the words in ``masses``:
    zero masses are skipped before ``cell`` sees them, the rest add per cell
    in word order, and cells enter :func:`shannon` in the order first seen."""
    sums: dict[int, float] = {}
    for w, x in masses.items():
        if x == 0.0:
            continue
        c = cell(w)
        sums[c] = sums.get(c, 0.0) + x
    return shannon(sums.values())


def cover_conditional_entropy(
    mu,
    cover: PositionedCover,
    mode: str = "general",
    *,
    hull: tuple[int, int] | None = None,
    enum_cap: int = 10**5,
) -> float:
    """Infimum of the conditional partition entropy over refinements of the cover.

    ``mode="general"`` minimizes per fiber independently over assignments of
    each word to a containing element (the full refinement class);
    ``mode="product"`` shares one assignment across fibers (the product-form
    class, enumerable by :func:`product_partitions_finer`; more than
    ``enum_cap`` members raise :class:`EnumerationGuardError`).  The general
    value never exceeds the product value.

    The words are those of ``hull`` (default: the cover's window), a window
    containing the cover's; a hull word's candidates are the elements holding
    its restriction to the cover window.  Partitions leave nothing to choose
    and go to :func:`partition_conditional_entropy`.  This is the only caller
    of the assignment search: general mode solves one problem per fiber,
    product mode one problem over all fibers.  A measure on another bundle
    than the cover's raises ``ValueError``, even where an element holding
    every word makes the value 0.0 whatever the measure.
    """
    if mode not in ("general", "product"):
        raise ValueError(f"unknown mode {mode!r}")
    if isinstance(cover, PositionedPartition):
        return partition_conditional_entropy(mu, cover, hull=hull)
    hs, he = hull if hull is not None else cover.window
    nu = _measure_at(mu, cover, he)
    bundle = cover.bundle
    weights = bundle.base.weights
    omega_count = bundle.base.omega_count
    # an element containing every admissible word in every fiber is free
    window_words = [
        set(admissible_tuples(bundle, omega, cover.start, cover.length))
        for omega in range(omega_count)
    ]
    for elem in range(cover.element_count):
        if all(
            window_words[omega] <= cover.sections[elem][omega]
            for omega in range(omega_count)
        ):
            return 0.0
    if mode == "general":

        def fiber_words(omega: int) -> list:
            member = cover.membership(omega, (hs, he))
            return [
                ((float(x),), member[w])
                for w, x in nu.window_masses(omega, hs, he - hs).items()
                if x != 0.0
            ]

        # (weight, words, fiber weights) of each assignment problem
        problems = (
            (weights[omega], fiber_words(omega), (1.0,)) for omega in range(omega_count)
        )
    else:
        if not cover.product_form:
            raise CoverError("product mode needs a product-form cover")
        enum = _product_refinements(cover, enum_cap)
        choices = dict(zip(enum.words, enum.choices))
        lo, hi = cover.start - hs, cover.stop - hs
        marginals = [
            nu.window_masses(omega, hs, he - hs) for omega in range(omega_count)
        ]
        words = []
        for w in sorted(set().union(*marginals)):
            vec = tuple(m.get(w, 0.0) for m in marginals)
            if any(vec):
                words.append((vec, choices[w[lo:hi]]))
        problems = [(1.0, words, weights)]
    total = 0.0
    for weight, words, pvec in problems:
        total += weight * _min_entropy_assignment(words, pvec)
    return total


def _product_refinements(cover: PositionedCover, enum_cap: float):
    """:func:`product_partitions_finer`, guarded by ``enum_cap``."""
    enum = product_partitions_finer(cover)
    if enum.count > enum_cap:
        raise EnumerationGuardError(
            f"product refinement family has {enum.count} members (cap {enum_cap})"
        )
    return enum


def _require_invariant(mu) -> MarkovMeasure:
    if not isinstance(mu, MarkovMeasure):
        raise TypeError("rate estimates need an invariant Markov family")
    res = invariance_residual(mu)
    if res > NORM_TOL:
        raise ValueError(f"measure is not invariant (residual {res:.3e})")
    return mu


def h_minus_report(
    mu,
    cover: PositionedCover,
    nmax: int,
    mode: str = "general",
    *,
    enum_cap: int = 10**5,
) -> EntropyReport:
    """Step-averaged conditional cover entropies along the joined pullbacks.

    Requires an invariant measure, which makes the raw sequence subadditive
    and the running minimum a certified upper bound for its limit.  A
    partition's joins are not built: :func:`_join_entropies` reads their
    cells from cell labels, with the bits the joins would give.  Window masses
    are added from the words of horizon ``stop + nmax - 1``, so a step's value
    can move in its last bits with ``nmax``.
    """
    mu = _require_invariant(mu)
    if nmax < 1:
        raise ValueError("need nmax >= 1")
    if isinstance(cover, PositionedPartition):
        check_join_size(cover, nmax)
        if mode not in ("general", "product"):
            raise ValueError(f"unknown mode {mode!r}")
        nu = _measure_at(mu, cover, cover.stop + nmax - 1)
        return _partition_report(mu, nu, cover, nmax, mode)
    nu = markov_to_word(mu, cover.stop + nmax - 1)
    seq = []
    for n, joined in enumerate(join_sequence(cover, nmax), 1):
        h = cover_conditional_entropy(nu, joined, mode, enum_cap=enum_cap)
        seq.append((n, h / n))
    return _report(seq, None, [f"mode:{mode}"])


def _partition_report(
    mu: MarkovMeasure,
    nu: WordMeasure,
    partition: PositionedPartition,
    nmax: int,
    mode: str = "general",
) -> EntropyReport:
    """The report of :func:`h_minus_report` on a partition, with ``nu`` the
    invariant ``mu`` as a word measure reaching the last join's window end."""
    seq = [(n, h / n) for n, h in enumerate(_join_entropies(nu, partition, nmax), 1)]
    exact = None
    tags = [f"mode:{mode}"]
    if _pins_coordinate(partition):
        exact = _chain_rule_rate(mu)
        tags.append("chain-rule")
    return _report(seq, exact, tags)


def _join_entropies(
    nu: WordMeasure, partition: PositionedPartition, nmax: int, stride: int = 1
) -> list[float]:
    """:func:`partition_conditional_entropy` under ``nu`` of the join of the
    pullbacks of the partition through steps ``0, s, ..., (n-1) s`` (``s`` the
    stride) for ``n = 1..nmax``, without building the joins: each word's
    joined cell is its label from :func:`~rdelab.covercomb._join_labels`,
    which checks the join size as :func:`~rdelab.covers.join_sequence` does
    before any join.  Each step adds its fibers' entropies in fiber order.
    """
    base = partition.bundle.base
    h = []
    for n, labels in enumerate(_join_labels(partition, nmax, stride)):
        total = 0.0
        for omega in range(base.omega_count):
            masses = nu.window_masses(omega, partition.start, partition.length + n * stride)
            total += base.weights[omega] * _cell_entropy(masses, labels[omega].__getitem__)
        h.append(total)
    return h


def _pins_coordinate(partition: PositionedPartition) -> bool:
    """At some window offset, all words of each cell share one symbol in
    every fiber."""
    return any(
        all(
            len({w[c] for w in sect}) <= 1
            for elem in partition.sections
            for sect in elem
        )
        for c in range(partition.length)
    )


def _chain_rule_rate(mu: MarkovMeasure) -> float:
    """Exact word-process entropy rate of a partition that pins a coordinate.

    Eligibility is the caller's test (:func:`_pins_coordinate`): at some
    window offset, all words of each cell share one symbol in every fiber.
    Then the joined cells are sandwiched between the single-coordinate
    process and the full word process, whose common rate is the chain rule
    ``sum_w P(w) sum_a p(a) H(Q(w)[a, :])``, added from left to right in
    Python floats.
    """
    base = mu.bundle.base
    rate = 0.0
    for omega in range(base.omega_count):
        inner = 0.0
        for pa, row in zip(mu.starts[omega].tolist(), mu.transitions[omega].tolist()):
            inner += pa * shannon(row)
        rate += base.weights[omega] * inner
    return rate


def partition_entropy_report(
    mu, partition: PositionedPartition, nmax: int
) -> EntropyReport:
    """Finite-step entropy rate of a partition under an invariant measure."""
    if not isinstance(partition, PositionedPartition):
        raise TypeError("need a partition")
    return h_minus_report(mu, partition, nmax, "general")


@dataclass(frozen=True)
class HPlusResult:
    """Minimum certified rate over the product refinements of a cover."""

    value: float
    argmin: PositionedPartition
    candidate_values: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "candidate_values": list(self.candidate_values),
            "argmin_cells": [sorted(c) for c in self.argmin.product_sections],
        }


def h_plus_value(
    mu, cover: PositionedCover, nmax: int, *, enum_cap: int = 10**5
) -> HPlusResult:
    """Minimize the certified partition rate over product refinements.

    The infimum defining this quantity runs over partitions only, so each
    candidate comes from the product refinement family; the reported value
    carries the argmin partition.
    """
    mu = _require_invariant(mu)
    if nmax < 1:
        raise ValueError("need nmax >= 1")
    enum = _product_refinements(cover, enum_cap)
    # every candidate keeps the cover's window and element count
    check_join_size(cover, nmax)
    nu = _measure_at(mu, cover, cover.stop + nmax - 1)
    best = math.inf
    best_part = None
    values = []
    for part in enum:
        rep = _partition_report(mu, nu, part, nmax)
        values.append(rep.certified_upper)
        if rep.certified_upper < best:
            best = rep.certified_upper
            best_part = part
    return HPlusResult(value=best, argmin=best_part, candidate_values=tuple(values))


# ---------------------------------------------------------------------------
# block power systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PowerSystem:
    """The M-step system in its non-overlapping block presentation.

    The driving permutation becomes ``theta^M``; the fiber alphabet at a base
    point is its set of admissible M-blocks, and two blocks are adjacent when
    the base transition joins the last symbol of one to the first of the
    next.  A block word of length k is the base word of length ``k*M`` it
    decodes to, so block counts are base word counts, read from the bundle,
    and block entropies match the base system at stride M.
    """

    cover: PositionedCover
    steps: int

    @property
    def block_window(self) -> int:
        """Blocks needed to see the transported cover window."""
        return -(-(self.steps + self.cover.length - 1) // self.steps)

    def block_alphabet_sizes(self) -> tuple[int, ...]:
        bundle = self.cover.bundle
        return tuple(
            word_count(bundle, omega, self.steps)
            for omega in range(bundle.base.omega_count)
        )

    def block_word_count(self, omega: int, k: int) -> int:
        """Number of admissible k-block words starting in fiber ``omega``."""
        if k < 1:
            raise ValueError("need k >= 1")
        return word_count(self.cover.bundle, omega, k * self.steps)

    def h_value_sequence(self, mu, kmax: int, mode: str = "general") -> EntropyReport:
        """Conditional cover entropies of the power system, per block step.

        Computed at block granularity: the universe at level k is the
        admissible block words of length ``k - 1 + block_window`` (equivalently
        base words of that length times M), each assigned to a containing
        element of the k-step transported join, which is every M-th join of
        one :func:`join_sequence` of the cover.  The step-k value times
        ``1/(kM)`` matches the base sequence at ``n = kM`` exactly.

        The product refinement family of product mode is enumerated without
        a cap, unlike :func:`h_minus_report`'s ``enum_cap``; only the guards
        of the assignment search and of the joins bound the work.
        """
        mu = _require_invariant(mu)
        if kmax < 1:
            raise ValueError("need kmax >= 1")
        joins = itertools.islice(
            join_sequence(self.cover, kmax * self.steps),
            self.steps - 1,
            None,
            self.steps,
        )
        seq: list[tuple[int, float]] = []
        for k, joined in enumerate(joins, 1):
            granularity = (k - 1 + self.block_window) * self.steps
            h = cover_conditional_entropy(
                markov_to_word(mu, granularity),
                joined,
                mode,
                hull=(0, granularity),
                # the block sequence never capped the product refinement
                # family; only the assignment search's node cap applies
                enum_cap=math.inf,
            )
            seq.append((k, h / k))
        return _report(seq, None, [f"mode:{mode}", f"block:{self.steps}"])


def block_power_system(cover: PositionedCover, steps: int) -> PowerSystem:
    """Re-block the cover's bundle into its M-step power presentation.

    ``steps == 1`` reproduces the base system verbatim.  No block is
    enumerated, so no cap applies here.  The cover must start at coordinate 0.
    """
    if steps < 1:
        raise ValueError("need steps >= 1")
    if cover.start != 0:
        raise CoverError("power presentation expects a cover anchored at 0")
    return PowerSystem(cover=cover, steps=steps)
