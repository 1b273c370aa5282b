"""Exact combinatorial kernels: minimal subcovers, partition join counts and
multi-separated word sets.

The subcover count is an exact set-cover minimum computed by branch and bound:
forced picks and dominated sets are eliminated up front, a greedy pass seeds
the incumbent, branching runs over the covering sets of the most constrained
uncovered item in decreasing coverage order, and solved subproblem states are
memoized by their uncovered-universe bitmask.  Disjoint families of any size
resolve through forced picks alone, without branching.  Its size box after
reductions is :data:`UNIVERSE_MAX` items and :data:`ELEMS_MAX` sets.

A partition's joins are never built.  :func:`_join_labels` is the one walk
that maps admissible words to joined-cell labels, step by step and at any
stride; :func:`maximal_multi_separated`, the witness construction of
:mod:`rdelab.variational` and every partition entropy of
:mod:`rdelab.entropy` read their cells from it.  The nonempty-cell counts of
a partition's joins come from a subset construction over the cell labels of
admissible words (:func:`partition_join_counts`), which lists no joined
window's words.

The count and separated-set routines serve every fiber at once, and none
builds a join.  :func:`cover_count` returns, for ``n = 1..nmax``, one tuple
of per-fiber minimal subcover counts of the ``n``-step join: a cover's joined
elements are walked as bitmasks over the joined window's words in colex
order, step by step.  :func:`maximal_multi_separated` returns one word tuple
per fiber, its cells from the last step of :func:`_join_labels` and its
floor from :func:`cover_count`.  :func:`min_subcover_count` counts a cover it
is given, built joins included.

The branch-and-bound memo is per call.  Two tables outlive a call, both on
objects the caller passes in: :func:`partition_join_counts`, the cover walk
and :func:`_join_labels` memoize through
:meth:`~rdelab.covers.PositionedPartition.cell_of` and
:meth:`~rdelab.covers.PositionedCover.membership` into the cover's
``_mcache``, one own-window map per fiber, and :func:`_section_masks`, the
walk and :func:`_join_labels` enumerate words through
:func:`~rdelab.base.admissible_tuples`, which memoizes them in the bundle's
``_word_cache``: the cover window's, and the label routine's joined windows,
the lists a built join would read.  The walk counts its joined windows' words
without listing them.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from .base import _check_word_count, admissible_tuples
from .covers import (
    PositionedCover,
    PositionedPartition,
    check_join_size,
    is_finer,
)

__all__ = [
    "UncoveredUniverseError",
    "SetCoverSizeError",
    "SeparationError",
    "exact_min_cover",
    "min_subcover_count",
    "partition_join_counts",
    "cover_count",
    "maximal_multi_separated",
]


class UncoveredUniverseError(ValueError):
    """Some universe point is covered by no set (malformed cover)."""


class SetCoverSizeError(RuntimeError):
    """Instance exceeds the configured exactness guarantees."""


class SeparationError(ValueError):
    """The supplied partitions do not refine the reference cover."""


# the size box, after reductions, inside which exact_min_cover solves; read
# at call time
UNIVERSE_MAX = 4096
ELEMS_MAX = 64


def _iter_bits(x: int):
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _forced(pool: Sequence[int]) -> set[int]:
    """The masks of ``pool`` that hold an item no other mask holds (a
    duplicate mask counts as another)."""
    # the items of at least one mask, and of at least two
    once = twice = 0
    for m in pool:
        twice |= once & m
        once |= m
    unique = once & ~twice
    return {m for m in pool if m & unique}


def exact_min_cover(universe_size: int, masks: Sequence[int]) -> int:
    """Exact minimum number of ``masks`` whose union is the full universe.

    Items are bit positions ``0..universe_size-1``.  :data:`UNIVERSE_MAX`
    and :data:`ELEMS_MAX` bound the instance left after reductions, not the
    raw input.
    """
    full = (1 << universe_size) - 1
    union = 0
    for m in masks:
        union |= m
    if union != full:
        missing = (full & ~union)
        item = (missing & -missing).bit_length() - 1
        raise UncoveredUniverseError(f"universe item {item} is uncovered")
    if universe_size == 0:
        return 0

    pool = [m for m in masks if m]
    picked = 0
    uncovered = full
    # forced picks: items covered by exactly one set pin that set
    while uncovered:
        forced = _forced(pool)
        if not forced:
            break
        for m in forced:
            picked += 1
            uncovered &= ~m
        pool = [mm for mm in (m & uncovered for m in pool) if mm]
    if not uncovered:
        return picked

    pool = sorted(set(pool), key=lambda m: (-m.bit_count(), m))
    if len(pool) <= 512:
        kept: list[int] = []
        for m in pool:
            if not any((m | k) == k for k in kept):
                kept.append(m)
        pool = kept

    if uncovered.bit_count() > UNIVERSE_MAX or len(pool) > ELEMS_MAX:
        raise SetCoverSizeError(
            f"reduced instance ({uncovered.bit_count()} items, {len(pool)} sets) "
            f"exceeds limits ({UNIVERSE_MAX} items, {ELEMS_MAX} sets)"
        )

    def greedy(state: int) -> int:
        out = 0
        while state:
            best = max(pool, key=lambda m: (m & state).bit_count())
            state &= ~best
            out += 1
        return out

    max_gain = max(m.bit_count() for m in pool)
    memo: dict[int, int] = {}

    def solve(state: int, budget: int) -> int:
        """Exact minimum for ``state`` if below ``budget``, else ``budget``."""
        if state == 0:
            return 0
        hit = memo.get(state)
        if hit is not None:
            return hit
        lower = -(-state.bit_count() // max_gain)
        if lower >= budget:
            return budget
        item = min(
            _iter_bits(state), key=lambda x: sum(1 for m in pool if m >> x & 1)
        )
        options = sorted(
            (m for m in pool if m >> item & 1),
            key=lambda m: -(m & state).bit_count(),
        )
        best = budget
        for m in options:
            sub = solve(state & ~m, best - 1)
            if sub + 1 < best:
                best = sub + 1
                if best == lower:
                    break
        if best < budget:
            memo[state] = best
        return best

    return picked + solve(uncovered, greedy(uncovered) + 1)


def _section_masks(cover: PositionedCover, fibers: Sequence[int]) -> tuple[int, list]:
    """Universe size and one bitmask per cover element over the universe of
    ``(fiber, word)`` pairs, the admissible window words of each of ``fibers``
    in turn, in enumeration order."""
    index: dict[tuple[int, tuple[int, ...]], int] = {}
    for omega in fibers:
        for w in admissible_tuples(cover.bundle, omega, cover.start, cover.length):
            index[(omega, w)] = len(index)
    masks = []
    for elem in cover.sections:
        m = 0
        for omega in fibers:
            for w in elem[omega]:
                m |= 1 << index[(omega, w)]
        masks.append(m)
    return len(index), masks


def min_subcover_count(cover: PositionedCover, omega: int) -> int:
    """Exact minimum number of cover elements whose sections cover the fiber.

    The universe is the admissible word set of fiber ``omega`` over the cover
    window.  For a partition this is the number of nonempty sections, since
    disjoint sets admit no smaller subcover.
    """
    if isinstance(cover, PositionedPartition):
        return sum(1 for elem in cover.sections if elem[omega])
    return exact_min_cover(*_section_masks(cover, (omega,)))


def global_min_subcover_count(cover: PositionedCover) -> int:
    """Minimum number of cover elements covering every fiber simultaneously.

    The universe is the disjoint union of the per-fiber admissible word sets;
    one element contributes its section in each fiber.
    """
    fibers = range(cover.bundle.base.omega_count)
    return exact_min_cover(*_section_masks(cover, fibers))


def _successors(p: PositionedPartition, omega: int, k: int) -> dict:
    """Map the window word read at step ``k - 1`` of fiber ``omega`` (keyed by
    its last ``length - 1`` symbols, or by itself for a window of one) to the
    ``(word, cell)`` pairs of ``p.cell_of(theta^k omega)`` that can follow it.

    A window of two or more overlaps the one before it, and a word of the
    cell map is admissible, so a matching overlap is all it takes.  A window
    of one shares no coordinate with the one before, so the pair is checked
    against the transition matrix between the two coordinates.
    """
    cells = p.cell_of(p.bundle.base.apply_theta(omega, k))
    out: dict = {}
    if p.length > 1:
        for w, c in cells.items():
            out.setdefault(w[:-1], []).append((w, c))
        return out
    mat = p.bundle.matrix_at(omega, p.start + k - 1).tolist()
    for a in range(p.bundle.alphabet_size):
        out[(a,)] = [((b,), cells[(b,)]) for b, ok in enumerate(mat[a]) if ok]
    return out


def partition_join_counts(p: PositionedPartition, omega: int, steps: int) -> list[int]:
    """Nonempty-cell counts of the ``1..steps``-step joins of ``p`` in fiber
    ``omega``, without building the joins.

    A cell of the k-step join is a sequence of cell labels that some
    admissible word over the joined window reads through the pulled-back
    windows, so the count is the number of distinct label sequences.  One
    subset-construction pass finds them: a state is the set of window words
    that can end a word with a given label prefix, and label prefixes that
    reach the same state are merged, their numbers added as Python ints.
    So there are never more states than nonempty cells.

    The cap check is that of :func:`~rdelab.covers.join_sequence`, made
    first, so an over-cap count raises :class:`~rdelab.covers.JoinSizeError`
    exactly where the join would.
    """
    if steps < 1:
        raise ValueError("need steps >= 1")
    check_join_size(p, steps)
    first: dict[int, set] = {}
    for w, c in p.cell_of(omega).items():
        first.setdefault(c, set()).add(w)
    states = {frozenset(words): 1 for words in first.values()}
    counts = [len(states)]
    tail = slice(1, None) if p.length > 1 else slice(None)
    for k in range(1, steps):
        succ = _successors(p, omega, k)
        nxt: dict[frozenset, int] = {}
        for state, paths in states.items():
            by_cell: dict[int, set] = {}
            for v in state:
                for w, c in succ.get(v[tail], ()):
                    by_cell.setdefault(c, set()).add(w)
            for words in by_cell.values():
                key = frozenset(words)
                nxt[key] = nxt.get(key, 0) + paths
        states = nxt
        counts.append(sum(states.values()))
    return counts


def _extend(runs: list, mat: list) -> tuple[list, list]:
    """One step of the colex walk: the runs of the next window, and the moves
    that lift a mask over the window's words onto the next window's.

    ``runs`` lists ``[suffix, count]`` in colex order (last symbol first): the
    window's words grouped by their last cover-length symbols, each group
    contiguous.  The next window's words ending in ``b`` are, for each ``a``
    with ``mat[a][b]`` in turn, the words ending in ``a`` with ``b``
    appended, in order; a move ``(offset, full, position)`` carries that
    block of bits.
    """
    blocks: dict = {}  # last symbol -> [offset, count, runs], in symbol order
    pos = 0
    for run in runs:
        block = blocks.setdefault(run[0][-1], [pos, 0, []])
        block[1] += run[1]
        block[2].append(run)
        pos += run[1]
    out: list = []
    moves = []
    pos = 0
    for b in range(len(mat)):
        for a, (off, count, block) in blocks.items():
            if not mat[a][b]:
                continue
            moves.append((off, (1 << count) - 1, pos))
            pos += count
            for s, c in block:
                t = s[1:] + (b,)
                if out and out[-1][0] == t:
                    out[-1][1] += c  # runs that differ in their first symbol only
                else:
                    out.append([t, c])
    return out, moves


def _run_masks(runs: list, membership: dict, k: int) -> list[int]:
    """The nonzero masks of the ``k`` cover elements over words in ``runs``,
    an element holding a word when its section holds the word's suffix."""
    masks = [0] * k
    pos = 0
    for s, c in runs:
        bits = ((1 << c) - 1) << pos
        for e in membership[s]:
            masks[e] |= bits
        pos += c
    return [m for m in masks if m]


def _walk_counts(cover: PositionedCover, nmax: int) -> list[tuple[int, ...]]:
    """:func:`cover_count` of a cover that is not a partition, with no join
    built.

    The join size is checked first, and step 0 is :func:`min_subcover_count`
    of the cover itself.  After it, each
    fiber keeps the runs of its joined window (see :func:`_extend`) and one
    mask per joined element nonempty in the fiber, its words as bits in colex
    order.  Step ``k`` lifts each mask onto the next window and ANDs it with
    the element masks of the cover at ``theta^k omega``, read on the words'
    last cover-length symbols (admissible words transport).  These are the
    built join's masks up to one bit permutation, so every count and guard is
    that of the join: each window's word count is checked in every fiber
    before the step's counts, then each fiber is counted in turn.
    """
    check_join_size(cover, nmax)
    bundle = cover.bundle
    fibers = range(bundle.base.omega_count)
    k = cover.element_count
    rows = [tuple(min_subcover_count(cover, omega) for omega in fibers)]
    walks = []
    for omega in fibers:
        words = admissible_tuples(bundle, omega, cover.start, cover.length)
        runs = [[w, 1] for w in sorted(words, key=lambda w: w[::-1])]
        walks.append((runs, _run_masks(runs, cover.membership(omega), k)))
    for step in range(1, nmax):
        stop = cover.stop + step
        grown = []
        for omega in fibers:
            mat = bundle.matrix_at(omega, stop - 2).tolist()
            runs, moves = _extend(walks[omega][0], mat)
            size = sum(c for _, c in runs)
            _check_word_count(bundle, omega, cover.start, stop - cover.start, size)
            grown.append((runs, moves, size))
        row = []
        for omega, (runs, moves, size) in zip(fibers, grown):
            pulled = _run_masks(
                runs, cover.membership(bundle.base.apply_theta(omega, step)), k
            )
            live = []
            for m in walks[omega][1]:
                up = 0
                for off, full, pos in moves:
                    up |= (m >> off & full) << pos
                live.extend(x for p in pulled if (x := up & p))
            walks[omega] = (runs, live)
            row.append(exact_min_cover(size, live))
        rows.append(tuple(row))
    return rows


def cover_count(cover: PositionedCover, nmax: int) -> list[tuple[int, ...]]:
    """Minimal subcover counts of the ``n``-step joined pullbacks of the cover
    for ``n = 1..nmax``: one tuple per step, one count per fiber.

    Neither kind of cover builds a join to count.  A partition's counts are
    its nonempty joined cells, counted by :func:`partition_join_counts`; for
    singleton-cell partitions they are admissible word counts over the joined
    window.  A cover's come from a bitmask walk over the joined windows'
    words (:func:`_walk_counts`), one :func:`exact_min_cover` per step and
    fiber, equal to :func:`min_subcover_count` of each built join, with the
    same guards at the same step and fiber.  Both check the join size first.
    """
    if nmax < 1:
        raise ValueError("need nmax >= 1")
    fibers = range(cover.bundle.base.omega_count)
    if isinstance(cover, PositionedPartition):
        return list(zip(*(partition_join_counts(cover, omega, nmax) for omega in fibers)))
    return _walk_counts(cover, nmax)


def maximal_multi_separated(
    partitions: Sequence[PositionedPartition],
    cover: PositionedCover,
    n: int,
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Greedy-maximal word sets meeting each joined-partition atom at most
    once, one per fiber.

    Every supplied partition must refine ``cover``.  In each fiber, words over
    the common joined window are scanned in lexicographic order and kept
    whenever, for every partition, their joined atom is still unused; after a
    full scan no remaining word can be added, so the set is maximal.  Any
    maximal set has at least ``floor(N / K)`` members, where ``N`` is the
    fiber's joined minimal subcover count of ``cover`` and ``K`` the number of
    partitions; that bound is asserted before returning.  No join is built:
    a word's joined atoms are its last-step labels (:func:`_join_labels`),
    the cells of a built join up to their numbering, and ``N`` is read from
    :func:`cover_count`.
    """
    if not partitions:
        raise SeparationError("need at least one partition")
    for l, part in enumerate(partitions):
        if not isinstance(part, PositionedPartition):
            raise SeparationError(f"entry {l} is not a partition")
        if not is_finer(part, cover):
            raise SeparationError(f"partition {l} is not finer than the cover")
    labels = [deque(_join_labels(p, n), maxlen=1)[0] for p in partitions]
    counts = cover_count(cover, n)[n - 1]
    hs = min(j.start for j in (*partitions, cover))
    he = max(j.stop for j in (*partitions, cover)) + n - 1
    # each joined window's place in the hull
    spans = [(p.start - hs, p.stop + n - 1 - hs) for p in partitions]
    out = []
    for omega in range(cover.bundle.base.omega_count):
        atom_of = [(lab[omega], lo, hi) for lab, (lo, hi) in zip(labels, spans)]
        used: list[set[int]] = [set() for _ in partitions]
        chosen: list[tuple[int, ...]] = []
        for w in admissible_tuples(cover.bundle, omega, hs, he - hs):
            atoms = [lab[w[lo:hi]] for lab, lo, hi in atom_of]
            if any(a in used[l] for l, a in enumerate(atoms)):
                continue
            chosen.append(w)
            for l, a in enumerate(atoms):
                used[l].add(a)
        if len(chosen) < counts[omega] // len(partitions):
            raise AssertionError(
                f"separated set of size {len(chosen)} below "
                f"floor({counts[omega]}/{len(partitions)}) in fiber {omega}"
            )
        out.append(tuple(chosen))
    return tuple(out)


def _join_labels(p: PositionedPartition, steps: int, stride: int = 1):
    """For ``j = 1..steps``, yield per fiber each admissible word of the
    join of the pullbacks of ``p`` through ``0, s, ..., (j-1) s`` (``s`` the
    stride) mapped to the label ``c_0 K^(j-1) + ... + c_(j-1)`` of its joined
    cell, without building the join.

    ``c_i`` is the cell of ``p.cell_of(theta^(i s) omega)`` holding the
    word's block at offset ``i s``, and ``K`` the number of cells: the cell's
    place among all ``K^j`` index tuples, of which a built join stores the
    nonempty ones in this order.  Each step extends the last step's labels by
    one block, over the window's words as
    :func:`~rdelab.base.admissible_tuples` lists them, fiber by fiber, after
    :func:`~rdelab.covers.check_join_size`, so both caps trip where
    :func:`~rdelab.covers.join_sequence` would.  Callers that read only the
    last step drain the walk through a one-slot ``deque``.
    """
    if steps < 1:
        raise ValueError("need steps >= 1")
    check_join_size(p, steps)
    base = p.bundle.base
    fibers = range(base.omega_count)
    k = p.element_count
    m = p.length
    labels = [p.cell_of(omega) for omega in fibers]
    yield labels
    for j in range(1, steps):
        step = []
        for omega in fibers:
            prev = labels[omega]
            cell = p.cell_of(base.apply_theta(omega, j * stride))
            step.append(
                {
                    w: prev[w[:-stride]] * k + cell[w[-m:]]
                    for w in admissible_tuples(p.bundle, omega, p.start, m + j * stride)
                }
            )
        labels = step
        yield labels
