"""Positioned covers and partitions of a random subshift bundle.

A cover is a finite indexed family of elements, each element holding one word
set per fiber ("its section") over a common coordinate window.  Sections are
stored canonically as admissible words only, sorted, so cover equality is
decidable bit-exactly.  Empty sections are kept: an element empty in one fiber
may be nonempty in another, and index arithmetic must line up across fibers.
A join stores only its elements that are nonempty in some fiber, in the order
of their index pairs.

Product-form covers additionally carry one defining word set per element,
shared by all fibers; the per-fiber sections are the defining sets cut down to
the fiber's admissible words.  So each element's defining set is the union of
its fiber sections, and that union is the one place defining sets come from
(every constructor and :func:`join` derive them so; :func:`pullback` permutes
the fibers, which keeps the union).

Every n-step join ``U v T^{-1}U v ... v T^{-(n-1)}U`` comes from one
incremental loop, :func:`join_sequence`, which checks the cap
:data:`ELEMENT_CAP` on index tuples (:func:`check_join_size`) before building
anything.  Counting needs no join at all, under the same cap check: the
nonempty-cell counts of a partition's joins come from a subset construction
over cell labels (:func:`rdelab.covercomb.partition_join_counts`), their
conditional entropies, the witness's separated sets and its certificate
entropies from one label walk over the joined windows' words
(:func:`rdelab.covercomb._join_labels`), and the minimal subcover counts of
any cover's joins from :func:`rdelab.covercomb.cover_count`'s bitmask walk.
The witness builds no pullback either.

:func:`product_cover` and :func:`per_fiber_cover` build every cover that is
not a join or a pullback: each fiber's admissible window words are listed
once per cover, every section is cut down to them, and one pass checks
covering and decides whether the sections are disjoint, which can make the
cover a partition (instance files load so).

Covers are frozen dataclasses and every operation returns a new cover, with
one exception: each cover memoizes, in a per-object dict (``_mcache``,
excluded from equality), one membership map per fiber on its own window, and a
partition one cell map per fiber too.  A wider hull's map is read from those
and not kept.  Iterators returned by the enumeration below are independent per
caller.
"""

from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass, field
from typing import Iterable, Iterator, Sequence

from .base import SymbolicBundle, admissible_tuples

__all__ = [
    "ELEMENT_CAP",
    "CoverError",
    "JoinSizeError",
    "PositionedCover",
    "PositionedPartition",
    "product_cover",
    "per_fiber_cover",
    "zero_cylinders",
    "full_word_partition",
    "trivial_cover",
    "is_finer",
    "join",
    "pullback",
    "check_join_size",
    "join_sequence",
    "range_join",
    "PartitionEnumeration",
    "product_partitions_finer",
]

WordTuple = tuple[int, ...]

#: Most index tuples, stored or empty, an n-step join may have;
#: :func:`check_join_size` reads it at call time.
ELEMENT_CAP = 10**6


class CoverError(ValueError):
    """A cover or partition violates covering/disjointness invariants."""


class JoinSizeError(RuntimeError):
    """An iterated join would exceed :data:`ELEMENT_CAP`."""


def _normalize_word(w) -> WordTuple:
    if isinstance(w, int):
        return (w,)
    return tuple(int(s) for s in w)


@dataclass(frozen=True)
class PositionedCover:
    """Indexed family of per-fiber word sets on the window [start, start+length).

    ``product_sections``, set on product-form covers only, holds each
    element's defining set: the union of its fiber sections, with an empty
    one stored as the shared empty frozenset.  Fields are frozen;
    ``_mcache`` is the one mutable part, a memo of the own-window membership
    (and, on a partition, cell) maps keyed by fiber.
    """

    bundle: SymbolicBundle
    start: int
    length: int
    sections: tuple[tuple[frozenset, ...], ...]
    product_sections: tuple[frozenset, ...] | None = None
    check: InitVar[bool] = True
    _mcache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self, check: bool):
        if check:
            self._validate()

    def _validate(self):
        if self.start < 0 or self.length < 1:
            raise CoverError("cover window must be nonempty and start at >= 0")
        if not self.sections:
            raise CoverError("cover must have at least one element")
        adm = _admissible_sets(self.bundle, self.start, self.length)
        if not _check_sections(self.bundle, self.sections, adm):
            self._validate_extra()

    def _validate_extra(self):
        """Raise on what the class forbids beyond covering, once the
        sections are known to overlap in some fiber; a cover forbids
        nothing."""

    @property
    def stop(self) -> int:
        return self.start + self.length

    @property
    def window(self) -> tuple[int, int]:
        return (self.start, self.stop)

    @property
    def element_count(self) -> int:
        return len(self.sections)

    @property
    def product_form(self) -> bool:
        return self.product_sections is not None

    @property
    def is_partition(self) -> bool:
        return isinstance(self, PositionedPartition)

    def membership(self, omega: int, hull: tuple[int, int] | None = None) -> dict:
        """Map each admissible hull word to the indices of elements containing it.

        With ``hull=None`` the cover's own window is used.  Containment of a
        hull word means its restriction to the cover window lies in the
        element's section.  The fiber's sections are inverted once into the
        memoized own-window map, and a wider hull's map is read from it, so
        the cost is the total section size plus the number of hull words.
        """
        own = self._mcache.get(omega)
        if own is None:
            inv = _invert(elem[omega] for elem in self.sections)
            own = self._mcache[omega] = {
                w: tuple(inv.get(w, ()))
                for w in admissible_tuples(self.bundle, omega, self.start, self.length)
            }
        return self._on_hull(own, omega, hull)

    def _on_hull(self, own: dict, omega: int, hull: tuple[int, int] | None) -> dict:
        """``own``, a map on the admissible window words, read on the admissible
        words of ``hull`` through their restrictions to the window; not
        memoized unless ``hull`` is the window itself."""
        hs, he = hull if hull is not None else self.window
        if hs > self.start or he < self.stop:
            raise ValueError("hull must contain the cover window")
        if (hs, he) == self.window:
            return own
        lo = self.start - hs
        hi = lo + self.length
        return {w: own[w[lo:hi]] for w in admissible_tuples(self.bundle, omega, hs, he - hs)}


class PositionedPartition(PositionedCover):
    """A positioned cover whose sections are pairwise disjoint in every fiber."""

    def membership(self, omega: int, hull: tuple[int, int] | None = None) -> dict:
        own = self._mcache.get(omega)
        if own is None:
            own = self._mcache[omega] = {w: (e,) for w, e in self.cell_of(omega).items()}
        return self._on_hull(own, omega, hull)

    def _validate_extra(self):
        for omega in range(self.bundle.base.omega_count):
            seen: set[WordTuple] = set()
            for sect in self.sections:
                overlap = seen & sect[omega]
                if overlap:
                    raise CoverError(
                        f"partition cells overlap in fiber "
                        f"{self.bundle.base.labels[omega]} on word {min(overlap)}"
                    )
                seen |= sect[omega]

    def cell_of(self, omega: int, hull: tuple[int, int] | None = None) -> dict:
        """Map each admissible hull word to the unique cell index containing it.

        Disjointness lets the sections be inverted directly into the memoized
        own-window map, so the cost is the total section size rather than
        words times elements, plus the number of hull words on a wider hull.
        """
        key = ("cell", omega)
        own = self._mcache.get(key)
        if own is None:
            own = self._mcache[key] = {
                w: ids[0]
                for w, ids in _invert(elem[omega] for elem in self.sections).items()
            }
        return self._on_hull(own, omega, hull)


_EMPTY: frozenset = frozenset()


def _invert(sets: Iterable[frozenset]) -> dict[WordTuple, list[int]]:
    """Map each word to the ascending ids of the sets that contain it."""
    out: dict[WordTuple, list[int]] = {}
    for e, words in enumerate(sets):
        for w in words:
            ids = out.get(w)
            if ids is None:
                out[w] = [e]
            else:
                ids.append(e)
    return out


def _defining_sets(sections: Sequence[Sequence[frozenset]]) -> tuple[frozenset, ...]:
    """Each element's defining set, the union of its fiber sections; an empty
    one is the shared ``_EMPTY``."""
    return tuple(frozenset().union(*elem) or _EMPTY for elem in sections)


def _admissible_sets(bundle: SymbolicBundle, start: int, length: int) -> list[frozenset]:
    """Each fiber's admissible words on the window, as a set."""
    return [
        frozenset(admissible_tuples(bundle, omega, start, length))
        for omega in range(bundle.base.omega_count)
    ]


def _check_sections(
    bundle: SymbolicBundle, sections: Sequence[Sequence[frozenset]], adm: list[frozenset]
) -> bool:
    """Raise :class:`CoverError` unless, in each fiber in turn, the sections
    hold admissible words only, cover the fiber's admissible words ``adm``
    and are not all empty; then return whether they are pairwise disjoint
    in every fiber."""
    disjoint = True
    for omega, words in enumerate(adm):
        per = [elem[omega] for elem in sections]
        union = frozenset().union(*per)
        if not union <= words:
            raise CoverError("sections must contain admissible words only")
        missing = words - union
        if missing:
            raise CoverError(
                f"covering fails in fiber {bundle.base.labels[omega]}: "
                f"word {min(missing)} uncovered"
            )
        if not union:
            raise CoverError("every fiber needs at least one nonempty section")
        disjoint = disjoint and sum(map(len, per)) == len(union)
    return disjoint


def _word_set(words: Iterable) -> frozenset:
    """An element's words as a frozenset of int tuples; a frozenset is taken
    as one already (the instance loader builds them so)."""
    if type(words) is frozenset:
        return words
    return frozenset(_normalize_word(w) for w in words)


def _window_length(words: Iterable[WordTuple]) -> int:
    lengths = {len(w) for w in words}
    if len(lengths) != 1:
        raise CoverError("all cover words must share one window length")
    return lengths.pop()


def _build(
    bundle: SymbolicBundle,
    start: int,
    length: int,
    raw: Sequence[Sequence[frozenset]],
    product: bool,
    partition: bool | None,
) -> PositionedCover:
    """The cover of :func:`product_cover` and :func:`per_fiber_cover`: each
    raw word set cut down to its fiber's admissible words, checked in one
    pass over sets built once per fiber, which also decides disjointness."""
    omega_count = bundle.base.omega_count
    adm = _admissible_sets(bundle, start, length)
    sections = []
    for elem in raw:
        if len(elem) != omega_count:
            raise CoverError("need one section per fiber for every element")
        sections.append(tuple(elem[omega] & adm[omega] for omega in range(omega_count)))
    sections = tuple(sections)
    disjoint = _check_sections(bundle, sections, adm)
    if partition is None:
        partition = disjoint
    cls = PositionedPartition if partition else PositionedCover
    cover = cls(
        bundle=bundle,
        start=start,
        length=length,
        sections=sections,
        product_sections=_defining_sets(sections) if product else None,
        check=False,
    )
    if not disjoint:
        cover._validate_extra()
    return cover


def _somewhere_admissible(bundle: SymbolicBundle, start: int, length: int) -> frozenset:
    u: set[WordTuple] = set()
    for omega in range(bundle.base.omega_count):
        u |= set(admissible_tuples(bundle, omega, start, length))
    return frozenset(u)


def product_cover(
    bundle: SymbolicBundle,
    elements: Sequence[Iterable],
    *,
    start: int = 0,
    partition: bool | None = False,
) -> PositionedCover:
    """Cover whose every fiber sees the same defining word set per element.

    A word is a sequence of symbol indices (or one index); an element given
    as a frozenset is taken to hold tuples of ints already and is not
    normalized.  With ``partition=True`` overlapping sections raise
    :class:`CoverError`; with ``None`` the result is a partition exactly when
    its sections are disjoint in every fiber, as instance files load.
    """
    defs = [_word_set(elem) for elem in elements]
    length = _window_length(w for d in defs for w in d)
    raw = [[d] * bundle.base.omega_count for d in defs]
    return _build(bundle, start, length, raw, True, partition)


def per_fiber_cover(
    bundle: SymbolicBundle,
    elements: Sequence[Sequence[Iterable]],
    *,
    start: int = 0,
    partition: bool | None = False,
) -> PositionedCover:
    """Cover with explicitly fiber-dependent sections.

    ``elements[i][omega]`` is the word set of element ``i`` in fiber ``omega``.
    When the defining sets of every element agree across fibers the result is
    flagged product-form automatically.  Word sets and ``partition`` are
    read as by :func:`product_cover`.
    """
    norm = [[_word_set(per) for per in elem] for elem in elements]
    length = _window_length(w for elem in norm for per in elem for w in per)
    product = all(len(set(elem)) == 1 for elem in norm)
    return _build(bundle, start, length, norm, product, partition)


def zero_cylinders(bundle: SymbolicBundle, coordinate: int = 0) -> PositionedPartition:
    """The single-coordinate partition: one cell per alphabet symbol."""
    return product_cover(
        bundle,
        [[(a,)] for a in range(bundle.alphabet_size)],
        start=coordinate,
        partition=True,
    )


def full_word_partition(
    bundle: SymbolicBundle, start: int, length: int
) -> PositionedPartition:
    """Partition into singleton cells, one per somewhere-admissible window word."""
    vocab = sorted(_somewhere_admissible(bundle, start, length))
    return product_cover(bundle, [[w] for w in vocab], start=start, partition=True)


def trivial_cover(
    bundle: SymbolicBundle, start: int = 0, length: int = 1
) -> PositionedPartition:
    """One-element cover containing every admissible window word."""
    vocab = sorted(_somewhere_admissible(bundle, start, length))
    return product_cover(bundle, [vocab], start=start, partition=True)


def _hull(u: PositionedCover, v: PositionedCover) -> tuple[int, int]:
    return (min(u.start, v.start), max(u.stop, v.stop))


def is_finer(u: PositionedCover, v: PositionedCover) -> bool:
    """True when every element of ``u`` sits inside a single element of ``v``.

    Windows may differ; both covers are read on the common window hull through
    their membership maps, and the containing element must be the same one in
    every fiber: for each element of ``u`` the ``v``-memberships of every hull
    word it holds, in every fiber, must share an index.
    """
    if u.bundle is not v.bundle:
        raise ValueError("covers must live on the same bundle")
    hull = _hull(u, v)
    fits = [set(range(v.element_count)) for _ in range(u.element_count)]
    for omega in range(u.bundle.base.omega_count):
        mv = v.membership(omega, hull)
        for w, ids in u.membership(omega, hull).items():
            for i in ids:
                fits[i].intersection_update(mv[w])
                if not fits[i]:
                    return False
    return True


def join(u: PositionedCover, v: PositionedCover) -> PositionedCover:
    """Pairwise-intersection cover on the window hull.

    Only the index pairs ``(i, j)`` whose intersection is nonempty in some
    fiber are stored, in ascending ``i * len(v) + j`` order.  The result is a
    partition whenever both inputs are, and product-form whenever both inputs
    are.  One pass over each fiber's hull words adds every word to the cells of
    the element pairs containing it, found from the membership maps of ``u``
    and ``v``; the defining sets are the unions of the joined sections.  So the
    cost is the total section size of the inputs and of the result plus the
    number of hull words.
    """
    if u.bundle is not v.bundle:
        raise ValueError("covers must live on the same bundle")
    bundle = u.bundle
    hull = _hull(u, v)
    hs, he = hull
    omega_count = bundle.base.omega_count
    kv = v.element_count
    filled: dict[int, list[set]] = {}
    for omega in range(omega_count):
        mu = u.membership(omega, hull)
        mv = v.membership(omega, hull)
        for w in admissible_tuples(bundle, omega, hs, he - hs):
            for i in mu[w]:
                row = i * kv
                for j in mv[w]:
                    cell = filled.get(row + j)
                    if cell is None:
                        cell = filled[row + j] = [set() for _ in range(omega_count)]
                    cell[omega].add(w)
    sections = tuple(
        tuple(frozenset(per) if per else _EMPTY for per in filled[f])
        for f in sorted(filled)
    )
    product = u.product_form and v.product_form
    cls = (
        PositionedPartition
        if isinstance(u, PositionedPartition) and isinstance(v, PositionedPartition)
        else PositionedCover
    )
    return cls(
        bundle=bundle,
        start=hs,
        length=he - hs,
        sections=sections,
        product_sections=_defining_sets(sections) if product else None,
    )


def pullback(u: PositionedCover, i: int) -> PositionedCover:
    """Pull the cover back through ``i`` steps of the dynamics.

    The window shifts right by ``i`` and the section of each element at fiber
    ``omega`` becomes its section at ``theta^i(omega)``; admissibility of the
    stored words transports exactly, so no recomputation is needed.
    """
    if i < 0:
        raise ValueError("pullback power must be nonnegative")
    if i == 0:
        return u
    base = u.bundle.base
    perm = [base.apply_theta(omega, i) for omega in range(base.omega_count)]
    if perm == list(range(base.omega_count)):
        # theta^i fixes every fiber (one fiber, or fixed points): each
        # element keeps its sections
        sections = u.sections
    else:
        sections = tuple(
            tuple(elem[perm[omega]] for omega in range(base.omega_count))
            for elem in u.sections
        )
    return type(u)(
        bundle=u.bundle,
        start=u.start + i,
        length=u.length,
        sections=sections,
        product_sections=u.product_sections,
        check=False,
    )


def check_join_size(u: PositionedCover, steps: int) -> None:
    """Raise :class:`JoinSizeError` when the ``steps``-step join of ``u`` has
    more than :data:`ELEMENT_CAP` index tuples, stored or not, so the bound
    does not depend on which elements turn out empty."""
    if u.element_count**steps > ELEMENT_CAP:
        raise JoinSizeError(
            f"join would create {u.element_count}^{steps} elements "
            f"(cap {ELEMENT_CAP})"
        )


def join_sequence(u: PositionedCover, steps: int) -> Iterator[PositionedCover]:
    """Joins of the pullbacks of ``u`` through steps ``0..k-1`` for
    ``k = 1..steps``, each the one before joined with one more pullback.

    The cap guards the last join's ``len(u) ** steps`` index tuples, stored or
    not (empty ones are dropped), so :class:`JoinSizeError` comes before any
    join is built.
    """
    check_join_size(u, steps)
    out = u
    for k in range(steps):
        if k:
            out = join(out, pullback(u, k))
        yield out


def range_join(u: PositionedCover, m: int, n: int) -> PositionedCover:
    """Join of the pullbacks of ``u`` through steps ``m..n`` inclusive.

    The last join of :func:`join_sequence` over ``n - m + 1`` steps, pulled
    back ``m`` steps (the pullback of a join is the join of the pullbacks).
    """
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    for out in join_sequence(u, n - m + 1):
        pass
    return pullback(out, m)


@dataclass(frozen=True)
class PartitionEnumeration:
    """Deterministic stream of product partitions refining a product cover.

    ``count`` is the exact number of partitions; callers that cap the
    family compare it with their cap.  Iteration is incremental, one
    partition at a time, in lexicographic order of the assignment vectors,
    so it is reproducible across runs and platforms.
    """

    cover: PositionedCover
    words: tuple[WordTuple, ...]
    choices: tuple[tuple[int, ...], ...]
    count: int

    def __iter__(self) -> Iterator[PositionedPartition]:
        bundle = self.cover.bundle
        k = self.cover.element_count
        for assignment in itertools.product(*self.choices):
            cells: list[set] = [set() for _ in range(k)]
            for w, e in zip(self.words, assignment):
                cells[e].add(w)
            yield product_cover(
                bundle,
                [sorted(c) for c in cells],
                start=self.cover.start,
                partition=True,
            )

    def __len__(self) -> int:
        return self.count


def product_partitions_finer(u: PositionedCover) -> PartitionEnumeration:
    """Every product partition obtained by assigning each window word one
    containing element of ``u``.

    The assignment domain is the somewhere-admissible window vocabulary, so the
    enumeration is exhaustive and duplicate-free, and each yielded partition
    keeps the element indexing of ``u`` (empty cells included).
    """
    if not u.product_form:
        raise CoverError("partition enumeration needs a product-form cover")
    words = tuple(sorted(_somewhere_admissible(u.bundle, u.start, u.length)))
    choices = []
    for w in words:
        c = tuple(i for i, d in enumerate(u.product_sections) if w in d)
        if not c:
            raise CoverError(f"word {w} is not contained in any element")
        choices.append(c)
    count = 1
    for c in choices:
        count *= len(c)
    return PartitionEnumeration(
        cover=u,
        words=words,
        choices=tuple(choices),
        count=count,
    )
