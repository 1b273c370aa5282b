import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rdelab import (
    full_word_partition,
    is_finer,
    join,
    per_fiber_cover,
    product_cover,
    product_partitions_finer,
    pullback,
    range_join,
    trivial_cover,
    presets,
    zero_cylinders,
)
from rdelab.base import admissible_tuples
from rdelab.covers import (
    _EMPTY,
    CoverError,
    JoinSizeError,
    PositionedCover,
    PositionedPartition,
    join_sequence,
)
from rdelab.harness import gen_instance

from conftest import diagonal_partition, rebuilt_pullback, small_cover


class TestConstruction:
    def test_sections_canonicalized_to_admissible(self, gm):
        pairs = full_word_partition(gm, 0, 2)
        # (b, b) is inadmissible in the golden-mean fiber, so its cell is
        # empty there but the cell itself is retained
        bb = [e for e in range(pairs.element_count) if (1, 1) in pairs.sections[e][0]]
        assert len(bb) == 1
        assert pairs.sections[bb[0]][1] == frozenset()

    def test_covering_enforced(self, gm):
        with pytest.raises(CoverError, match="covering fails"):
            product_cover(gm, [[(0,)]])

    def test_partition_disjointness_enforced(self, gm):
        with pytest.raises(CoverError, match="overlap"):
            product_cover(gm, [[(0,), (1,)], [(1,)]], partition=True)

    def test_per_fiber_cover_detects_product_form(self, gm):
        same = per_fiber_cover(gm, [[[(0,)], [(0,)]], [[(1,)], [(1,)]]])
        assert same.product_form
        mixed = per_fiber_cover(gm, [[[(0,)], [(0,), (1,)]], [[(1,)], [(1,)]]])
        assert not mixed.product_form


class TestIsFiner:
    def test_reflexive(self, gm):
        u = zero_cylinders(gm)
        assert is_finer(u, u)

    def test_words_refine_cylinders(self, gm):
        assert is_finer(full_word_partition(gm, 0, 2), zero_cylinders(gm))

    def test_cylinders_do_not_refine_words(self, gm):
        assert not is_finer(zero_cylinders(gm), full_word_partition(gm, 0, 2))

    def test_everything_refines_trivial(self, gm):
        assert is_finer(zero_cylinders(gm), trivial_cover(gm))


class TestJoin:
    def test_join_with_self_keeps_cells(self, gm):
        # the off-diagonal pairs are empty in every fiber, so only the
        # diagonal (a, a), (b, b) is stored
        u = zero_cylinders(gm)
        j = join(u, u)
        assert isinstance(j, PositionedPartition)
        assert j.sections == u.sections
        assert j.product_sections == u.product_sections

    def test_two_step_join_has_empty_bb_cell(self, gm):
        u = zero_cylinders(gm)
        j = join(u, pullback(u, 1))
        assert j.window == (0, 2)
        # flat index 3 is the (b, b) pair
        assert j.sections[3][0] == frozenset({(1, 1)})
        assert j.sections[3][1] == frozenset()

    def test_join_with_trivial_is_identity_up_to_labels(self, gm):
        u = zero_cylinders(gm)
        j = join(u, trivial_cover(gm))
        assert [elem[0] for elem in j.sections] == [elem[0] for elem in u.sections]
        assert [elem[1] for elem in j.sections] == [elem[1] for elem in u.sections]


class TestPullback:
    def test_zero_power_is_identity(self, gm):
        u = zero_cylinders(gm)
        assert pullback(u, 0) is u

    def test_product_cover_is_transparent(self, gm):
        u = zero_cylinders(gm)
        p = pullback(u, 1)
        assert p.window == (1, 2)
        assert p.product_sections == u.product_sections

    def test_fiber_dependent_sections_reindex(self, gm):
        w = per_fiber_cover(gm, [[[(0,)], [(0,), (1,)]], [[(1,)], []]])
        p = pullback(w, 1)
        # theta maps fiber 0 to fiber 1, so the new section at fiber 0 is the
        # old section at fiber 1
        assert p.sections[0][0] == frozenset({(0,), (1,)})
        assert p.sections[0][1] == frozenset({(0,)})
        assert p.window == (1, 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_sections_match_rebuilt_ones(self, seed):
        # powers 1..4 reach theta^i = identity on every base of up to four
        # points, where the sections are reused
        inst = gen_instance(seed)
        for u in inst.covers.values():
            for i in range(1, 5):
                got, want = pullback(u, i), rebuilt_pullback(u, i)
                assert got.sections == want.sections
                assert got.window == want.window
                assert got.product_sections == want.product_sections

    def test_fixed_fibers_keep_their_sections(self, full2, gm):
        u = product_cover(full2, [[(0,)], [(0,), (1,)]])
        assert pullback(u, 3).sections == rebuilt_pullback(u, 3).sections
        w = per_fiber_cover(gm, [[[(0,)], [(0,), (1,)]], [[(1,)], []]])
        assert pullback(w, 2).sections == rebuilt_pullback(w, 2).sections
        assert pullback(w, 2).sections[0][0] == frozenset({(0,)})

    def test_negative_power_rejected(self, gm):
        with pytest.raises(ValueError):
            pullback(zero_cylinders(gm), -1)


class TestRangeJoin:
    def test_single_step_is_input(self, gm):
        u = zero_cylinders(gm)
        assert range_join(u, 0, 0) is u or range_join(u, 0, 0).sections == u.sections

    def test_full_shift_cell_counts(self, full2):
        u = zero_cylinders(full2)
        for n in (1, 2, 3, 4):
            j = range_join(u, 0, n - 1)
            assert sum(1 for e in j.sections if e[0]) == 2**n

    def test_golden_mean_cell_counts(self, gm):
        j = range_join(zero_cylinders(gm), 0, 1)
        assert sum(1 for e in j.sections if e[0]) == 4
        assert sum(1 for e in j.sections if e[1]) == 3

    def test_element_cap_guard(self, gm, monkeypatch):
        monkeypatch.setattr("rdelab.covers.ELEMENT_CAP", 100)
        with pytest.raises(JoinSizeError):
            range_join(zero_cylinders(gm), 0, 9)

    @pytest.mark.parametrize("partition", [True, False])
    def test_shifted_range_is_the_join_of_shifted_pullbacks(self, gm, partition):
        overlap = product_cover(gm, [[(0,), (1,)], [(1,)]])
        u = zero_cylinders(gm) if partition else overlap
        got = range_join(u, 2, 4)
        expect = join(join(pullback(u, 2), pullback(u, 3)), pullback(u, 4))
        assert type(got) is type(expect)
        assert got.window == expect.window
        assert got.sections == expect.sections
        assert got.product_sections == expect.product_sections

    def test_join_sequence_yields_every_range_join(self, gm):
        u = product_cover(gm, [[(0,), (1,)], [(1,)]])
        joins = list(join_sequence(u, 4))
        assert len(joins) == 4 and joins[0] is u
        for k, joined in enumerate(joins, 1):
            expect = range_join(u, 0, k - 1)
            assert joined.window == expect.window and joined.sections == expect.sections

    def test_join_sequence_cap_raises_before_any_join(self, gm, monkeypatch):
        monkeypatch.setattr("rdelab.covers.ELEMENT_CAP", 15)
        joins = join_sequence(zero_cylinders(gm), 4)
        with pytest.raises(JoinSizeError):
            next(joins)

    def test_split_identity(self, gm):
        u = product_cover(gm, [[(0,), (1,)], [(1,)]])
        lhs = range_join(u, 0, 3)
        rhs = join(range_join(u, 0, 1), pullback(range_join(u, 0, 1), 2))
        assert lhs.sections == rhs.sections and lhs.window == rhs.window

    def test_pullback_commutes_with_join(self, gm):
        u = zero_cylinders(gm)
        v = product_cover(gm, [[(0,), (1,)], [(1,)]])
        lhs = pullback(join(u, v), 2)
        rhs = join(pullback(u, 2), pullback(v, 2))
        assert lhs.sections == rhs.sections and lhs.window == rhs.window


class TestProductPartitionsFiner:
    def test_partition_yields_itself(self, gm):
        u = zero_cylinders(gm)
        parts = list(product_partitions_finer(u))
        assert len(parts) == 1
        assert parts[0].product_sections == u.product_sections

    def test_two_element_overlap_example(self, gm):
        u = product_cover(gm, [[(0,), (1,)], [(1,)]])
        enum = product_partitions_finer(u)
        assert enum.count == 2
        parts = list(enum)
        got = [
            tuple(tuple(sorted(cell)) for cell in p.product_sections) for p in parts
        ]
        assert got == [
            (((0,), (1,)), ()),
            (((0,),), ((1,),)),
        ]

    def test_count_is_choice_product(self, gm):
        u = product_cover(gm, [[(0,), (1,)], [(0,), (1,)]])
        enum = product_partitions_finer(u)
        assert enum.count == 4 == len(list(enum))

    def test_yields_refining_partitions(self, gm):
        u = product_cover(gm, [[(0,), (1,)], [(1,)]])
        for p in product_partitions_finer(u):
            assert isinstance(p, PositionedPartition)
            assert is_finer(p, u)

    def test_requires_product_form(self, gm):
        mixed = per_fiber_cover(gm, [[[(0,)], [(0,), (1,)]], [[(1,)], [(1,)]]])
        with pytest.raises(CoverError, match="product-form"):
            product_partitions_finer(mixed)


class TestAlgebraOnFuzzedInstances:
    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_monotonicity_and_commutation(self, seed):
        inst = gen_instance(seed)
        names = sorted(inst.covers)
        u, v = inst.covers[names[0]], inst.covers[names[1 % len(names)]]
        w = join(u, v)
        assert is_finer(w, u) and is_finer(w, v)
        assert is_finer(join(w, v), join(u, v))
        lhs = pullback(join(u, v), 1)
        rhs = join(pullback(u, 1), pullback(v, 1))
        assert lhs.sections == rhs.sections


# ---------------------------------------------------------------------------
# reference join: the element x vocabulary scan the indexed join replaced
# ---------------------------------------------------------------------------


def reference_membership(cover, omega, hull=None):
    hs, he = hull if hull is not None else cover.window
    lo, hi = cover.start - hs, cover.start - hs + cover.length
    return {
        w: tuple(i for i, sect in enumerate(cover.sections) if w[lo:hi] in sect[omega])
        for w in admissible_tuples(cover.bundle, omega, hs, he - hs)
    }


def reference_join(u, v):
    """(sections, product_sections, class) of ``join(u, v)`` by full scans."""
    bundle = u.bundle
    hs, he = min(u.start, v.start), max(u.stop, v.stop)
    omega_count = bundle.base.omega_count
    ku, kv = u.element_count, v.element_count
    sections = [[set() for _ in range(omega_count)] for _ in range(ku * kv)]
    for omega in range(omega_count):
        mu = reference_membership(u, omega, (hs, he))
        mv = reference_membership(v, omega, (hs, he))
        for w in admissible_tuples(bundle, omega, hs, he - hs):
            for i in mu[w]:
                for j in mv[w]:
                    sections[i * kv + j][omega].add(w)
    product_sections = None
    if u.product_form and v.product_form:
        vocab = {
            w
            for omega in range(omega_count)
            for w in admissible_tuples(bundle, omega, hs, he - hs)
        }
        lou, hiu = u.start - hs, u.start - hs + u.length
        lov, hiv = v.start - hs, v.start - hs + v.length
        product_sections = tuple(
            frozenset(
                w
                for w in vocab
                if w[lou:hiu] in u.product_sections[i]
                and w[lov:hiv] in v.product_sections[j]
            )
            for i in range(ku)
            for j in range(kv)
        )
    both = isinstance(u, PositionedPartition) and isinstance(v, PositionedPartition)
    cls = PositionedPartition if both else PositionedCover
    return (
        tuple(tuple(frozenset(per) for per in elem) for elem in sections),
        product_sections,
        cls,
    )


def assert_join_matches_reference(u, v):
    """``join(u, v)`` holds the reference's elements that are nonempty in some
    fiber, in the reference's order; every element it drops is empty in every
    fiber."""
    got = join(u, v)
    sections, product_sections, cls = reference_join(u, v)
    assert type(got) is cls
    kept = []
    for f, elem in enumerate(sections):
        if len(kept) < got.element_count and got.sections[len(kept)] == elem:
            kept.append(f)
        else:
            assert not any(elem), f
    assert len(kept) == got.element_count
    assert all(any(elem) for elem in got.sections)
    if product_sections is None:
        assert got.product_sections is None
    else:
        assert got.product_sections == tuple(product_sections[f] for f in kept)
    assert got.window == (min(u.start, v.start), max(u.stop, v.stop))
    for cover in (u, v, got):
        wide = (max(cover.start - 1, 0), cover.stop + 1)
        for omega in range(cover.bundle.base.omega_count):
            for hull in (None, wide):
                assert cover.membership(omega, hull) == reference_membership(
                    cover, omega, hull
                )
    return got


def overlap_cover(bundle, start=0):
    words = [(a,) for a in range(bundle.alphabet_size)]
    return product_cover(bundle, [words, words[1:]], start=start)


def split_cover(bundle):
    """Element 0 holds every symbol in fiber 0 but only symbol 0 elsewhere."""
    k = bundle.alphabet_size
    omega_count = bundle.base.omega_count
    return per_fiber_cover(
        bundle,
        [
            [[(a,) for a in range(k)] if om == 0 else [(0,)] for om in range(omega_count)],
            [[(a,) for a in range(1, k)]] * omega_count,
        ],
    )


class TestJoinMatchesReference:
    @pytest.mark.parametrize("name", ["gm", "full2", "id2"])
    def test_conftest_bundles(self, name, request):
        bundle = request.getfixturevalue(name)
        zero = zero_cylinders(bundle)
        overlap = overlap_cover(bundle)
        split = split_cover(bundle)
        pairs = full_word_partition(bundle, 0, 2)
        for u, v in itertools.product([zero, overlap, split, pairs], repeat=2):
            for shift in (0, 1, 2):
                assert_join_matches_reference(u, pullback(v, shift))

    def test_nonzero_start_and_wider_hull(self, gm):
        u = overlap_cover(gm, start=2)
        v = full_word_partition(gm, 1, 2)
        w = assert_join_matches_reference(u, v)
        assert w.window == (1, 3)
        deep = assert_join_matches_reference(w, pullback(split_cover(gm), 4))
        assert deep.window == (1, 5)

    def test_iterated_joins(self, gm):
        u = overlap_cover(gm)
        out = u
        for k in range(1, 5):
            out = assert_join_matches_reference(out, pullback(u, k))
        # b b is forbidden from odd steps in fiber 0 and from even steps in
        # fiber 1: 9 of the 2**5 index tuples put the element {b} on both
        # sides of such a step in each fiber, so they are empty in both
        assert out.element_count == 2**5 - 9

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_fuzzed_instances(self, seed):
        inst = gen_instance(seed)
        covers = [inst.covers[name] for name in sorted(inst.covers)]
        for u, v in itertools.product(covers, repeat=2):
            assert_join_matches_reference(u, pullback(v, 1))


BUNDLES = (
    presets.alternating_golden_mean(),
    presets.full_shift(2),
    presets.identity_shift(2),
    presets.full_shift(3),
)


@st.composite
def cover_pairs(draw):
    bundle = draw(st.sampled_from(BUNDLES))
    return draw(small_cover(bundle)), draw(small_cover(bundle))


class TestJoinMatchesReferenceOnRandomCovers:
    @given(cover_pairs())
    def test_join_and_membership(self, pair):
        u, v = pair
        assert_join_matches_reference(u, v)
        assert_join_matches_reference(v, u)


# ---------------------------------------------------------------------------
# stored join elements: nonempty in some fiber, in index-tuple order
# ---------------------------------------------------------------------------


def dense_join_sections(u, steps):
    """Sections of the ``steps``-step join of ``u`` for every index tuple, in
    lexicographic order and empty ones included, by filtering hull words."""
    bundle = u.bundle
    pulled = [pullback(u, t) for t in range(steps)]
    out = []
    for indices in itertools.product(range(u.element_count), repeat=steps):
        out.append(
            tuple(
                frozenset(
                    w
                    for w in admissible_tuples(bundle, omega, u.start, u.length + steps - 1)
                    if all(
                        w[t : t + u.length] in pulled[t].sections[e][omega]
                        for t, e in enumerate(indices)
                    )
                )
                for omega in range(bundle.base.omega_count)
            )
        )
    return out


def assert_stores_nonempty_in_order(joined, dense):
    assert all(any(elem) for elem in joined.sections)
    assert joined.sections == tuple(elem for elem in dense if any(elem))


def assert_join_sequence_stores_nonempty_in_order(u, steps):
    # the first cover of the sequence is ``u`` itself, which is no join
    joins = itertools.islice(join_sequence(u, steps), 1, None)
    for k, joined in enumerate(joins, 2):
        assert_stores_nonempty_in_order(joined, dense_join_sections(u, k))


def conftest_covers(bundle):
    return [
        zero_cylinders(bundle),
        overlap_cover(bundle),
        split_cover(bundle),
        full_word_partition(bundle, 0, 2),
        diagonal_partition(bundle),
    ]


class TestJoinStoresNonemptyElementsInOrder:
    @given(cover_pairs())
    def test_random_pairs(self, pair):
        u, v = pair
        for a, b in ((u, v), (v, u)):
            sections = reference_join(a, b)[0]
            assert_stores_nonempty_in_order(join(a, b), sections)

    @pytest.mark.parametrize("name", ["gm", "full2", "id2"])
    def test_join_sequences_of_conftest_covers(self, name, request):
        for u in conftest_covers(request.getfixturevalue(name)):
            steps = 4 if u.element_count <= 2 else 3
            assert_join_sequence_stores_nonempty_in_order(u, steps)

    @given(st.sampled_from(BUNDLES).flatmap(small_cover), st.integers(2, 3))
    def test_join_sequences_of_random_covers(self, u, steps):
        assert_join_sequence_stores_nonempty_in_order(u, steps)


# ---------------------------------------------------------------------------
# the membership memo keeps only the cover's own-window maps
# ---------------------------------------------------------------------------


class TestMembershipMemo:
    @pytest.mark.parametrize("name", ["gm", "full2", "id2"])
    def test_wider_hulls_are_not_kept(self, name, request):
        bundle = request.getfixturevalue(name)
        omega_count = bundle.base.omega_count
        for cover in [pullback(c, 2) for c in conftest_covers(bundle)]:
            hulls = (None, (cover.start - 1, cover.stop), (cover.start - 2, cover.stop + 1))
            for omega in range(omega_count):
                for hull in hulls:
                    member = reference_membership(cover, omega, hull)
                    assert cover.membership(omega, hull) == member
                    if cover.is_partition:
                        cells = {w: ids[0] for w, ids in member.items()}
                        assert cover.cell_of(omega, hull) == cells
            maps = 2 * omega_count if cover.is_partition else omega_count
            assert len(cover._mcache) <= maps
            for omega in range(omega_count):
                assert cover.membership(omega) is cover.membership(omega)


# ---------------------------------------------------------------------------
# product form: each defining set is the union of the element's fiber sections
# ---------------------------------------------------------------------------


def derived_covers(covers):
    """The covers with their joins, pullbacks, range joins and enumerated
    product partitions."""
    out = list(covers)
    for u, v in itertools.product(covers, repeat=2):
        out.append(join(u, pullback(v, 1)))
    for u in covers:
        out += [pullback(u, 2), range_join(u, 1, 3)]
        if u.product_form:
            out += itertools.islice(product_partitions_finer(u), 3)
    return out


def defining_set_counts(cover):
    """Assert the product-form invariant on ``cover``; returns the numbers of
    defining sets seen and of empty ones."""
    if not cover.product_form:
        return 0, 0
    assert len(cover.product_sections) == cover.element_count
    empty = 0
    for elem, defining in zip(cover.sections, cover.product_sections):
        assert defining == frozenset().union(*elem)
        if not defining:
            assert defining is _EMPTY
            empty += 1
    return cover.element_count, empty


class TestDefiningSets:
    def test_unions_of_fiber_sections_on_generated_covers(self):
        seen = empty = 0
        for seed in range(12):
            inst = gen_instance(seed)
            for cover in derived_covers([inst.covers[n] for n in sorted(inst.covers)]):
                a, b = defining_set_counts(cover)
                seen, empty = seen + a, empty + b
        assert seen > empty > 0

    @pytest.mark.parametrize("name", ["gm", "full2", "id2"])
    def test_unions_of_fiber_sections_on_conftest_bundles(self, name, request):
        bundle = request.getfixturevalue(name)
        covers = [zero_cylinders(bundle), overlap_cover(bundle), split_cover(bundle)]
        for cover in derived_covers(covers):
            defining_set_counts(cover)

    def test_empty_element_of_a_product_cover_is_shared(self, gm):
        cover = product_cover(gm, [[(0,), (1,)], [], [(1,)]])
        assert cover.product_sections[1] is _EMPTY


# ---------------------------------------------------------------------------
# is_finer against the lifted-section containment test it replaced
# ---------------------------------------------------------------------------


def reference_is_finer(u, v):
    """Every element of ``u``, its sections lifted to the window hull, sits
    inside one element of ``v`` in every fiber."""
    hs, he = min(u.start, v.start), max(u.stop, v.stop)
    omega_count = u.bundle.base.omega_count

    def lifted(cover, e, omega):
        lo = cover.start - hs
        hi = lo + cover.length
        return frozenset(
            w
            for w in admissible_tuples(cover.bundle, omega, hs, he - hs)
            if w[lo:hi] in cover.sections[e][omega]
        )

    return all(
        any(
            all(lifted(u, i, om) <= lifted(v, j, om) for om in range(omega_count))
            for j in range(v.element_count)
        )
        for i in range(u.element_count)
    )


def finer_pairs(u, v):
    """Ordered pairs of ``u``, ``v``, shifted pullbacks and joins, so that
    windows differ and both outcomes are common."""
    w = join(u, pullback(v, 1))
    return [(u, v), (v, u), (w, u), (u, w), (pullback(u, 1), v), (w, pullback(v, 1))]


class TestIsFinerMatchesReference:
    def test_generated_covers(self):
        outcomes = set()
        for seed in range(12):
            inst = gen_instance(seed)
            covers = [inst.covers[n] for n in sorted(inst.covers)]
            for u, v in itertools.product(covers, repeat=2):
                for a, b in finer_pairs(u, v):
                    got = is_finer(a, b)
                    assert got == reference_is_finer(a, b)
                    outcomes.add((got, a.window != b.window))
        assert outcomes == {
            (True, True), (True, False), (False, True), (False, False)
        }

    @given(cover_pairs())
    def test_random_covers(self, pair):
        for a, b in finer_pairs(*pair):
            assert is_finer(a, b) == reference_is_finer(a, b)
