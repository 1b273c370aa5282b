import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rdelab.base as base_module
import rdelab.covercomb as covercomb
import rdelab.covers as covers_module
from rdelab import (
    ProbBase,
    SymbolicBundle,
    cover_count,
    exact_min_cover,
    global_min_subcover_count,
    maximal_multi_separated,
    min_subcover_count,
    presets,
    product_cover,
    product_partitions_finer,
    range_join,
    trivial_cover,
    zero_cylinders,
)
from rdelab.base import admissible_tuples
from rdelab.base import plain_sum
from rdelab.covercomb import (
    SeparationError,
    SetCoverSizeError,
    UncoveredUniverseError,
    _forced,
    _join_labels,
    partition_join_counts,
)
from rdelab.covers import (
    JoinSizeError,
    PositionedCover,
    PositionedPartition,
    join,
    join_sequence,
    per_fiber_cover,
    pullback,
)
from rdelab.entropy import topological_cover_entropy
from rdelab.harness import gen_instance
from rdelab.instances import load_instance

from conftest import alphabet2_bundle, brute_min_cover, small_cover


class TestExactMinCover:
    def test_uncovered_universe_reported(self):
        with pytest.raises(UncoveredUniverseError, match="item 2"):
            exact_min_cover(3, [0b011])

    def test_limits_apply_after_reductions(self, monkeypatch):
        # a disjoint family of any size resolves through forced picks
        masks = [1 << i for i in range(200)]
        monkeypatch.setattr(covercomb, "UNIVERSE_MAX", 8)
        monkeypatch.setattr(covercomb, "ELEMS_MAX", 4)
        assert exact_min_cover(200, masks) == 200

    def test_size_guard_raises(self, monkeypatch):
        # pairwise overlapping family that survives the reductions
        rng = np.random.default_rng(5)
        n = 30
        masks = [int(rng.integers(1, 1 << n)) | 1 for _ in range(40)]
        masks.append((1 << n) - 1 & ~0)
        monkeypatch.setattr(covercomb, "UNIVERSE_MAX", 4)
        monkeypatch.setattr(covercomb, "ELEMS_MAX", 2)
        with pytest.raises(SetCoverSizeError, match=r"sets\) exceeds limits \(4 items, 2 sets\)$"):
            exact_min_cover(n, masks)

    @given(st.data())
    def test_matches_bruteforce(self, data):
        n = data.draw(st.integers(3, 10))
        k = data.draw(st.integers(2, 7))
        masks = [data.draw(st.integers(1, (1 << n) - 1)) for _ in range(k)]
        union = 0
        for m in masks:
            union |= m
        masks.append(((1 << n) - 1) & ~union | 1)
        sets = [
            {i for i in range(n) if m >> i & 1} for m in masks
        ]
        assert exact_min_cover(n, masks) == brute_min_cover(range(n), sets)

    @given(st.data())
    def test_forced_picks_match_per_item_counts(self, data):
        """The bitwise forced picks are the masks that own an item of count
        one, with empty and duplicate masks in the family."""
        n = data.draw(st.integers(1, 9))
        masks = data.draw(
            st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8)
        )
        masks += data.draw(st.lists(st.sampled_from(masks), max_size=3))
        count: dict[int, int] = {}
        owner: dict[int, int] = {}
        for m in masks:
            for b in range(n):
                if m >> b & 1:
                    count[b] = count.get(b, 0) + 1
                    owner[b] = m
        assert _forced(masks) == {owner[b] for b, c in count.items() if c == 1}
        union = 0
        for m in masks:
            union |= m
        masks.append(((1 << n) - 1) & ~union)
        sets = [{i for i in range(n) if m >> i & 1} for m in masks]
        assert exact_min_cover(n, masks) == brute_min_cover(range(n), sets)


class TestMinSubcover:
    def test_partition_counts_nonempty_sections(self, gm):
        j = range_join(zero_cylinders(gm), 0, 1)
        assert min_subcover_count(j, 0) == 4
        assert min_subcover_count(j, 1) == 3

    def test_overlapping_triple_needs_two(self, gm):
        cover = product_cover(
            gm,
            [
                [(0, 0), (0, 1), (1, 0)],
                [(0, 1), (1, 1)],
                [(1, 1), (1, 0)],
            ],
        )
        assert min_subcover_count(cover, 0) == 2

    def test_full_section_element_gives_one(self, gm):
        cover = product_cover(gm, [[(0,), (1,)], [(1,)]])
        assert min_subcover_count(cover, 0) == 1
        assert min_subcover_count(cover, 1) == 1

    def test_global_count_covers_all_fibers(self, gm):
        # one element per fiber-specific word pattern forces two picks
        cover = per_fiber_cover(
            gm,
            [
                [[(0,), (1,)], [(0,)]],
                [[(1,)], [(0,), (1,)]],
            ],
        )
        assert min_subcover_count(cover, 0) == 1
        assert min_subcover_count(cover, 1) == 1
        assert global_min_subcover_count(cover) == 2


class TestCoverCount:
    def test_cylinder_partition_equals_word_counts(self, gm):
        u = zero_cylinders(gm)
        assert cover_count(u, 2) == [(2, 2), (4, 3)]

    def test_full_shift(self, full2):
        u = zero_cylinders(full2)
        assert cover_count(u, 5) == [(2**n,) for n in range(1, 6)]

    def test_two_fixed_points(self, id2):
        u = zero_cylinders(id2)
        assert cover_count(u, 6) == [(2,)] * 6

    def test_needs_one_step(self, gm):
        with pytest.raises(ValueError, match=r"^need nmax >= 1$"):
            cover_count(zero_cylinders(gm), 0)

    @pytest.mark.parametrize("seed", [2, 9, 17])
    def test_monotone_and_submultiplicative(self, seed):
        inst = gen_instance(seed)
        b = inst.bundle
        names = sorted(inst.covers)
        u = inst.covers[names[0]]
        from rdelab import join

        v = join(u, inst.covers[names[1 % len(names)]])
        cu = cover_count(u, 3)
        cv = cover_count(v, 2)
        for omega in range(b.base.omega_count):
            assert cv[1][omega] >= cu[1][omega]
            for n, m in ((1, 1), (1, 2), (2, 1)):
                theta_n = b.base.apply_theta(omega, n)
                assert cu[n + m - 1][omega] <= cu[n - 1][omega] * cu[m - 1][theta_n]


class TestMaximalMultiSeparated:
    def test_cylinder_partition_takes_every_word(self, gm):
        u = zero_cylinders(gm)
        separated = maximal_multi_separated([u], u, 2)
        assert tuple(map(len, separated)) == (4, 3) == cover_count(u, 2)[-1]
        for omega, chosen in enumerate(separated):
            assert chosen == admissible_tuples(gm, omega, 0, 2)

    def test_trivial_partition_takes_one_word(self, gm):
        t = trivial_cover(gm)
        assert tuple(map(len, maximal_multi_separated([t], t, 1))) == (1, 1)

    def test_two_refinements_of_overlap_cover(self, gm):
        u = product_cover(gm, [[(0,), (1,)], [(1,)]])
        parts = list(product_partitions_finer(u))
        separated = maximal_multi_separated(parts, u, 1)
        (counts,) = cover_count(u, 1)
        for omega in range(2):
            chosen = separated[omega]
            assert len(chosen) >= counts[omega] // len(parts)
            # exhaustive maximality: no unchosen word can be added
            joined = [range_join(p, 0, 0) for p in parts]
            atoms = [j.cell_of(omega) for j in joined]
            used = [{atoms[l][w] for w in chosen} for l in range(len(parts))]
            for w in admissible_tuples(gm, omega, 0, 1):
                if w in chosen:
                    continue
                assert any(atoms[l][w] in used[l] for l in range(len(parts)))

    def test_refinement_requirement_enforced(self, gm):
        u = zero_cylinders(gm)
        coarse = trivial_cover(gm)
        with pytest.raises(SeparationError, match="finer"):
            maximal_multi_separated([coarse], u, 1)

    @pytest.mark.parametrize("seed", [4, 23])
    def test_bound_on_fuzzed_instances(self, seed):
        inst = gen_instance(seed)
        b = inst.bundle
        for name in sorted(inst.covers):
            cov = inst.covers[name]
            if not cov.product_form:
                continue
            parts = list(
                itertools.islice(iter(product_partitions_finer(cov)), 2)
            )
            counts = cover_count(cov, 2)
            for n in (1, 2):
                separated = maximal_multi_separated(parts, cov, n)
                assert len(separated) == b.base.omega_count
                for chosen, count in zip(separated, counts[n - 1]):
                    assert len(chosen) >= count // len(parts)


DEMOS = [
    f"demos/instances/{name}.json"
    for name in ("alternating_golden_mean", "full_shift_2", "two_fixed_points")
]


def _bundles():
    """The demo bundles and the first 40 generated ones."""
    out = [load_instance(path).bundle for path in DEMOS]
    return out + [gen_instance(seed).bundle for seed in range(40)]


BUNDLES = _bundles()


@st.composite
def demo_or_generated_covers(draw):
    return draw(small_cover(draw(st.sampled_from(BUNDLES))))


class TestSubcoverCountsMatchBruteForce:
    @given(demo_or_generated_covers())
    @settings(max_examples=100)
    def test_per_fiber_and_global(self, cover):
        bundle = cover.bundle
        fibers = range(bundle.base.omega_count)
        words = [admissible_tuples(bundle, om, cover.start, cover.length) for om in fibers]
        for om in fibers:
            sets = [elem[om] for elem in cover.sections]
            assert min_subcover_count(cover, om) == brute_min_cover(words[om], sets)
        universe = [(om, w) for om in fibers for w in words[om]]
        sets = [{(om, w) for om in fibers for w in elem[om]} for elem in cover.sections]
        assert global_min_subcover_count(cover) == brute_min_cover(universe, sets)


@st.composite
def fiber_partitions(draw):
    """A random fiber-dependent partition of window 1 or 2 starting at 0 or
    1, on a demo or generated bundle."""
    bundle = draw(st.sampled_from(BUNDLES))
    start = draw(st.integers(0, 1))
    length = draw(st.integers(1, 2))
    k = draw(st.integers(1, 4))
    cells = [[[] for _ in range(bundle.base.omega_count)] for _ in range(k)]
    for omega in range(bundle.base.omega_count):
        for w in admissible_tuples(bundle, omega, start, length):
            cells[draw(st.integers(0, k - 1))][omega].append(w)
    return per_fiber_cover(bundle, cells, start=start, partition=True)


def join_counts(cover, omega, steps):
    """Reference: minimal subcover counts of the built joins."""
    return [min_subcover_count(j, omega) for j in join_sequence(cover, steps)]


def join_log_counts(bundle, cover, nmax):
    """Reference: P-averaged log counts of the built joins."""
    return [
        plain_sum(
            bundle.base.weights[omega] * math.log(min_subcover_count(j, omega))
            for omega in range(bundle.base.omega_count)
        )
        for j in join_sequence(cover, nmax)
    ]


def instance_covers():
    for path in DEMOS:
        inst = load_instance(path)
        for name in sorted(inst.covers):
            yield pytest.param(inst.bundle, inst.covers[name], id=f"{path[15:-5]}-{name}")
    for seed in (0, 3, 8, 21):
        inst = gen_instance(seed)
        for name in sorted(inst.covers):
            yield pytest.param(inst.bundle, inst.covers[name], id=f"gen{seed}-{name}")


class TestPartitionJoinCounts:
    @given(fiber_partitions(), st.integers(1, 6))
    @settings(max_examples=200)
    def test_matches_the_built_joins(self, part, steps):
        for omega in range(part.bundle.base.omega_count):
            assert partition_join_counts(part, omega, steps) == join_counts(
                part, omega, steps
            )

    def test_singleton_cells_count_words(self, gm):
        counts = partition_join_counts(zero_cylinders(gm), 1, 18)
        assert counts == [len(admissible_tuples(gm, 1, 0, n)) for n in range(1, 19)]

    @pytest.mark.parametrize("bundle, cover", list(instance_covers()))
    def test_reports_keep_their_bits(self, bundle, cover):
        nmax = 5 if cover.element_count <= 4 else 3
        ref = join_log_counts(bundle, cover, nmax)
        rep = topological_cover_entropy(cover, nmax)
        assert [(n, v.hex()) for n, v in rep.sequence] == [
            (n, (x / n).hex()) for n, x in enumerate(ref, 1)
        ]
        assert rep.certified_upper.hex() == min(x / n for n, x in enumerate(ref, 1)).hex()
        fibers = range(bundle.base.omega_count)
        assert cover_count(cover, nmax) == list(
            zip(*(join_counts(cover, omega, nmax) for omega in fibers))
        )

    def test_size_guard_comes_before_any_work(self, gm, monkeypatch):
        import rdelab.covers as covers

        u = zero_cylinders(gm)
        monkeypatch.setattr(covers, "ELEMENT_CAP", 100)
        with pytest.raises(JoinSizeError) as want:
            next(join_sequence(u, 10))

        def fail(*args, **kwargs):
            raise AssertionError("work done before the size check")

        monkeypatch.setattr(covers, "join", fail)
        monkeypatch.setattr(PositionedPartition, "cell_of", fail)
        calls = [
            lambda: partition_join_counts(u, 0, 10),
            lambda: cover_count(u, 10),
            lambda: topological_cover_entropy(u, 10),
        ]
        for call in calls:
            with pytest.raises(JoinSizeError) as got:
                call()
            assert str(got.value) == str(want.value) == "join would create 2^10 elements (cap 100)"


def built_join_counts(cover, nmax):
    """Reference: the minimal subcover counts of the built joins, per step
    and fiber."""
    fibers = range(cover.bundle.base.omega_count)
    return [
        tuple(min_subcover_count(joined, omega) for omega in fibers)
        for joined in join_sequence(cover, nmax)
    ]


def outcome(call):
    """What ``call`` returns, or the type and text of the error it raises."""
    try:
        return call()
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)


def alphabet3_covers():
    """Overlapping covers of an alphabet-3 bundle whose base is a 3-cycle and
    a fixed point, on windows of one and two coordinates."""
    b = SymbolicBundle(
        base=ProbBase(weights=(0.2, 0.2, 0.2, 0.4), theta=(1, 2, 0, 3)),
        alphabet=("a", "b", "c"),
        adjacency=tuple(
            np.array(m, dtype=np.int8)
            for m in (
                [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
                [[1, 1, 1], [1, 0, 0], [0, 1, 1]],
                [[0, 1, 1], [1, 1, 0], [1, 1, 1]],
                [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
            )
        ),
    )
    pairs = list(itertools.product(range(3), repeat=2))
    return [
        product_cover(b, [[(0,), (1,)], [(1,), (2,)], [(2,), (0,)]]),
        product_cover(
            b, [[w for w in pairs if w[0] <= w[1]], [w for w in pairs if w[0] >= w[1]]],
            start=1,
        ),
        per_fiber_cover(
            b,
            [
                [[(0,), (1,)], [(0,)], [(0,), (2,)], [(1,)]],
                [[(2,)], [(1,), (2,)], [(1,), (2,)], [(0,), (2,)]],
                [[(1,)], [(0,), (2,)], [(1,)], [(0,), (1,)]],
            ],
        ),
    ]


def walk_cases():
    """Every non-partition cover of the demo instances, of ``gen_instance``
    seeds 0-99 and of the alphabet-3 bundle."""
    for path in DEMOS:
        inst = load_instance(path)
        covers = [inst.covers[name] for name in sorted(inst.covers)]
        yield pytest.param(covers, id=path[15:-5])
    for seed in range(100):
        inst = gen_instance(seed)
        covers = [inst.covers[name] for name in sorted(inst.covers)]
        yield pytest.param(covers, id=f"gen{seed}")
    yield pytest.param(alphabet3_covers(), id="alphabet3")


class TestCoverCountWalk:
    """A cover's counts come from a bitmask walk over the joined windows'
    words; the built joins are the reference, values and guards alike."""

    @pytest.mark.parametrize("covers", list(walk_cases()))
    def test_matches_the_built_joins(self, covers):
        walked = [c for c in covers if not isinstance(c, PositionedPartition)]
        for cover in walked:
            for nmax in range(1, 6):
                assert outcome(lambda: cover_count(cover, nmax)) == outcome(
                    lambda: built_join_counts(cover, nmax)
                )

    def test_cases_reach_long_cycles_and_alphabet_3(self):
        bundles = [
            c.bundle
            for param in walk_cases()
            for c in param.values[0]
            if not isinstance(c, PositionedPartition)
        ]
        assert max(max(map(len, b.base.cycles())) for b in bundles) >= 3
        assert max(b.alphabet_size for b in bundles) == 3

    def test_join_size_guard_comes_before_any_work(self, monkeypatch):
        u = product_cover(presets.alternating_golden_mean(), [[(0,), (1,)], [(1,)]])
        monkeypatch.setattr(covers_module, "ELEMENT_CAP", 100)
        want = outcome(lambda: built_join_counts(u, 10))

        def fail(*args, **kwargs):
            raise AssertionError("work done before the size check")

        for owner, name in [
            (covers_module, "join"),
            (covercomb, "min_subcover_count"),
            (covercomb, "exact_min_cover"),
            (covercomb, "admissible_tuples"),
            (PositionedCover, "membership"),
        ]:
            monkeypatch.setattr(owner, name, fail)
        assert outcome(lambda: cover_count(u, 10)) == want == (
            JoinSizeError, "join would create 2^10 elements (cap 100)"
        )

    @pytest.mark.parametrize("cap", range(2, 40))
    def test_word_cap_trips_at_the_same_window_and_fiber(self, cap, monkeypatch):
        # fiber w1 reads the full shift first, so it outgrows fiber w0; each
        # path runs on a bundle of its own, whose word lists are not cached
        def cover():
            b = alphabet2_bundle((1, 0), [[[1, 1], [1, 0]], [[1, 1], [1, 1]]])
            return product_cover(b, [[(0,), (1,)], [(1,)]])

        monkeypatch.setattr(base_module, "WORD_CAP", cap)
        got = outcome(lambda: cover_count(cover(), 8))
        want = outcome(lambda: built_join_counts(cover(), 8))
        assert got == want
        assert got[0] is base_module.WordListSizeError

    def test_word_cap_trips_in_a_later_fiber(self, monkeypatch):
        # fiber w0 has 3 words of length 2 and fiber w1 has 4, so a cap of 3
        # trips in fiber w1 at the first joined window
        b = alphabet2_bundle((1, 0), [[[1, 1], [1, 0]], [[1, 1], [1, 1]]])
        monkeypatch.setattr(base_module, "WORD_CAP", 3)
        u = product_cover(b, [[(0,), (1,)], [(1,)]])
        assert outcome(lambda: cover_count(u, 8)) == (
            base_module.WordListSizeError,
            "window [0, 2) of fiber w1 has 4 admissible words (cap 3)",
        )

    def test_set_cover_guard_trips_at_the_same_step_and_fiber(self, monkeypatch):
        # fiber 1 trips at step 2 and fiber 0 only at step 3, so both paths
        # stop at their sixth solve, step 2 of fiber 1
        u = gen_instance(9).covers["U0"]
        assert u.bundle.base.omega_count == 2
        monkeypatch.setattr(covercomb, "UNIVERSE_MAX", 2)
        monkeypatch.setattr(covercomb, "ELEMS_MAX", 2)
        real = covercomb.exact_min_cover
        sizes = []

        def recording(universe_size, masks, *args):
            sizes.append(universe_size)
            return real(universe_size, masks, *args)

        monkeypatch.setattr(covercomb, "exact_min_cover", recording)
        got = outcome(lambda: cover_count(u, 5))
        walked = list(sizes)
        sizes.clear()
        want = outcome(lambda: built_join_counts(u, 5))
        assert got == want
        assert got[0] is SetCoverSizeError
        assert walked == sizes and len(sizes) == 6

    def test_every_fibers_word_cap_comes_before_the_steps_counts(self, monkeypatch):
        # at step 3 the solve of fiber 1 trips, but fiber 3's window has 32
        # words, over a cap of 20: a built join lists every fiber's words
        # before any count, so the word cap trips first
        got_cover, want_cover = gen_instance(0).covers["U0"], gen_instance(0).covers["U0"]
        monkeypatch.setattr(covercomb, "UNIVERSE_MAX", 2)
        monkeypatch.setattr(covercomb, "ELEMS_MAX", 2)
        monkeypatch.setattr(base_module, "WORD_CAP", 20)
        got = outcome(lambda: cover_count(got_cover, 5))
        assert got == outcome(lambda: built_join_counts(want_cover, 5))
        assert got[0] is base_module.WordListSizeError and "has 32 admissible" in got[1]

    def test_uncovered_item_reads_as_the_lexicographic_index(self):
        # fiber w1's words are (0,0), (0,1), (1,0) and no element holds
        # (1,0): its lexicographic index is 2, its colex index 1
        gm = presets.alternating_golden_mean()
        u = PositionedCover(
            bundle=gm,
            start=0,
            length=2,
            sections=(
                (frozenset({(0, 0), (0, 1), (1, 0)}), frozenset({(0, 0)})),
                (frozenset({(0, 1), (1, 1)}), frozenset({(0, 1)})),
            ),
            check=False,
        )
        got = outcome(lambda: cover_count(u, 3))
        assert got == outcome(lambda: built_join_counts(u, 3))
        assert got == (UncoveredUniverseError, "universe item 2 is uncovered")


def stride_joins(p, steps, stride):
    """The built joins of the pullbacks of ``p`` through ``0, stride, ...,
    (j-1) stride`` for ``j = 1..steps``."""
    out = p
    for j in range(steps):
        if j:
            out = join(out, pullback(p, j * stride))
        yield out


def label_partitions():
    """Every partition of the valid demos and of ``gen_instance`` seeds
    0-59."""
    for inst in [load_instance(path) for path in DEMOS] + [
        gen_instance(seed) for seed in range(60)
    ]:
        for name in sorted(inst.covers):
            if isinstance(inst.covers[name], PositionedPartition):
                yield inst.covers[name]


def two_fiber_partition():
    # fiber w1 reads the full shift first, so it outgrows fiber w0
    b = alphabet2_bundle((1, 0), [[[1, 1], [1, 0]], [[1, 1], [1, 1]]])
    return zero_cylinders(b)


class TestJoinLabels:
    """One label walk numbers the cells of a partition's joins at any
    stride, as the built joins store them, with their guards."""

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_labels_number_the_built_cells(self, stride):
        # windows of one and two coordinates, so strides 2 and 3 leave gaps
        # between the pulled windows
        checked = 0
        for p in label_partitions():
            built = list(stride_joins(p, 3, stride))
            walked = list(_join_labels(p, 3, stride))
            assert len(walked) == len(built)
            for joined, labels in zip(built, walked):
                pairs = set()
                for omega, lab in enumerate(labels):
                    words = admissible_tuples(p.bundle, omega, joined.start, joined.length)
                    assert lab.keys() == set(words)
                    cells = joined.cell_of(omega)
                    pairs |= {(lab[w], cells[w]) for w in words}
                # across every fiber, one stored cell per label and one label
                # per stored cell, both in ascending order
                ordered = sorted(pairs)
                assert [c for _, c in ordered] == sorted({c for _, c in pairs})
                assert len({l for l, _ in pairs}) == len(pairs)
            checked += 1
        assert checked >= 100

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_join_size_guard_comes_before_any_word_list(self, monkeypatch, stride):
        p = two_fiber_partition()
        monkeypatch.setattr(covers_module, "ELEMENT_CAP", 100)
        before = dict(p.bundle._word_cache)
        want = outcome(lambda: next(join_sequence(p, 10)))
        assert outcome(lambda: next(_join_labels(p, 10, stride))) == want == (
            JoinSizeError, "join would create 2^10 elements (cap 100)"
        )
        assert p.bundle._word_cache == before

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("cap", range(2, 40))
    def test_word_cap_trips_at_the_first_window_past_it(self, monkeypatch, stride, cap):
        ref = two_fiber_partition().bundle
        fibers = range(ref.base.omega_count)
        # the first step and fiber whose window has more than cap words
        j, omega, count = next(
            (j, omega, c)
            for j in range(8)
            for omega in fibers
            if (c := base_module.word_count(ref, omega, 1 + j * stride)) > cap
        )
        monkeypatch.setattr(base_module, "WORD_CAP", cap)
        p = two_fiber_partition()
        steps = []
        with pytest.raises(base_module.WordListSizeError) as err:
            for labels in _join_labels(p, 8, stride):
                steps.append(labels)
        assert len(steps) == j
        assert str(err.value) == (
            f"window [0, {1 + j * stride}) of fiber {ref.base.labels[omega]} has "
            f"{count} admissible words (cap {cap})"
        )
        built = two_fiber_partition()
        assert outcome(lambda: list(stride_joins(built, 8, stride))) == (
            type(err.value), str(err.value)
        )
