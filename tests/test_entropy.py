import glob
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rdelab.covers as covers_module
import rdelab.entropy as entropy_module
import rdelab.harness as harness

from rdelab import (
    block_power_system,
    cover_complexity,
    cover_conditional_entropy,
    full_word_partition,
    h_minus_report,
    h_plus_value,
    join,
    markov_to_word,
    mass_shift_entropy_check,
    partition_conditional_entropy,
    partition_entropy_report,
    product_cover,
    product_partitions_finer,
    pullback,
    shannon,
    stationary_starts,
    topological_cover_entropy,
    trivial_cover,
    witness_measures,
    word_count,
    zero_cylinders,
)
from rdelab import presets
from rdelab.base import admissible_tuples, transfer_count
from rdelab.covercomb import global_min_subcover_count
from rdelab.covers import (
    CoverError,
    JoinSizeError,
    PositionedPartition,
    join_sequence,
    range_join,
)
from rdelab.entropy import EnumerationGuardError, _min_entropy_assignment
from rdelab.harness import gen_instance, random_word_measure
from rdelab.instances import load_instance
from rdelab.measures import WordMeasure, pushforward
from rdelab.guards import GUARDS

from conftest import brute_assignment_minimum

LN2 = math.log(2)
LN3 = math.log(3)


class TestShannon:
    def test_point_mass(self):
        assert shannon([1.0, 0.0]) == 0.0

    def test_fair_coin(self):
        assert shannon([0.5, 0.5]) == pytest.approx(LN2, abs=1e-12)

    def test_three_quarters(self):
        assert shannon([0.75, 0.25]) == pytest.approx(0.5623351446188083, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            shannon([0.5, -0.1])

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="nonnegative, got nan"):
            shannon([math.nan, 1.0])


class TestMassShiftCheck:
    def test_worked_example(self):
        res = mass_shift_entropy_check([0.3, 0.5], [0.1, 0.1])
        assert res.hypothesis_errors == () and res.holds
        assert res.lhs == pytest.approx(0.7077654315777535, abs=1e-12)
        assert res.rhs == pytest.approx(0.6283829567464145, abs=1e-12)
        assert res.margin == pytest.approx(0.0793824748313390, abs=1e-12)

    def test_zero_first_shift_is_a_hypothesis_error(self):
        res = mass_shift_entropy_check([0.3, 0.5], [0.0, 0.0])
        assert res.holds is None
        assert any("strictly" in e for e in res.hypothesis_errors)

    def test_unsorted_reported(self):
        res = mass_shift_entropy_check([0.5, 0.3], [0.1, 0.1])
        assert any("ascending" in e for e in res.hypothesis_errors)

    def test_unbalanced_shift_reported(self):
        res = mass_shift_entropy_check([0.3, 0.5], [0.1, 0.05])
        assert any("equal delta" in e for e in res.hypothesis_errors)

    def test_fuzzed_draws_all_hold(self):
        rng = np.random.default_rng(0)
        made = 0
        while made < 100:
            k = int(rng.integers(2, 7))
            p = np.sort(rng.dirichlet(np.ones(k + 1))[:k])
            if p[0] <= 1e-6:
                continue
            d1 = float(p[0]) * 0.5
            split = rng.dirichlet(np.ones(k - 1)) * d1
            delta = [d1] + [float(x) for x in split]
            if any(delta[i] >= 1.0 - p[i] for i in range(1, k)):
                continue
            res = mass_shift_entropy_check([float(x) for x in p], delta)
            if res.hypothesis_errors:
                continue
            assert res.holds and res.margin > 0
            made += 1


class TestCoverComplexity:
    def test_worked_value(self, gm):
        expect = 0.5 * (math.log(4) + math.log(3))
        got = cover_complexity(zero_cylinders(gm), 2)[-1]
        assert got == pytest.approx(expect, abs=1e-12)
        assert got == pytest.approx(1.242453, abs=1e-6)

    def test_full_shift_linear(self, full2):
        u = zero_cylinders(full2)
        got = cover_complexity(u, 5)
        assert got == pytest.approx([n * LN2 for n in range(1, 6)], abs=1e-12)

    def test_trivial_cover_is_zero(self, gm):
        assert cover_complexity(trivial_cover(gm), 3) == [0.0] * 3


class TestTopologicalCoverEntropy:
    def test_full_shift_exact(self, full2):
        rep = topological_cover_entropy(zero_cylinders(full2), 4)
        assert rep.exact_rate == pytest.approx(LN2, abs=1e-12)
        assert rep.certified_upper == pytest.approx(LN2, abs=1e-12)

    def test_two_fixed_points_zero(self, id2):
        rep = topological_cover_entropy(zero_cylinders(id2), 4)
        assert rep.exact_rate == pytest.approx(0.0, abs=1e-12)

    def test_alternating_golden_mean(self, gm):
        rep = topological_cover_entropy(zero_cylinders(gm), 12)
        assert rep.exact_rate == pytest.approx(0.5 * LN3, abs=1e-12)
        assert 0.549306 <= rep.certified_upper <= 0.70
        mins = rep.prefix_minima()
        assert all(mins[i + 1] <= mins[i] for i in range(len(mins) - 1))
        assert rep.exact_rate <= rep.certified_upper + 1e-9

    def test_no_exact_rate_for_proper_covers(self, gm):
        overlap = product_cover(gm, [[(0,), (1,)], [(1,)]])
        rep = topological_cover_entropy(overlap, 3)
        assert rep.exact_rate is None


class TestConditionalEntropy:
    def test_worked_partition_value(self, gm, gm_measure):
        got = partition_conditional_entropy(gm_measure, zero_cylinders(gm))
        expect = 0.5 * (shannon([0.75, 0.25]) + shannon([0.5, 0.5]))
        assert got == pytest.approx(expect, abs=1e-12)
        assert got == pytest.approx(0.627741, abs=1e-6)

    def test_point_mass_measure_gives_zero(self, gm):
        nu = WordMeasure(
            bundle=gm, horizon=2, weights=({(0, 1): 1.0}, {(1, 0): 1.0})
        )
        assert partition_conditional_entropy(nu, zero_cylinders(gm)) == 0.0
        assert partition_conditional_entropy(nu, full_word_partition(gm, 0, 2)) == 0.0

    def test_trivial_partition_gives_zero(self, gm, gm_measure):
        assert partition_conditional_entropy(gm_measure, trivial_cover(gm)) == 0.0

    def test_partition_agrees_with_cover_modes(self, gm, gm_measure):
        part = zero_cylinders(gm)
        expect = partition_conditional_entropy(gm_measure, part)
        for mode in ("general", "product"):
            assert cover_conditional_entropy(gm_measure, part, mode) == pytest.approx(
                expect, abs=1e-12
            )

    def test_trivial_cover_zero_both_modes(self, gm, gm_measure):
        for mode in ("general", "product"):
            assert cover_conditional_entropy(gm_measure, trivial_cover(gm), mode) == 0.0

    def test_overlap_cover_worked_example(self, gm, gm_measure):
        # elements {a,b} and {b}: the coarse refinement has zero entropy
        u = product_cover(gm, [[(0,), (1,)], [(1,)]])
        assert cover_conditional_entropy(gm_measure, u, "product") == 0.0
        assert cover_conditional_entropy(gm_measure, u, "general") == 0.0

    def test_product_mode_is_minimum_over_refinements(self, gm, gm_measure):
        u = product_cover(gm, [[(0, 0), (0, 1)], [(0, 1), (1, 0)], [(1, 0), (1, 1)]])
        by_enum = min(
            partition_conditional_entropy(gm_measure, p)
            for p in product_partitions_finer(u)
        )
        got = cover_conditional_entropy(gm_measure, u, "product")
        assert got == pytest.approx(by_enum, abs=1e-12)

    def test_general_never_exceeds_product(self, gm, gm_measure):
        u = product_cover(gm, [[(0, 0), (0, 1)], [(0, 1), (1, 0)], [(1, 0), (1, 1)]])
        g = cover_conditional_entropy(gm_measure, u, "general")
        p = cover_conditional_entropy(gm_measure, u, "product")
        assert g <= p + 1e-12

    @pytest.mark.parametrize("seed", [5, 13, 31, 47])
    def test_general_mode_matches_bruteforce(self, seed):
        inst = gen_instance(seed)
        b = inst.bundle
        rng = np.random.default_rng(seed)
        for name in sorted(inst.covers):
            cov = inst.covers[name]
            nu = random_word_measure(b, cov.stop + 1, rng)
            joined = join(cov, pullback(cov, 1))
            got = cover_conditional_entropy(nu, joined, "general")
            expect = 0.0
            skip = False
            for omega in range(b.base.omega_count):
                member = joined.membership(omega)
                masses = {
                    w: x
                    for w, x in nu.window_masses(
                        omega, joined.start, joined.length
                    ).items()
                    if x > 0
                }
                size = 1
                for w in masses:
                    size *= len(member[w])
                if size > 30000:
                    skip = True
                    break
                expect += b.base.weights[omega] * brute_assignment_minimum(
                    masses, member
                )
            if not skip:
                assert got == pytest.approx(expect, abs=1e-11)

    def test_enumeration_guard_in_product_mode(self, gm, gm_measure):
        u = product_cover(
            gm, [[(0, 0), (0, 1)], [(0, 1), (1, 0)], [(1, 0), (1, 1)]]
        )
        with pytest.raises(EnumerationGuardError):
            cover_conditional_entropy(gm_measure, u, "product", enum_cap=3)

    @pytest.mark.parametrize(
        "run",
        [
            lambda mu, u, cap: cover_conditional_entropy(mu, u, "product", enum_cap=cap),
            lambda mu, u, cap: h_minus_report(mu, u, 1, "product", enum_cap=cap),
            lambda mu, u, cap: h_plus_value(mu, u, 1, enum_cap=cap),
        ],
    )
    def test_enumeration_guard_trips_above_the_count(self, gm, gm_measure, run):
        u = product_cover(gm, [[(0, 0), (0, 1)], [(0, 1), (1, 0)], [(1, 0), (1, 1)]])
        assert product_partitions_finer(u).count == 4
        run(gm_measure, u, 4)
        with pytest.raises(EnumerationGuardError, match=r"has 4 members \(cap 3\)"):
            run(gm_measure, u, 3)


class TestRefinementLaws:
    """Bounds, monotonicity, subadditivity, and the shift identity."""

    @pytest.mark.parametrize("seed", [1, 8, 21])
    def test_bounded_by_log_min_subcover(self, seed):
        inst = gen_instance(seed)
        rng = np.random.default_rng(seed + 1)
        names = sorted(inst.covers)
        u = inst.covers[names[0]]
        nu = random_word_measure(inst.bundle, u.stop + 1, rng)
        h = cover_conditional_entropy(nu, u, "general")
        assert -1e-12 <= h <= math.log(global_min_subcover_count(u)) + 1e-9

    @pytest.mark.parametrize("seed", [1, 8, 21])
    def test_finer_is_larger_and_join_subadditive(self, seed):
        inst = gen_instance(seed)
        rng = np.random.default_rng(seed + 2)
        names = sorted(inst.covers)
        u = inst.covers[names[0]]
        v = inst.covers[names[1 % len(names)]]
        w = join(u, v)
        nu = random_word_measure(inst.bundle, w.stop + 1, rng)
        hu = cover_conditional_entropy(nu, u, "general")
        hv = cover_conditional_entropy(nu, v, "general")
        hw = cover_conditional_entropy(nu, w, "general")
        assert hw >= hu - 1e-9
        assert hw <= hu + hv + 1e-9

    @pytest.mark.parametrize("seed", [1, 8, 21, 34])
    def test_pullback_shift_identity(self, seed):
        inst = gen_instance(seed)
        rng = np.random.default_rng(seed + 3)
        names = sorted(inst.covers)
        u = inst.covers[names[0]]
        nu = random_word_measure(inst.bundle, u.stop + 1, rng)
        lhs = cover_conditional_entropy(nu, pullback(u, 1), "general")
        rhs = cover_conditional_entropy(pushforward(nu), u, "general")
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_subcover_partition_witnesses_corollary(self, gm, gm_measure):
        # build the refinement from a minimal subcover by first-containing
        # assignment; it refines the cover, uses at most the subcover's many
        # cells with positive mass, and cannot beat the exact infimum
        u = product_cover(gm, [[(0,), (1,)], [(1,)]])
        from rdelab.covercomb import min_subcover_count

        sup_n = max(min_subcover_count(u, om) for om in range(2))
        nu = markov_to_word(gm_measure, u.stop)
        total = 0.0
        for omega in range(2):
            member = u.membership(omega)
            cells = {}
            for w, x in nu.window_masses(omega, u.start, u.length).items():
                cells[member[w][0]] = cells.get(member[w][0], 0.0) + x
            assert len([c for c, x in cells.items() if x > 0]) <= sup_n
            total += 0.5 * shannon(cells.values())
        assert total >= cover_conditional_entropy(gm_measure, u, "general") - 1e-12


class TestRateReports:
    def test_partition_rate_chain_rule(self, gm, gm_measure):
        rep = partition_entropy_report(gm_measure, zero_cylinders(gm), 6)
        assert rep.exact_rate == pytest.approx(0.75 * LN2, abs=1e-12)
        assert rep.exact_rate == pytest.approx(0.519860, abs=1e-6)
        assert rep.certified_upper >= rep.exact_rate - 1e-9

    def test_uniform_bernoulli_full_shift(self, full2):
        mu = stationary_starts(full2, [np.full((2, 2), 0.5)])
        rep = partition_entropy_report(mu, zero_cylinders(full2), 3)
        assert rep.exact_rate == pytest.approx(LN2, abs=1e-12)

    def test_deterministic_chain_rate_zero(self, full2):
        mu = stationary_starts(full2, [np.array([[0.0, 1.0], [1.0, 0.0]])])
        rep = partition_entropy_report(mu, zero_cylinders(full2), 4)
        assert rep.exact_rate == pytest.approx(0.0, abs=1e-12)
        # two equally likely deterministic orbits: the step-n average is ln2/n
        for n, v in rep.sequence:
            assert v == pytest.approx(LN2 / n, abs=1e-12)

    def test_hminus_on_partition_matches_rate_sequence(self, gm, gm_measure):
        part = zero_cylinders(gm)
        a = h_minus_report(gm_measure, part, 4)
        b = partition_entropy_report(gm_measure, part, 4)
        assert a.sequence == b.sequence

    def test_hminus_decreases_toward_chain_rate(self, gm, gm_measure):
        rep = h_minus_report(gm_measure, zero_cylinders(gm), 8)
        values = [v for _, v in rep.sequence]
        assert all(values[i + 1] <= values[i] + 1e-12 for i in range(len(values) - 1))
        assert values[-1] == pytest.approx(0.53334, abs=1e-4)
        assert rep.certified_upper >= 0.75 * LN2 - 1e-12

    def test_hminus_rejects_non_invariant(self, gm, gm_measure):
        from rdelab.measures import MarkovMeasure

        broken = MarkovMeasure(
            bundle=gm,
            transitions=gm_measure.transitions,
            starts=(np.array([0.5, 0.5]), np.array([0.5, 0.5])),
            check=False,
        )
        with pytest.raises(ValueError, match="invariant"):
            h_minus_report(broken, zero_cylinders(gm), 2)

    def test_hminus_finite_values_below_complexity(self, gm, gm_measure):
        u = product_cover(gm, [[(0,), (1,)], [(1,)]])
        rep = h_minus_report(gm_measure, u, 4)
        tops = cover_complexity(u, 4)
        for n, v in rep.sequence:
            assert v * n <= tops[n - 1] + 1e-9


class TestHPlus:
    def test_partition_case_equals_rate(self, gm, gm_measure):
        part = zero_cylinders(gm)
        res = h_plus_value(gm_measure, part, 4)
        rep = partition_entropy_report(gm_measure, part, 4)
        assert res.value == pytest.approx(rep.certified_upper, abs=1e-12)

    def test_overlap_cover_minimizes_over_two(self, gm, gm_measure):
        u = product_cover(gm, [[(0,), (1,)], [(1,)]])
        res = h_plus_value(gm_measure, u, 4)
        assert len(res.candidate_values) == 2
        assert res.value == pytest.approx(min(res.candidate_values), abs=1e-15)
        assert res.value == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [6, 19])
    def test_upper_bounds_hminus(self, seed):
        inst = gen_instance(seed)
        mu = inst.measures[sorted(inst.measures)[0]]
        for name in sorted(inst.covers):
            cov = inst.covers[name]
            if not cov.product_form:
                continue
            if product_partitions_finer(cov).count > 64:
                continue
            minus = h_minus_report(mu, cov, 3).certified_upper
            plus = h_plus_value(mu, cov, 3, enum_cap=64).value
            assert minus <= plus + 1e-9
            break


class TestPowerSystem:
    def test_single_step_reproduces_base(self, gm):
        ps = block_power_system(zero_cylinders(gm), 1)
        assert ps.block_alphabet_sizes() == (2, 2)
        from rdelab import word_count

        for omega in range(2):
            for k in (1, 2, 4):
                assert ps.block_word_count(omega, k) == word_count(gm, omega, k)

    def test_two_step_blocks(self, gm):
        ps = block_power_system(zero_cylinders(gm), 2)
        assert ps.block_alphabet_sizes() == (4, 3)
        from rdelab import word_count

        for omega in range(2):
            for k in (1, 2, 3):
                assert ps.block_word_count(omega, k) == word_count(gm, omega, 2 * k)

    @pytest.mark.parametrize("steps", [2, 3])
    def test_rate_identity_with_base(self, gm, gm_measure, steps):
        ps = block_power_system(zero_cylinders(gm), steps)
        power = ps.h_value_sequence(gm_measure, 3)
        base = h_minus_report(gm_measure, zero_cylinders(gm), 3 * steps)
        base_vals = dict(base.sequence)
        for k, v in power.sequence:
            assert v / steps == pytest.approx(base_vals[k * steps], abs=1e-9)

    def test_requires_anchored_cover(self, gm):
        from rdelab.covers import CoverError

        shifted = pullback(zero_cylinders(gm), 1)
        with pytest.raises(CoverError, match="anchored"):
            block_power_system(shifted, 2)

    @pytest.mark.parametrize("steps", [2, 3])
    def test_rate_identity_with_wider_window(self, gm, gm_measure, steps):
        pairs = full_word_partition(gm, 0, 2)
        ps = block_power_system(pairs, steps)
        power = ps.h_value_sequence(gm_measure, 2)
        base_vals = dict(h_minus_report(gm_measure, pairs, 2 * steps).sequence)
        for k, v in power.sequence:
            assert v / steps == pytest.approx(base_vals[k * steps], abs=1e-9)

    def test_product_mode_rates_dominate_general(self, gm, gm_measure):
        u = product_cover(gm, [[(0,), (1,)], [(1,)]])
        gen = h_minus_report(gm_measure, u, 4, "general")
        prod = h_minus_report(gm_measure, u, 4, "product")
        for (_, gv), (_, pv) in zip(gen.sequence, prod.sequence):
            assert pv >= gv - 1e-12


def reference_block_counts(bundle, steps, kmax):
    """Block alphabet sizes and k-block word counts (``k = 1..kmax``) as the
    power system counted them before it read them from the base bundle: each
    fiber's admissible M-blocks, 0/1 junction matrices joining a block's last
    symbol to the next block's first, and their transfer products."""
    base = bundle.base
    vocab = [admissible_tuples(bundle, omega, 0, steps) for omega in range(base.omega_count)]
    junctions = []
    for omega in range(base.omega_count):
        nxt = base.apply_theta(omega, steps)
        glue = bundle.matrix_at(omega, steps - 1)
        mat = np.zeros((len(vocab[omega]), len(vocab[nxt])), dtype=np.int8)
        for i, u in enumerate(vocab[omega]):
            for j, v in enumerate(vocab[nxt]):
                if glue[u[-1], v[0]]:
                    mat[i, j] = 1
        junctions.append(mat)
    counts = {}
    for omega in range(base.omega_count):
        for k in range(1, kmax + 1):
            points = [base.apply_theta(omega, j * steps) for j in range(k)]
            mats = [junctions[point] for point in points[:-1]]
            counts[omega, k] = transfer_count(mats, len(vocab[points[-1]]))
    return tuple(len(v) for v in vocab), counts


class TestPowerSystemCounts:
    """Block counts are base word counts, read from the bundle."""

    @staticmethod
    def assert_counts_match_reference(ps):
        sizes, counts = reference_block_counts(ps.cover.bundle, ps.steps, 3)
        assert ps.block_alphabet_sizes() == sizes
        for (omega, k), count in counts.items():
            assert ps.block_word_count(omega, k) == count, (omega, k)

    @pytest.mark.parametrize("seed", range(12))
    def test_generated_covers_match_the_junction_counts(self, seed):
        inst = gen_instance(seed)
        for name, cover in sorted(inst.covers.items()):
            for steps in (1, 2, 3):
                self.assert_counts_match_reference(block_power_system(cover, steps))

    @pytest.mark.parametrize("name", ["full2", "id2", "gm"])
    def test_conftest_bundles_match_the_junction_counts(self, name, request):
        bundle = request.getfixturevalue(name)
        for steps in (1, 2, 3):
            self.assert_counts_match_reference(block_power_system(zero_cylinders(bundle), steps))

    def test_k_below_one_is_refused(self, gm):
        with pytest.raises(ValueError, match="need k >= 1"):
            block_power_system(zero_cylinders(gm), 2).block_word_count(0, 0)

    @staticmethod
    def past_the_old_block_cap(gm, gm_measure):
        # 2**13 and 3**8 M-blocks per fiber, too many to enumerate; the
        # zero cylinders' joins over two blocks are past the join cap
        full3 = presets.full_shift(3)
        return [
            (gm, 13, gm_measure),
            (full3, 8, stationary_starts(full3, [np.full((3, 3), 1 / 3)])),
        ]

    def test_past_the_old_block_cap_counts_are_word_counts(self, gm, gm_measure):
        for bundle, steps, _ in self.past_the_old_block_cap(gm, gm_measure):
            ps = block_power_system(zero_cylinders(bundle), steps)
            omegas = range(bundle.base.omega_count)
            assert ps.block_alphabet_sizes() == tuple(
                word_count(bundle, omega, steps) for omega in omegas
            )
            for omega in omegas:
                for k in (1, 2, 3):
                    assert ps.block_word_count(omega, k) == word_count(bundle, omega, k * steps)

    def test_past_the_old_block_cap_the_join_guard_fires_first(
        self, gm, gm_measure, monkeypatch
    ):
        def refuse(u, v):
            raise AssertionError("a join was built")

        monkeypatch.setattr(covers_module, "join", refuse)
        for bundle, steps, mu in self.past_the_old_block_cap(gm, gm_measure):
            ps = block_power_system(zero_cylinders(bundle), steps)
            for mode in ("general", "product"):
                with pytest.raises(JoinSizeError):
                    ps.h_value_sequence(mu, 2, mode)


class TestStepsBelowOne:
    """A step count below 1 is refused with the report's own message."""

    @pytest.mark.parametrize("nmax", [0, -1])
    def test_h_plus_value(self, gm, gm_measure, nmax):
        # window 1 and window 2: the count is refused before any horizon is
        # formed or any join sized
        for cover in (zero_cylinders(gm), full_word_partition(gm, 0, 2)):
            with pytest.raises(ValueError, match=r"^need nmax >= 1$"):
                h_plus_value(gm_measure, cover, nmax)

    @pytest.mark.parametrize("kmax", [0, -1])
    def test_h_value_sequence(self, gm, gm_measure, kmax):
        for cover in (zero_cylinders(gm), full_word_partition(gm, 0, 2)):
            with pytest.raises(ValueError, match=r"^need kmax >= 1$"):
                block_power_system(cover, 2).h_value_sequence(gm_measure, kmax)


# ---------------------------------------------------------------------------
# the min-entropy assignment kernel against its numpy reference
# ---------------------------------------------------------------------------


def reference_min_entropy_assignment(words, pvec, *, node_cap=10**6, visited=None):
    """The numpy assignment search that the plain-float kernel replaced.

    Mass vectors and per-cell masses are numpy arrays, and the lower bound
    is built from scratch at every node.  Three changes from the replaced
    code: sums of Python floats are written as left-to-right loops (what
    builtin ``sum`` does for them before Python 3.12), a tripped node cap
    also reports the node count, and on several fibers words with the same
    candidates merge only when their mass vectors are proportional.  A
    finished search appends its node count to ``visited`` when one is given.
    """
    words = [(np.array(m, dtype=float), tuple(c)) for m, c in words]
    pvec = np.array(pvec, dtype=float)
    dim = len(pvec)

    def plain_sum(values):
        s = 0.0
        for v in values:
            s += v
        return s

    if words:
        common = set(words[0][1])
        for _, cands in words[1:]:
            if not common:
                break
            common &= set(cands)
        if common:
            if visited is not None:
                visited.append(0)
            return 0.0
    base = {}
    grouped = {}
    for mass, cands in words:
        if len(cands) == 1:
            e = cands[0]
            if e in base:
                base[e] = base[e] + mass
            else:
                base[e] = mass.copy()
        elif len(cands) == 0:
            raise CoverError("a positive-mass word has no containing element")
        else:
            key = cands
            if dim > 1:
                lead = Fraction(float(next((x for x in mass if x), 1.0)))
                key = (cands, tuple(Fraction(float(x)) / lead for x in mass))
            if key in grouped:
                grouped[key] = (grouped[key][0] + mass, cands)
            else:
                grouped[key] = (mass.copy(), cands)
    free = list(grouped.values())

    def xlnx(x):
        return x * math.log(x) if x > 0.0 else 0.0

    def g(vec):
        return -float(sum(pvec[f] * xlnx(float(vec[f])) for f in range(dim)))

    if not free:
        if visited is not None:
            visited.append(0)
        return plain_sum(g(v) for v in base.values())

    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for _, cands in free:
        for e in cands[1:]:
            ra, rb = find(cands[0]), find(e)
            if ra != rb:
                parent[ra] = rb
    comp_words = {}
    comp_elems = {}
    for mass, cands in free:
        comp_words.setdefault(find(cands[0]), []).append((mass, cands))
        comp_elems.setdefault(find(cands[0]), set()).update(cands)
    touched = set().union(*comp_elems.values())
    total = plain_sum(g(v) for e, v in base.items() if e not in touched)

    nodes = [0]
    for root, wlist in comp_words.items():
        elems = sorted(comp_elems[root])
        wlist = sorted(wlist, key=lambda mc: (-float(pvec @ mc[0]), mc[1]))
        masses = {e: base.get(e, np.zeros(dim)).copy() for e in elems}
        pending = [{e: np.zeros(dim) for e in elems} for _ in range(len(wlist) + 1)]
        suffix = [np.zeros(dim) for _ in range(len(wlist) + 1)]
        for i in range(len(wlist) - 1, -1, -1):
            for e in elems:
                pending[i][e] = pending[i + 1][e]
            mass, cands = wlist[i]
            suffix[i] = suffix[i + 1] + mass
            for e in cands:
                pending[i][e] = pending[i][e] + mass

        def comp_value(ms):
            return plain_sum(g(v) for v in ms.values())

        choice = []
        trial = {e: v.copy() for e, v in masses.items()}
        for mass, cands in wlist:
            target = max(cands, key=lambda e: float(pvec @ trial[e]))
            trial[target] += mass
            choice.append(target)
        for _ in range(30):
            improved = False
            for j, (mass, cands) in enumerate(wlist):
                here = choice[j]
                trial[here] = trial[here] - mass
                val_here = g(trial[here] + mass) - g(trial[here])
                better, gain = here, val_here
                for e in cands:
                    if e == here:
                        continue
                    v = g(trial[e] + mass) - g(trial[e])
                    if v < gain - 1e-15:
                        better, gain = e, v
                trial[better] = trial[better] + mass
                if better != here:
                    choice[j] = better
                    improved = True
            if not improved:
                break
        best = [comp_value(trial)]

        def lower_bound(i, ms, cur):
            caps = {e: ms[e] + pending[i][e] for e in elems}
            neglog = {
                e: [
                    -math.log(c) if 0.0 < c < 1.0 else 0.0
                    for c in (float(x) for x in caps[e])
                ]
                for e in elems
            }
            linear = 0.0
            for e in elems:
                held = ms[e]
                for f in range(dim):
                    if held[f] > 0.0:
                        linear += pvec[f] * float(held[f]) * neglog[e][f]
            by_word = 0.0
            for j in range(i, len(wlist)):
                mass, cands = wlist[j]
                cheapest = math.inf
                cheapest_lin = math.inf
                for e in cands:
                    cap = caps[e]
                    nl = neglog[e]
                    inc = 0.0
                    lin = 0.0
                    for f in range(dim):
                        m = float(mass[f])
                        if m > 0.0:
                            inc -= pvec[f] * (xlnx(float(cap[f])) - xlnx(float(cap[f]) - m))
                            lin += pvec[f] * m * nl[f]
                    if inc < cheapest:
                        cheapest = inc
                    if lin < cheapest_lin:
                        cheapest_lin = lin
                by_word += cheapest
                linear += cheapest_lin
            dump = 0.0
            for f in range(dim):
                r = float(suffix[i][f])
                if r <= 0.0:
                    continue
                mx = max(float(ms[e][f]) for e in elems)
                dump += pvec[f] * (xlnx(mx) - xlnx(mx + r))
            return max(cur + by_word, cur + dump, linear)

        def dfs(i, ms, cur):
            nodes[0] += 1
            if nodes[0] > node_cap:
                raise EnumerationGuardError(
                    f"assignment search exceeded node cap {node_cap}",
                    partial_minimum=total + best[0],
                    nodes=nodes[0],
                )
            if i == len(wlist):
                if cur < best[0]:
                    best[0] = cur
                return
            if lower_bound(i, ms, cur) >= best[0] - 1e-13:
                return
            mass, cands = wlist[i]
            scored = []
            for e in cands:
                old = ms[e]
                scored.append((g(old + mass) - g(old), e))
            scored.sort()
            for delta, e in scored:
                old = ms[e]
                ms[e] = old + mass
                dfs(i + 1, ms, cur + delta)
                ms[e] = old

        dfs(0, masses, comp_value(masses))
        total += best[0]
    if visited is not None:
        visited.append(nodes[0])
    return total


# masses from a few levels make ties between words; 0.0 leaves fibers empty.
# Eight words of at most 1/8 keep every fiber's total mass at most 1.
MASS_LEVELS = (0.0, 0.01, 0.025, 0.05, 0.07, 1 / 12, 0.1, 0.125)


@st.composite
def assignment_inputs(draw):
    """Words with per-fiber mass vectors and candidate elements, the fiber
    weights, and the element count."""
    dim = draw(st.integers(1, 4))
    element_count = draw(st.integers(1, 6))
    forced_only = draw(st.booleans())
    entry = st.one_of(st.sampled_from(MASS_LEVELS), st.floats(1e-9, 0.125))
    words = []
    for _ in range(draw(st.integers(1, 8))):
        mass = draw(
            st.lists(entry, min_size=dim, max_size=dim).filter(lambda m: any(m))
        )
        size = 1 if forced_only else draw(st.integers(1, min(3, element_count)))
        cands = draw(
            st.lists(
                st.integers(0, element_count - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        words.append((tuple(mass), tuple(sorted(cands))))
    shares = draw(st.lists(st.integers(1, 4), min_size=dim, max_size=dim))
    pvec = tuple(x / sum(shares) for x in shares)
    return words, element_count, pvec


def fifteen_bit_instance():
    """A fixed one-fiber search: 15 free words with two candidates each
    (2**15 assignments in one component) over 8 elements, plus 3 forced words."""
    rng = random.Random(145)
    pairs = [(e, e + 1) for e in range(7)]
    others = [p for p in itertools.combinations(range(8), 2) if p not in pairs]
    pairs += rng.sample(others, 8)
    words = [([0.2 + rng.random()], p) for p in pairs]
    for e in (0, 3, 5):
        words.append(([0.5 + rng.random()], (e,)))
    scale = sum(m[0] for m, _ in words)
    return [((m[0] / scale,), c) for m, c in words], 8, (1.0,)


def refine_shaped_instance():
    """A fixed one-fiber search shaped like the ``refine`` benchmark's widest:
    13 free words with two candidates each over 14 elements (a random tree,
    so one component), plus 5 forced words."""
    rng = random.Random(0)
    order = list(range(14))
    rng.shuffle(order)
    pairs = [tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, 14)]
    words = [([0.5 + rng.random()], p) for p in pairs]
    for e in rng.sample(range(14), 5):
        words.append(([0.5 + rng.random()], (e,)))
    scale = sum(m[0] for m, _ in words)
    return [((m[0] / scale,), c) for m, c in words], 14, (1.0,)


# a one-fiber problem of the ``refine`` benchmark's slowest jobs (``measent
# --cover U1 --nmax 4 --kind minus --mode general``, seed 17): 13 words, 11 of
# them free with 2 to 4 candidates, and masses equal up to their last bits
REFINE_TAIL_WORDS = (
    [
        ((0.08835801369955097,), (10, 11, 14, 15)),
        ((0.0845169028111137,), (10, 14)),
        ((0.08451690281111368,), (9, 11)),
        ((0.0413195101114775,), (8, 9)),
        ((0.03952326307571036,), (8,)),
        ((0.17287491651059217,), (5, 7, 13, 15)),
        ((0.08451690281107825,), (4, 5, 12, 13)),
        ((0.08084277318715395,), (4, 12)),
        ((0.08451690281107824,), (2, 3, 6, 7)),
        ((0.08084277318715394,), (2, 6)),
        ((0.08084277318715395,), (1, 3)),
        ((0.039523263075693774,), (0, 1)),
        ((0.03780510272112947,), (0,)),
    ],
    16,
    (1.0,),
)


# branch-and-bound nodes the search visits on that instance (of 2**16 - 1 in
# the full binary tree); without any one of the three relaxations in the
# lower bound it visits more
FIFTEEN_BIT_NODES = 233


# words whose weights pvec . mass are equal in exact arithmetic; numpy's dot
# (which orders the search) can round them apart where a Python loop keeps
# them equal, and the result's last bit then depends on which one is used
TIED_WEIGHT_WORDS = (
    [
        ((0.07, 0.07, 0.025), (0, 3)),
        ((0.07, 0.025, 0.07), (0, 3, 4)),
        ((0.07, 0.07, 0.025), (1, 3)),
        ((0.07, 0.07, 0.025), (2,)),
    ],
    5,
    (0.2, 0.4, 0.4),
)


def assert_visits_the_reference_nodes(kernel, words, pvec):
    # the kernel's incremental bound prunes where the reference's
    # from-scratch bound does: a cap at the reference's node count is
    # enough, one less trips the guard at exactly that count
    visited = []
    expect = reference_min_entropy_assignment(words, pvec, visited=visited)
    (nodes,) = visited
    assert kernel(words, pvec, node_cap=nodes).hex() == float(expect).hex()
    if nodes:
        with pytest.raises(EnumerationGuardError) as tripped:
            kernel(words, pvec, node_cap=nodes - 1)
        assert tripped.value.nodes == nodes


class TestMinEntropyAssignment:
    """The plain-float kernel returns the reference's bits and visits the
    reference's nodes."""

    @given(assignment_inputs())
    @settings(max_examples=300)
    @example(TIED_WEIGHT_WORDS)
    @example(refine_shaped_instance())
    @example(REFINE_TAIL_WORDS)
    @example(([((0.25,), (0,)), ((0.25,), (1,)), ((0.5,), (0,))], 2, (1.0,)))
    @example(
        (
            [((0.1, 0.0), (0, 1)), ((0.2, 0.3), (2, 3)), ((0.0, 0.4), (0, 1))],
            4,
            (0.5, 0.5),
        )
    )
    def test_same_bits_as_the_reference(self, inputs):
        words, _, pvec = inputs
        got = _min_entropy_assignment(words, pvec)
        expect = reference_min_entropy_assignment(words, pvec)
        assert got.hex() == float(expect).hex()

    @given(assignment_inputs())
    @settings(max_examples=200)
    @example(TIED_WEIGHT_WORDS)
    @example(fifteen_bit_instance())
    @example(refine_shaped_instance())
    @example(REFINE_TAIL_WORDS)
    def test_visits_the_reference_nodes(self, inputs):
        words, _, pvec = inputs
        assert_visits_the_reference_nodes(_min_entropy_assignment, words, pvec)

    @given(assignment_inputs())
    @settings(max_examples=100)
    @example(TIED_WEIGHT_WORDS)
    def test_result_does_not_depend_on_how_sum_adds(self, inputs):
        # from Python 3.12 builtin sum compensates float rounding; the kernel
        # adds left to right itself, so a compensated sum changes nothing
        words, _, pvec = inputs
        expect = reference_min_entropy_assignment(words, pvec)
        with mock.patch.object(entropy_module, "sum", math.fsum, create=True):
            got = _min_entropy_assignment(words, pvec)
        assert got.hex() == float(expect).hex()

    @given(assignment_inputs())
    @settings(max_examples=60)
    # two words with the same candidates, one in each fiber: merged, they
    # had to share a cell, and the minimum 0 needs them apart
    @example(
        (
            [
                ((0.01, 0.0), (0, 1, 2)),
                ((0.0, 0.01), (0,)),
                ((0.0, 0.125), (0,)),
                ((0.01, 0.0), (1,)),
                ((0.0, 0.01), (0, 1, 2)),
            ],
            3,
            (0.5, 0.5),
        )
    )
    # proportional mass vectors with the same candidates still merge
    @example(
        (
            [
                ((0.1, 0.2), (0, 1)),
                ((0.2, 0.4), (0, 1)),
                ((0.3, 0.1), (0,)),
                ((0.4, 0.3), (1,)),
            ],
            2,
            (0.5, 0.5),
        )
    )
    def test_minimum_over_all_assignments(self, inputs):
        # the kernel expects each fiber's masses to add up to one
        words, _, pvec = inputs
        totals = [sum(mass[f] for mass, _ in words) for f in range(len(pvec))]
        assume(all(totals))
        words = [
            (tuple(x / t for x, t in zip(mass, totals)), cands) for mass, cands in words
        ]
        best = math.inf
        for assign in itertools.product(*(cands for _, cands in words)):
            cells = {}
            for (mass, _), e in zip(words, assign):
                held = cells.get(e, (0.0,) * len(pvec))
                cells[e] = tuple(x + y for x, y in zip(held, mass))
            h = -sum(
                p * x * math.log(x)
                for vec in cells.values()
                for p, x in zip(pvec, vec)
                if x > 0.0
            )
            best = min(best, h)
        got = _min_entropy_assignment(words, pvec)
        assert got == pytest.approx(best, abs=1e-12)

    def test_matches_brute_force(self):
        words, _, pvec = fifteen_bit_instance()
        masses = {i: m[0] for i, (m, _) in enumerate(words)}
        cands = {i: c for i, (_, c) in enumerate(words)}
        got = _min_entropy_assignment(words, pvec)
        assert got == pytest.approx(brute_assignment_minimum(masses, cands), abs=1e-12)

    def test_node_count_is_pinned(self):
        # a weaker bound or another visit order changes this count
        words, _, pvec = fifteen_bit_instance()
        nodes = FIFTEEN_BIT_NODES
        got = _min_entropy_assignment(words, pvec, node_cap=nodes)
        expect = reference_min_entropy_assignment(words, pvec, node_cap=nodes)
        assert got.hex() == float(expect).hex()
        with pytest.raises(EnumerationGuardError) as tripped:
            _min_entropy_assignment(words, pvec, node_cap=nodes - 1)
        assert tripped.value.nodes == nodes

    @pytest.mark.parametrize("cap", [1, 40, 200])
    def test_tripped_guard_reports_how_far_it_got(self, cap):
        words, _, pvec = fifteen_bit_instance()
        with pytest.raises(EnumerationGuardError) as ref:
            reference_min_entropy_assignment(words, pvec, node_cap=cap)
        with pytest.raises(EnumerationGuardError) as got:
            _min_entropy_assignment(words, pvec, node_cap=cap)
        assert got.value.nodes == ref.value.nodes == cap + 1
        assert got.value.partial_minimum.hex() == float(ref.value.partial_minimum).hex()
        assert f"{cap + 1} nodes" in str(got.value)
        assert "partial minimum" in str(got.value)

    def test_callers_pass_the_reference_its_inputs(self, gm, gm_measure, monkeypatch):
        # every caller's words give the same bits in both kernels
        kernel = _min_entropy_assignment
        seen = []

        def both(words, pvec):
            got = kernel(words, pvec)
            expect = reference_min_entropy_assignment(words, pvec)
            assert got.hex() == float(expect).hex()
            seen.append((len(pvec), sum(1 for _, cands in words if len(cands) > 1)))
            return got

        monkeypatch.setattr(entropy_module, "_min_entropy_assignment", both)
        u = product_cover(gm, [[(0, 0), (0, 1)], [(0, 1), (1, 0)], [(1, 0), (1, 1)]])
        for mode in ("general", "product"):
            h_minus_report(gm_measure, u, 2, mode)
            block_power_system(u, 2).h_value_sequence(gm_measure, 1, mode)
        for seed in (5, 13):
            inst = gen_instance(seed)
            mu = inst.measures[sorted(inst.measures)[0]]
            for name in sorted(inst.covers):
                cov = inst.covers[name]
                if not isinstance(cov, PositionedPartition):
                    cover_conditional_entropy(mu, cov, "general")
        assert any(d == 1 and free > 1 for d, free in seen)
        assert any(d == 2 and free > 1 for d, free in seen)
        # an overlapping cover at nmax 4 poses one-fiber searches of 8 and
        # more free words, as the ``refine`` benchmark's widest jobs do
        seen.clear()
        overlapping = product_cover(gm, [[(0, 0), (0, 1)], [(0, 1), (1, 0), (1, 1)]])
        h_minus_report(gm_measure, overlapping, 4, "general")
        assert any(d == 1 and free >= 8 for d, free in seen)

    @pytest.mark.parametrize("fibers", [1, 2])
    def test_product_mode_takes_the_search_of_its_fiber_count(
        self, fibers, full2, gm, gm_measure, monkeypatch
    ):
        # one fiber goes to the plain-float search, two to the per-fiber
        # lists; either way the reference's bits and nodes come back
        if fibers == 1:
            bundle = full2
            mu = stationary_starts(full2, [np.array([[0.7, 0.3], [0.4, 0.6]])])
        else:
            bundle, mu = gm, gm_measure
        u = product_cover(bundle, [[(0, 0), (0, 1)], [(0, 1), (1, 0)], [(1, 0), (1, 1)]])
        kernel = _min_entropy_assignment
        problems = []
        taken = []

        def record(words, pvec):
            problems.append((words, pvec))
            return kernel(words, pvec)

        def spy(name):
            search = getattr(entropy_module, name)

            def run(*args):
                taken.append(name)
                return search(*args)

            return run

        monkeypatch.setattr(entropy_module, "_min_entropy_assignment", record)
        for name in ("_search_one_fiber", "_search_fibers"):
            monkeypatch.setattr(entropy_module, name, spy(name))
        h_minus_report(mu, u, 2, "product")
        assert {len(pvec) for _, pvec in problems} == {fibers}
        assert set(taken) == {"_search_one_fiber" if fibers == 1 else "_search_fibers"}
        assert max(sum(1 for _, c in words if len(c) > 1) for words, _ in problems) == 6
        for words, pvec in problems:
            assert_visits_the_reference_nodes(kernel, words, pvec)


def test_kernel_rejects_fibers_holding_more_than_one():
    # six words whose mass vectors are the permutations of (1/4, 1/3, 1/5):
    # each fiber holds 2 * 47/60 > 1, where the concentration bound is no
    # lower bound and the search's answer depended on the order of its words
    words = [
        (mass, (i % 5, (i + 1) % 5))
        for i, mass in enumerate(itertools.permutations((0.25, 1 / 3, 0.2)))
    ]
    with pytest.raises(ValueError, match="holds mass"):
        _min_entropy_assignment(words, (1 / 3, 1 / 3, 1 / 3))
    scaled = [(tuple(x * 30 / 47 for x in mass), cands) for mass, cands in words]
    assert _min_entropy_assignment(scaled, (1 / 3, 1 / 3, 1 / 3)) > 0.0


def test_kernel_rejects_a_nan_fiber_mass():
    # a NaN mass made the fiber's sum NaN, which passed the "> 1" check, and
    # the search then returned 0.0
    words = [((math.nan,), (0, 1)), ((0.5,), (1, 2)), ((0.25,), (0,))]
    with pytest.raises(ValueError, match="holds mass nan"):
        _min_entropy_assignment(words, (1.0,))


class TestJoinCap:
    """The join-sequence cap stops the rate reports before any join is built."""

    @pytest.fixture(autouse=True)
    def cap(self, monkeypatch):
        monkeypatch.setattr("rdelab.covers.ELEMENT_CAP", 8)

    @pytest.fixture
    def no_joins(self, monkeypatch):
        import rdelab.covers as covers_module

        def refuse(u, v):
            raise AssertionError("a join was built")

        monkeypatch.setattr(covers_module, "join", refuse)

    def test_topological_cover_entropy(self, gm, no_joins):
        with pytest.raises(JoinSizeError):
            topological_cover_entropy(zero_cylinders(gm), 5)

    def test_h_minus_report(self, gm, gm_measure, no_joins):
        with pytest.raises(JoinSizeError):
            h_minus_report(gm_measure, zero_cylinders(gm), 5)

    def test_at_the_cap_the_reports_run(self, gm, gm_measure):
        zero = zero_cylinders(gm)
        top = topological_cover_entropy(zero, 3)
        minus = h_minus_report(gm_measure, zero, 3)
        assert len(top.sequence) == len(minus.sequence) == 3


def reference_h_value_sequence(ps, mu, kmax, mode):
    """The block-power values as computed before ``h_value_sequence`` went
    through :func:`cover_conditional_entropy`: a fresh range join per step and
    the assignment problems built inline from the block-granular measure."""
    base = ps.cover.bundle.base
    seq = []
    for k in range(1, kmax + 1):
        granularity = (k - 1 + ps.block_window) * ps.steps
        joined = range_join(ps.cover, 0, k * ps.steps - 1)
        nu = markov_to_word(mu, granularity)
        if mode == "general":
            h = 0.0
            for omega in range(base.omega_count):
                member = joined.membership(omega, (0, granularity))
                words = [
                    ((x,), member[w]) for w, x in nu.weights[omega].items() if x > 0.0
                ]
                h += base.weights[omega] * _min_entropy_assignment(words, (1.0,))
        else:
            lo, hi = joined.start, joined.stop
            index = {}
            for omega in range(base.omega_count):
                for w, x in nu.weights[omega].items():
                    vec = index.setdefault(w, [0.0] * base.omega_count)
                    vec[omega] += x
            sections = joined.product_sections
            words = [
                (tuple(vec), tuple(i for i, d in enumerate(sections) if w[lo:hi] in d))
                for w, vec in sorted(index.items())
            ]
            h = _min_entropy_assignment(words, base.weights)
        seq.append(h / k)
    return seq


class TestPowerSystemKernel:
    """``h_value_sequence`` is ``cover_conditional_entropy`` on the block hull."""

    def test_no_refinement_cap_is_offered(self, gm, gm_measure):
        # the product refinement family is never capped here, so no cap
        # argument is accepted that would be ignored
        u = product_cover(gm, [[(0, 0), (0, 1)], [(0, 1), (1, 0)], [(1, 0), (1, 1)]])
        with pytest.raises(TypeError, match="enum_cap"):
            block_power_system(u, 2).h_value_sequence(gm_measure, 1, enum_cap=1)

    @pytest.mark.parametrize("seed", range(12))
    def test_same_bits_as_the_inline_kernels(self, seed):
        inst = gen_instance(seed)
        mu = inst.measures["m0"]
        for name, cover in sorted(inst.covers.items()):
            if isinstance(cover, PositionedPartition):
                continue
            for steps in (1, 2):
                ps = block_power_system(cover, steps)
                modes = ("general", "product") if cover.product_form else ("general",)
                for mode in modes:
                    got = ps.h_value_sequence(mu, 2, mode).sequence
                    expect = reference_h_value_sequence(ps, mu, 2, mode)
                    got, expect = [v.hex() for _, v in got], [v.hex() for v in expect]
                    assert got == expect, (name, steps, mode)

    def test_zero_cylinders_general_mode(self, gm, gm_measure):
        for steps in (1, 2, 3):
            ps = block_power_system(zero_cylinders(gm), steps)
            got = [v.hex() for _, v in ps.h_value_sequence(gm_measure, 3).sequence]
            expect = reference_h_value_sequence(ps, gm_measure, 3, "general")
            assert got == [v.hex() for v in expect]

    @pytest.mark.parametrize("seed", [0, 5, 6])
    def test_general_mode_is_the_hull_entropy(self, seed):
        inst = gen_instance(seed)
        mu = inst.measures["m0"]
        for name, cover in sorted(inst.covers.items()):
            ps = block_power_system(cover, 2)
            values = ps.h_value_sequence(mu, 2).sequence
            for k, value in values:
                g = (k - 1 + ps.block_window) * ps.steps
                joined = range_join(cover, 0, k * ps.steps - 1)
                nu = markov_to_word(mu, g)
                h = cover_conditional_entropy(nu, joined, hull=(0, g))
                assert value.hex() == (h / k).hex(), (name, k)


class TestMeasureMeetsCover:
    """A measure and a cover on different bundles are refused, whichever
    entry point they meet in."""

    @staticmethod
    def _pairs(full2, id2):
        on_id2 = stationary_starts(id2, [np.eye(2)])
        on_full2 = stationary_starts(full2, [np.full((2, 2), 0.5)])
        return [(on_id2, full2), (on_full2, id2)]

    @pytest.mark.parametrize(
        "run",
        [
            pytest.param(lambda mu, u: partition_conditional_entropy(mu, u), id="partition"),
            pytest.param(
                lambda mu, u: partition_conditional_entropy(markov_to_word(mu, 1), u),
                id="partition-word-measure",
            ),
            pytest.param(lambda mu, u: cover_conditional_entropy(mu, u), id="cover"),
            pytest.param(lambda mu, u: h_minus_report(mu, u, 3), id="h-minus"),
            pytest.param(lambda mu, u: partition_entropy_report(mu, u, 3), id="partition-report"),
            pytest.param(lambda mu, u: h_plus_value(mu, u, 3), id="h-plus"),
            pytest.param(
                lambda mu, u: block_power_system(u, 2).h_value_sequence(mu, 1),
                id="power-system",
            ),
        ],
    )
    def test_every_entry_point_raises(self, full2, id2, run):
        for mu, other in self._pairs(full2, id2):
            with pytest.raises(ValueError) as err:
                run(mu, zero_cylinders(other))
            assert str(err.value) == "measure and cover must live on the same bundle"

    @pytest.mark.parametrize("mode", ["general", "product"])
    def test_checked_before_the_free_element_shortcut(self, full2, id2, mode):
        # the first element holds every word, which on a matching pair
        # gives 0.0 without reading the measure
        for mu, other in self._pairs(full2, id2):
            free = product_cover(other, [[(0,), (1,)], [(1,)]])
            for nu in (mu, markov_to_word(mu, 1)):
                with pytest.raises(ValueError, match="same bundle"):
                    cover_conditional_entropy(nu, free, mode)


def reference_join_entropies(nu, partition, nmax):
    """:func:`partition_conditional_entropy` of each built join of
    :func:`join_sequence`, the path the partition reports took before they
    read cells from labels."""
    return [
        partition_conditional_entropy(nu, joined)
        for joined in join_sequence(partition, nmax)
    ]


def label_path_partitions():
    """Every partition of generated instances 0-59 (windows 1 and 2, fiber
    dependent ones, multi-point theta-cycles) with each of their measures,
    plus the zero cylinders read at coordinate 1, and the demo partitions."""
    cases = []
    for seed in range(60):
        inst = gen_instance(seed)
        parts = [
            (name, cov)
            for name, cov in sorted(inst.covers.items())
            if isinstance(cov, PositionedPartition)
        ]
        parts.append(("zero@1", zero_cylinders(inst.bundle, 1)))
        for name, part in parts:
            for mname in sorted(inst.measures):
                cases.append((f"gen{seed}/{name}/{mname}", part, inst.measures[mname]))
    for path in sorted(glob.glob("demos/instances/*.json")):
        if "broken" in path:
            continue
        inst = load_instance(path)
        for name, cov in sorted(inst.covers.items()):
            if isinstance(cov, PositionedPartition):
                for mname in sorted(inst.measures):
                    cases.append((f"{path}/{name}/{mname}", cov, inst.measures[mname]))
    return cases


LABEL_CASES = label_path_partitions()


def hexes(values):
    return [float(v).hex() for v in values]


class TestPartitionEntropiesFromLabels:
    """Partition reports read the cells of their joins from cell labels and
    keep every bit of the values the built joins gave."""

    def test_the_cases_reach_multi_point_cycles_and_fiber_dependent_cells(self):
        bases = [part.bundle.base for _, part, _ in LABEL_CASES]
        assert any(len(cyc) > 1 for base in bases for cyc in base.cycles())
        assert any(not part.product_form for _, part, _ in LABEL_CASES)
        assert {part.length for _, part, _ in LABEL_CASES} == {1, 2}

    @pytest.mark.parametrize("nmax", [1, 2, 3, 4, 5])
    def test_reports_equal_built_joins(self, nmax):
        for name, part, mu in LABEL_CASES:
            nu = markov_to_word(mu, part.stop + nmax - 1)
            expected = [
                h / n
                for n, h in enumerate(reference_join_entropies(nu, part, nmax), 1)
            ]
            minus = h_minus_report(mu, part, nmax)
            report = partition_entropy_report(mu, part, nmax)
            assert hexes(v for _, v in minus.sequence) == hexes(expected), name
            assert report == minus, name

    @pytest.mark.parametrize("nmax", [1, 2, 3, 4, 5])
    def test_word_measures_equal_built_joins(self, nmax):
        rng = np.random.default_rng(nmax)
        for name, part, _ in LABEL_CASES:
            nu = random_word_measure(part.bundle, part.stop + nmax - 1, rng)
            assert hexes(entropy_module._join_entropies(nu, part, nmax)) == hexes(
                reference_join_entropies(nu, part, nmax)
            ), name

    @pytest.mark.parametrize("nmax", [1, 2, 3, 4, 5])
    def test_h_plus_candidates_equal_built_joins(self, nmax):
        checked = 0
        for seed in range(60):
            inst = gen_instance(seed)
            mu = inst.measures[sorted(inst.measures)[0]]
            for name, cov in sorted(inst.covers.items()):
                if not cov.product_form or product_partitions_finer(cov).count > 16:
                    continue
                nu = markov_to_word(mu, cov.stop + nmax - 1)
                expected = [
                    min(
                        h / n
                        for n, h in enumerate(reference_join_entropies(nu, part, nmax), 1)
                    )
                    for part in product_partitions_finer(cov)
                ]
                res = h_plus_value(mu, cov, nmax)
                assert hexes(res.candidate_values) == hexes(expected), (seed, name)
                assert res.value == min(expected)
                checked += 1
        assert checked >= 60

    @pytest.mark.parametrize(
        "run",
        [
            pytest.param(lambda mu, u: h_minus_report(mu, u, 5), id="h-minus"),
            pytest.param(lambda mu, u: partition_entropy_report(mu, u, 5), id="partition"),
            pytest.param(lambda mu, u: h_plus_value(mu, u, 5), id="h-plus"),
        ],
    )
    def test_over_the_cap_raises_before_any_work(self, gm, gm_measure, monkeypatch, run):
        monkeypatch.setattr("rdelab.covers.ELEMENT_CAP", 8)

        def refuse(*args, **kwargs):
            raise AssertionError("work done past the join cap")

        monkeypatch.setattr(entropy_module, "markov_to_word", refuse)
        monkeypatch.setattr(WordMeasure, "window_masses", refuse)
        with pytest.raises(JoinSizeError):
            run(gm_measure, zero_cylinders(gm))


def reference_stride_entropies(nu, partition, kmax, stride):
    """:func:`partition_conditional_entropy` of the built joins of the
    pullbacks through ``0, stride, ..., (k-1) stride`` for ``k = 1..kmax``,
    the loop the power-trend check ran before it read cells from labels."""
    out = []
    joined = None
    for k in range(1, kmax + 1):
        piece = pullback(partition, (k - 1) * stride)
        joined = piece if joined is None else join(joined, piece)
        out.append(partition_conditional_entropy(nu, joined))
    return out


def reference_separation_lhs(cover, n, nu):
    """The ``lhs`` of each separation check of ``witness_measures(cover, n)``,
    whose empirical measure is ``nu``, in report order: from built joins and
    the inline per-cell sum the witness ran before it went through the
    cell-mass kernel."""
    base = cover.bundle.base
    refinements = list(product_partitions_finer(cover))[:n]
    lasts = [list(join_sequence(r, n * n + n))[-1] for r in refinements]
    out = []
    for shift in range(n + 1):
        for last in lasts:
            joined = pullback(last, shift)
            for omega in range(base.omega_count):
                cell_of = joined.cell_of(omega)
                masses = {}
                for u, x in nu.weights[omega].items():
                    c = cell_of[u[joined.start : joined.stop]]
                    masses[c] = masses.get(c, 0.0) + x
                out.append(shannon(masses.values()))
    return out


class TestOneCellMassKernel:
    """Every partition entropy goes through one cell-mass kernel and keeps
    the bits of the built joins and loops it replaced."""

    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_stride_joins_equal_built_joins(self, stride):
        # windows are 1 or 2 long, so strides 2 and 3 leave gaps between
        # the pulled windows
        kmax = 3
        rng = np.random.default_rng(stride)
        for name, part, mu in LABEL_CASES:
            horizon = part.stop + (kmax - 1) * stride
            for nu in (markov_to_word(mu, horizon), random_word_measure(part.bundle, horizon, rng)):
                assert hexes(entropy_module._join_entropies(nu, part, kmax, stride)) == hexes(
                    reference_stride_entropies(nu, part, kmax, stride)
                ), name

    def test_witness_separation_equals_the_inline_sum(self):
        covers = [
            cov
            for seed in range(20)
            for _, cov in sorted(gen_instance(seed).covers.items())
            if cov.product_form and cov.start == 0
        ]
        for path in sorted(glob.glob("demos/instances/*.json")):
            if "broken" not in path:
                covers += [c for _, c in sorted(load_instance(path).covers.items())]
        checked = 0
        for cov in covers:
            for n in (1, 2):
                try:
                    _, nu, _, report = witness_measures(cov, n)
                except GUARDS:
                    continue
                lhs = [c.lhs for c in report.separation_checks]
                assert hexes(lhs) == hexes(reference_separation_lhs(cov, n, nu))
                checked += 1
        assert checked >= 60

    def test_the_power_trend_builds_only_its_blocked_joins(self, monkeypatch):
        calls = []
        real = covers_module.join

        def counting(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(covers_module, "join", counting)
        monkeypatch.setattr(harness, "join", counting)
        res = harness._check_hplus_trend(harness.SuiteConfig(), [])
        # the range joins of 1, 2 and 3 steps, with 0, 1 and 2 joins
        assert len(calls) == 3
        assert res.passes + res.failures == 1
