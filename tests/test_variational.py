import math

import pytest

import rdelab.variational as variational
from rdelab import (
    cover_count,
    maximize_invariant_entropy,
    partition_conditional_entropy,
    presets,
    product_cover,
    pullback,
    range_join,
    stationary_starts,
    witness_measures,
    zero_cylinders,
)
from rdelab.covers import CoverError
from rdelab.variational import HorizonGuardError

from conftest import alphabet2_bundle

LN2 = math.log(2)
LN3 = math.log(3)


class TestWitnessConstruction:
    def test_one_step_on_golden_mean(self, gm):
        separated, nu, mu, rep = witness_measures(gm, zero_cylinders(gm), 1)
        # a single refinement (the partition itself); every pulled coordinate
        # word is its own atom
        assert rep.refinement_count == 1
        for omega in range(2):
            assert len(separated[omega]) == cover_count(
                gm, omega, pullback(zero_cylinders(gm), 1), 1
            )
        assert rep.all_ok

    def test_two_step_worked_example(self, gm):
        separated, nu, mu, rep = witness_measures(gm, zero_cylinders(gm), 2)
        assert rep.separated_sizes == (12, 9)
        assert rep.pulled_counts == (12, 9)
        assert rep.full_counts == (36, 27)
        assert rep.horizon == 8 and rep.common_horizon == 3
        assert rep.all_ok
        # the empirical measure is fiberwise uniform over the separated sets
        for omega in range(2):
            core = {w[2:6] for w in nu.weights[omega]}
            assert core == set(separated[omega])
        # averaged-check right-hand sides are frozen from the counting chain
        rhs = {
            (c.refinement, c.block): c.rhs for c in rep.averaged_checks
        }
        logdet = 0.5 * (math.log(36 // 8) + math.log(27 // 8))
        assert rhs[(0, 1)] == pytest.approx((1 / 6) * (logdet - LN2), abs=1e-12)
        assert rhs[(0, 2)] == pytest.approx((2 / 6) * (logdet - 2 * LN2), abs=1e-12)

    def test_averaged_measure_entropy_recomputed(self, gm):
        _, _, mu, rep = witness_measures(gm, zero_cylinders(gm), 2)
        for check in rep.averaged_checks:
            joined = range_join(zero_cylinders(gm), 0, check.block - 1)
            again = partition_conditional_entropy(mu, joined)
            assert again == pytest.approx(check.lhs, abs=1e-12)
            assert again >= check.rhs - 1e-9

    def test_average_matches_direct_summation(self, gm):
        # rebuild the skew-product average by hand: push the empirical
        # measure i times, restrict, and accumulate dictionary weights
        _, nu, mu, rep = witness_measures(gm, zero_cylinders(gm), 2)
        span = 6
        horizon = rep.common_horizon
        from rdelab import pushforward as push, restrict

        acc = [dict(), dict()]
        current = nu
        for i in range(span):
            short = restrict(current, horizon)
            for omega in range(2):
                for w, x in short.weights[omega].items():
                    acc[omega][w] = acc[omega].get(w, 0.0) + x / span
            if i < span - 1:
                current = push(current)
        for omega in range(2):
            keys = set(acc[omega]) | set(mu.weights[omega])
            for w in keys:
                assert mu.weight(omega, w) == pytest.approx(
                    acc[omega].get(w, 0.0), abs=1e-12
                )

    def test_two_fixed_points_support(self, id2):
        separated, nu, mu, rep = witness_measures(id2, zero_cylinders(id2), 2)
        assert all(size <= 2 for size in rep.separated_sizes)
        assert mu.support_size(0) == 2
        assert set(mu.weights[0]) == {(0,) * 3, (1,) * 3}
        assert rep.all_ok

    def test_wider_window_cover(self, gm):
        from rdelab import full_word_partition

        pairs = full_word_partition(gm, 0, 2)
        _, _, _, rep = witness_measures(gm, pairs, 1)
        # one-step pull lands on the swapped fiber's pair counts
        assert rep.separated_sizes == (3, 4)
        assert rep.all_ok
        _, _, _, rep2 = witness_measures(gm, pairs, 2)
        assert rep2.horizon == 9 and rep2.all_ok

    def test_overlapping_wide_cover(self, gm):
        overlap = product_cover(
            gm, [[(0, 0), (0, 1), (1, 0)], [(0, 1), (1, 1)], [(1, 1), (1, 0)]]
        )
        _, _, _, rep = witness_measures(gm, overlap, 2)
        assert rep.refinement_count == 2
        assert rep.all_ok
        for omega in (0, 1):
            assert rep.separated_sizes[omega] >= rep.pulled_counts[omega] // 2

    def test_product_form_required(self, gm):
        mixed = pullback(zero_cylinders(gm), 1)
        with pytest.raises(CoverError, match="anchored"):
            witness_measures(gm, mixed, 1)

    def test_horizon_guard(self, gm):
        with pytest.raises(HorizonGuardError):
            witness_measures(gm, zero_cylinders(gm), 5, horizon_cap=24)


class TestMaximizeInvariantEntropy:
    def test_full_shift_reaches_log_two(self, full2):
        res = maximize_invariant_entropy(full2, zero_cylinders(full2), 300, 0)
        assert res.value >= LN2 - 0.02
        assert res.reference == pytest.approx(LN2, abs=1e-12)

    def test_two_fixed_points_is_flat(self, id2):
        res = maximize_invariant_entropy(id2, zero_cylinders(id2), 50, 0)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.gap == pytest.approx(0.0, abs=1e-12)

    def test_golden_mean_closes_most_of_the_gap(self, gm):
        res = maximize_invariant_entropy(gm, zero_cylinders(gm), 800, 0)
        assert res.value >= 0.5 * LN3 - 0.05
        assert res.value <= 0.5 * LN3 + 1e-9

    def test_deterministic_given_seed(self, gm):
        a = maximize_invariant_entropy(gm, zero_cylinders(gm), 120, 3)
        b = maximize_invariant_entropy(gm, zero_cylinders(gm), 120, 3)
        assert a.value == b.value
        for omega in range(2):
            assert (a.measure.transitions[omega] == b.measure.transitions[omega]).all()

    def test_cover_target_uses_certified_bound(self, gm):
        overlap = product_cover(gm, [[(0,), (1,)], [(1,)]])
        res = maximize_invariant_entropy(gm, overlap, 60, 1, nmax=3)
        # one element is the whole space, so every refinement can collapse
        # and both sides of the gap vanish
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.reference == pytest.approx(0.0, abs=1e-12)
        assert res.gap == pytest.approx(0.0, abs=1e-12)


GM = [[1, 1], [1, 0]]
FULL = [[1, 1], [1, 1]]
SEARCH_BUNDLES = {
    "golden-mean": alphabet2_bundle((0,), [GM]),
    "full-2-shift": presets.full_shift(2),
    "three-fixed-points": alphabet2_bundle((0, 1, 2), [GM, FULL, [[0, 1], [1, 1]]]),
    "alternating-golden-mean": presets.alternating_golden_mean(),
    "two-cycle-and-fixed-point": alphabet2_bundle((1, 0, 2), [FULL, GM, [[1, 0], [0, 1]]]),
}


class TestMaximizeReusesUnchangedCycles:
    @pytest.mark.parametrize("name", sorted(SEARCH_BUNDLES))
    def test_same_report_as_solving_every_cycle_afresh(self, name, monkeypatch):
        bundle = SEARCH_BUNDLES[name]
        target = zero_cylinders(bundle)
        reused = maximize_invariant_entropy(bundle, target, 240, 5)

        def fresh(bundle, transitions, previous=None):
            return stationary_starts(bundle, transitions)

        monkeypatch.setattr(variational, "stationary_starts", fresh)
        afresh = maximize_invariant_entropy(bundle, target, 240, 5)
        assert reused.to_dict() == afresh.to_dict()
        assert reused.measure.flags == afresh.measure.flags
