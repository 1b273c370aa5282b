import glob
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rdelab import (
    ProbBase,
    SymbolicBundle,
    admissible_words,
    cycle_growth_rate,
    spectral_radius,
    validate,
    word_count,
)
import rdelab.base as base_module
from rdelab.base import (
    BundleError,
    Word,
    WordListSizeError,
    admissible_tuples,
    cycle_product,
    perron_block,
    plain_sum,
    strongly_connected_components,
    theta_cycles,
)
from rdelab.harness import gen_instance
from rdelab.instances import load_instance

from conftest import enumerate_words

LN2 = math.log(2)
LN3 = math.log(3)


class TestProbBase:
    def test_cycles_and_theta_power(self):
        base = ProbBase(weights=(0.25,) * 4, theta=(1, 0, 3, 2))
        assert base.cycles() == ((0, 1), (2, 3))
        assert base.apply_theta(0, 3) == 1

    def test_rejects_non_invariant_weights(self):
        with pytest.raises(BundleError, match="theta-invariant"):
            ProbBase(weights=(0.6, 0.4), theta=(1, 0))

    def test_rejects_non_bijection(self):
        with pytest.raises(BundleError, match="permutation"):
            ProbBase(weights=(0.5, 0.5), theta=(0, 0))

    def test_rejects_unnormalized(self):
        with pytest.raises(BundleError):
            ProbBase(weights=(0.5, 0.6), theta=(0, 1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(BundleError, match="weights must be finite"):
            ProbBase(weights=(bad, 1.0), theta=(0, 1))

    @pytest.mark.parametrize(
        "theta", [(0,), (1, 0, 3, 2), (2, 0, 1, 4, 3), (3, 4, 0, 1, 2, 5)]
    )
    def test_cycles_found_once(self, theta):
        base = ProbBase(weights=(1 / len(theta),) * len(theta), theta=theta)
        first = base.cycles()
        assert first == theta_cycles(theta)
        assert base.cycles() is first


class TestValidate:
    def test_valid_instance_passes(self, gm):
        assert validate(gm).ok

    def test_dead_row_named(self, gm):
        broken = SymbolicBundle(
            base=gm.base,
            alphabet=gm.alphabet,
            adjacency=(gm.adjacency[0], np.array([[1, 1], [0, 0]])),
            check=False,
        )
        report = validate(broken)
        assert not report.ok
        rows = [p for p in report.problems if p.code == "dead-row"]
        assert rows and rows[0].omega == 1 and rows[0].index == 1

    def test_theta_invariance_failure_reported(self):
        base = ProbBase(weights=(0.6, 0.4), theta=(1, 0), check=False)
        bundle = SymbolicBundle(
            base=base,
            alphabet=("a", "b"),
            adjacency=(np.ones((2, 2)), np.ones((2, 2))),
            check=False,
        )
        report = validate(bundle)
        assert any(p.code == "not-theta-invariant" for p in report.problems)

    def test_nan_weight_reported(self, gm):
        base = ProbBase(weights=(math.nan, 1.0), theta=gm.base.theta, check=False)
        bundle = SymbolicBundle(
            base=base, alphabet=gm.alphabet, adjacency=gm.adjacency, check=False
        )
        report = validate(bundle)
        assert not report.ok
        assert [p.code for p in report.problems] == ["weight-not-finite"]


class TestAdmissibleWords:
    def test_full_fiber_window_two(self, gm):
        words = {w.symbols for w in admissible_words(gm, 0, (0, 2))}
        assert words == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_constrained_fiber_drops_bb(self, gm):
        words = {w.symbols for w in admissible_words(gm, 1, (0, 2))}
        assert words == {(0, 0), (0, 1), (1, 0)}

    def test_single_coordinate_is_whole_alphabet(self, gm):
        assert len(admissible_words(gm, 1, (3, 4))) == gm.alphabet_size

    def test_empty_span_rejected(self, gm):
        with pytest.raises(ValueError, match="span"):
            admissible_words(gm, 0, (2, 2))

    def test_word_objects_carry_span(self, gm):
        w = admissible_words(gm, 0, (2, 4))[0]
        assert isinstance(w, Word) and (w.start, w.stop) == (2, 4)

    @pytest.mark.parametrize("omega", [0, 1])
    @pytest.mark.parametrize("span", [(0, 1), (0, 3), (1, 4), (2, 3)])
    def test_matches_bruteforce_enumeration(self, gm, omega, span):
        got = [w.symbols for w in admissible_words(gm, omega, span)]
        assert got == enumerate_words(gm, omega, span[0], span[1] - span[0])

    @pytest.mark.parametrize("start", [0, 1])
    def test_word_cap_trips_one_word_above_the_count(self, gm, monkeypatch, start):
        # the window's words are counted through the matrices read from
        # ``start`` on, and the cap is checked before any word is built
        count = word_count(gm, gm.base.apply_theta(0, start), 5)
        for cap in (count, count - 1):
            fresh = SymbolicBundle(
                base=gm.base, alphabet=gm.alphabet, adjacency=gm.adjacency
            )
            monkeypatch.setattr(base_module, "WORD_CAP", cap)
            if cap == count:
                assert len(admissible_tuples(fresh, 0, start, 5)) == count
            else:
                with pytest.raises(WordListSizeError, match=f"has {count} admissible"):
                    admissible_tuples(fresh, 0, start, 5)
                assert fresh._word_cache == {}


    def test_word_cap_trips_with_the_shorter_list_cached(self, gm, monkeypatch):
        fresh = SymbolicBundle(base=gm.base, alphabet=gm.alphabet, adjacency=gm.adjacency)
        shorter = admissible_tuples(fresh, 0, 1, 4)
        count = word_count(gm, 1, 5)
        monkeypatch.setattr(base_module, "WORD_CAP", count - 1)
        with pytest.raises(WordListSizeError, match=f"has {count} admissible"):
            admissible_tuples(fresh, 0, 1, 5)
        assert fresh._word_cache == {(0, 1, 4): shorter}

    def test_lists_equal_the_filtered_product_cold_and_extended(self):
        # each window's list is built once from nothing and once from the
        # cached list of the window one shorter
        bundles = [
            load_instance(path).bundle
            for path in sorted(glob.glob("demos/instances/*.json"))
            if "broken" not in path
        ]
        bundles += [gen_instance(seed).bundle for seed in range(60)]
        checked = 0
        for bundle in bundles:
            for omega in range(bundle.base.omega_count):
                for start in range(3):
                    for length in range(1, 7):
                        want = tuple(enumerate_words(bundle, omega, start, length))
                        bundle._word_cache.clear()
                        assert admissible_tuples(bundle, omega, start, length) == want
                        if length > 1:
                            bundle._word_cache.clear()
                            admissible_tuples(bundle, omega, start, length - 1)
                            assert admissible_tuples(bundle, omega, start, length) == want
                        checked += 1
        assert checked >= 3000


class TestWordCount:
    def test_frozen_counts(self, gm):
        assert (word_count(gm, 0, 2), word_count(gm, 1, 2)) == (4, 3)
        assert (word_count(gm, 0, 3), word_count(gm, 1, 3)) == (6, 6)
        assert (word_count(gm, 0, 4), word_count(gm, 1, 4)) == (12, 9)

    def test_full_shift_powers(self, full2):
        for n in range(1, 10):
            assert word_count(full2, 0, n) == 2**n

    def test_counts_equal_enumeration(self, gm):
        for omega in range(2):
            for n in range(1, 8):
                assert word_count(gm, omega, n) == len(
                    enumerate_words(gm, omega, 0, n)
                )

    @given(n=st.integers(1, 5), m=st.integers(1, 5), omega=st.integers(0, 1))
    def test_submultiplicative(self, gm, n, m, omega):
        lhs = word_count(gm, omega, n + m)
        rhs = word_count(gm, omega, n) * word_count(
            gm, gm.base.apply_theta(omega, n), m
        )
        assert lhs <= rhs


class TestGrowthRates:
    def test_full_shift(self, full2):
        assert cycle_growth_rate(full2).integrated == pytest.approx(LN2, abs=1e-12)

    def test_two_fixed_points(self, id2):
        assert cycle_growth_rate(id2).integrated == pytest.approx(0.0, abs=1e-12)

    def test_alternating_golden_mean(self, gm):
        rates = cycle_growth_rate(gm)
        assert rates.integrated == pytest.approx(0.5 * LN3, abs=1e-12)
        assert len(rates.cycles) == 1 and rates.cycles[0].mass == pytest.approx(1.0)

    def test_long_cycle_does_not_overflow(self):
        # the 600-step transfer product of the full 4-shift has entries 4**600,
        # past the float range; rescaling by powers of two keeps it finite
        length = 600
        bundle = SymbolicBundle(
            base=ProbBase(
                weights=(1 / length,) * length,
                theta=tuple((i + 1) % length for i in range(length)),
            ),
            alphabet=tuple("abcd"),
            adjacency=(np.ones((4, 4), dtype=np.int8),) * length,
        )
        rates = cycle_growth_rate(bundle)
        assert rates.cycles[0].rate == pytest.approx(math.log(4), abs=1e-12)
        assert rates.integrated == pytest.approx(math.log(4), abs=1e-12)

    def test_spectral_radius_past_the_float_range_of_the_entry_sum(self):
        # the 16 entries sum past the largest float; the radius 6e307 does not
        m = np.full((4, 4), 1.5e307)
        assert spectral_radius(m) == pytest.approx(6e307, rel=1e-12)

    def test_spectral_radius_past_the_float_range_raises(self):
        # the radius 5.1e308 itself has no float; no inf, no overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="5.100e\\+308 exceeds the float range"):
                spectral_radius(np.full((3, 3), 1.7e308))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_spectral_radius_rejects_non_finite_entries(self, bad):
        # unchecked, a NaN entry would read as a missing edge and an inf one
        # would run every power step before the iteration gave up
        for m in ([[1.0, bad], [1.0, 1.0]], [[bad]]):
            with pytest.raises(ValueError, match="must be finite"):
                spectral_radius(np.array(m))

    def test_rate_certifies_counts(self, gm):
        # the spectral value is the growth rate of the brute-force counts
        rate = cycle_growth_rate(gm).integrated
        upper = min(
            (math.log(word_count(gm, 0, n)) + math.log(word_count(gm, 1, n)))
            / (2 * n)
            for n in range(1, 13)
        )
        assert rate <= upper + 1e-12

    @given(
        st.lists(
            st.lists(st.integers(0, 1), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    def test_spectral_radius_matches_eigvals(self, rows):
        m = np.array(rows, dtype=float)
        expected = max(abs(np.linalg.eigvals(m)))
        assert spectral_radius(m) == pytest.approx(expected, abs=1e-9)

    def test_relabeling_invariance(self, gm):
        swapped = SymbolicBundle(
            base=ProbBase(weights=(0.5, 0.5), theta=(1, 0)),
            alphabet=("b", "a"),
            adjacency=(
                gm.adjacency[0][::-1, ::-1].copy(),
                gm.adjacency[1][::-1, ::-1].copy(),
            ),
        )
        assert cycle_growth_rate(swapped).integrated == pytest.approx(
            cycle_growth_rate(gm).integrated, abs=1e-12
        )


def _theta_cycles_under_test():
    """``(bundle, cycle)`` for every theta-cycle of ``gen_instance`` seeds
    0-199 and of the valid demo instances."""
    bundles = [gen_instance(seed).bundle for seed in range(200)]
    for path in sorted(glob.glob("demos/instances/*.json")):
        if "broken" not in path:
            bundles.append(load_instance(path).bundle)
    for bundle in bundles:
        for cyc in bundle.base.cycles():
            yield bundle, cyc


def _int_product(bundle, cyc):
    """The cycle product ``A(w_0) .. A(w_{L-1})`` in Python ints."""
    d = bundle.alphabet_size
    prod = [[int(i == j) for j in range(d)] for i in range(d)]
    for w in cyc:
        a = bundle.adjacency[w].tolist()
        prod = [[sum(x * a[k][j] for k, x in enumerate(row)) for j in range(d)] for row in prod]
    return prod


def _collatz_wielandt(prod):
    """Exact ``[max_b min_i (Bx)_i/x_i, max_b max_i (Bx)_i/x_i]`` over the
    strongly connected blocks ``B`` of the integer matrix ``prod``, with ``x``
    the block's numpy Perron vector read as a positive ``Fraction`` vector."""
    lo = hi = Fraction(0)
    for comp in strongly_connected_components(np.array(prod) > 0):
        block = np.array([[prod[i][j] for j in comp] for i in comp], dtype=float)
        values, vectors = np.linalg.eig(block)
        x = [Fraction(float(v)) for v in np.abs(vectors[:, np.argmax(values.real)].real)]
        assert min(x) > 0
        ratios = [
            sum(prod[i][j] * xj for j, xj in zip(comp, x)) / xi
            for i, xi in zip(comp, x)
        ]
        lo, hi = max(lo, min(ratios)), max(hi, max(ratios))
    return lo, hi


def test_spectral_radius_lies_in_the_exact_collatz_wielandt_bracket():
    outside = []
    for bundle, cyc in _theta_cycles_under_test():
        prod = _int_product(bundle, cyc)
        lo, hi = _collatz_wielandt(prod)
        radius = Fraction(spectral_radius(np.array(prod, dtype=float)))
        slack = Fraction(16 * math.ulp(float(hi)))
        if not lo - slack <= radius <= hi + slack:
            outside.append((cyc, float(radius), float(lo), float(hi)))
    assert outside == []


def test_parry_block_radius_is_the_cycle_rate():
    # the Parry family's block and the spectral rate come from one routine,
    # so the block's radius gives the cycle rate bit for bit
    rates = {}
    for bundle, cyc in _theta_cycles_under_test():
        if id(bundle) not in rates:
            rates[id(bundle)] = {c.omegas: c.rate for c in cycle_growth_rate(bundle).cycles}
        mats = [bundle.adjacency[w].astype(float) for w in cyc]
        prod, exponent = cycle_product(mats, bundle.alphabet_size)
        radius = perron_block(prod)[0]
        log_rho = math.log(radius) + exponent * math.log(2) if radius > 0 else -math.inf
        assert log_rho / len(cyc) == rates[id(bundle)][cyc]


class TestPerronBlock:
    def test_an_exact_tie_goes_to_the_first_block_in_component_order(self):
        # Tarjan closes the block {1} before {0}; both have radius 1
        m = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert strongly_connected_components(m > 0) == [[1], [0]]
        assert perron_block(m) == (1.0, [1])

    def test_a_strict_top_block_of_a_block_triangular_matrix(self):
        m = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        radius, block = perron_block(m)
        assert block == [1, 2]
        assert radius == pytest.approx(2.0, rel=1e-15)

    def test_a_zero_block_has_radius_zero(self):
        assert perron_block(np.zeros((1, 1))) == (0.0, [0])
        assert spectral_radius(np.zeros((1, 1))) == 0.0
        assert spectral_radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == 0.0

    def test_spectral_radius_rejects_an_empty_matrix(self):
        with pytest.raises(ValueError, match="nonempty square matrix"):
            spectral_radius(np.zeros((0, 0)))


def test_plain_sum_adds_left_to_right():
    # a compensated sum (builtin sum from Python 3.12, math.fsum) gives 1.0
    assert plain_sum([0.1] * 10).hex() == "0x1.fffffffffffffp-1"
    assert math.fsum([0.1] * 10) == 1.0
    assert plain_sum([]) == 0.0
