import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rdelab import (
    MarkovMeasure,
    PowerIterationError,
    ProbBase,
    SymbolicBundle,
    WordMeasure,
    cycle_growth_rate,
    invariance_residual,
    markov_to_word,
    mix,
    parry_measure,
    presets,
    pushforward,
    pushforward_markov,
    restrict,
    stationary_starts,
)
from rdelab.base import cycle_product, strongly_connected_components
from rdelab.entropy import VALUE_TOL, _chain_rule_rate
from rdelab.harness import gen_instance
from rdelab.measures import (
    NORM_TOL,
    MeasureError,
    _closed_classes,
    _stationary_of,
)

from conftest import alphabet2_bundle


def reference_stationary_of(product, tol, max_iterations):
    """The whole-array numpy loop that ``_stationary_of`` must reproduce."""
    d = product.shape[0]
    lazy = 0.5 * (product + np.eye(d))
    p = np.full(d, 1.0 / d)
    residual = math.inf
    for _ in range(max_iterations):
        nxt = p @ lazy
        nxt /= nxt.sum()
        residual = float(np.abs(nxt @ product - nxt).sum())
        p = nxt
        if residual <= tol:
            break
    else:
        raise PowerIterationError("stationary vector iteration stalled", residual)
    return p, _closed_classes(product > 0) == 1


def previous_stationary_of(product, tol, max_iterations):
    """``_stationary_of`` with its step as it was written before: the
    normalising division ``raw / total`` on the numpy array and the step
    ``p @ lazy``.  The screen, the residual and the squaring fallback are
    the same."""
    d = product.shape[0]
    lazy = 0.5 * (product + np.eye(d))
    screen = tol + 16 * d * d * 2.0**-52
    raw = np.full(d, 1.0 / d) @ lazy
    total = 0.0
    for x in raw.tolist():
        total += x
    for _ in range(max_iterations):
        p = raw / total
        raw = p @ lazy
        total = 0.0
        gap = 0.0
        for x, y in zip(raw.tolist(), p.tolist()):
            total += x
            gap += abs(x - y)
        if gap + gap <= screen:
            residual = 0.0
            for x, y in zip((p @ product).tolist(), p.tolist()):
                residual += abs(x - y)
            if residual <= tol:
                break
    else:
        limit = lazy
        for _ in range(64):
            limit = limit @ limit
            limit /= limit.sum(axis=1, keepdims=True)
        p = np.full(d, 1.0 / d) @ limit
        p /= p.sum()
        residual = float(np.abs(p @ product - p).sum())
        if residual > tol:
            raise PowerIterationError("stationary vector iteration stalled", residual)
    return p, _closed_classes(product > 0) == 1


@st.composite
def stochastic_matrices(draw, max_d=7, d=None):
    """Row-stochastic d x d matrices, d in 2..max_d unless given, with zero
    patterns.

    Zero entries make reducible, periodic and transient-state products
    common; an all-zero row becomes a fixed point.
    """
    if d is None:
        d = draw(st.integers(2, max_d))
    entry = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    m = np.array(draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d)))
    for a in range(d):
        if m[a].sum() == 0.0:
            m[a, a] = 1.0
    return m / m.sum(axis=1, keepdims=True)


# cycle products on which 100k lazy steps do not reach the residual 1e-12: a
# transient state drains with second eigenvalue 0.99982 (verify --seed 39)
# and 0.99970 (verify --seed 53)
SLOW_DRAIN = [
    (
        [
            [0.9998152941085231, 0.0, 1.8470589147697434e-04],
            [0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0],
        ],
        [0.0, 1.0, 0.0],
    ),
    (
        [
            [1.0, 0.0, 0.0],
            [0.00124371295903709, 0.46080814140793663, 0.5379481456330263],
            [0.0, 0.171044066831668, 0.828955933168332],
        ],
        [1.0, 0.0, 0.0],
    ),
]


# products whose reference iterate at the residual 1e-9 has a screen value
# 2|p (M + I)/2 - p|_1 above its residual |p M - p|_1 by 1.75 and 2.0 units
# of 2**-52 (numpy 2.4 on x86-64); with tol set to that residual, a screen
# margin below those amounts skips the stopping iteration, so they run as
# explicit examples of the tol-at-a-residual test
SCREEN_EDGE = [
    [[0.8011695906432749, 0.19883040935672514], [0.5657894736842106, 0.4342105263157895]],
    [
        [0.0, 0.0, 1.0, 0.0],
        [0.09505703422053231, 0.2889733840304182, 0.5880861850443599, 0.027883396704689478],
        [0.6005830903790088, 0.0, 0.3994169096209913, 0.0],
        [0.3952033368091762, 0.12617309697601667, 0.16058394160583941, 0.3180396246089676],
    ],
]


# two closed classes ({0, 1, 2} and {3, 4}, one periodic) and four transient
# states feeding both, nine states in all: numpy sums this width pairwise
REDUCIBLE_NINE = [
    [0.2, 0.5, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.6, 0.0, 0.4, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.1, 0.1, 0.8, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.1, 0.0, 0.0, 0.2, 0.0, 0.3, 0.4, 0.0, 0.0],
    [0.0, 0.0, 0.3, 0.0, 0.1, 0.2, 0.1, 0.3, 0.0],
    [0.0, 0.2, 0.0, 0.0, 0.0, 0.0, 0.3, 0.1, 0.4],
    [0.05, 0.0, 0.0, 0.0, 0.05, 0.3, 0.3, 0.2, 0.1],
]


class TestStationaryStarts:
    def test_worked_example(self, gm, gm_measure):
        assert gm_measure.starts[0] == pytest.approx([0.75, 0.25], abs=1e-12)
        assert gm_measure.starts[1] == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_matches_eigenvector_oracle(self, gm, gm_measure):
        cycle = gm_measure.transitions[0] @ gm_measure.transitions[1]
        w, v = np.linalg.eig(cycle.T)
        p = np.abs(v[:, np.argmax(w.real)].real)
        p /= p.sum()
        assert gm_measure.starts[0] == pytest.approx(p, abs=1e-10)

    def test_doubly_stochastic_gives_uniform(self, full2):
        mu = stationary_starts(full2, [np.full((2, 2), 0.5)])
        assert mu.starts[0] == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_identity_chain_flagged_non_unique(self, id2):
        mu = stationary_starts(id2, [np.eye(2)])
        assert any("non-unique" in f for f in mu.flags)
        assert mu.starts[0] == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_support_condition_enforced(self, gm):
        bad = [np.full((2, 2), 0.5), np.full((2, 2), 0.5)]  # mass on b->b
        with pytest.raises(MeasureError, match="forbidden edge"):
            stationary_starts(gm, bad)

    @settings(max_examples=150)
    @given(stochastic_matrices(), st.sampled_from([1e-6, 1e-9, 1e-12]))
    def test_loop_matches_the_numpy_reference_bit_for_bit(self, m, tol):
        try:
            expected, unique = reference_stationary_of(m, tol, 100_000)
        except PowerIterationError:
            assume(False)
        (got,), got_unique = _stationary_of([m], tol, 100_000)
        assert got.tobytes() == expected.tobytes()
        assert got_unique == unique

    @settings(max_examples=150)
    @given(stochastic_matrices(), st.sampled_from([1e-6, 1e-9]))
    @example(np.array(SCREEN_EDGE[0]), 1e-9)
    @example(np.array(SCREEN_EDGE[1]), 1e-9)
    def test_tol_equal_to_a_residual_the_reference_reaches(self, m, coarse):
        # the residual screen's hardest input: the reference stops on a
        # residual exactly equal to tol, so a screen that rounds the other
        # way runs one iteration too many
        try:
            p, _ = reference_stationary_of(m, coarse, 100_000)
        except PowerIterationError:
            assume(False)
        tol = float(np.abs(p @ m - p).sum())
        expected, unique = reference_stationary_of(m, tol, 100_000)
        (got,), got_unique = _stationary_of([m], tol, 100_000)
        assert got.tobytes() == expected.tobytes()
        assert got_unique == unique

    @settings(max_examples=300)
    @given(
        stochastic_matrices(max_d=9),
        st.sampled_from([1e-6, 1e-9, 1e-12]),
        st.sampled_from([3, 100_000]),
    )
    @example(np.array(REDUCIBLE_NINE), 1e-12, 100_000)
    @example(np.array(SLOW_DRAIN[0][0]), 1e-12, 1000)
    @example(np.array(SLOW_DRAIN[1][0]), 1e-12, 1000)
    def test_step_matches_the_previous_loop_bit_for_bit(self, m, tol, cap):
        # the Python-float division and ndarray.dot step give the bits of the
        # numpy division and ``@`` step, on the iteration and (at cap 3 and
        # on the slow drains) on the squaring fallback
        try:
            expected, unique = previous_stationary_of(m, tol, cap)
        except PowerIterationError as exc:
            with pytest.raises(PowerIterationError) as got:
                _stationary_of([m], tol, cap)
            assert got.value.residual.hex() == exc.residual.hex()
            return
        (got,), got_unique = _stationary_of([m], tol, cap)
        assert got.tobytes() == expected.tobytes()
        assert got_unique == unique

    @pytest.mark.parametrize("product, limit", SLOW_DRAIN)
    def test_slow_transient_drain_reaches_its_limit(self, product, limit):
        m = np.array(product)
        (p,), unique = _stationary_of([m], 1e-12, 100_000)
        assert unique
        assert p == pytest.approx(limit, abs=1e-12)
        assert np.abs(p @ m - p).sum() <= 1e-12

    def test_cap_fallback_agrees_with_the_converged_vector(self, gm_measure):
        cycle = gm_measure.transitions[0] @ gm_measure.transitions[1]
        (converged,), _ = _stationary_of([cycle], 1e-12, 100_000)
        (capped,), unique = _stationary_of([cycle], 1e-12, 1)
        assert unique
        assert capped == pytest.approx(converged, abs=1e-12)

    @pytest.mark.parametrize("cap", [1, 100_000])
    def test_starts_along_a_cycle_close_it(self, gm_measure, cap):
        # cap 1 takes the squaring fallback
        factors = list(gm_measure.transitions)
        (p0, p1), unique = _stationary_of(factors, 1e-12, cap)
        assert unique
        assert p1.tobytes() == (p0 @ factors[0]).tobytes()
        assert np.abs(p1 @ factors[1] - p0).sum() <= 1e-12

    def test_closing_gap_above_the_product_residual(self, gm):
        # solve 4302 of ``rdelab maximize`` on the alternating golden mean
        # (``zero_cyl``, budget 50000, seed 0): the cycle product's residual
        # passes 1e-12 at an iterate whose start, pushed around the cycle,
        # misses itself by 1.0000333894311098e-12; the solve runs on
        qs = [
            [[0.6103451795589118, 0.3896548204410883], [0.6667491988259705, 0.3332508011740295]],
            [[0.5000156329664185, 0.4999843670335815], [1.0, 0.0]],
        ]
        mu = stationary_starts(gm, qs)
        assert invariance_residual(mu) <= 1e-12

    @pytest.mark.parametrize("seed", [2099060821, 2003792646])
    def test_generated_instances_with_slow_drain_build(self, seed):
        # the corpus instances of verify --seed 39 and --seed 53 that stalled
        inst = gen_instance(seed)
        for mu in inst.measures.values():
            assert invariance_residual(mu) <= 1e-12


# gen_instance seeds with a reducible cycle product, whose uniform-start
# stationary family left the block of maximal radius
REDUCIBLE_SEEDS = (36, 47, 53, 56)


def _parry_rate(bundle):
    mu = parry_measure(bundle)
    assert invariance_residual(mu) <= NORM_TOL
    return _chain_rule_rate(mu)


class TestParryMeasure:
    def test_attains_the_spectral_rate_on_generated_bundles(self):
        for seed in range(200):
            bundle = gen_instance(seed).bundle
            rate = _parry_rate(bundle)
            assert abs(rate - cycle_growth_rate(bundle).integrated) <= VALUE_TOL, seed

    @pytest.mark.parametrize("seed", REDUCIBLE_SEEDS)
    def test_reducible_products_attain_the_rate(self, seed):
        bundle = gen_instance(seed).bundle
        d = bundle.alphabet_size
        products = [
            cycle_product([bundle.adjacency[w].astype(float) for w in cyc], d)[0]
            for cyc in bundle.base.cycles()
        ]
        assert any(len(strongly_connected_components(m > 0)) > 1 for m in products)
        rate = _parry_rate(bundle)
        assert abs(rate - cycle_growth_rate(bundle).integrated) <= VALUE_TOL

    def test_a_row_that_leaves_the_block_for_good_is_uniform(self):
        # a and b form a golden mean, and c, which a may enter, never leaves
        # itself: c lies off the block of maximal radius, with no way back
        bundle = SymbolicBundle(
            base=ProbBase(weights=(1.0,), theta=(0,)),
            alphabet=("a", "b", "c"),
            adjacency=(np.array([[1, 1, 1], [1, 0, 0], [0, 0, 1]], dtype=np.int8),),
        )
        mu = parry_measure(bundle)
        assert mu.transitions[0][2].tolist() == [0.0, 0.0, 1.0]
        assert mu.transitions[0][0, 2] == 0.0
        assert mu.starts[0][2] == 0.0
        assert _parry_rate(bundle) == pytest.approx(math.log((1 + math.sqrt(5)) / 2), abs=VALUE_TOL)

    def test_a_cycle_whose_product_is_rescaled(self):
        # 400 fibers on one theta-cycle, full 2-shift and golden mean in
        # turn: the adjacency product passes 2**256 and is rescaled
        bundle = alphabet2_bundle(
            [(i + 1) % 400 for i in range(400)], [[[1, 1], [1, 1]], [[1, 1], [1, 0]]] * 200
        )
        (cyc,) = bundle.base.cycles()
        assert cycle_product([bundle.adjacency[w].astype(float) for w in cyc], 2)[1] > 0
        mu = parry_measure(bundle)
        assert all(np.isfinite(a).all() for a in mu.transitions + mu.starts)
        rate = _parry_rate(bundle)
        assert abs(rate - cycle_growth_rate(bundle).integrated) <= VALUE_TOL
        assert rate == pytest.approx(0.5 * math.log(3), abs=VALUE_TOL)

    @given(st.integers(0, 199), st.integers(0, 2**32 - 1), st.sampled_from([0.1, 1.0, 10.0]))
    def test_no_stationary_family_beats_it(self, seed, draw, alpha):
        bundle = gen_instance(seed).bundle
        rng = np.random.default_rng(draw)
        qs = []
        for a in bundle.adjacency:
            q = np.zeros(a.shape)
            for row, allowed in zip(q, a):
                support = np.flatnonzero(allowed)
                row[support] = rng.dirichlet(np.full(len(support), alpha))
            qs.append(q)
        rate = _chain_rule_rate(stationary_starts(bundle, qs))
        assert rate <= _parry_rate(bundle) + VALUE_TOL


class TestPreviousReuse:
    GM = [[1, 1], [1, 0]]
    FULL = [[1, 1], [1, 1]]

    def test_only_the_changed_cycle_is_solved(self, monkeypatch):
        import rdelab.measures as measures

        bundle = alphabet2_bundle((0, 1, 2), [self.GM, self.FULL, [[1, 0], [0, 1]]])
        qs = [np.array([[0.3, 0.7], [1.0, 0.0]]), np.full((2, 2), 0.5), np.eye(2)]
        first = stationary_starts(bundle, qs)
        qs[1] = np.array([[0.2, 0.8], [0.6, 0.4]])
        solved = []

        def counting(cycle, *args):
            solved.append(cycle)
            return _stationary_of(cycle, *args)

        monkeypatch.setattr(measures, "_stationary_of", counting)
        reused = stationary_starts(bundle, qs, previous=first)
        assert len(solved) == 1
        fresh = stationary_starts(bundle, qs)
        assert [p.tobytes() for p in reused.starts] == [p.tobytes() for p in fresh.starts]
        assert reused.flags == fresh.flags == ("non-unique stationary start on cycle (2,)",)

    def test_reuse_on_a_two_point_cycle(self, gm, gm_measure):
        qs = list(gm_measure.transitions)
        again = stationary_starts(gm, qs, previous=gm_measure)
        assert [p.tobytes() for p in again.starts] == [
            p.tobytes() for p in gm_measure.starts
        ]
        qs[1] = np.array([[0.4, 0.6], [1.0, 0.0]])
        moved = stationary_starts(gm, qs, previous=gm_measure)
        fresh = stationary_starts(gm, qs)
        assert [p.tobytes() for p in moved.starts] == [p.tobytes() for p in fresh.starts]

    def test_previous_from_another_bundle_rejected(self, full2, gm_measure):
        with pytest.raises(MeasureError, match="another bundle"):
            stationary_starts(full2, [np.full((2, 2), 0.5)], previous=gm_measure)

    @pytest.mark.parametrize(
        "changed, message",
        [
            ([[0.6, 0.4], [0.5, 0.5]], "fiber w1: transition mass on a forbidden edge"),
            ([[0.6, 0.5], [1.0, 0.0]], "fiber w1: rows must sum to 1"),
        ],
    )
    def test_changed_fiber_is_checked(self, gm, gm_measure, changed, message):
        qs = [gm_measure.transitions[0], np.array(changed)]
        with pytest.raises(MeasureError, match=f"^{message}$"):
            stationary_starts(gm, qs, previous=gm_measure)

    def test_unchanged_fiber_of_an_unchecked_previous_is_checked(self, gm, gm_measure):
        forbidden = np.full((2, 2), 0.5)  # mass on b->b in fiber w1
        unchecked = MarkovMeasure(
            bundle=gm,
            transitions=(gm_measure.transitions[0], forbidden),
            starts=gm_measure.starts,
            check=False,
        )
        with pytest.raises(MeasureError, match="forbidden edge"):
            stationary_starts(gm, list(unchecked.transitions), previous=unchecked)


class TestInvarianceResidual:
    def test_constructed_measures_are_invariant(self, gm_measure):
        assert invariance_residual(gm_measure) <= 1e-12

    def test_uniform_starts_fail_by_a_half(self, gm, gm_measure):
        lopsided = MarkovMeasure(
            bundle=gm,
            transitions=gm_measure.transitions,
            starts=(np.array([0.5, 0.5]), np.array([0.5, 0.5])),
            check=False,
        )
        assert invariance_residual(lopsided) == pytest.approx(0.5, abs=1e-12)

    def test_loose_tol_result_fails_the_residual_check(self, gm, monkeypatch):
        # stationary_starts builds its result unchecked, then runs the
        # constructor's start and residual checks itself, same message
        import rdelab.measures as measures

        def loose(cycle):
            return _stationary_of(cycle, 1e-6)

        monkeypatch.setattr(measures, "_stationary_of", loose)
        qs = [[[0.3, 0.7], [1.0, 0.0]], [[0.6, 0.4], [1.0, 0.0]]]
        message = (
            "starts are not orbit consistent (residual 7.356e-07); "
            "use stationary_starts or check=False"
        )
        with pytest.raises(MeasureError) as err:
            stationary_starts(gm, qs)
        assert str(err.value) == message

    def test_constructor_rejects_inconsistent_starts(self, gm, gm_measure):
        with pytest.raises(MeasureError, match="orbit consistent"):
            MarkovMeasure(
                bundle=gm,
                transitions=gm_measure.transitions,
                starts=(np.array([0.5, 0.5]), np.array([0.5, 0.5])),
            )

    def test_pushforward_of_invariant_is_identical(self, gm_measure):
        pushed = pushforward_markov(gm_measure)
        assert invariance_residual(pushed) <= 1e-12
        for omega in range(2):
            assert pushed.starts[omega] == pytest.approx(
                gm_measure.starts[omega], abs=1e-12
            )


class TestWordMeasures:
    def test_horizon_one_is_the_start_vector(self, gm, gm_measure):
        nu = markov_to_word(gm_measure, 1)
        assert nu.weight(0, (0,)) == pytest.approx(0.75, abs=1e-12)
        assert nu.weight(1, (1,)) == pytest.approx(0.5, abs=1e-12)

    def test_two_step_weight(self, gm_measure):
        nu = markov_to_word(gm_measure, 2)
        assert nu.weight(1, (1, 0)) == pytest.approx(0.5, abs=1e-12)

    def test_forbidden_word_has_zero_weight(self, gm_measure):
        nu = markov_to_word(gm_measure, 2)
        assert nu.weight(1, (1, 1)) == 0.0

    def test_weights_validate_support_and_normalization(self, gm):
        with pytest.raises(MeasureError, match="inadmissible"):
            WordMeasure(
                bundle=gm, horizon=2, weights=({(0, 0): 1.0}, {(1, 1): 1.0})
            )
        with pytest.raises(MeasureError, match="sum"):
            WordMeasure(
                bundle=gm, horizon=1, weights=({(0,): 0.9}, {(0,): 1.0})
            )

    def test_nan_weight_rejected(self):
        with pytest.raises(MeasureError, match="got nan"):
            WordMeasure(presets.full_shift(2), 1, ({(0,): 0.5, (1,): math.nan},))


class TestPushforward:
    def test_invariant_markov_pushforward_is_restriction(self, gm_measure):
        nu = markov_to_word(gm_measure, 5)
        pushed = pushforward(nu)
        direct = markov_to_word(gm_measure, 4)
        for omega in range(2):
            keys = set(pushed.weights[omega]) | set(direct.weights[omega])
            for w in keys:
                assert pushed.weight(omega, w) == pytest.approx(
                    direct.weight(omega, w), abs=1e-12
                )

    def test_point_mass_shifts(self, gm):
        nu = WordMeasure(
            bundle=gm,
            horizon=3,
            weights=({(0, 0, 1): 1.0}, {(0, 1, 0): 1.0}),
        )
        pushed = pushforward(nu)
        # theta swaps the fibers
        assert pushed.weight(1, (0, 1)) == 1.0
        assert pushed.weight(0, (1, 0)) == 1.0

    def test_uniform_triple_collapses(self, gm):
        nu = WordMeasure(
            bundle=gm,
            horizon=2,
            weights=(
                {(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.25},
                {(0, 0): 1 / 3, (0, 1): 1 / 3, (1, 0): 1 / 3},
            ),
        )
        pushed = pushforward(nu)
        assert pushed.weight(0, (0,)) == pytest.approx(2 / 3, abs=1e-12)
        assert pushed.weight(0, (1,)) == pytest.approx(1 / 3, abs=1e-12)

    def test_single_coordinate_rejected(self, gm, gm_measure):
        with pytest.raises(MeasureError, match="horizon"):
            pushforward(markov_to_word(gm_measure, 1))


class TestMixAndRestrict:
    def test_mix_identity(self, gm_measure):
        nu = markov_to_word(gm_measure, 2)
        same = mix([nu], [1.0])
        for omega in range(2):
            assert same.weights[omega] == nu.weights[omega]

    def test_mix_two_point_masses(self, gm):
        a = WordMeasure(bundle=gm, horizon=1, weights=({(0,): 1.0}, {(0,): 1.0}))
        b = WordMeasure(bundle=gm, horizon=1, weights=({(1,): 1.0}, {(1,): 1.0}))
        m = mix([a, b], [0.5, 0.5])
        assert m.weight(0, (0,)) == m.weight(0, (1,)) == 0.5

    def test_mix_horizon_mismatch(self, gm, gm_measure):
        with pytest.raises(MeasureError, match="horizon"):
            mix([markov_to_word(gm_measure, 2), markov_to_word(gm_measure, 3)], [0.5, 0.5])

    def test_mix_requires_simplex_weights(self, gm_measure):
        nu = markov_to_word(gm_measure, 2)
        with pytest.raises(MeasureError, match="simplex"):
            mix([nu, nu], [0.7, 0.7])

    @pytest.mark.parametrize(
        "coefficients", [[math.nan], [math.nan, 1.0], [0.5, math.nan]]
    )
    def test_mix_rejects_a_nan_coefficient(self, gm_measure, coefficients):
        # a NaN passed both comparisons of the simplex check and failed
        # later, on the mixed weights
        nu = markov_to_word(gm_measure, 2)
        with pytest.raises(MeasureError, match="probability simplex"):
            mix([nu] * len(coefficients), coefficients)

    def test_restrict_marginalizes_right(self, gm_measure):
        nu = markov_to_word(gm_measure, 4)
        short = restrict(nu, 2)
        direct = markov_to_word(gm_measure, 2)
        for omega in range(2):
            for w, x in direct.weights[omega].items():
                assert short.weight(omega, w) == pytest.approx(x, abs=1e-12)
