"""The Python-float checks and shortcuts of the stationary-start and search
paths against the numpy code they replaced, kept here as references.

Each replacement must give the same bits, the same error messages and the
same order of errors; NaN entries are the one intended difference (they now
fail the row-sum checks) and are tested apart.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rdelab.measures as measures
import rdelab.variational as variational
from rdelab import (
    MarkovMeasure,
    ProbBase,
    SymbolicBundle,
    maximize_invariant_entropy,
    presets,
    product_cover,
    stationary_starts,
    topological_cover_entropy,
    zero_cylinders,
)
from rdelab.base import cycle_product, plain_sum
from rdelab.covers import JoinSizeError
from rdelab.entropy import _chain_rule_rate, shannon
from rdelab.instances import canonical_json
from rdelab.measures import NORM_TOL, MeasureError, invariance_residual

from conftest import alphabet2_bundle, diagonal_partition

# ---------------------------------------------------------------------------
# the replaced code
# ---------------------------------------------------------------------------


def reference_entry_checks(bundle, transitions):
    """``stationary_starts``' numpy entry checks, up to its first solve."""
    base = bundle.base
    qs = [np.array(q, dtype=float) for q in transitions]
    if len(qs) != base.omega_count:
        raise MeasureError("need one transition matrix per fiber")
    for omega, q in enumerate(qs):
        if q.shape != (bundle.alphabet_size,) * 2 or (q < 0).any():
            raise MeasureError(f"fiber {base.labels[omega]}: bad transition matrix")
        if ((q > 0) & (bundle.adjacency[omega] == 0)).any():
            raise MeasureError(
                f"fiber {base.labels[omega]}: transition mass on a forbidden edge"
            )
        if np.abs(q.sum(axis=1) - 1.0).max() > NORM_TOL:
            raise MeasureError(f"fiber {base.labels[omega]}: rows must sum to 1")


def reference_invariance_residual(mu):
    base = mu.bundle.base
    worst = 0.0
    for omega in range(base.omega_count):
        pushed = mu.starts[omega] @ mu.transitions[omega]
        gap = float(np.abs(mu.starts[base.theta[omega]] - pushed).sum())
        worst = max(worst, gap)
    return worst


def reference_validate_starts(mu):
    d = mu.bundle.alphabet_size
    base = mu.bundle.base
    for omega, p in enumerate(mu.starts):
        if p.shape != (d,) or (p < 0).any() or abs(p.sum() - 1.0) > NORM_TOL:
            raise MeasureError(f"fiber {base.labels[omega]}: bad start vector")
    res = reference_invariance_residual(mu)
    if res > NORM_TOL:
        raise MeasureError(
            f"starts are not orbit consistent (residual {res:.3e}); "
            "use stationary_starts or check=False"
        )


def reference_validate(mu):
    """``MarkovMeasure._validate`` in numpy."""
    d = mu.bundle.alphabet_size
    base = mu.bundle.base
    if len(mu.transitions) != base.omega_count or len(mu.starts) != base.omega_count:
        raise MeasureError("need one transition matrix and one start per fiber")
    for omega, q in enumerate(mu.transitions):
        if q.shape != (d, d):
            raise MeasureError(f"transition matrix of fiber {omega} has wrong shape")
        if (q < 0).any():
            raise MeasureError("transition probabilities must be nonnegative")
        if ((q > 0) & (mu.bundle.adjacency[omega] == 0)).any():
            raise MeasureError(
                f"fiber {base.labels[omega]}: transition mass on a forbidden edge"
            )
        if np.abs(q.sum(axis=1) - 1.0).max() > NORM_TOL:
            raise MeasureError(f"fiber {base.labels[omega]}: rows must sum to 1")
    reference_validate_starts(mu)


def reference_cycle_product(factors, size):
    """``cycle_product`` starting from the identity."""
    prod = np.eye(size)
    exponent = 0
    for f in factors:
        prod = prod @ f
        top = float(prod.max())
        if top > 2.0**256:
            e = math.frexp(top)[1]
            prod = np.ldexp(prod, -e)
            exponent += e
    return prod, exponent


def reference_project_simplex(v):
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    rho = 0
    for j in range(len(u)):
        if u[j] + (1.0 - css[j]) / (j + 1) > 0:
            rho = j
    lam = (1.0 - css[rho]) / (rho + 1)
    return np.maximum(v + lam, 0.0)


def reference_chain_rule_rate(mu):
    bundle = mu.bundle
    rate = 0.0
    for omega in range(bundle.base.omega_count):
        q = mu.transitions[omega]
        p = mu.starts[omega]
        rate += bundle.base.weights[omega] * plain_sum(
            float(p[a]) * shannon(q[a]) for a in range(bundle.alphabet_size)
        )
    return rate


def message(fn):
    """The message of the ``MeasureError`` that ``fn`` raises, else ``None``."""
    try:
        fn()
    except MeasureError as exc:
        return str(exc)
    return None


class Solved(Exception):
    """Raised in place of the first power iteration: the checks before it passed."""


def stop_at_solve(*args, **kwargs):
    raise Solved


# ---------------------------------------------------------------------------
# inputs: valid families with some entries edited
# ---------------------------------------------------------------------------

# edits near the row-sum tolerance, plus plainly bad values
DELTAS = [1e-12, -1e-12, 1.0000000000000002e-12, 9.9999e-13, 3e-13, 5e-12, 0.25]
BAD_VALUES = [-1e-300, -0.5, 0.5, 2.0, math.inf, -math.inf, 1e308]


@st.composite
def bundles(draw, d_max=9):
    """Bundles of 1 to 3 fibers over 2 to ``d_max`` symbols (9 reaches
    numpy's pairwise sums); every diagonal is allowed, so no symbol is dead."""
    d = draw(st.integers(2, d_max))
    fibers = draw(st.integers(1, 3))
    theta = draw(st.permutations(range(fibers)))
    adjacency = []
    for _ in range(fibers):
        a = np.array(
            draw(st.lists(st.lists(st.booleans(), min_size=d, max_size=d), min_size=d, max_size=d)),
            dtype=np.int8,
        )
        np.fill_diagonal(a, 1)
        adjacency.append(a)
    return SymbolicBundle(
        base=ProbBase(weights=(1 / fibers,) * fibers, theta=tuple(theta)),
        alphabet=tuple(f"s{i}" for i in range(d)),
        adjacency=tuple(adjacency),
    )


def stochastic_family(draw, bundle):
    qs = []
    for a in bundle.adjacency:
        d = a.shape[0]
        raw = np.array(
            draw(st.lists(st.floats(0.05, 1.0), min_size=d * d, max_size=d * d))
        ).reshape(d, d) * a
        qs.append(raw / raw.sum(axis=1, keepdims=True))
    return qs


def edit(draw, arrays):
    """Up to three edits of entries of the given arrays (in place)."""
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(arrays) - 1))
        flat = arrays[k].reshape(-1)
        i = draw(st.integers(0, flat.size - 1))
        if draw(st.booleans()):
            flat[i] += draw(st.sampled_from(DELTAS))
        else:
            flat[i] = draw(st.sampled_from(BAD_VALUES))


@st.composite
def edited_families(draw):
    bundle = draw(bundles())
    qs = stochastic_family(draw, bundle)
    edit(draw, qs)
    shape = draw(st.sampled_from(["keep", "keep", "keep", "wide", "flat", "short"]))
    if shape == "wide":
        k = draw(st.integers(0, len(qs) - 1))
        qs[k] = np.hstack([qs[k], np.zeros((qs[k].shape[0], 1))])
    elif shape == "flat":
        k = draw(st.integers(0, len(qs) - 1))
        qs[k] = qs[k].reshape(-1)
    elif shape == "short":
        qs = qs[:-1]
    return bundle, qs


@st.composite
def edited_measures(draw):
    """Unchecked measures: edited transitions and random or edited starts."""
    bundle = draw(bundles())
    qs = stochastic_family(draw, bundle)
    d = bundle.alphabet_size
    if draw(st.booleans()):
        ps = [p.copy() for p in stationary_starts(bundle, qs).starts]
    else:
        ps = []
        for _ in qs:
            raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d)))
            ps.append(raw / raw.sum() if raw.sum() > 0 else np.full(d, 1.0 / d))
    edit(draw, qs)
    edit(draw, ps)
    if draw(st.integers(0, 9)) == 0:
        ps[0] = ps[0][:-1]
    mu = MarkovMeasure(bundle=bundle, transitions=qs, starts=ps, check=False)
    return mu


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


class TestEntryChecks:
    @settings(max_examples=200)
    @given(edited_families())
    def test_same_message_in_the_same_order(self, family):
        bundle, qs = family
        expected = message(lambda: reference_entry_checks(bundle, qs))
        with mock.patch.object(measures, "_stationary_of", stop_at_solve):
            try:
                got = message(lambda: stationary_starts(bundle, qs))
            except Solved:
                got = None
        assert got == expected

    @settings(max_examples=100)
    @given(st.data())
    def test_same_message_with_a_checked_previous(self, data):
        bundle = data.draw(bundles(d_max=4))
        first = stationary_starts(bundle, stochastic_family(data.draw, bundle))
        qs = [q.copy() for q in first.transitions]
        k = data.draw(st.integers(0, len(qs) - 1))
        qs[k] = stochastic_family(data.draw, bundle)[k]
        edit(data.draw, qs)
        expected = message(lambda: reference_entry_checks(bundle, qs))
        with mock.patch.object(measures, "_stationary_of", stop_at_solve):
            try:
                got = message(lambda: stationary_starts(bundle, qs, previous=first))
            except Solved:
                got = None
        if got is not None and got.startswith("starts are not orbit consistent"):
            got = None  # past the entry checks: unchanged cycles kept their starts
        assert got == expected


class TestConstructorChecks:
    @settings(max_examples=200)
    @given(edited_measures())
    def test_same_messages_and_residual_bits(self, mu):
        constructed = message(
            lambda: MarkovMeasure(
                bundle=mu.bundle, transitions=mu.transitions, starts=mu.starts
            )
        )
        assert constructed == message(lambda: reference_validate(mu))
        assert message(mu._validate_starts) == message(
            lambda: reference_validate_starts(mu)
        )

        def outcome(residual):
            try:
                return residual(mu).hex()
            except ValueError as exc:  # a start of the wrong length
                return type(exc)

        assert outcome(invariance_residual) == outcome(reference_invariance_residual)


@settings(max_examples=100)
@given(st.data())
def test_chain_rule_rate_bits(data):
    bundle = data.draw(bundles(d_max=5))
    d = bundle.alphabet_size
    qs = stochastic_family(data.draw, bundle)
    ps = [
        np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=d, max_size=d)))
        for _ in qs
    ]
    mu = MarkovMeasure(bundle=bundle, transitions=qs, starts=ps, check=False)
    assert _chain_rule_rate(mu).hex() == reference_chain_rule_rate(mu).hex()


@given(st.lists(st.floats(-1e6, 1e6), max_size=40))
def test_numpy_sum_order(xs):
    assert measures._numpy_sum(xs).hex() == float(np.sum(np.array(xs, dtype=float))).hex()


class TestNaN:
    def test_stationary_starts_rejects_a_nan_row(self, gm):
        qs = [np.array([[math.nan, 0.5], [0.5, 0.5]]), np.array([[0.5, 0.5], [1.0, 0.0]])]
        with pytest.raises(MeasureError, match=r"^fiber w0: rows must sum to 1$"):
            stationary_starts(gm, qs)

    def test_nan_on_a_forbidden_edge_fails_the_row_sums(self, gm):
        qs = [np.full((2, 2), 0.5), np.array([[0.5, 0.5], [1.0, math.nan]])]
        with pytest.raises(MeasureError, match=r"^fiber w1: rows must sum to 1$"):
            stationary_starts(gm, qs)

    def test_constructor_rejects_nan_transitions(self, gm, gm_measure):
        qs = (np.array([[math.nan, 0.5], [0.5, 0.5]]), gm_measure.transitions[1])
        with pytest.raises(MeasureError, match=r"^fiber w0: rows must sum to 1$"):
            MarkovMeasure(bundle=gm, transitions=qs, starts=gm_measure.starts)

    def test_constructor_rejects_a_nan_start(self, gm, gm_measure):
        ps = (gm_measure.starts[0], np.array([math.nan, 0.5]))
        with pytest.raises(MeasureError, match=r"^fiber w1: bad start vector$"):
            MarkovMeasure(bundle=gm, transitions=gm_measure.transitions, starts=ps)


class TestCheckedPrevious:
    GM = [[1, 1], [1, 0]]
    FULL = [[1, 1], [1, 1]]

    def family(self):
        bundle = alphabet2_bundle((0, 1, 2), [self.GM, self.FULL, self.FULL])
        qs = [np.array([[0.3, 0.7], [1.0, 0.0]]), np.full((2, 2), 0.5), np.full((2, 2), 0.5)]
        return bundle, qs

    def checked_fibers(self, bundle, qs, previous):
        seen = []
        real = measures._transition_fault

        def counting(q, adjacency, d):
            seen.append(q.tobytes())
            return real(q, adjacency, d)

        with mock.patch.object(measures, "_transition_fault", counting):
            stationary_starts(bundle, qs, previous=previous)
        return len(seen)

    @pytest.mark.parametrize("kind", ["solved", "constructed"])
    def test_checked_previous_skips_unchanged_fibers(self, kind):
        bundle, qs = self.family()
        previous = stationary_starts(bundle, qs)
        if kind == "constructed":
            previous = MarkovMeasure(
                bundle=bundle, transitions=previous.transitions, starts=previous.starts
            )
        qs[1] = np.array([[0.2, 0.8], [0.6, 0.4]])
        assert self.checked_fibers(bundle, qs, previous) == 1

    def test_unchecked_previous_checks_every_fiber(self):
        bundle, qs = self.family()
        solved = stationary_starts(bundle, qs)
        unchecked = MarkovMeasure(
            bundle=bundle, transitions=solved.transitions, starts=solved.starts, check=False
        )
        qs[1] = np.array([[0.2, 0.8], [0.6, 0.4]])
        assert self.checked_fibers(bundle, qs, unchecked) == 3

    def test_a_reshaped_fiber_with_the_same_bytes_is_checked(self, gm, gm_measure):
        qs = [gm_measure.transitions[0].reshape(-1), gm_measure.transitions[1]]
        with pytest.raises(MeasureError, match=r"^fiber w0: bad transition matrix$"):
            stationary_starts(gm, qs, previous=gm_measure)


class TestNoCopies:
    def test_inputs_changed_later_leave_the_measure_alone(self, gm):
        qs = [np.full((2, 2), 0.5), np.array([[0.5, 0.5], [1.0, 0.0]])]
        mu = stationary_starts(gm, qs)
        before = [q.tobytes() for q in mu.transitions]
        qs[0][0, 0] = 0.9
        qs[1][:] = 0.0
        assert [q.tobytes() for q in mu.transitions] == before
        assert not any(a.flags.writeable for a in mu.transitions + mu.starts)

    def test_unchanged_fibers_share_previous_arrays(self, gm, gm_measure):
        qs = [gm_measure.transitions[0], np.array([[0.4, 0.6], [1.0, 0.0]])]
        mu = stationary_starts(gm, qs, previous=gm_measure)
        assert mu.transitions[0] is gm_measure.transitions[0]
        assert not mu.transitions[1].flags.writeable


def test_closed_classes_cache_is_bounded():
    cached = measures._closed_classes_of
    limit = cached.cache_info().maxsize
    assert limit is not None
    rng = np.random.default_rng(0)
    for _ in range(limit + 50):
        measures._closed_classes(rng.random((5, 5)) < 0.4)
    assert cached.cache_info().currsize <= limit


# ---------------------------------------------------------------------------
# cycle products and the simplex projection
# ---------------------------------------------------------------------------


@st.composite
def factor_lists(draw):
    size = draw(st.integers(1, 5))
    count = draw(st.integers(1, 6))
    scale = draw(st.sampled_from([1.0, 1e60, 1e120]))
    entry = st.one_of(st.just(0.0), st.floats(0.0, 1.0).map(lambda x: x * scale + 0.0))
    return size, [
        np.array(draw(st.lists(entry, min_size=size * size, max_size=size * size))).reshape(
            size, size
        )
        for _ in range(count)
    ]


@settings(max_examples=200)
@given(factor_lists())
def test_cycle_product_starts_from_its_first_factor(case):
    size, factors = case
    prod, e = cycle_product(factors, size)
    ref, ref_e = reference_cycle_product(factors, size)
    assert e == ref_e
    assert prod.tobytes() == ref.tobytes()
    assert prod.flags.c_contiguous and prod is not factors[0]


def test_cycle_product_negative_zero_keeps_its_value():
    f = np.array([[-0.0, 1.0], [0.5, 0.5]])
    prod, e = cycle_product([f], 2)
    ref, _ = reference_cycle_product([f], 2)
    assert e == 0 and (prod == ref).all()


@pytest.mark.parametrize("theta", [(0,), (1, 0)])
def test_negative_zero_transitions_change_no_start(theta):
    # the one-fiber product is the copied factor itself, -0.0 included
    bundle = alphabet2_bundle(theta, [[[1, 1], [1, 0]]] * len(theta))
    signed = [np.array([[0.5, 0.5], [1.0, -0.0]])] * len(theta)
    a = stationary_starts(bundle, signed)
    b = stationary_starts(bundle, [q + 0.0 for q in signed])
    assert [p.tobytes() for p in a.starts] == [p.tobytes() for p in b.starts]


def test_cycle_product_of_nothing_is_the_identity():
    prod, e = cycle_product([], 3)
    assert e == 0 and prod.tobytes() == np.eye(3).tobytes()


@settings(max_examples=300)
@given(
    st.lists(
        st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, 1.0, 0.5])),
        min_size=1,
        max_size=8,
    )
)
def test_project_simplex_bits(v):
    got = np.array(variational._project_simplex(v))
    assert got.tobytes() == reference_project_simplex(np.array(v)).tobytes()


# ---------------------------------------------------------------------------
# whole searches
# ---------------------------------------------------------------------------

GM = [[1, 1], [1, 0]]
FULL = [[1, 1], [1, 1]]
SEARCHES = {
    "golden-mean": alphabet2_bundle((0,), [GM]),
    "full-2-shift": presets.full_shift(2),
    "full-3-shift": presets.full_shift(3),
    "alternating-golden-mean": presets.alternating_golden_mean(),
    "three-fiber-cycle": alphabet2_bundle((1, 2, 0), [GM, FULL, GM]),
}


def reference_search(target, budget, seed):
    """``maximize_invariant_entropy`` with every replaced piece put back."""

    def project(v):
        return reference_project_simplex(np.array(v)).tolist()

    def closed(support):
        return measures._closed_classes_of.__wrapped__(support.shape[0], support.tobytes())

    with mock.patch.object(variational, "_project_simplex", project), mock.patch.object(
        measures, "cycle_product", reference_cycle_product
    ), mock.patch.object(measures, "_closed_classes", closed):
        return maximize_invariant_entropy(target, budget, seed)


class TestSearchReports:
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("name", sorted(SEARCHES))
    def test_same_report_as_the_replaced_code(self, name, seed, monkeypatch):
        monkeypatch.setattr(variational, "SCORE_NMAX", 3)
        target = diagonal_partition(SEARCHES[name])
        got = maximize_invariant_entropy(target, 300, seed)
        ref = reference_search(target, 300, seed)
        assert got.evaluations == 300
        assert canonical_json(got.to_dict()) == canonical_json(ref.to_dict())
        assert got.measure.flags == ref.measure.flags

    def test_cover_target(self, gm, monkeypatch):
        monkeypatch.setattr(variational, "SCORE_NMAX", 3)
        overlap = product_cover(gm, [[(0,), (1,)], [(1,)]])
        got = maximize_invariant_entropy(overlap, 60, 1)
        ref = reference_search(overlap, 60, 1)
        assert canonical_json(got.to_dict()) == canonical_json(ref.to_dict())

    def test_reference_guard_on_six_symbols(self):
        bundle = presets.full_shift(6)
        target = zero_cylinders(bundle)
        with pytest.raises(JoinSizeError) as expected:
            topological_cover_entropy(target, 8)
        with pytest.raises(JoinSizeError) as got:
            maximize_invariant_entropy(target, 1, 0)
        assert str(got.value) == str(expected.value) == "join would create 6^8 elements (cap 1000000)"
