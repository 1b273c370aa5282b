import itertools

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from rdelab import (
    ProbBase,
    SymbolicBundle,
    per_fiber_cover,
    presets,
    product_cover,
    stationary_starts,
)

# ``suite`` (the default) tries the same few inputs on every run;
# ``pytest --hypothesis-profile thorough`` draws many fresh ones.
settings.register_profile(
    "suite", max_examples=25, derandomize=True, deadline=None
)
settings.register_profile(
    "thorough", max_examples=300, derandomize=False, deadline=None
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def full2():
    return presets.full_shift(2)


@pytest.fixture(scope="session")
def id2():
    return presets.identity_shift(2)


@pytest.fixture(scope="session")
def gm():
    """Two fibers swapped by the base map: full matrix then golden mean."""
    return presets.alternating_golden_mean()


@pytest.fixture(scope="session")
def gm_measure(gm):
    """The worked example measure: fair coin rows except the forced b->a."""
    q0 = np.array([[0.5, 0.5], [0.5, 0.5]])
    q1 = np.array([[0.5, 0.5], [1.0, 0.0]])
    return stationary_starts(gm, [q0, q1])


def alphabet2_bundle(theta, adjacencies):
    """Alphabet-2 bundle over equally weighted base points."""
    k = len(theta)
    return SymbolicBundle(
        base=ProbBase(weights=(1 / k,) * k, theta=tuple(theta)),
        alphabet=("a", "b"),
        adjacency=tuple(np.array(a, dtype=np.int8) for a in adjacencies),
    )


def diagonal_partition(bundle):
    """Two-symbol words split into repeats and changes: a partition that pins
    no coordinate, so ``maximize`` hill-climbs on it."""
    words = list(itertools.product(range(bundle.alphabet_size), repeat=2))
    return product_cover(
        bundle,
        [[w for w in words if w[0] == w[1]], [w for w in words if w[0] != w[1]]],
        partition=True,
    )


def enumerate_words(bundle, omega, start, length):
    """Independent admissibility oracle: filter the full product alphabet."""
    out = []
    for w in itertools.product(range(bundle.alphabet_size), repeat=length):
        ok = True
        for i in range(length - 1):
            if not bundle.matrix_at(omega, start + i)[w[i], w[i + 1]]:
                ok = False
                break
        if ok:
            out.append(w)
    return out


def rebuilt_pullback(u, i):
    """``pullback(u, i)`` with every element's sections rebuilt, also where
    theta^i fixes every fiber."""
    base = u.bundle.base
    sections = tuple(
        tuple(elem[base.apply_theta(omega, i)] for omega in range(base.omega_count))
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


def brute_min_cover(universe, sets):
    """Smallest subfamily covering the universe, by exhaustive subsets."""
    universe = set(universe)
    for r in range(1, len(sets) + 1):
        for combo in itertools.combinations(range(len(sets)), r):
            if set().union(*(sets[i] for i in combo)) >= universe:
                return r
    raise AssertionError("universe not covered")


def brute_assignment_minimum(masses, candidates):
    """Exhaustive minimum-entropy assignment for one fiber.

    ``masses``: word -> positive mass; ``candidates``: word -> element ids.
    """
    import math

    words = sorted(masses)
    best = math.inf
    for assign in itertools.product(*(candidates[w] for w in words)):
        cells = {}
        for w, e in zip(words, assign):
            cells[e] = cells.get(e, 0.0) + masses[w]
        h = -sum(x * math.log(x) for x in cells.values() if x > 0)
        best = min(best, h)
    return best


@st.composite
def small_cover(draw, bundle):
    """A random product or per-fiber cover, overlapping or a partition."""
    start = draw(st.integers(0, 2))
    length = draw(st.integers(1, 2))
    k = draw(st.integers(1, 4))
    words = list(itertools.product(range(bundle.alphabet_size), repeat=length))
    partition = draw(st.booleans())

    def element_sets():
        if partition:
            owner = draw(
                st.lists(st.integers(0, k - 1), min_size=len(words), max_size=len(words))
            )
            return [[w for w, o in zip(words, owner) if o == e] for e in range(k)]
        sets = [draw(st.sets(st.sampled_from(words))) for _ in range(k)]
        for w in words:
            if not any(w in s for s in sets):
                sets[draw(st.integers(0, k - 1))].add(w)
        return [sorted(s) for s in sets]

    if draw(st.booleans()):
        return product_cover(bundle, element_sets(), start=start, partition=partition)
    per_omega = [element_sets() for _ in range(bundle.base.omega_count)]
    return per_fiber_cover(
        bundle,
        [[per_omega[om][e] for om in range(len(per_omega))] for e in range(k)],
        start=start,
        partition=partition,
    )
