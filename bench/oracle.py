"""Reference values computed without the library under test.

Every function works on a plain instance document (the dict written to the
instance file) and uses only the standard library and numpy, so a defect in
``rdelab`` cannot hide in its own reference.  Word counts use exact integer
transfer vectors; small cases are also enumerated by brute force.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def cycles_of(theta) -> list[tuple[int, ...]]:
    """Orbits of the permutation ``theta``, each from its smallest member."""
    seen = [False] * len(theta)
    out = []
    for s in range(len(theta)):
        if seen[s]:
            continue
        cyc = []
        w = s
        while not seen[w]:
            seen[w] = True
            cyc.append(w)
            w = theta[w]
        out.append(tuple(cyc))
    return out


class Doc:
    """Index-based view of an instance document."""

    def __init__(self, doc: dict):
        self.d = len(doc["alphabet"])
        self.names = list(doc["omega"])
        self.theta = list(doc["theta"])
        self.weights = [float(x) for x in doc["P"]]
        self.mats = [doc["adjacency"][n] for n in self.names]
        self.symbol = {s: i for i, s in enumerate(doc["alphabet"])}
        self._words: dict = {}

    @property
    def fibers(self) -> int:
        return len(self.names)

    def point(self, omega: int, power: int) -> int:
        for _ in range(power):
            omega = self.theta[omega]
        return omega

    def allowed(self, omega: int, start: int, word) -> bool:
        """Whether ``word`` is admissible on [start, start+len) in fiber omega."""
        for c in range(len(word) - 1):
            if not self.mats[self.point(omega, start + c)][word[c]][word[c + 1]]:
                return False
        return True

    def words(self, omega: int, start: int, length: int) -> list[tuple[int, ...]]:
        """Admissible words, grown one coordinate at a time (kept: callers
        must not change the list)."""
        key = (omega, start, length)
        if key not in self._words:
            out = [(a,) for a in range(self.d)]
            for c in range(length - 1):
                mat = self.mats[self.point(omega, start + c)]
                out = [w + (b,) for w in out for b in range(self.d) if mat[w[-1]][b]]
            self._words[key] = out
        return self._words[key]

    def count(self, omega: int, start: int, n: int) -> int:
        """Exact word count from a big-integer transfer vector."""
        vec = [1] * self.d
        for c in range(n - 2, -1, -1):
            mat = self.mats[self.point(omega, start + c)]
            vec = [sum(mat[a][b] * vec[b] for b in range(self.d)) for a in range(self.d)]
        return sum(vec)

    def brute_count(self, omega: int, start: int, n: int) -> int:
        """Word count by checking every one of the d**n blocks."""
        return sum(
            1
            for w in itertools.product(range(self.d), repeat=n)
            if self.allowed(omega, start, w)
        )

    def cycles(self) -> list[tuple[int, ...]]:
        return cycles_of(self.theta)

    def parse_word(self, raw: str) -> tuple[int, ...]:
        return tuple(self.symbol[s] for s in raw)


def counted(doc: Doc, omega: int, start: int, n: int, brute_max: int = 4096) -> int:
    """Transfer-vector count, cross-checked by brute force when d**n is small."""
    value = doc.count(omega, start, n)
    if doc.d**n <= brute_max:
        brute = doc.brute_count(omega, start, n)
        if brute != value:
            raise AssertionError(f"oracle disagrees with itself: {value} != {brute}")
    return value


def singleton_sequence(doc: Doc, nmax: int, window: int = 1) -> list[float]:
    """sum_w P(w) ln N_w(n + window - 1) / n for n = 1..nmax: the cover
    complexities of a partition whose cells are single window words."""
    return [
        sum(
            doc.weights[w] * math.log(counted(doc, w, 0, n + window - 1))
            for w in range(doc.fibers)
        )
        / n
        for n in range(1, nmax + 1)
    ]


def _closed_blocks(support: np.ndarray) -> list[list[int]]:
    """Strongly connected components of a directed graph (transitive closure)."""
    n = support.shape[0]
    reach = support.astype(bool) | np.eye(n, dtype=bool)
    for k in range(n):
        reach = reach | (reach[:, [k]] & reach[[k], :])
    blocks, seen = [], set()
    for v in range(n):
        if v in seen:
            continue
        block = [u for u in range(n) if reach[v, u] and reach[u, v]]
        seen.update(block)
        blocks.append(block)
    return blocks


def spectral_radius(m: np.ndarray) -> float:
    """Largest |eigenvalue| over the irreducible diagonal blocks."""
    best = 0.0
    for block in _closed_blocks(m > 0):
        sub = m[np.ix_(block, block)]
        best = max(best, float(np.max(np.abs(np.linalg.eigvals(sub)))))
    return best


def primitive_cycles(doc: Doc) -> bool:
    """Whether every theta-cycle product of the adjacency matrices is
    primitive (some power is positive; Wielandt's bound caps the power)."""
    for cyc in doc.cycles():
        prod = np.eye(doc.d)
        for w in cyc:
            prod = prod @ np.array(doc.mats[w], dtype=float)
        support = (prod > 0).astype(float)
        power = np.eye(doc.d)
        for _ in range((doc.d - 1) ** 2 + 1):
            power = ((power @ support) > 0).astype(float)
        if not power.all():
            return False
    return True


def cycle_rate(doc: Doc) -> float:
    """Integrated growth rate: sum over theta-cycles of mass * ln(rho) / length."""
    total = 0.0
    for cyc in doc.cycles():
        prod = np.eye(doc.d)
        for w in cyc:
            prod = prod @ np.array(doc.mats[w], dtype=float)
        mass = sum(doc.weights[w] for w in cyc)
        total += mass * math.log(spectral_radius(prod)) / len(cyc)
    return total


def transitions(doc: Doc, measure: dict) -> list[np.ndarray]:
    return [np.array(measure["Q"][n], dtype=float) for n in doc.names]


def stationary_starts(doc: Doc, qs: list[np.ndarray]) -> list[np.ndarray] | None:
    """Orbit-consistent start vectors, or None when a cycle product has more
    than one stationary vector (then the reference is not unique)."""
    starts: list[np.ndarray | None] = [None] * doc.fibers
    for cyc in doc.cycles():
        prod = np.eye(doc.d)
        for w in cyc:
            prod = prod @ qs[w]
        vals, vecs = np.linalg.eig(prod.T)
        ones = np.flatnonzero(np.abs(vals - 1.0) < 1e-9)
        if len(ones) != 1:
            return None
        p = np.real(vecs[:, ones[0]])
        p = np.abs(p) / np.abs(p).sum()
        starts[cyc[0]] = p
        for w in cyc[:-1]:
            p = p @ qs[w]
            starts[doc.theta[w]] = p
    return starts


def shannon(masses) -> float:
    return -sum(x * math.log(x) for x in masses if x > 0.0)


def word_masses(doc: Doc, qs, starts, omega: int, length: int) -> dict:
    """Markov measure of each admissible word on [0, length) in fiber omega."""
    out = {}
    for w in doc.words(omega, 0, length):
        x = float(starts[omega][w[0]])
        point = omega
        for i in range(length - 1):
            x *= float(qs[point][w[i], w[i + 1]])
            point = doc.theta[point]
        if x > 0.0:
            out[w] = x
    return out


def partition_sequence(doc: Doc, qs, starts, cell_of: dict, window: int, nmax: int):
    """h_n / n for the joined pullbacks of a product partition, n = 1..nmax.

    ``cell_of`` maps each window word to its cell; the joined cell of a word
    on [0, window+n-1) is the tuple of cells read at offsets 0..n-1.
    """
    out = []
    for n in range(1, nmax + 1):
        length = window + n - 1
        h = 0.0
        for omega in range(doc.fibers):
            cells: dict = {}
            for w, x in word_masses(doc, qs, starts, omega, length).items():
                key = tuple(cell_of[w[k : k + window]] for k in range(n))
                cells[key] = cells.get(key, 0.0) + x
            h += doc.weights[omega] * shannon(cells.values())
        out.append(h / n)
    return out


def chain_rule_rate(doc: Doc, qs, starts) -> float:
    return sum(
        doc.weights[w]
        * sum(float(starts[w][a]) * shannon(qs[w][a]) for a in range(doc.d))
        for w in range(doc.fibers)
    )


def vocabulary(doc: Doc, window: int) -> list[tuple[int, ...]]:
    """Words on [0, window) admissible in at least one fiber, sorted."""
    out = set()
    for omega in range(doc.fibers):
        out.update(doc.words(omega, 0, window))
    return sorted(out)


def cover_cells(doc: Doc, cover: dict) -> list[set]:
    return [{doc.parse_word(w) for w in cell} for cell in cover["product"]]


def first_cell_partition(doc: Doc, cover: dict) -> dict:
    """The product refinement that sends each word to its lowest-index cell."""
    cells = cover_cells(doc, cover)
    return {
        w: min(i for i, c in enumerate(cells) if w in c)
        for w in vocabulary(doc, cover["window"])
    }


def refinement_count(doc: Doc, cover: dict, n: int = 1) -> int:
    """Number of product partitions refining the n-step join of a product
    cover: each word on the joined window picks one containing element."""
    cells = cover_cells(doc, cover)
    m = cover["window"]
    count = 1
    for w in vocabulary(doc, m + n - 1):
        for k in range(n):
            count *= sum(1 for c in cells if w[k : k + m] in c)
    return count


def min_subcover(universe: list, sets: list[set]) -> int:
    """Exact minimum set cover by trying subsets in order of size."""
    index = {w: i for i, w in enumerate(universe)}
    full = (1 << len(universe)) - 1
    masks = sorted(
        {sum(1 << index[w] for w in s if w in index) for s in sets} - {0}
    )
    for size in range(1, len(masks) + 1):
        for combo in itertools.combinations(masks, size):
            acc = 0
            for m in combo:
                acc |= m
            if acc == full:
                return size
    raise AssertionError("sets do not cover the universe")


def joined_cover_count(doc: Doc, cover: dict, omega: int, n: int) -> int:
    """Minimal subcover of the n-step joined window-1 product cover."""
    cells = cover_cells(doc, cover)
    words = doc.words(omega, 0, n)
    sets = []
    for combo in itertools.product(range(len(cells)), repeat=n):
        sets.append(
            {w for w in words if all((w[k],) in cells[combo[k]] for k in range(n))}
        )
    return min_subcover(words, sets)
