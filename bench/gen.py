"""Seeded instance documents for the benchmark workloads.

Everything here is plain Python: a matrix is a list of 0/1 rows, a word is a
string over single-letter symbols, and a document is the dict that
``rdelab.instances`` reads from JSON.  Randomness comes from
:class:`random.Random` keyed by strings, so the same workload seed gives the
same documents on every platform.  The library under test only ever sees the
JSON files written from these documents.
"""

from __future__ import annotations

import random

from oracle import Doc, cycles_of, primitive_cycles, vocabulary

SYMBOLS = "abcd"

# The demo instances the workloads share, as plain matrices.
GOLDEN_MEAN = {
    "alphabet": ["a", "b"],
    "omega": ["w0", "w1"],
    "theta": [1, 0],
    "P": [0.5, 0.5],
    "adjacency": {"w0": [[1, 1], [1, 1]], "w1": [[1, 1], [1, 0]]},
    "covers": {
        "zero_cyl": {"window": 1, "product": [["a"], ["b"]]},
        "overlap": {"window": 1, "product": [["a", "b"], ["b"]]},
        "pairs": {"window": 2, "product": [["aa"], ["ab"], ["ba"], ["bb"]]},
    },
    "measures": {
        "balanced": {"Q": {"w0": [[0.5, 0.5], [0.5, 0.5]], "w1": [[0.5, 0.5], [1, 0]]}}
    },
}

FULL_SHIFT_2 = {
    "alphabet": ["a", "b"],
    "omega": ["w0"],
    "theta": [0],
    "P": [1.0],
    "adjacency": {"w0": [[1, 1], [1, 1]]},
    "covers": {"zero_cyl": {"window": 1, "product": [["a"], ["b"]]}},
    "measures": {"uniform": {"Q": {"w0": [[0.5, 0.5], [0.5, 0.5]]}}},
}

# The one-fiber golden-mean shift: the sparsest alphabet-2 shift with positive
# entropy, which keeps the witness construction at n=3 inside a second or two.
GOLDEN_MEAN_1 = {
    "alphabet": ["a", "b"],
    "omega": ["w0"],
    "theta": [0],
    "P": [1.0],
    "adjacency": {"w0": [[1, 1], [1, 0]]},
    "covers": {"zero_cyl": {"window": 1, "product": [["a"], ["b"]]}},
}


def rng_for(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def _matrix(rng: random.Random, d: int, ones: int) -> list[list[int]]:
    """A d x d 0/1 matrix with exactly ``ones`` ones and no dead row or column."""
    cells = [(r, c) for r in range(d) for c in range(d)]
    for _ in range(500):
        chosen = set(rng.sample(cells, ones))
        mat = [[int((r, c) in chosen) for c in range(d)] for r in range(d)]
        if all(any(row) for row in mat) and all(
            any(mat[r][c] for r in range(d)) for c in range(d)
        ):
            return mat
    raise RuntimeError(f"no {d}x{d} matrix with {ones} ones and no dead symbol")


def random_bundle(
    rng: random.Random, alphabet: int, fibers: int, ones: int, fixed_points: bool = False
) -> dict:
    """Bundle fields of a document: random theta (the identity when
    ``fixed_points``), cycle masses and matrices, drawn until every
    theta-cycle product is primitive (no slow-mixing or zero-entropy cycles)."""
    for _ in range(500):
        doc = _bundle(rng, alphabet, fibers, ones, fixed_points)
        if primitive_cycles(Doc(doc)):
            return doc
    raise RuntimeError(f"no primitive bundle of shape {(alphabet, fibers, ones)}")


def _bundle(rng: random.Random, alphabet: int, fibers: int, ones: int, fixed_points: bool) -> dict:
    theta = list(range(fibers))
    if not fixed_points:
        rng.shuffle(theta)
    cycles = cycles_of(theta)
    raw = [rng.randint(1, 4) for _ in cycles]
    weights = [0.0] * fibers
    for cyc, r in zip(cycles, raw):
        for w in cyc:
            weights[w] = r / sum(raw) / len(cyc)
    names = [f"w{i}" for i in range(fibers)]
    return {
        "alphabet": list(SYMBOLS[:alphabet]),
        "omega": names,
        "theta": theta,
        "P": weights,
        "adjacency": {n: _matrix(rng, alphabet, ones) for n in names},
    }


def product_cover(
    rng: random.Random, doc: dict, window: int, elements: int, extra: int
) -> dict:
    """Random product cover: a partition of the window vocabulary into
    ``elements`` nonempty cells, plus ``extra`` added memberships (overlap)."""
    symbols = doc["alphabet"]
    vocab = ["".join(symbols[s] for s in w) for w in vocabulary(Doc(doc), window)]
    elements = min(elements, len(vocab))
    order = vocab[:]
    rng.shuffle(order)
    cells = [[w] for w in order[:elements]]
    for w in order[elements:]:
        cells[rng.randrange(elements)].append(w)
    for _ in range(extra):
        w = rng.choice(vocab)
        homes = [i for i, c in enumerate(cells) if w not in c]
        if homes:
            cells[rng.choice(homes)].append(w)
    return {"window": window, "product": [sorted(c) for c in cells]}


def zero_cylinders(doc: dict) -> dict:
    return {"window": 1, "product": [[s] for s in doc["alphabet"]]}


def markov_measure(rng: random.Random, doc: dict, floor: float) -> dict:
    """Transition rows with random positive mass on every allowed edge: each
    edge draws a weight between ``floor`` and 1 before the row is normalised."""
    q = {}
    for name in doc["omega"]:
        rows = []
        for row in doc["adjacency"][name]:
            raw = [rng.uniform(floor, 1.0) if x else 0.0 for x in row]
            total = sum(raw)
            rows.append([x / total for x in raw])
        q[name] = rows
    return {"Q": q}
