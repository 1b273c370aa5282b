"""Fibered measures over a random subshift bundle.

Two representations are used.  A :class:`MarkovMeasure` is an invariant-style
family: one row-stochastic matrix per base point (supported on the allowed
transitions) plus one start vector per base point, tied together by the orbit
consistency equation ``p(theta w) = p(w) Q(w)``.  That equation is exactly
invariance of the induced fibered measure under the skew product.  A
:class:`WordMeasure` is a horizon-limited disintegration: per fiber, a
probability weight on the admissible words of a fixed window ``[0, H)``.

:func:`stationary_starts` solves the orbit-consistency fixed point by power
iteration.  :func:`parry_measure` builds the random Parry family, the
Markov family of maximal fiber entropy, in closed form from the Perron
vectors of each theta-cycle's adjacency product, on the block that
:func:`~rdelab.base.perron_block` also picks for the spectral rate of
:func:`~rdelab.base.cycle_growth_rate`.

Everything is a pure value; nothing here mutates shared state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass
from typing import Mapping, Sequence

import numpy as np

from .base import (
    PowerIterationError,
    SymbolicBundle,
    admissible_tuples,
    cycle_product,
    perron_block,
    plain_sum,
    strongly_connected_components,
)

__all__ = [
    "MeasureError",
    "MarkovMeasure",
    "WordMeasure",
    "stationary_starts",
    "parry_measure",
    "invariance_residual",
    "markov_to_word",
    "pushforward",
    "pushforward_markov",
    "restrict",
    "mix",
    "NORM_TOL",
]

NORM_TOL = 1e-12

WordTuple = tuple[int, ...]


class MeasureError(ValueError):
    """A measure violates support, stochasticity, or consistency invariants."""


@dataclass(frozen=True, eq=False)
class MarkovMeasure:
    """Per-fiber transition matrices and start vectors with orbit consistency.

    Invariants enforced at construction (disable with ``check=False``):

    * every entry of every ``Q[w]`` is a nonnegative number (NaN fails the
      row-sum check);
    * ``Q[w][a, b] > 0`` only where the bundle allows the transition;
    * every row of every ``Q[w]`` sums to one within ``NORM_TOL``;
    * ``p[theta w] == p[w] @ Q[w]`` within ``NORM_TOL`` per entry sum.

    A measure built with ``check=True``, like every result of
    :func:`stationary_starts`, has checked transitions: passed to
    :func:`stationary_starts` as ``previous``, its fibers are not checked
    again where the new matrices are byte-equal to its own.  Those of a
    measure built with ``check=False`` are.

    ``flags`` carries construction notes such as ``"non-unique stationary
    start"``; it never affects computation.
    """

    bundle: SymbolicBundle
    transitions: tuple[np.ndarray, ...]
    starts: tuple[np.ndarray, ...]
    flags: tuple[str, ...] = ()
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        qs = []
        for q in self.transitions:
            m = np.array(q, dtype=float)
            m.setflags(write=False)
            qs.append(m)
        ps = []
        for p in self.starts:
            v = np.array(p, dtype=float)
            v.setflags(write=False)
            ps.append(v)
        object.__setattr__(self, "transitions", tuple(qs))
        object.__setattr__(self, "starts", tuple(ps))
        if check:
            self._validate()
        object.__setattr__(self, "_checked", check)

    @classmethod
    def _adopt(cls, bundle, transitions, starts, flags) -> MarkovMeasure:
        """A measure on read-only float arrays that nobody else can write,
        taken as they are: no copy and no check.  Its transitions count as
        checked, so the caller must have checked them."""
        mu = cls.__new__(cls)
        for name, value in (
            ("bundle", bundle),
            ("transitions", transitions),
            ("starts", starts),
            ("flags", flags),
            ("_checked", True),
        ):
            object.__setattr__(mu, name, value)
        return mu

    def _validate(self):
        d = self.bundle.alphabet_size
        base = self.bundle.base
        if len(self.transitions) != base.omega_count or len(self.starts) != base.omega_count:
            raise MeasureError("need one transition matrix and one start per fiber")
        for omega, q in enumerate(self.transitions):
            fault = _transition_fault(q, self.bundle.adjacency[omega], d)
            if fault == "shape":
                raise MeasureError(f"transition matrix of fiber {omega} has wrong shape")
            if fault == "sign":
                raise MeasureError("transition probabilities must be nonnegative")
            if fault == "support":
                raise MeasureError(
                    f"fiber {base.labels[omega]}: transition mass on a forbidden edge"
                )
            if fault == "rows":
                raise MeasureError(f"fiber {base.labels[omega]}: rows must sum to 1")
        self._validate_starts()

    def _validate_starts(self):
        """The start-vector checks and the orbit-consistency residual."""
        d = self.bundle.alphabet_size
        base = self.bundle.base
        for omega, p in enumerate(self.starts):
            xs = p.tolist()
            if (
                p.shape != (d,)
                or any(x < 0 for x in xs)
                or not abs(_numpy_sum(xs) - 1.0) <= NORM_TOL
            ):
                raise MeasureError(f"fiber {base.labels[omega]}: bad start vector")
        res = invariance_residual(self)
        if res > NORM_TOL:
            raise MeasureError(
                f"starts are not orbit consistent (residual {res:.3e}); "
                "use stationary_starts or check=False"
            )


def _numpy_sum(xs: list[float]) -> float:
    """The sum numpy's ``sum`` gives for an array of ``xs``, in Python floats.

    Below eight entries numpy adds one at a time from left to right, which is
    done here; from eight on it sums pairwise, and numpy is called.
    """
    if len(xs) >= 8:
        return float(np.add.reduce(xs))
    total = 0.0
    for x in xs:
        total += x
    return total


def _transition_fault(q: np.ndarray, adjacency: np.ndarray, d: int) -> str | None:
    """The first transition check that ``q`` fails, or ``None``.

    In order, each over the whole matrix: ``"shape"`` (not ``d x d``),
    ``"sign"`` (a negative entry), ``"support"`` (mass on a forbidden edge)
    and ``"rows"`` (a row sum off one by more than ``NORM_TOL``; a NaN entry
    fails here).  The matrix is read once with ``tolist`` and summed with
    :func:`_numpy_sum`, so the outcome is that of numpy's ``(q < 0).any()``,
    ``((q > 0) & (adjacency == 0)).any()`` and
    ``np.abs(q.sum(axis=1) - 1.0).max() > NORM_TOL``, except that NaN fails.
    """
    if q.shape != (d, d):
        return "shape"
    rows = q.tolist()
    if any(x < 0 for row in rows for x in row):
        return "sign"
    if any(
        x > 0 and not a
        for row, allowed in zip(rows, adjacency.tolist())
        for x, a in zip(row, allowed)
    ):
        return "support"
    if any(not abs(_numpy_sum(row) - 1.0) <= NORM_TOL for row in rows):
        return "rows"
    return None


@dataclass(frozen=True, eq=False)
class WordMeasure:
    """Per-fiber probability weights on admissible words of window [0, H)."""

    bundle: SymbolicBundle
    horizon: int
    weights: tuple[Mapping[WordTuple, float], ...]
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        frozen = tuple(
            dict(sorted((tuple(w), float(x)) for w, x in per.items() if x != 0.0))
            for per in self.weights
        )
        object.__setattr__(self, "weights", frozen)
        if check:
            self._validate()

    def _validate(self):
        base = self.bundle.base
        if self.horizon < 1:
            raise MeasureError("horizon must be at least 1")
        if len(self.weights) != base.omega_count:
            raise MeasureError("need one weight table per fiber")
        for omega, per in enumerate(self.weights):
            adm = set(admissible_tuples(self.bundle, omega, 0, self.horizon))
            for w, x in per.items():
                if not x >= 0:  # NaN fails too
                    raise MeasureError(f"weights must be nonnegative, got {x!r}")
                if w not in adm:
                    raise MeasureError(
                        f"fiber {base.labels[omega]}: weight on inadmissible word {w}"
                    )
            # exact accumulation: long horizons hold many tiny weights
            total = math.fsum(per.values())
            if not abs(total - 1.0) <= NORM_TOL:
                raise MeasureError(
                    f"fiber {base.labels[omega]}: weights sum to {total!r}"
                )

    def weight(self, omega: int, word: WordTuple) -> float:
        return self.weights[omega].get(tuple(word), 0.0)

    def support_size(self, omega: int) -> int:
        return len(self.weights[omega])

    def window_masses(self, omega: int, start: int, length: int) -> dict[WordTuple, float]:
        """Marginal masses of the restriction to [start, start+length)."""
        if start < 0 or start + length > self.horizon:
            raise MeasureError(
                f"window [{start}, {start + length}) does not fit horizon {self.horizon}"
            )
        out: dict[WordTuple, float] = {}
        for w, x in self.weights[omega].items():
            r = w[start : start + length]
            out[r] = out.get(r, 0.0) + x
        return out


def _stationary_of(
    cycle: Sequence[np.ndarray], tol: float = NORM_TOL, max_iterations: int = 100_000
) -> tuple[list[np.ndarray], bool]:
    """Stationary starts along a cycle of stochastic matrices, from the uniform start.

    Iterates on the half-lazy matrix ``(M + I)/2`` of the cycle product
    ``M`` (same fixed vectors, no periodicity) until the L1 residual
    ``|p M - p|_1`` is at most ``tol`` and, on a cycle of two or more
    points, ``p`` carried around the cycle closes it within ``tol`` too:
    that gap is the orbit residual :class:`MarkovMeasure` checks, and
    rounding along the cycle can leave it above the residual.  Returns the
    starts along the cycle (:func:`_along`) and whether the stationary
    vector is unique, decided by counting closed communicating classes of
    the support graph.

    Both vector-matrix products are numpy calls (BLAS may round them with
    fused multiply-adds, which a Python product would not reproduce): the
    step is ``ndarray.dot``, the same BLAS call as ``@`` for a vector times
    a matrix but with less dispatch, and the residual is ``@``.  The
    normalising division is one IEEE division per entry on Python floats,
    as numpy's is; the normalising sum and the residual are added term by
    term from left to right in Python floats, which is exactly how numpy
    sums fewer than eight entries.  Builtin ``sum`` (compensated from Python 3.12 on) and
    ``math.fsum`` would round differently.

    The residual is screened before it is computed.  Each iteration forms
    ``raw = p (M + I)/2`` for the next iterate anyway, and ``2 |raw - p|_1``
    equals ``|p M - p|_1`` up to rounding: for ``d`` states, a normalised
    ``p`` and a stochastic ``M``, the two computed values differ by at most
    about ``(3d + 2) 2**-53``, well inside ``16 d**2 2**-52``.  So the
    residual itself (one more product) is computed only when
    ``2 |raw - p|_1 <= tol + 16 d**2 2**-52``; every other iteration has a
    residual above ``tol`` and would not have stopped.  Iterates, stopping
    iteration and result are bit for bit those of computing the residual
    every time.

    A transient state that drains slowly (second eigenvalue 0.9998, say)
    can exhaust ``max_iterations`` before the residual reaches ``tol``; only
    then the lazy matrix is squared 64 times (``2**64`` steps), with rows
    renormalised, and the uniform start is mapped through the result.
    ``PowerIterationError`` is raised only if this vector also misses
    ``tol``, by its residual or its closing gap.  Inputs that converge
    within the cap never reach this branch.
    """
    product = cycle_product(cycle, len(cycle[0]))[0]
    d = product.shape[0]
    lazy = 0.5 * (product + _identity(d))
    screen = tol + 16 * d * d * 2.0**-52
    xs = (np.full(d, 1.0 / d) @ lazy).tolist()
    total = 0.0
    for x in xs:
        total += x
    for _ in range(max_iterations):
        ps = [x / total for x in xs]
        p = np.array(ps)
        xs = p.dot(lazy).tolist()
        total = 0.0
        gap = 0.0
        for x, y in zip(xs, ps):
            total += x
            gap += abs(x - y)
        if gap + gap <= screen:
            residual = 0.0
            for x, y in zip((p @ product).tolist(), ps):
                residual += abs(x - y)
            if residual <= tol:
                starts, closing = _along(p, cycle)
                if closing <= tol:
                    break
    else:
        limit = lazy
        for _ in range(64):
            limit = limit @ limit
            limit /= limit.sum(axis=1, keepdims=True)
        p = np.full(d, 1.0 / d) @ limit
        p /= p.sum()
        starts, closing = _along(p, cycle)
        residual = max(float(np.abs(p @ product - p).sum()), closing)
        if residual > tol:
            raise PowerIterationError("stationary vector iteration stalled", residual)
    return starts, _closed_classes(product > 0) == 1


def _along(p: np.ndarray, cycle: Sequence[np.ndarray]) -> tuple[list[np.ndarray], float]:
    """The starts ``p, p Q_0, p Q_0 Q_1, ..`` along ``cycle = (Q_0, .., Q_{L-1})``
    and the L1 gap by which the last one pushed through ``Q_{L-1}`` misses
    ``p``: bit for bit the orbit residual of :func:`invariance_residual` at
    the cycle's last point.  Fewer than two points give ``[p]`` and 0.0."""
    starts = [p]
    for q in cycle[:-1]:
        starts.append(starts[-1] @ q)
    if len(cycle) < 2:
        return starts, 0.0
    pushed = (starts[-1] @ cycle[-1]).tolist()
    return starts, _numpy_sum([abs(t - x) for t, x in zip(p.tolist(), pushed)])


@functools.lru_cache(maxsize=8)
def _identity(d: int) -> np.ndarray:
    """The read-only ``d x d`` identity, built once per size."""
    eye = np.eye(d)
    eye.setflags(write=False)
    return eye


def _closed_classes(support: np.ndarray) -> int:
    """Number of strongly connected components with no outgoing edge."""
    return _closed_classes_of(support.shape[0], support.tobytes())


@functools.lru_cache(maxsize=1024)
def _closed_classes_of(d: int, support: bytes) -> int:
    """:func:`_closed_classes` of the ``d x d`` boolean matrix with these
    bytes; a search meets the same few support patterns again and again."""
    matrix = np.frombuffer(support, dtype=bool).reshape(d, d)
    rows = matrix.tolist()
    comps = strongly_connected_components(matrix)
    comp_of = [0] * len(rows)
    for c, members in enumerate(comps):
        for v in members:
            comp_of[v] = c
    closed = 0
    for c, members in enumerate(comps):
        if not any(
            x and comp_of[w] != c for v in members for w, x in enumerate(rows[v])
        ):
            closed += 1
    return closed


def check_transition(bundle: SymbolicBundle, omega: int, q: np.ndarray) -> None:
    """Raise :class:`MeasureError` naming the fiber when the float matrix
    ``q`` fails a transition check (:func:`_transition_fault`) at ``omega``;
    :func:`stationary_starts` checks every new matrix so."""
    fault = _transition_fault(q, bundle.adjacency[omega], bundle.alphabet_size)
    label = bundle.base.labels[omega]
    if fault in ("shape", "sign"):
        raise MeasureError(f"fiber {label}: bad transition matrix")
    if fault == "support":
        raise MeasureError(f"fiber {label}: transition mass on a forbidden edge")
    if fault == "rows":
        raise MeasureError(f"fiber {label}: rows must sum to 1")


def stationary_starts(
    bundle: SymbolicBundle,
    transitions: Sequence[np.ndarray],
    *,
    previous: MarkovMeasure | None = None,
) -> MarkovMeasure:
    """Solve the orbit-consistency fixed point for the given transition family.

    Per theta-cycle ``(w, theta w, ..)`` the start at ``w`` is a stationary
    vector of the cycle product ``Q(w) Q(theta w) ...``, found by damped power
    iteration from the uniform vector (see :func:`_stationary_of`, including
    its fallback when its iteration cap runs out), and successive starts
    propagate along the cycle, closing it within ``NORM_TOL``.  A reducible
    cycle product is flagged ``"non-unique stationary start"`` and the
    uniform-start limit is used.

    ``previous`` is an earlier result of this function for the same bundle.
    A cycle whose transition matrices are byte-equal to ``previous``'s takes
    its starts and its flag from ``previous`` instead of being solved again;
    the result is bit-for-bit what a fresh solve gives.  A search that edits
    one fiber at a time thus solves only the cycle it changed.

    Every fiber's transition matrix is checked on entry (shape, sign,
    support, row sums; a NaN entry fails the row sums), except a fiber whose
    matrix has the shape and bytes of ``previous``'s when ``previous`` has
    checked transitions: any result of this function, or a measure built
    with ``MarkovMeasure(check=True)``.  Such a fiber passed the same checks
    before; an unchecked ``previous``'s fibers are all checked again.  The
    result is then built without copying the arrays made here and without
    the constructor's checks, except those left to run: the start-vector
    checks and the orbit consistency residual over all fibers, with the
    constructor's messages.
    """
    base = bundle.base
    qs = [np.array(q, dtype=float) for q in transitions]
    if len(qs) != base.omega_count:
        raise MeasureError("need one transition matrix per fiber")
    if previous is not None and previous.bundle is not bundle:
        raise MeasureError("previous measure belongs to another bundle")
    trusted = previous is not None and previous._checked
    for omega, q in enumerate(qs):
        if trusted:
            old = previous.transitions[omega]
            if q.shape == old.shape and q.tobytes() == old.tobytes():
                qs[omega] = old
                continue
        check_transition(bundle, omega, q)
        q.setflags(write=False)
    starts: list[np.ndarray | None] = [None] * base.omega_count
    flags: list[str] = []
    for cyc in base.cycles():
        flag = f"non-unique stationary start on cycle {cyc}"
        if previous is not None and all(
            qs[w].tobytes() == previous.transitions[w].tobytes() for w in cyc
        ):
            if flag in previous.flags:
                flags.append(flag)
            for w in cyc:
                starts[w] = previous.starts[w]
            continue
        along, unique = _stationary_of([qs[w] for w in cyc])
        if not unique:
            flags.append(flag)
        for w, p in zip(cyc, along):
            p.setflags(write=False)
            starts[w] = p
    mu = MarkovMeasure._adopt(bundle, tuple(qs), tuple(starts), tuple(flags))
    mu._validate_starts()
    return mu


def parry_measure(bundle: SymbolicBundle) -> MarkovMeasure:
    """The random Parry family: an invariant Markov family whose chain-rule
    rate is the integrated spectral rate of
    :func:`~rdelab.base.cycle_growth_rate`, the largest fiber entropy any
    invariant Markov family has (Parry, "Intrinsic Markov chains", TAMS
    1964; Bogenschuetz and Gundlach, ETDS 1995).

    Per theta-cycle ``(w_0, .., w_{L-1})`` with adjacency matrices ``A_i``,
    the cycle product ``M = A_0 .. A_{L-1}`` comes from
    :func:`~rdelab.base.cycle_product`.  Its strongly connected block of
    largest radius ``rho`` comes from :func:`~rdelab.base.perron_block`, the
    routine behind :func:`~rdelab.base.spectral_radius` (per-block numpy
    ``eigvals``; ties go to the first block in component order), and its
    right and left Perron vectors ``r`` and ``l`` (numpy ``eig``) are zero
    off the block.  ``r_0 = r`` is carried backward, ``r_i`` proportional
    to ``A_i r_{i+1}`` (indices mod ``L``), and ``l_0 = l`` forward,
    ``l_i`` proportional to ``l_{i-1} A_{i-1}``.  The transitions are
    ``Q_i(a, b) = A_i(a, b) r_{i+1}(b) / (A_i r_{i+1})(a)`` and the start at
    ``w_i`` is ``l_i r_i``, normalised.  Once round the
    cycle ``r`` becomes ``M r`` and ``l`` becomes ``l M``; on the block these
    are ``rho r`` and ``rho l``, and off it they meet a zero of ``l`` or
    ``r``, so the starts are orbit consistent.  A row whose denominator is
    zero has no start mass and gets its uniform admissible row.  Each cycle
    then has chain-rule rate ``(1/L) ln rho``.

    The result comes from the checking :class:`MarkovMeasure` constructor,
    so support, row sums and the orbit residual are checked.
    """
    d = bundle.alphabet_size
    transitions: list[np.ndarray | None] = [None] * bundle.base.omega_count
    starts: list[np.ndarray | None] = [None] * bundle.base.omega_count
    for cyc in bundle.base.cycles():
        mats = [bundle.adjacency[w].astype(float) for w in cyc]
        product = cycle_product(mats, d)[0]
        block = perron_block(product)[1]
        sub = product[np.ix_(block, block)]
        r = np.zeros(d)
        l = np.zeros(d)
        r[block] = _perron_vector(sub)
        l[block] = _perron_vector(sub.T)
        rs = [r] * len(cyc)
        for i in range(len(cyc) - 1, 0, -1):
            rs[i] = _normalised(mats[i] @ rs[(i + 1) % len(cyc)])
        ls = [l]
        for a in mats[:-1]:
            ls.append(_normalised(ls[-1] @ a))
        for i, w in enumerate(cyc):
            weighted = mats[i] * rs[(i + 1) % len(cyc)]
            mass = weighted.sum(axis=1, keepdims=True)
            q = mats[i] / mats[i].sum(axis=1, keepdims=True)
            np.divide(weighted, mass, out=q, where=mass > 0)
            transitions[w] = q
            starts[w] = _normalised(ls[i] * rs[i])
    return MarkovMeasure(bundle=bundle, transitions=tuple(transitions), starts=tuple(starts))


def _perron_vector(block: np.ndarray) -> np.ndarray:
    """The nonnegative eigenvector, summing to one, of the eigenvalue of
    largest real part of an irreducible nonnegative matrix: its Perron
    root."""
    values, vectors = np.linalg.eig(block)
    return _normalised(np.abs(vectors[:, np.argmax(values.real)].real))


def _normalised(v: np.ndarray) -> np.ndarray:
    return v / v.sum()


def invariance_residual(mu: MarkovMeasure) -> float:
    """Largest L1 gap ``max_w |p(theta w) - p(w) Q(w)|_1``; zero means invariant.

    The push ``p(w) Q(w)`` is a numpy product; the gap is added in Python
    floats in numpy's order (:func:`_numpy_sum`).
    """
    base = mu.bundle.base
    worst = 0.0
    for omega in range(base.omega_count):
        pushed = (mu.starts[omega] @ mu.transitions[omega]).tolist()
        target = mu.starts[base.theta[omega]].tolist()
        gap = _numpy_sum([abs(t - x) for t, x in zip(target, pushed)])
        worst = max(worst, gap)
    return worst


def markov_to_word(mu: MarkovMeasure, horizon: int) -> WordMeasure:
    """Materialize the Markov family on the window [0, horizon).

    The weight of word ``w`` in fiber ``omega`` is
    ``p(omega)[w0] * prod_i Q(theta^i omega)[w_i, w_{i+1}]``; stochasticity
    makes the normalization exact.
    """
    if horizon < 1:
        raise MeasureError("horizon must be at least 1")
    base = mu.bundle.base
    tables = []
    for omega in range(base.omega_count):
        table: dict[WordTuple, float] = {}
        for w in admissible_tuples(mu.bundle, omega, 0, horizon):
            x = mu.starts[omega][w[0]]
            point = omega
            for i in range(horizon - 1):
                x *= mu.transitions[point][w[i], w[i + 1]]
                if x == 0.0:
                    break
                point = base.theta[point]
            if x > 0.0:
                table[w] = float(x)
        tables.append(table)
    return WordMeasure(bundle=mu.bundle, horizon=horizon, weights=tuple(tables))


def pushforward(nu: WordMeasure) -> WordMeasure:
    """One step of the skew product: drop the first coordinate, advance fibers.

    The result lives at horizon ``H - 1``; the weight of ``w`` in fiber
    ``theta omega`` is the sum of the weights of ``a + w`` in fiber ``omega``.
    """
    if nu.horizon < 2:
        raise MeasureError("horizon exhausted: cannot push a 1-coordinate measure")
    base = nu.bundle.base
    tables: list[dict[WordTuple, float]] = [dict() for _ in range(base.omega_count)]
    for omega in range(base.omega_count):
        target = tables[base.theta[omega]]
        for w, x in nu.weights[omega].items():
            tail = w[1:]
            target[tail] = target.get(tail, 0.0) + x
    return WordMeasure(bundle=nu.bundle, horizon=nu.horizon - 1, weights=tuple(tables))


def pushforward_markov(mu: MarkovMeasure) -> MarkovMeasure:
    """Skew-product image of a Markov family: transitions kept, starts advanced.

    The start at ``theta w`` becomes ``p(w) Q(w)``; for an orbit-consistent
    family this is the identity, which is exactly invariance.
    """
    base = mu.bundle.base
    starts: list[np.ndarray] = [None] * base.omega_count  # type: ignore[list-item]
    for omega in range(base.omega_count):
        starts[base.theta[omega]] = mu.starts[omega] @ mu.transitions[omega]
    return MarkovMeasure(
        bundle=mu.bundle,
        transitions=mu.transitions,
        starts=tuple(starts),
        flags=mu.flags,
        check=False,
    )


def restrict(nu: WordMeasure, horizon: int) -> WordMeasure:
    """Marginal of the word measure on the shorter window [0, horizon)."""
    if horizon == nu.horizon:
        return nu
    if not 1 <= horizon < nu.horizon:
        raise MeasureError("restriction horizon must be in [1, H]")
    tables = []
    for omega in range(nu.bundle.base.omega_count):
        tables.append(nu.window_masses(omega, 0, horizon))
    return WordMeasure(bundle=nu.bundle, horizon=horizon, weights=tuple(tables))


def mix(measures: Sequence[WordMeasure], coefficients: Sequence[float]) -> WordMeasure:
    """Convex combination of word measures sharing one horizon."""
    if not measures:
        raise MeasureError("need at least one measure")
    horizons = {nu.horizon for nu in measures}
    if len(horizons) != 1:
        raise MeasureError(f"horizon mismatch: {sorted(horizons)}")
    if len(coefficients) != len(measures):
        raise MeasureError("need one coefficient per measure")
    coeffs = [float(c) for c in coefficients]
    # written so that a NaN coefficient fails too
    if any(not c >= 0 for c in coeffs) or not abs(plain_sum(coeffs) - 1.0) <= NORM_TOL:
        raise MeasureError("coefficients must lie on the probability simplex")
    bundle = measures[0].bundle
    tables: list[dict[WordTuple, float]] = [dict() for _ in range(bundle.base.omega_count)]
    for nu, c in zip(measures, coeffs):
        if c == 0.0:
            continue
        for omega in range(bundle.base.omega_count):
            t = tables[omega]
            for w, x in nu.weights[omega].items():
                t[w] = t.get(w, 0.0) + c * x
    return WordMeasure(bundle=bundle, horizon=measures[0].horizon, weights=tuple(tables))
