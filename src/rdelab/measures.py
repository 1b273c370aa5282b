"""Fibered measures over a random subshift bundle.

Two representations are used.  A :class:`MarkovMeasure` is an invariant-style
family: one row-stochastic matrix per base point (supported on the allowed
transitions) plus one start vector per base point, tied together by the orbit
consistency equation ``p(theta w) = p(w) Q(w)``.  That equation is exactly
invariance of the induced fibered measure under the skew product.  A
:class:`WordMeasure` is a horizon-limited disintegration: per fiber, a
probability weight on the admissible words of a fixed window ``[0, H)``.

Everything is a pure value; nothing here mutates shared state.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import Mapping, Sequence

import numpy as np

from .base import (
    PowerIterationError,
    SymbolicBundle,
    admissible_tuples,
    cycle_product,
    strongly_connected_components,
)

__all__ = [
    "MeasureError",
    "MarkovMeasure",
    "WordMeasure",
    "stationary_starts",
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

    * ``Q[w][a, b] > 0`` only where the bundle allows the transition;
    * every row of every ``Q[w]`` sums to one within ``NORM_TOL``;
    * ``p[theta w] == p[w] @ Q[w]`` within ``NORM_TOL`` per entry sum.

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

    def _validate(self):
        d = self.bundle.alphabet_size
        base = self.bundle.base
        if len(self.transitions) != base.omega_count or len(self.starts) != base.omega_count:
            raise MeasureError("need one transition matrix and one start per fiber")
        for omega, q in enumerate(self.transitions):
            if q.shape != (d, d):
                raise MeasureError(f"transition matrix of fiber {omega} has wrong shape")
            if (q < 0).any():
                raise MeasureError("transition probabilities must be nonnegative")
            if ((q > 0) & (self.bundle.adjacency[omega] == 0)).any():
                raise MeasureError(
                    f"fiber {base.labels[omega]}: transition mass on a forbidden edge"
                )
            if np.abs(q.sum(axis=1) - 1.0).max() > NORM_TOL:
                raise MeasureError(f"fiber {base.labels[omega]}: rows must sum to 1")
        self._validate_starts()

    def _validate_starts(self):
        """The start-vector checks and the orbit-consistency residual."""
        d = self.bundle.alphabet_size
        base = self.bundle.base
        for omega, p in enumerate(self.starts):
            if p.shape != (d,) or (p < 0).any() or abs(p.sum() - 1.0) > NORM_TOL:
                raise MeasureError(f"fiber {base.labels[omega]}: bad start vector")
        res = invariance_residual(self)
        if res > NORM_TOL:
            raise MeasureError(
                f"starts are not orbit consistent (residual {res:.3e}); "
                "use stationary_starts or check=False"
            )


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
                if x < 0:
                    raise MeasureError("weights must be nonnegative")
                if w not in adm:
                    raise MeasureError(
                        f"fiber {base.labels[omega]}: weight on inadmissible word {w}"
                    )
            # exact accumulation: long horizons hold many tiny weights
            total = math.fsum(per.values())
            if abs(total - 1.0) > NORM_TOL:
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


def _stationary_of(product: np.ndarray, tol: float, max_iterations: int) -> tuple[np.ndarray, bool]:
    """Stationary row vector of a row-stochastic matrix, from the uniform start.

    Iterates on the half-lazy matrix ``(M + I)/2`` (same fixed vectors, no
    periodicity) until the L1 residual ``|p M - p|_1`` is at most ``tol``.
    Returns the vector and whether the stationary vector is unique, decided
    by counting closed communicating classes of the support graph.

    Both vector-matrix products are numpy ``@`` calls (BLAS may round them
    with fused multiply-adds, which a Python product would not reproduce);
    the normalising sum and the residual are added term by term from left
    to right in Python floats, which is exactly how numpy sums fewer than
    eight entries.  Builtin ``sum`` (compensated from Python 3.12 on) and
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
    ``tol``.  Inputs that converge within the cap never reach this branch.
    """
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


def _closed_classes(support: np.ndarray) -> int:
    """Number of strongly connected components with no outgoing edge."""
    rows = support.tolist()
    comps = strongly_connected_components(support)
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


def stationary_starts(
    bundle: SymbolicBundle,
    transitions: Sequence[np.ndarray],
    tol: float = 1e-12,
    max_iterations: int = 100_000,
    *,
    previous: MarkovMeasure | None = None,
) -> MarkovMeasure:
    """Solve the orbit-consistency fixed point for the given transition family.

    Per theta-cycle ``(w, theta w, ..)`` the start at ``w`` is a stationary
    vector of the cycle product ``Q(w) Q(theta w) ...``, found by damped power
    iteration from the uniform vector (see :func:`_stationary_of`, including
    its fallback when ``max_iterations`` runs out), and successive starts
    propagate along the cycle.  A reducible cycle product is flagged
    ``"non-unique stationary start"`` and the uniform-start limit is used.

    ``previous`` is an earlier result of this function for the same bundle,
    ``tol`` and ``max_iterations``.  A cycle whose transition matrices are
    byte-equal to ``previous``'s takes its starts and its flag from
    ``previous`` instead of being solved again; the result is bit-for-bit
    what a fresh solve gives.  A search that edits one fiber at a time thus
    solves only the cycle it changed.

    Every fiber's transition matrix is checked on entry (shape, sign,
    support, row sums), ``previous`` or not.  The result is then built with
    ``check=False``, which is safe because the only constructor checks left
    are run on it explicitly: the start-vector checks and the orbit
    consistency residual over all fibers, with the constructor's messages.
    The constructor's transition checks would only repeat the entry checks
    on copies of the same arrays.
    """
    base = bundle.base
    qs = [np.array(q, dtype=float) for q in transitions]
    if len(qs) != base.omega_count:
        raise MeasureError("need one transition matrix per fiber")
    if previous is not None and previous.bundle is not bundle:
        raise MeasureError("previous measure belongs to another bundle")
    for omega, q in enumerate(qs):
        if q.shape != (bundle.alphabet_size,) * 2 or (q < 0).any():
            raise MeasureError(f"fiber {base.labels[omega]}: bad transition matrix")
        if ((q > 0) & (bundle.adjacency[omega] == 0)).any():
            raise MeasureError(
                f"fiber {base.labels[omega]}: transition mass on a forbidden edge"
            )
        if np.abs(q.sum(axis=1) - 1.0).max() > NORM_TOL:
            raise MeasureError(f"fiber {base.labels[omega]}: rows must sum to 1")
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
        prod = cycle_product((qs[w] for w in cyc), bundle.alphabet_size)[0]
        p, unique = _stationary_of(prod, tol, max_iterations)
        if not unique:
            flags.append(flag)
        starts[cyc[0]] = p
        for w in cyc[:-1]:
            p = p @ qs[w]
            starts[base.theta[w]] = p
    mu = MarkovMeasure(
        bundle=bundle,
        transitions=tuple(qs),
        starts=tuple(starts),
        flags=tuple(flags),
        check=False,
    )
    mu._validate_starts()
    return mu


def invariance_residual(mu: MarkovMeasure) -> float:
    """Largest L1 gap ``max_w |p(theta w) - p(w) Q(w)|_1``; zero means invariant."""
    base = mu.bundle.base
    worst = 0.0
    for omega in range(base.omega_count):
        pushed = mu.starts[omega] @ mu.transitions[omega]
        gap = float(np.abs(mu.starts[base.theta[omega]] - pushed).sum())
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
    if any(c < 0 for c in coeffs) or abs(sum(coeffs) - 1.0) > NORM_TOL:
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
