"""Finite driving systems and the random subshift bundles they carry.

The model is a finite probability space with an invertible measure-preserving
permutation ``theta``, together with one 0/1 transition matrix per base point.
Each fiber is the two-sided sequence space whose step-``i`` transitions are
read from the matrix attached to ``theta^i(omega)``; the fiber map is the left
shift, which carries the fiber over ``omega`` bijectively onto the fiber over
``theta(omega)``.  All computations touch only finitely many coordinates.

Every type here is frozen after construction and every operation returns
the same value for the same inputs.  The mutable parts are each bundle's
memo of admissible word lists (``_word_cache``), filled on first use and
never evicted, and each base's theta-cycles, found on the first
``cycles()`` call; entries are only ever added, whole, so concurrent readers
see either no entry or a complete one.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from decimal import Decimal

import numpy as np

WEIGHT_TOL = 1e-12

__all__ = [
    "WEIGHT_TOL",
    "BundleError",
    "PowerIterationError",
    "ProbBase",
    "SymbolicBundle",
    "Word",
    "Violation",
    "ValidationReport",
    "validate",
    "admissible_words",
    "plain_sum",
    "theta_cycles",
    "transfer_count",
    "word_count",
    "CycleRate",
    "CycleRates",
    "cycle_product",
    "cycle_growth_rate",
    "spectral_radius",
]


class BundleError(ValueError):
    """A driving system or bundle violates a structural invariant."""


class PowerIterationError(RuntimeError):
    """Power iteration failed to reach the requested residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual={residual:.3e})")
        self.message = message
        self.residual = residual

    def __reduce__(self):
        # rebuilt from the constructor's arguments, so it survives pickling
        return type(self), (self.message, self.residual), self.__dict__


@dataclass(frozen=True)
class ProbBase:
    """Finite probability space with an invertible measure-preserving map.

    Parameters
    ----------
    weights : per-point probabilities; strictly positive, summing to one.
    theta : permutation of ``range(len(weights))`` given as an image table.
    labels : optional display names, one per point.
    """

    weights: tuple[float, ...]
    theta: tuple[int, ...]
    labels: tuple[str, ...] = ()
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        object.__setattr__(self, "theta", tuple(int(t) for t in self.theta))
        if not self.labels:
            object.__setattr__(
                self, "labels", tuple(f"w{i}" for i in range(len(self.weights)))
            )
        else:
            object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        if check:
            problems = _base_violations(self)
            if problems:
                raise BundleError("; ".join(v.message for v in problems))

    @property
    def omega_count(self) -> int:
        return len(self.weights)

    def apply_theta(self, omega: int, power: int = 1) -> int:
        """Image of ``omega`` under ``theta`` iterated ``power`` times (power >= 0)."""
        for _ in range(power):
            omega = self.theta[omega]
        return omega

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Orbits of ``theta``, each starting at its smallest member; found on
        the first call and kept, since a frozen base's orbits never change."""
        hit = self.__dict__.get("_cycles")
        if hit is None:
            hit = theta_cycles(self.theta)
            object.__setattr__(self, "_cycles", hit)
        return hit


def theta_cycles(theta: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Orbits of the permutation ``theta`` (an image table), each starting at
    its smallest member, in the order of those members."""
    seen = [False] * len(theta)
    cycles = []
    for start in range(len(theta)):
        if seen[start]:
            continue
        cyc = []
        w = start
        while not seen[w]:
            seen[w] = True
            cyc.append(w)
            w = theta[w]
        cycles.append(tuple(cyc))
    return tuple(cycles)


def plain_sum(values) -> float:
    """Add floats one at a time from left to right, starting from ``0.0``.

    Builtin ``sum`` compensates float rounding from Python 3.12 on, so sums
    that reach a report use this to give the same bits on every interpreter.
    """
    total = 0.0
    for x in values:
        total += x
    return total


@dataclass(frozen=True, eq=False)
class SymbolicBundle:
    """Per-fiber 0/1 transition matrices over a common finite alphabet.

    ``adjacency[omega][a, b] == 1`` allows symbol ``b`` to follow symbol ``a``
    at the step read off at base point ``omega``.  Construction requires every
    row and every column of every matrix to contain a one ("no dead symbols"),
    which makes each fiber nonempty and every admissible finite word the
    restriction of a bi-infinite point of the fiber.  Pass ``check=False`` to
    build a possibly broken bundle for diagnosis with :func:`validate`.
    """

    base: ProbBase
    alphabet: tuple[str, ...]
    adjacency: tuple[np.ndarray, ...]
    check: InitVar[bool] = True

    def __post_init__(self, check: bool):
        mats = []
        for a in self.adjacency:
            m = np.array(a, dtype=np.int8)
            m.setflags(write=False)
            mats.append(m)
        object.__setattr__(self, "adjacency", tuple(mats))
        object.__setattr__(self, "alphabet", tuple(str(s) for s in self.alphabet))
        object.__setattr__(self, "_word_cache", {})
        if check:
            problems = _base_violations(self.base) + _bundle_violations(self)
            if problems:
                raise BundleError("; ".join(v.message for v in problems))

    @property
    def alphabet_size(self) -> int:
        return len(self.alphabet)

    def matrix_at(self, omega: int, coordinate: int) -> np.ndarray:
        """Transition matrix constraining coordinates (c, c+1) in fiber ``omega``."""
        return self.adjacency[self.base.apply_theta(omega, coordinate)]


@dataclass(frozen=True, order=True)
class Word:
    """A finite symbol block positioned on the half-open span [start, stop)."""

    symbols: tuple[int, ...]
    start: int = 0

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(int(s) for s in self.symbols))
        if self.start < 0:
            raise ValueError("word span must start at a nonnegative coordinate")

    @property
    def stop(self) -> int:
        return self.start + len(self.symbols)

    @property
    def length(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    omega: int | None = None
    index: int | None = None


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[Violation, ...]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "problems": [
                {k: v for k, v in vars(p).items() if v is not None}
                for p in self.problems
            ],
        }


def _base_violations(base: ProbBase) -> list[Violation]:
    out: list[Violation] = []
    n = len(base.weights)
    if n == 0:
        return [Violation("empty-base", "probability base has no points")]
    if sorted(base.theta) != list(range(n)):
        out.append(Violation("theta-not-bijective", "theta is not a permutation"))
        return out
    if not all(math.isfinite(w) for w in base.weights):
        out.append(Violation("weight-not-finite", "weights must be finite numbers"))
    if any(w <= 0 for w in base.weights):
        out.append(Violation("weight-not-positive", "weights must be strictly positive"))
    if abs(sum(base.weights) - 1.0) > WEIGHT_TOL:
        out.append(
            Violation(
                "weights-not-normalized",
                f"weights sum to {sum(base.weights)!r}, expected 1 within {WEIGHT_TOL}",
            )
        )
    for w in range(n):
        if abs(base.weights[base.theta[w]] - base.weights[w]) > WEIGHT_TOL:
            out.append(
                Violation(
                    "not-theta-invariant",
                    f"P not theta-invariant: weight differs along the orbit of "
                    f"{base.labels[w]}",
                    omega=w,
                )
            )
            break
    return out


def _bundle_violations(bundle: SymbolicBundle) -> list[Violation]:
    out: list[Violation] = []
    d = bundle.alphabet_size
    if d < 1:
        return [Violation("empty-alphabet", "alphabet must be nonempty")]
    if len(bundle.adjacency) != bundle.base.omega_count:
        out.append(
            Violation(
                "adjacency-count",
                "need exactly one adjacency matrix per base point",
            )
        )
        return out
    for omega, mat in enumerate(bundle.adjacency):
        name = bundle.base.labels[omega]
        if mat.shape != (d, d):
            out.append(
                Violation(
                    "bad-shape",
                    f"adjacency of fiber {name} has shape {mat.shape}, expected {(d, d)}",
                    omega=omega,
                )
            )
            continue
        if not np.isin(mat, (0, 1)).all():
            out.append(
                Violation("not-binary", f"adjacency of fiber {name} has entries outside 0/1", omega=omega)
            )
            continue
        for r in range(d):
            if mat[r].sum() == 0:
                out.append(
                    Violation(
                        "dead-row",
                        f"fiber {name}: row {r} (symbol {bundle.alphabet[r]}) has no outgoing edge",
                        omega=omega,
                        index=r,
                    )
                )
        for c in range(d):
            if mat[:, c].sum() == 0:
                out.append(
                    Violation(
                        "dead-column",
                        f"fiber {name}: column {c} (symbol {bundle.alphabet[c]}) has no incoming edge",
                        omega=omega,
                        index=c,
                    )
                )
    return out


def validate(bundle: SymbolicBundle) -> ValidationReport:
    """Run every structural invariant and report violations without raising."""
    problems = tuple(_base_violations(bundle.base) + _bundle_violations(bundle))
    return ValidationReport(ok=not problems, problems=problems)


def admissible_tuples(
    bundle: SymbolicBundle, omega: int, start: int, length: int
) -> tuple[tuple[int, ...], ...]:
    """Sorted tuple of admissible symbol blocks on [start, start+length) in fiber omega.

    A block ``w`` qualifies when every consecutive pair is allowed by the
    matrix read at the pair's left coordinate.  Cached on the bundle.
    """
    if length < 1:
        raise ValueError("span must contain at least one coordinate")
    if start < 0:
        raise ValueError("span must start at a nonnegative coordinate")
    key = (omega, start, length)
    cache = bundle._word_cache
    hit = cache.get(key)
    if hit is not None:
        return hit
    d = bundle.alphabet_size
    words: list[tuple[int, ...]] = [(a,) for a in range(d)]
    for offset in range(length - 1):
        mat = bundle.matrix_at(omega, start + offset)
        words = [w + (b,) for w in words for b in range(d) if mat[w[-1], b]]
    result = tuple(sorted(words))
    cache[key] = result
    return result


def admissible_words(
    bundle: SymbolicBundle, omega: int, span: tuple[int, int]
) -> tuple[Word, ...]:
    """Admissible :class:`Word` objects of fiber ``omega`` on the span [s, e)."""
    s, e = span
    if e <= s:
        raise ValueError(f"empty span {span!r} rejected")
    return tuple(Word(w, s) for w in admissible_tuples(bundle, omega, s, e - s))


def transfer_count(matrices, width: int) -> int:
    """Exact total of all entries of the 0/1 matrix product ``M_0 ... M_{m-1}``
    (``width`` columns; ``width`` itself when there is no matrix).  Multiplied
    from the right, so the accumulator stays a vector of path counts.
    """
    vec = [1] * width
    for mat in reversed(matrices):
        vec = [sum(x * y for x, y in zip(row, vec)) for row in mat.tolist()]
    return sum(vec)


def word_count(bundle: SymbolicBundle, omega: int, n: int) -> int:
    """Exact number of admissible length-``n`` blocks starting at coordinate 0.

    Equals the total of all entries of the transfer product
    ``A(omega) A(theta omega) ... A(theta^{n-2} omega)``; for ``n == 1`` it is
    the alphabet size.
    """
    if n < 1:
        raise ValueError("word length must be at least 1")
    mats = [bundle.matrix_at(omega, c) for c in range(n - 1)]
    return transfer_count(mats, bundle.alphabet_size)


def strongly_connected_components(support: np.ndarray) -> list[list[int]]:
    """Strongly connected components of a boolean adjacency matrix (Tarjan)."""
    rows = support.tolist()
    d = len(rows)
    index = [0] * d
    low = [0] * d
    onstack = [False] * d
    comp = [-1] * d
    stack: list[int] = []
    counter = [1]
    comps: list[list[int]] = []

    def connect(v0: int):
        work = [(v0, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                index[v] = low[v] = counter[0]
                counter[0] += 1
                stack.append(v)
                onstack[v] = True
            advanced = False
            row = rows[v]
            for w in range(pi, d):
                if not row[w]:
                    continue
                if index[w] == 0:
                    work.append((v, w + 1))
                    work.append((w, 0))
                    advanced = True
                    break
                if onstack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            if low[v] == index[v]:
                members = []
                while True:
                    w = stack.pop()
                    onstack[w] = False
                    comp[w] = len(comps)
                    members.append(w)
                    if w == v:
                        break
                comps.append(sorted(members))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])

    for v in range(d):
        if index[v] == 0:
            connect(v)
    return comps


def _power_radius_irreducible(
    matrix: np.ndarray, tol: float, max_iterations: int
) -> float:
    """Power iteration on an irreducible nonnegative block.

    Iterates on ``matrix + I`` (same Perron vector, radius shifted by one),
    which is primitive, so convergence is geometric; the Rayleigh quotient is
    returned once the residual drops below ``tol``.  The block is divided by
    its entry sum; if that sum overflows, the block is first divided by a
    power of two ``2**e`` (exact) and ``e`` is put back into the result.
    Raises :class:`OverflowError` when the radius itself is past the float
    range.
    """
    n = matrix.shape[0]
    if n == 1:
        return float(matrix[0, 0])
    shifted = matrix + np.eye(n)
    with np.errstate(over="ignore"):
        scale = shifted.sum()
    exponent = 0
    if not math.isfinite(scale):
        exponent = math.frexp(float(shifted.max()))[1]
        shifted = np.ldexp(shifted, -exponent)
        scale = shifted.sum()
    shifted = shifted / scale
    vec = np.full(n, 1.0 / math.sqrt(n))
    residual = math.inf
    for _ in range(max_iterations):
        nxt = shifted @ vec
        nxt /= float(np.linalg.norm(nxt))
        lam = float(nxt @ (shifted @ nxt))
        residual = float(np.linalg.norm(shifted @ nxt - lam * nxt))
        vec = nxt
        if residual <= tol:
            with np.errstate(over="ignore"):
                radius = np.ldexp(lam * scale, exponent) - 1.0
            if not math.isfinite(radius):
                approx = Decimal(lam * scale) * 2**exponent
                raise OverflowError(
                    f"spectral radius about {approx:.3e} exceeds the float range"
                )
            return radius
    raise PowerIterationError("power iteration did not converge", residual=residual)


def spectral_radius(
    matrix: np.ndarray, tol: float = 1e-12, max_iterations: int = 100_000
) -> float:
    """Spectral radius of a nonnegative matrix by power iteration.

    The matrix is first split into strongly connected components (the radius
    of a nonnegative matrix is the maximum over its irreducible diagonal
    blocks); each block is handled by power iteration, which converges
    geometrically there.  A radius past the float range raises
    :class:`OverflowError`.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("spectral radius needs a square matrix")
    if (m < 0).any():
        raise ValueError("matrix must be nonnegative")
    best = 0.0
    for comp in strongly_connected_components(m > 0):
        sub = m[np.ix_(comp, comp)]
        best = max(best, _power_radius_irreducible(sub, tol, max_iterations))
    return best


@dataclass(frozen=True)
class CycleRate:
    omegas: tuple[int, ...]
    rate: float
    mass: float


@dataclass(frozen=True)
class CycleRates:
    cycles: tuple[CycleRate, ...]
    integrated: float

    def to_dict(self) -> dict:
        return {
            "integrated": self.integrated,
            "cycles": [
                {"omegas": list(c.omegas), "rate": c.rate, "mass": c.mass}
                for c in self.cycles
            ],
        }


_RESCALE_ABOVE = 2.0**256


def cycle_product(factors, size: int) -> tuple[np.ndarray, int]:
    """Product ``F_0 F_1 ... F_{L-1}`` of square float matrices as ``(M, e)``
    with the product equal to ``M * 2**e``: the running product is divided by
    ``2**e`` (exact) whenever its largest entry passes ``2**256``, so long
    cycles stay finite, and ``e == 0`` when that never happens.

    The running product starts as a C-ordered float copy of ``F_0``, equal
    to ``I F_0`` when ``F_0`` is finite (save that ``I F_0`` turns a ``-0.0``
    entry into ``0.0``); ``size`` gives the identity an empty product returns.
    """
    prod = None
    exponent = 0
    for f in factors:
        prod = np.array(f, dtype=float, order="C") if prod is None else prod @ f
        top = float(prod.max())
        if top > _RESCALE_ABOVE:
            e = math.frexp(top)[1]
            prod = np.ldexp(prod, -e)
            exponent += e
    if prod is None:
        return np.eye(size), 0
    return prod, exponent


def cycle_growth_rate(
    bundle: SymbolicBundle, tol: float = 1e-12, max_iterations: int = 100_000
) -> CycleRates:
    """Exponential word-growth rate (nats/step) per theta-cycle and integrated.

    For a cycle of length ``L`` through ``omega`` the rate is
    ``(1/L) * ln(spectral radius of A(omega) ... A(theta^{L-1} omega))``; the
    integrated rate weights each cycle by its total probability mass.  On long
    cycles the product is rescaled by :func:`cycle_product` and ``e * ln 2``
    is added back to the log radius.
    """
    cycles = []
    integrated = 0.0
    for cyc in bundle.base.cycles():
        prod, exponent = cycle_product(
            (bundle.adjacency[w].astype(float) for w in cyc), bundle.alphabet_size
        )
        rho = spectral_radius(prod, tol=tol, max_iterations=max_iterations)
        # adding 0.0 when nothing was rescaled is exact, so short cycles keep
        # their bits
        log_rho = math.log(rho) + exponent * math.log(2) if rho > 0 else -math.inf
        rate = log_rho / len(cyc)
        mass = plain_sum(bundle.base.weights[w] for w in cyc)
        cycles.append(CycleRate(omegas=cyc, rate=rate, mass=mass))
        integrated += mass * rate
    return CycleRates(cycles=tuple(cycles), integrated=integrated)
