"""Witness measures and variational search for the entropy calculus.

``witness_measures`` runs the separated-set construction at a finite horizon:
pull the cover and a finite family of its product refinements ``n`` steps in,
pick a maximal multi-separated word set over ``n**2`` further steps, spread
the uniform measure on it over its admissible completions, and average the
resulting measure along the skew product.  Every counting inequality the
construction is designed to certify is evaluated numerically per fiber and
collected in the returned report; a floor hitting zero makes the bound vacuous
and is marked as such rather than asserted.  A separation check has two
floors: its ``vacuous`` flag is set only when both are zero (the check then
holds trivially); a single zero floor shows as a ``null`` ``rhs_pulled`` or
``rhs_submult`` in the JSON report, and that side is not tested.

``maximize_invariant_entropy`` is the search half: random-restart hill
climbing over the transition family, rows projected back onto their supported
simplices, scored by the exact or certified entropy rate.  It is a best-effort
optimizer; the gap to the topological reference is reported, never asserted.
"""

from __future__ import annotations

import itertools
import math
import os
import pickle
import signal
import threading
from dataclasses import dataclass

import numpy as np

from .base import SymbolicBundle, admissible_tuples
from .covercomb import cover_count, maximal_multi_separated
from .covers import (
    CoverError,
    PositionedCover,
    PositionedPartition,
    join_sequence,
    product_partitions_finer,
    pullback,
)
from .entropy import (
    VALUE_TOL,
    cover_conditional_entropy,
    partition_conditional_entropy,
    topological_cover_entropy,
    _chain_rule_rate,
    _pins_coordinate,
    shannon,
)
from .measures import (
    MarkovMeasure,
    WordMeasure,
    markov_to_word,
    mix,
    pushforward,
    restrict,
    stationary_starts,
)

__all__ = [
    "HorizonGuardError",
    "SeparationCheck",
    "AveragedCheck",
    "WitnessReport",
    "witness_measures",
    "MaximizeResult",
    "maximize_invariant_entropy",
]


class HorizonGuardError(RuntimeError):
    """The witness construction would exceed the configured horizon."""


@dataclass(frozen=True)
class SeparationCheck:
    """Entropy of the separated-set measure against one pulled partition join.

    ``lhs`` is the fiber entropy of the empirical measure over the atoms of
    the ``shift``-pulled join of refinement ``refinement``; the two right-hand
    sides are the log floors coming from the separated-set cardinality chain.
    A zero floor is stored as ``-inf`` (``null`` in JSON) and its side is not
    tested.  ``vacuous`` is true only when *both* floors are zero, so the
    check holds trivially; with one zero floor it is false and ``ok`` rests
    on the other side alone.
    """

    omega: int
    shift: int
    refinement: int
    lhs: float
    rhs_pulled: float
    rhs_submult: float
    vacuous: bool
    ok: bool


@dataclass(frozen=True)
class AveragedCheck:
    """Averaged-measure entropy bound for one refinement and block length."""

    refinement: int
    block: int
    lhs: float
    rhs: float
    vacuous: bool
    ok: bool


@dataclass(frozen=True)
class WitnessReport:
    n: int
    refinement_count: int
    cover_size: int
    horizon: int
    common_horizon: int
    separated_sizes: tuple[int, ...]
    pulled_counts: tuple[int, ...]
    full_counts: tuple[int, ...]
    separation_checks: tuple[SeparationCheck, ...]
    averaged_checks: tuple[AveragedCheck, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.separation_checks) and all(
            c.ok for c in self.averaged_checks
        )

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "refinement_count": self.refinement_count,
            "cover_size": self.cover_size,
            "horizon": self.horizon,
            "common_horizon": self.common_horizon,
            "separated_sizes": list(self.separated_sizes),
            "pulled_counts": list(self.pulled_counts),
            "full_counts": list(self.full_counts),
            "separation_checks": [_json_check(c) for c in self.separation_checks],
            "averaged_checks": [_json_check(c) for c in self.averaged_checks],
            "all_ok": self.all_ok,
        }


def _json_check(check) -> dict:
    """Fields of a check; a vacuous ``-inf`` floor becomes ``None`` (JSON null)."""
    return {k: None if v == -math.inf else v for k, v in vars(check).items()}


def _log_floor(value: int) -> tuple[float, bool]:
    """Natural log of a floor count; zero floors are vacuous lower bounds."""
    if value <= 0:
        return (-math.inf, True)
    return (math.log(value), False)


def witness_measures(
    bundle: SymbolicBundle, cover: PositionedCover, n: int, *, horizon_cap: int = 24
) -> tuple[dict[int, tuple], WordMeasure, WordMeasure, WitnessReport]:
    """Separated-set empirical measures and their finite-horizon certificates.

    Returns ``(separated_words_per_fiber, nu, mu, report)`` where ``nu`` is
    the empirical measure spread uniformly over the completions of each
    separated word, and ``mu`` is its skew-product average over
    ``n**2 + n`` steps, materialized at the largest common horizon.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not cover.product_form:
        raise CoverError("witness construction needs a product-form cover")
    if cover.start != 0:
        raise CoverError("witness construction expects a cover anchored at 0")
    m0 = cover.length
    span = n * n + n
    horizon = span + n + m0 - 1
    if horizon > horizon_cap:
        raise HorizonGuardError(
            f"witness horizon {horizon} exceeds the cap {horizon_cap}"
        )
    enum = product_partitions_finer(cover)
    refinements = list(itertools.islice(iter(enum), min(n, enum.count)))
    if not refinements:
        raise CoverError("no product refinements available")
    k_used = len(refinements)
    d = cover.element_count
    base = bundle.base

    pulled_cover = pullback(cover, n)
    pulled_refs = [pullback(r, n) for r in refinements]

    separated: dict[int, tuple] = {}
    pulled_counts: list[int] = []
    full_counts: list[int] = []
    for omega in range(base.omega_count):
        separated[omega] = maximal_multi_separated(
            bundle, omega, pulled_refs, pulled_cover, n * n
        )
        pulled_counts.append(cover_count(bundle, omega, pulled_cover, n * n))
        full_counts.append(cover_count(bundle, omega, cover, span))

    # empirical measure: uniform over separated words, split uniformly over
    # each word's admissible completions to the full horizon window
    core_start, core_len = n, span + m0 - 1 - n
    tables = []
    for omega in range(base.omega_count):
        core = set(separated[omega])
        groups: dict[tuple, list] = {w: [] for w in core}
        for u in admissible_tuples(bundle, omega, 0, horizon):
            r = u[core_start : core_start + core_len]
            if r in groups:
                groups[r].append(u)
        per: dict[tuple, float] = {}
        share = 1.0 / len(core)
        for w, completions in groups.items():
            # no-dead-symbols guarantees at least one completion
            piece = share / len(completions)
            for u in completions:
                per[u] = per.get(u, 0.0) + piece
        tables.append(per)
    nu = WordMeasure(bundle=bundle, horizon=horizon, weights=tuple(tables))

    separation_checks: list[SeparationCheck] = []
    # per refinement, its joins over 1..span steps
    join_seqs = [list(join_sequence(refinement, span)) for refinement in refinements]
    for shift in range(n + 1):
        for l, joins in enumerate(join_seqs):
            # the shifted range join is exactly the pullback of the base join
            joined = pullback(joins[-1], shift)
            for omega in range(base.omega_count):
                cell_of = joined.cell_of(omega)
                masses: dict[int, float] = {}
                for u, x in nu.weights[omega].items():
                    c = cell_of[u[joined.start : joined.stop]]
                    masses[c] = masses.get(c, 0.0) + x
                lhs = shannon(masses.values())
                rhs1, vac1 = _log_floor(pulled_counts[omega] // n)
                rhs2, vac2 = _log_floor(full_counts[omega] // (n * d**n))
                vac = vac1 and vac2
                ok = (vac1 or lhs >= rhs1 - VALUE_TOL) and (
                    vac2 or lhs >= rhs2 - VALUE_TOL
                )
                separation_checks.append(
                    SeparationCheck(
                        omega=omega,
                        shift=shift,
                        refinement=l,
                        lhs=lhs,
                        rhs_pulled=rhs1,
                        rhs_submult=rhs2,
                        vacuous=vac,
                        ok=ok,
                    )
                )

    common_horizon = horizon - (span - 1)
    pieces = [restrict(nu, common_horizon)]
    pushed = nu
    for _ in range(span - 1):
        pushed = pushforward(pushed)
        pieces.append(restrict(pushed, common_horizon))
    mu = mix(pieces, [1.0 / span] * span)

    averaged_checks: list[AveragedCheck] = []
    logdet = 0.0
    vac_int = False
    for omega in range(base.omega_count):
        term, vac = _log_floor(full_counts[omega] // (n * d**n))
        vac_int = vac_int or vac
        logdet += base.weights[omega] * term
    for l, joins in enumerate(join_seqs):
        for m in range(1, n + 1):
            lhs = partition_conditional_entropy(mu, joins[m - 1])
            rhs = (m / span) * (logdet - m * math.log(d))
            ok = vac_int or lhs >= rhs - VALUE_TOL
            averaged_checks.append(
                AveragedCheck(
                    refinement=l, block=m, lhs=lhs, rhs=rhs, vacuous=vac_int, ok=ok
                )
            )

    report = WitnessReport(
        n=n,
        refinement_count=k_used,
        cover_size=d,
        horizon=horizon,
        common_horizon=common_horizon,
        separated_sizes=tuple(len(separated[w]) for w in range(base.omega_count)),
        pulled_counts=tuple(pulled_counts),
        full_counts=tuple(full_counts),
        separation_checks=tuple(separation_checks),
        averaged_checks=tuple(averaged_checks),
    )
    return separated, nu, mu, report


# ---------------------------------------------------------------------------
# variational search
# ---------------------------------------------------------------------------


def _project_simplex(v: list[float]) -> list[float]:
    """Euclidean projection onto the probability simplex (sort-based).

    Python floats throughout, with numpy's operations in numpy's order:
    sort descending, a left-to-right running sum (``np.cumsum``) and
    ``max(0.0, x + lam)`` (``np.maximum(v + lam, 0.0)``), so the result has
    the bits of the array version.
    """
    u = sorted(v, reverse=True)
    css = []
    total = 0.0
    for x in u:
        total += x
        css.append(total)
    rho = 0
    for j in range(len(u)):
        if u[j] + (1.0 - css[j]) / (j + 1) > 0:
            rho = j
    lam = (1.0 - css[rho]) / (rho + 1)
    return [max(0.0, x + lam) for x in v]


def _cpu_count() -> int:
    """CPUs this process may run on, or 1 where it should not fork: no
    ``fork`` or CPU affinity on the platform, other threads running (a
    forked child gets no copy of them, nor of the locks they hold), or a
    daemonic ``multiprocessing`` worker (it may start no process)."""
    # imported here, not with the module: it adds about 0.7 MB to every
    # process, and only a search uses it
    import multiprocessing

    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if threading.active_count() > 1 or multiprocessing.current_process().daemon:
        return 1
    return len(os.sched_getaffinity(0))


def _run_restarts(bundle: SymbolicBundle, restart, count: int) -> list:
    """``restart(r, previous)`` for ``r`` in ``range(count)``, in order, each
    handed the previous restart's measure as its ``previous``.

    The restarts are split into contiguous groups, one per CPU
    (:func:`_cpu_count`).  This process runs the first group; each other
    group runs in a forked child, which sends its results back over a pipe.
    A child's measures are adopted on ``bundle`` with read-only arrays, so
    the list is what one process running every restart would return.  The
    first group to fail raises its exception here, with its type and
    message; no child outlives the call.  A group whose child cannot be
    forked runs here.
    """
    import multiprocessing

    workers = min(count, _cpu_count())
    bounds = [count * k // workers for k in range(workers + 1)]

    def run(lo: int, hi: int) -> list:
        out, mu = [], None
        for r in range(lo, hi):
            value, mu, evaluations = restart(r, mu)
            out.append((value, mu, evaluations))
        return out

    ctx = multiprocessing.get_context("fork")
    children = {}
    finished = False
    try:
        for g in range(1, workers):
            receiver, sender = ctx.Pipe(duplex=False)
            child = ctx.Process(
                target=_send_restarts, args=(sender, run, bounds[g], bounds[g + 1])
            )
            try:
                child.start()
            except OSError:
                receiver.close()
                continue
            finally:
                sender.close()
            children[g] = (child, receiver)
        results = []
        for g in range(workers):
            if g not in children:
                results.extend(run(bounds[g], bounds[g + 1]))
                continue
            child, receiver = children[g]
            try:
                status, payload = receiver.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"restart process exited with code {child.exitcode} "
                    "before sending its results"
                ) from None
            if status == "error":
                raise payload
            for value, (transitions, starts, flags), evaluations in payload:
                for a in transitions + starts:
                    a.setflags(write=False)
                mu = MarkovMeasure._adopt(bundle, transitions, starts, flags)
                results.append((value, mu, evaluations))
        finished = True
        return results
    finally:
        for child, receiver in children.values():
            if not finished:
                child.kill()
            child.join()
            receiver.close()


def _send_restarts(sender, run, lo: int, hi: int) -> None:
    """A child's body in :func:`_run_restarts`: send ``run(lo, hi)`` with each
    measure as its (transitions, starts, flags), or the exception that
    stopped it.  An interrupt is left to the parent, which stops the child."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        payload = (
            "ok",
            [
                (value, (mu.transitions, mu.starts, mu.flags), evaluations)
                for value, mu, evaluations in run(lo, hi)
            ],
        )
    except Exception as exc:  # every failure goes to the parent
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:  # one that cannot be sent goes as its type and message
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        payload = ("error", exc)
    sender.send(payload)
    sender.close()


@dataclass(frozen=True)
class MaximizeResult:
    measure: MarkovMeasure
    value: float
    reference: float
    gap: float
    evaluations: int

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "reference": self.reference,
            "gap": self.gap,
            "evaluations": self.evaluations,
            "transitions": [q.tolist() for q in self.measure.transitions],
            "starts": [p.tolist() for p in self.measure.starts],
        }


def maximize_invariant_entropy(
    bundle: SymbolicBundle,
    target: PositionedCover,
    budget: int,
    seed: int,
    *,
    nmax: int = 4,
    mode: str = "general",
    reference_nmax: int = 8,
) -> MaximizeResult:
    """Search the invariant Markov family for a high entropy rate on the target.

    Partitions are scored with :func:`partition_entropy_report` (exact chain
    rule when available, certified upper bound otherwise); covers are scored
    with the step-``nmax`` certified conditional-entropy rate.  Hill climbing
    restarts from deterministic seeds derived from ``(seed, restart)``.  The
    restarts are independent and run in up to one process per available CPU
    (see :func:`_run_restarts`); the result does not depend on how many.
    """
    if budget < 1:
        raise ValueError("need budget >= 1")
    base = bundle.base
    d = bundle.alphabet_size
    supports = [
        np.flatnonzero(bundle.adjacency[w][a])
        for w in range(base.omega_count)
        for a in range(d)
    ]
    free_rows = [i for i, s in enumerate(supports) if len(s) > 1]

    chain_rule = isinstance(target, PositionedPartition) and _pins_coordinate(target)
    joined_targets = None
    if not chain_rule:
        joined_targets = list(join_sequence(target, nmax))

    def fiber_matrix(qrows: list[list[float]], w: int) -> np.ndarray:
        m = np.zeros((d, d))
        for a in range(d):
            m[a, supports[w * d + a]] = qrows[w * d + a]
        return m

    def build(
        qrows: list[list[float]], previous: MarkovMeasure | None, row: int | None = None
    ) -> MarkovMeasure:
        if row is None:
            qs = [fiber_matrix(qrows, w) for w in range(base.omega_count)]
        else:
            # only row ``row`` differs from the accepted measure ``previous``:
            # the other fibers' matrices are its arrays, byte for byte
            qs = list(previous.transitions)
            qs[row // d] = fiber_matrix(qrows, row // d)
        # cycles the proposal left alone keep previous's starts instead of
        # being solved again
        return stationary_starts(bundle, qs, previous=previous)

    def score(mu: MarkovMeasure) -> float:
        if chain_rule:
            return _chain_rule_rate(mu)
        horizon = target.stop + nmax - 1
        nu = markov_to_word(mu, horizon)
        best = math.inf
        for k, joined in enumerate(joined_targets, start=1):
            h = cover_conditional_entropy(nu, joined, mode)
            best = min(best, h / k)
        return best

    def uniform_rows() -> list[list[float]]:
        return [[1.0 / len(s)] * len(s) for s in supports]

    restarts = max(1, min(8, budget // 50)) if free_rows else 1
    per_restart = max(1, budget // restarts)

    def restart(
        r: int, previous: MarkovMeasure | None
    ) -> tuple[float, MarkovMeasure, int]:
        """Climb from restart ``r``'s start; returns the best value, the
        measure that reached it and the number of evaluations.

        Only improvements are accepted, so the last accepted measure is the
        first to reach the restart's best value.  ``previous`` only spares
        solves (:func:`stationary_starts` gives the same bits without it).
        ``restarts * per_restart <= budget``, so no restart needs to check
        the budget.
        """
        rng = np.random.default_rng(np.random.SeedSequence((seed, r)))
        if r == 0:
            qrows = uniform_rows()
        else:
            qrows = [rng.dirichlet(np.ones(len(s))).tolist() for s in supports]
        mu = build(qrows, previous)
        cur = score(mu)
        if not free_rows:
            return cur, mu, 1
        steps = per_restart - 1
        for t in range(steps):
            sigma = 0.4 * (0.05 / 0.4) ** (t / max(1, steps - 1))
            i = free_rows[int(rng.integers(len(free_rows)))]
            old = qrows[i]
            noise = rng.normal(0.0, sigma, len(old)).tolist()
            proposal = _project_simplex([x + y for x, y in zip(old, noise)])
            qrows[i] = proposal
            mu_new = build(qrows, mu, i)
            val = score(mu_new)
            if val > cur:
                cur, mu = val, mu_new
            else:
                qrows[i] = old
        return cur, mu, per_restart

    evaluations = 0
    best_value = -math.inf
    best_measure = None
    # strict ``>`` in restart order: ties go to the earliest restart
    for value, measure, count in _run_restarts(bundle, restart, restarts):
        evaluations += count
        if value > best_value:
            best_value, best_measure = value, measure

    ref_report = topological_cover_entropy(bundle, target, reference_nmax)
    reference = (
        ref_report.exact_rate
        if ref_report.exact_rate is not None
        else ref_report.certified_upper
    )
    return MaximizeResult(
        measure=best_measure,
        value=best_value,
        reference=reference,
        gap=reference - best_value,
        evaluations=evaluations,
    )
