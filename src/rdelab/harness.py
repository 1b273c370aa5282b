"""Deterministic instance generation and the mechanical property suite.

``gen_instance`` samples a valid driven bundle plus covers and invariant
measures, bit-reproducibly from its seed.  ``run_suite`` grinds the whole
calculus against such instances: exact identities and counting inequalities
are hard checks (any failure flips the exit status), while limit-flavored
statements that a finite horizon cannot reach (the trend toward the inner
rate) are soft checks reported separately.  Every failure carries a
reproduction bundle: the seeds and parameters that rebuild the offending
instance.
"""

from __future__ import annotations

import functools
import itertools
import math
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import presets
from .base import (
    SymbolicBundle,
    ProbBase,
    admissible_tuples,
    cycle_growth_rate,
    cycle_product,
    strongly_connected_components,
    theta_cycles,
    word_count,
)
from .covercomb import (
    cover_count,
    exact_min_cover,
    global_min_subcover_count,
    maximal_multi_separated,
)
from .covers import (
    PositionedCover,
    PositionedPartition,
    is_finer,
    join,
    per_fiber_cover,
    product_cover,
    product_partitions_finer,
    pullback,
    range_join,
    zero_cylinders,
)
from .entropy import (
    block_power_system,
    cover_complexity,
    cover_conditional_entropy,
    h_minus_report,
    h_plus_value,
    mass_shift_entropy_check,
    partition_conditional_entropy,
    partition_entropy_report,
    topological_cover_entropy,
    _chain_rule_rate,
    _join_entropies,
)
from .forked import run_tasks
from .guards import GUARDS, GenerationError
from .measures import (
    MarkovMeasure,
    WordMeasure,
    invariance_residual,
    markov_to_word,
    mix,
    parry_measure,
    pushforward,
    pushforward_markov,
    stationary_starts,
)
from .variational import witness_measures

__all__ = [
    "GenParams",
    "GenerationError",
    "Instance",
    "gen_instance",
    "random_word_measure",
    "SuiteConfig",
    "CheckResult",
    "SuiteReport",
    "run_suite",
    "CHECK_IDS",
]


@dataclass(frozen=True)
class GenParams:
    """Size caps for generated instances."""

    omega_max: int = 4
    alphabet_max: int = 3
    window_max: int = 2
    cover_elements_max: int = 4
    extra_memberships: int = 1
    covers: int = 3
    measures: int = 2
    density: float = 0.65
    rejection_budget: int = 500


@dataclass(frozen=True)
class Instance:
    seed: int
    params: GenParams
    bundle: SymbolicBundle
    covers: dict
    measures: dict


def _rng_for(*key) -> np.random.Generator:
    entropy = tuple(
        zlib.crc32(k.encode()) if isinstance(k, str) else int(k) % 2**63
        for k in key
    )
    return np.random.default_rng(np.random.SeedSequence(entropy))


def gen_instance(seed: int, params: GenParams = GenParams()) -> Instance:
    """Sample a valid instance, fully determined by ``seed`` and ``params``.

    The base permutation is uniform; probabilities are drawn per cycle and
    spread uniformly inside each cycle, which enforces invariance.  Adjacency
    matrices are rejection-sampled until no row or column dies.  Covers come
    in three flavors (product partitions, product covers with overlap repair,
    fiber-dependent partitions); measures are random supported transition
    rows closed up with stationary starts.
    """
    rng = _rng_for(seed)
    omega_count = int(rng.integers(1, params.omega_max + 1))
    theta = tuple(int(x) for x in rng.permutation(omega_count))
    cycles = theta_cycles(theta)
    cycle_mass = rng.dirichlet(np.ones(len(cycles))) * 0.9 + 0.1 / len(cycles)
    cycle_mass = cycle_mass / cycle_mass.sum()
    weights = [0.0] * omega_count
    for cyc, mass in zip(cycles, cycle_mass):
        for w in cyc:
            weights[w] = float(mass) / len(cyc)
    base = ProbBase(weights=tuple(weights), theta=theta)

    if params.alphabet_max <= 1:
        d = 1
    else:
        d = int(rng.integers(2, params.alphabet_max + 1))
    mats = []
    for _ in range(omega_count):
        for attempt in range(params.rejection_budget + 1):
            if attempt == params.rejection_budget:
                raise GenerationError("rejection budget exceeded while sampling adjacency")
            m = (rng.random((d, d)) < params.density).astype(np.int8)
            if (m.sum(axis=0) > 0).all() and (m.sum(axis=1) > 0).all():
                mats.append(m)
                break
    bundle = SymbolicBundle(
        base=base,
        alphabet=tuple(chr(ord("a") + i) for i in range(d)),
        adjacency=tuple(mats),
    )

    covers: dict[str, PositionedCover] = {}
    for i in range(params.covers):
        window = int(rng.integers(1, params.window_max + 1))
        vocab = sorted(
            set().union(
                *(
                    admissible_tuples(bundle, w, 0, window)
                    for w in range(omega_count)
                )
            )
        )
        k = int(rng.integers(2, params.cover_elements_max + 1))
        k = min(k, len(vocab)) or 1
        kind = i % 3
        if kind in (0, 1):
            # random unions realized as a partition plus extra memberships;
            # overlap stays a bounded fraction of the vocabulary so that the
            # exact refinement search on joined covers keeps small components
            elems = [set() for _ in range(k)]
            for w in vocab:
                elems[int(rng.integers(k))].add(w)
            extra_cap = min(params.extra_memberships, len(vocab) // 4)
            extra = int(rng.integers(0, extra_cap + 1))
            for _ in range(extra):
                elems[int(rng.integers(k))].add(vocab[int(rng.integers(len(vocab)))])
            covers[f"U{i}"] = product_cover(bundle, [sorted(e) for e in elems])
        else:
            per_elem = [[set() for _ in range(omega_count)] for _ in range(k)]
            for omega in range(omega_count):
                for w in admissible_tuples(bundle, omega, 0, window):
                    per_elem[int(rng.integers(k))][omega].add(w)
            covers[f"U{i}"] = per_fiber_cover(
                bundle,
                [[sorted(s) for s in elem] for elem in per_elem],
                partition=True,
            )
    covers["zero"] = zero_cylinders(bundle)

    measures: dict[str, MarkovMeasure] = {}
    for j in range(params.measures):
        qs = []
        for omega in range(omega_count):
            q = np.zeros((d, d))
            for a in range(d):
                support = np.flatnonzero(bundle.adjacency[omega][a])
                q[a, support] = rng.dirichlet(np.ones(len(support)))
            qs.append(q)
        measures[f"m{j}"] = stationary_starts(bundle, qs)
    return Instance(seed=seed, params=params, bundle=bundle, covers=covers, measures=measures)


def random_word_measure(
    bundle: SymbolicBundle, horizon: int, rng: np.random.Generator
) -> WordMeasure:
    """Random fibered weights on admissible horizon words (some support gaps)."""
    tables = []
    for omega in range(bundle.base.omega_count):
        words = admissible_tuples(bundle, omega, 0, horizon)
        keep = rng.random(len(words)) < 0.8
        if not keep.any():
            keep[int(rng.integers(len(words)))] = True
        raw = rng.random(len(words)) * keep
        raw = raw / raw.sum()
        tables.append({w: float(x) for w, x in zip(words, raw) if x > 0})
    return WordMeasure(bundle=bundle, horizon=horizon, weights=tuple(tables))


# ---------------------------------------------------------------------------
# the property suite
# ---------------------------------------------------------------------------


# the witness horizon cap, the absolute tolerance of the hard checks and the
# slack of the soft ones
HORIZON_CAP = 14
TOLERANCE = 1e-9
SOFT_SLACK = 0.08


@dataclass(frozen=True)
class SuiteConfig:
    """Which checks to run, and at what sizes.

    The size caps of ``params`` must allow one fiber, one symbol, a window of
    one and two cover elements.  An alphabet cap of 1 is valid:
    :func:`gen_instance` then draws one-symbol bundles.
    """

    seed: int = 7
    instances: int = 12
    draws: int = 200
    params: GenParams = field(default_factory=GenParams)
    nmax: int = 4
    only: tuple[str, ...] = ()

    def __post_init__(self):
        p = self.params
        if min(p.omega_max, p.alphabet_max, p.window_max) < 1 or p.cover_elements_max < 2:
            raise ValueError(
                "caps need omega_max, alphabet_max and window_max >= 1 "
                "and cover_elements_max >= 2"
            )
        if p.omega_max > 6 or p.alphabet_max > 4:
            raise ValueError("caps exceed the exactness guarantees of the solvers")
        if self.nmax > 12:
            raise ValueError("caps exceed the exactness guarantees of the solvers")
        unknown = [c for c in self.only if c not in CHECK_IDS]
        if unknown:
            raise ValueError(
                f"unknown check id{'s' if len(unknown) > 1 else ''} "
                f"{', '.join(map(repr, unknown))} "
                f"(valid: {', '.join(CHECK_IDS)})"
            )


@dataclass(frozen=True)
class CheckResult:
    check: str
    kind: str  # "exact" or "soft"
    passes: int
    failures: int
    worst_margin: float | None
    failure_bundles: tuple[dict, ...]
    skipped: int = 0  # cases a solver guard stopped; neither pass nor failure

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "kind": self.kind,
            "passes": self.passes,
            "failures": self.failures,
            "skipped": self.skipped,
            "worst_margin": self.worst_margin,
            "failure_bundles": list(self.failure_bundles),
        }


@dataclass(frozen=True)
class SuiteReport:
    schema_version: str
    config: dict
    results: tuple[CheckResult, ...]
    ok: bool

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "config": self.config,
            "results": [r.to_dict() for r in self.results],
            "ok": self.ok,
        }


class _Tally:
    """Accumulates margins and reproduction bundles for one check."""

    def __init__(self, check: str, kind: str):
        self.check = check
        self.kind = kind
        self.passes = 0
        self.failures = 0
        self.skipped = 0
        self.worst: float | None = None
        self.bundles: list[dict] = []

    def record(self, ok: bool, margin: float | None, repro: dict):
        if margin is not None and (self.worst is None or margin < self.worst):
            self.worst = margin
        if ok:
            self.passes += 1
        else:
            self.failures += 1
            if len(self.bundles) < 10:
                self.bundles.append(repro)

    def result(self) -> CheckResult:
        return CheckResult(
            check=self.check,
            kind=self.kind,
            passes=self.passes,
            failures=self.failures,
            worst_margin=self.worst,
            failure_bundles=tuple(self.bundles),
            skipped=self.skipped,
        )


def _corpus(config: SuiteConfig, instances=None) -> list[Instance]:
    if instances is not None:
        return list(instances)
    return [
        gen_instance(int(s), config.params)
        for s in _rng_for(config.seed, 0).integers(0, 2**31 - 1, config.instances)
    ]


def _repro(inst: Instance, **extra) -> dict:
    out = {"instance_seed": inst.seed, "params": vars(inst.params)}
    out.update(extra)
    return out


def _check_words_vs_counts(config, corpus):
    t = _Tally("words-vs-counts", "exact")
    for inst in corpus:
        b = inst.bundle
        for omega in range(b.base.omega_count):
            for n in range(1, 6):
                lhs = len(admissible_tuples(b, omega, 0, n))
                rhs = word_count(b, omega, n)
                t.record(lhs == rhs, None, _repro(inst, omega=omega, n=n, lhs=lhs, rhs=rhs))
            for n in range(1, 4):
                for m in range(1, 4):
                    lhs = word_count(b, omega, n + m)
                    rhs = word_count(b, omega, n) * word_count(
                        b, b.base.apply_theta(omega, n), m
                    )
                    t.record(
                        lhs <= rhs, float(rhs - lhs), _repro(inst, omega=omega, n=n, m=m)
                    )
    return t.result()


def _check_relabel(config, corpus):
    t = _Tally("relabel-invariance", "exact")
    for inst in corpus:
        b = inst.bundle
        rng = _rng_for(config.seed, "relabel", inst.seed)
        rate = cycle_growth_rate(b).integrated
        sigma = rng.permutation(b.base.omega_count)
        tau = rng.permutation(b.alphabet_size)
        inv = np.argsort(sigma)
        new_theta = tuple(int(sigma[b.base.theta[inv[i]]]) for i in range(b.base.omega_count))
        new_w = tuple(float(b.base.weights[inv[i]]) for i in range(b.base.omega_count))
        perm = np.eye(b.alphabet_size, dtype=np.int8)[:, tau]
        new_adj = tuple(
            perm.T @ b.adjacency[inv[i]] @ perm for i in range(b.base.omega_count)
        )
        relabeled = SymbolicBundle(
            base=ProbBase(weights=new_w, theta=new_theta),
            alphabet=tuple(b.alphabet[j] for j in np.argsort(tau)),
            adjacency=new_adj,
        )
        other = cycle_growth_rate(relabeled).integrated
        gap = abs(rate - other)
        t.record(gap <= TOLERANCE, TOLERANCE - gap, _repro(inst, gap=gap))
    return t.result()


def _check_cover_algebra(config, corpus):
    t = _Tally("cover-algebra", "exact")
    for inst in corpus:
        names = sorted(inst.covers)
        u = inst.covers[names[0]]
        v = inst.covers[names[1 % len(names)]]
        t.record(pullback(u, 0) == u, None, _repro(inst, law="pullback-identity"))
        for i in (1, 2):
            lhs = pullback(join(u, v), i)
            rhs = join(pullback(u, i), pullback(v, i))
            t.record(
                lhs.sections == rhs.sections and lhs.window == rhs.window,
                None,
                _repro(inst, law="pullback-join", i=i),
            )
        for n, m in ((1, 1), (1, 2), (2, 1)):
            lhs = range_join(u, 0, n + m - 1)
            rhs = join(range_join(u, 0, n - 1), pullback(range_join(u, 0, m - 1), n))
            t.record(
                lhs.sections == rhs.sections and lhs.window == rhs.window,
                None,
                _repro(inst, law="range-split", n=n, m=m),
            )
        t.record(is_finer(u, u), None, _repro(inst, law="finer-reflexive"))
        w = join(u, v)
        t.record(is_finer(w, u) and is_finer(w, v), None, _repro(inst, law="join-finer"))
        t.record(
            is_finer(join(w, v), join(u, v)), None, _repro(inst, law="finer-monotone")
        )
    return t.result()


def _check_refinement_enum(config, corpus):
    t = _Tally("refinement-enumeration", "exact")
    for inst in corpus:
        for name in sorted(inst.covers):
            cov = inst.covers[name]
            if not cov.product_form or isinstance(cov, PositionedPartition):
                continue
            enum = product_partitions_finer(cov)
            if enum.count > 200:
                continue
            parts = list(enum)
            expect = 1
            for c in enum.choices:
                expect *= len(c)
            t.record(len(parts) == expect, None, _repro(inst, cover=name))
            fingerprints = {
                tuple(tuple(sorted(cell)) for cell in p.product_sections)
                for p in parts
            }
            t.record(
                len(fingerprints) == len(parts),
                None,
                _repro(inst, cover=name, law="duplicate-free"),
            )
            for p in parts[:10]:
                t.record(is_finer(p, cov), None, _repro(inst, cover=name, law="finer"))
    return t.result()


def _check_min_cover_exact(config, corpus):
    t = _Tally("min-cover-exact", "exact")
    rng = _rng_for(config.seed, "mincover")
    for _ in range(config.draws // 4):
        n = int(rng.integers(3, 13))
        k = int(rng.integers(2, 9))
        masks = [int(rng.integers(1, 1 << n)) for _ in range(k)]
        union = 0
        for m in masks:
            union |= m
        masks.append(((1 << n) - 1) & ~union | (masks[0] & 1) | 1)
        full = (1 << n) - 1
        got = exact_min_cover(n, masks)
        best = None
        for r in range(1, len(masks) + 1):
            for combo in itertools.combinations(masks, r):
                u = 0
                for m in combo:
                    u |= m
                if u == full:
                    best = r
                    break
            if best is not None:
                break
        t.record(got == best, None, {"masks": masks, "n": n, "got": got, "brute": best})
    return t.result()


def _check_count_monotone(config, corpus):
    t = _Tally("count-monotone-submult", "exact")
    for inst in corpus:
        b = inst.bundle
        names = sorted(inst.covers)
        u = inst.covers[names[0]]
        w = inst.covers[names[1 % len(names)]]
        v = join(u, w)
        # row n - 1 holds the n-step counts of every fiber
        counts_u = cover_count(u, 3)
        counts_w = cover_count(w, 2)
        counts_v = cover_count(v, 2)
        for omega in range(b.base.omega_count):
            for n in (1, 2):
                cu = counts_u[n - 1][omega]
                cw = counts_w[n - 1][omega]
                cv = counts_v[n - 1][omega]
                t.record(cv >= cu, float(cv - cu), _repro(inst, omega=omega, n=n))
                # a subcover of the join is a product of subcovers
                t.record(
                    cv <= cu * cw,
                    float(cu * cw - cv),
                    _repro(inst, omega=omega, n=n, law="join-submultiplicative"),
                )
            for n, m in ((1, 1), (1, 2), (2, 1)):
                lhs = counts_u[n + m - 1][omega]
                rhs = counts_u[n - 1][omega] * counts_u[m - 1][b.base.apply_theta(omega, n)]
                t.record(lhs <= rhs, float(rhs - lhs), _repro(inst, omega=omega, n=n, m=m))
    return t.result()


def _check_fekete_tail(config, corpus):
    """On irreducible instances the step-averaged sequence bottoms out last."""
    t = _Tally("fekete-tail", "exact")
    for inst in corpus:
        b = inst.bundle
        products = (
            cycle_product((b.adjacency[w].astype(float) for w in c), b.alphabet_size)[0]
            for c in b.base.cycles()
        )
        if any(len(strongly_connected_components(p > 0)) != 1 for p in products):
            continue
        rep = topological_cover_entropy(zero_cylinders(b), 6)
        values = [v for _, v in rep.sequence]
        t.record(
            min(values) >= values[-1] - TOLERANCE,
            values[-1] - min(values) + TOLERANCE,
            _repro(inst, values=values),
        )
    return t.result()


def _check_separated(config, corpus):
    t = _Tally("separated-bound", "exact")
    count = 0
    for inst in corpus:
        b = inst.bundle
        for name in sorted(inst.covers):
            cov = inst.covers[name]
            if not cov.product_form:
                continue
            parts = list(itertools.islice(iter(product_partitions_finer(cov)), 2))
            counts = cover_count(cov, 2)
            for n in (1, 2):
                separated = maximal_multi_separated(parts, cov, n)
                joined = [range_join(p, 0, n - 1) for p in parts]
                hs = min(j.start for j in joined)
                he = max(j.stop for j in joined)
                for omega in range(b.base.omega_count):
                    chosen = separated[omega]
                    bound = counts[n - 1][omega] // len(parts)
                    t.record(
                        len(chosen) >= bound,
                        float(len(chosen) - bound),
                        _repro(inst, cover=name, omega=omega, n=n),
                    )
                    atom_maps = [j.cell_of(omega, (hs, he)) for j in joined]
                    used = [
                        {atom_maps[l][w] for w in chosen} for l in range(len(parts))
                    ]
                    extendable = [
                        w
                        for w in admissible_tuples(b, omega, hs, he - hs)
                        if w not in chosen
                        and all(atom_maps[l][w] not in used[l] for l in range(len(parts)))
                    ]
                    t.record(
                        not extendable,
                        None,
                        _repro(inst, cover=name, omega=omega, n=n, law="maximal"),
                    )
                    count += 1
            if count >= config.draws // 2:
                return t.result()
    return t.result()


def _check_mass_shift(config, corpus):
    t = _Tally("mass-shift", "exact")
    rng = _rng_for(config.seed, "massshift")
    made = 0
    while made < config.draws:
        k = int(rng.integers(2, 7))
        p = np.sort(rng.dirichlet(np.ones(k + 1))[:k])
        if p[0] <= 1e-9 or (p >= 1.0).any():
            continue
        d1 = float(p[0]) * float(rng.uniform(0.05, 0.95))
        split = rng.dirichlet(np.ones(k - 1)) * d1
        delta = [d1] + [float(x) for x in split]
        if any(delta[i] >= 1.0 - p[i] for i in range(1, k)):
            continue
        res = mass_shift_entropy_check([float(x) for x in p], delta)
        if res.hypothesis_errors:
            continue
        made += 1
        t.record(
            bool(res.holds) and res.margin > 0,
            res.margin,
            {"p": [float(x) for x in p], "delta": delta},
        )
    return t.result()


def _check_cond_entropy_laws(config, corpus):
    bounds = _Tally("cond-entropy-bounds", "exact")
    mono = _Tally("cond-entropy-monotone", "exact")
    subadd = _Tally("cond-entropy-subadditive", "exact")
    shift = _Tally("cond-entropy-shift", "exact")
    tol = TOLERANCE
    for inst in corpus:
        b = inst.bundle
        names = sorted(inst.covers)
        u = inst.covers[names[0]]
        v = inst.covers[names[1 % len(names)]]
        rng = _rng_for(config.seed, "condent", inst.seed)
        horizon = max(u.stop, v.stop) + 1
        nu = random_word_measure(b, horizon, rng)
        hu = cover_conditional_entropy(nu, u, "general")
        hv = cover_conditional_entropy(nu, v, "general")
        nglob = global_min_subcover_count(u)
        m = math.log(nglob) + tol - hu
        bounds.record(-tol <= hu <= math.log(nglob) + tol, m, _repro(inst, mode="general"))
        hw = cover_conditional_entropy(nu, join(u, v), "general")
        mono.record(hw >= hu - tol, hw - hu + tol, _repro(inst, mode="general"))
        subadd.record(hw <= hu + hv + tol, hu + hv + tol - hw, _repro(inst, mode="general"))
        lhs = cover_conditional_entropy(nu, pullback(u, 1), "general")
        rhs = cover_conditional_entropy(pushforward(nu), u, "general")
        gap = abs(lhs - rhs)
        shift.record(gap <= tol, tol - gap, _repro(inst, gap=gap))
    return [bounds.result(), mono.result(), subadd.result(), shift.result()]


def _check_join_count_bound(config, corpus):
    t = _Tally("join-count-bound", "exact")
    for inst in corpus:
        tops: dict[str, list[float]] = {}
        for mname in sorted(inst.measures):
            mu = inst.measures[mname]
            for cname in sorted(inst.covers):
                cov = inst.covers[cname]
                rep = h_minus_report(mu, cov, config.nmax)
                if cname not in tops:
                    # the step-n complexities do not depend on the measure:
                    # one pass per cover serves every measure
                    tops[cname] = cover_complexity(cov, config.nmax)
                for n, val in rep.sequence:
                    top = tops[cname][n - 1]
                    t.record(
                        val * n <= top + TOLERANCE,
                        top + TOLERANCE - val * n,
                        _repro(inst, measure=mname, cover=cname, n=n),
                    )
    return t.result()


def _check_mix_laws(config, corpus):
    conc = _Tally("mix-concavity", "exact")
    defect = _Tally("mix-defect", "exact")
    push = _Tally("pushforward-consistency", "exact")
    tol = TOLERANCE
    for inst in corpus:
        b = inst.bundle
        rng = _rng_for(config.seed, "mix", inst.seed)
        parts = [c for c in inst.covers.values() if isinstance(c, PositionedPartition)]
        part = parts[0]
        horizon = part.stop + 1
        for _ in range(max(1, config.draws // (6 * len(corpus)))):
            a = float(rng.uniform(0.05, 0.95))
            nu = random_word_measure(b, horizon, rng)
            eta = random_word_measure(b, horizon, rng)
            m = mix([nu, eta], [a, 1 - a])
            h_m = partition_conditional_entropy(m, part)
            h_n = partition_conditional_entropy(nu, part)
            h_e = partition_conditional_entropy(eta, part)
            lo = a * h_n + (1 - a) * h_e
            cap = -a * math.log(a) - (1 - a) * math.log(1 - a)
            conc.record(h_m >= lo - tol, h_m - lo + tol, _repro(inst, a=a))
            defect.record(
                -tol <= h_m - lo <= cap + tol,
                cap + tol - (h_m - lo),
                _repro(inst, a=a),
            )
        for mname in sorted(inst.measures):
            mu = inst.measures[mname]
            res0 = invariance_residual(mu)
            res1 = invariance_residual(pushforward_markov(mu))
            push.record(
                abs(res0 - res1) <= 1e-12 + tol,
                None,
                _repro(inst, measure=mname),
            )
            nu = markov_to_word(mu, 4)
            direct = markov_to_word(mu, 3)
            pushed = pushforward(nu)
            worst = 0.0
            for omega in range(b.base.omega_count):
                keys = set(direct.weights[omega]) | set(pushed.weights[omega])
                for w in keys:
                    worst = max(
                        worst, abs(direct.weight(omega, w) - pushed.weight(omega, w))
                    )
            push.record(worst <= 1e-12, 1e-12 - worst, _repro(inst, measure=mname))
    return [conc.result(), defect.result(), push.result()]


def _check_witness(config, corpus):
    t = _Tally("witness-certificates", "exact")
    done = 0
    for inst in corpus:
        for name in sorted(inst.covers):
            cov = inst.covers[name]
            if not cov.product_form or cov.length > 1 or cov.start != 0:
                continue
            for n in (1, 2):
                try:
                    _, _, _, rep = witness_measures(cov, n, horizon_cap=HORIZON_CAP)
                except GUARDS:  # a tripped guard is a skip, not a pass
                    t.skipped += 1
                    continue
                except AssertionError as exc:  # the construction broke its invariant
                    t.record(False, None, _repro(inst, cover=name, n=n, error=str(exc)))
                    continue
                t.record(rep.all_ok, None, _repro(inst, cover=name, n=n))
                done += 1
            break
        if done >= 6:
            break
    return t.result()


def _check_power_identity(config, corpus):
    t = _Tally("power-identity", "exact")
    for inst in corpus[: max(2, len(corpus) // 3)]:
        cov = zero_cylinders(inst.bundle)
        mu = inst.measures[sorted(inst.measures)[0]]
        for m_steps in (2, 3):
            ps = block_power_system(cov, m_steps)
            kmax = 2
            pseq = ps.h_value_sequence(mu, kmax)
            bseq = h_minus_report(mu, cov, kmax * m_steps)
            for k, val in pseq.sequence:
                other = dict(bseq.sequence)[k * m_steps]
                gap = abs(val / m_steps - other)
                t.record(
                    gap <= TOLERANCE,
                    TOLERANCE - gap,
                    _repro(inst, M=m_steps, k=k, gap=gap),
                )
    return t.result()


def _check_hminus_le_hplus(config, corpus):
    t = _Tally("hminus-le-hplus", "exact")
    for inst in corpus:
        mu = inst.measures[sorted(inst.measures)[0]]
        for name in sorted(inst.covers):
            cov = inst.covers[name]
            if not cov.product_form or isinstance(cov, PositionedPartition):
                continue
            if product_partitions_finer(cov).count > 64:
                continue
            minus = h_minus_report(mu, cov, config.nmax).certified_upper
            plus = h_plus_value(mu, cov, config.nmax, enum_cap=64).value
            t.record(
                minus <= plus + TOLERANCE,
                plus + TOLERANCE - minus,
                _repro(inst, cover=name),
            )
            break
    return t.result()


def _check_measure_invariance(config, corpus):
    t = _Tally("measure-invariance", "exact")
    for inst in corpus:
        for mname in sorted(inst.measures):
            res = invariance_residual(inst.measures[mname])
            t.record(
                res <= 1e-12,
                1e-12 - res,
                _repro(inst, measure=mname, residual=res),
            )
    return t.result()


def _check_rate_below_top(config, corpus):
    t = _Tally("rate-below-top", "exact")
    for inst in corpus:
        zero = zero_cylinders(inst.bundle)
        top = topological_cover_entropy(zero, 1).exact_rate
        for mname in sorted(inst.measures):
            rep = partition_entropy_report(inst.measures[mname], zero, 1)
            rate = rep.exact_rate
            t.record(
                rate <= top + TOLERANCE,
                top + TOLERANCE - rate,
                _repro(inst, measure=mname, rate=rate, top=top),
            )
    return t.result()


def _check_hplus_trend(config, corpus):
    """Power-step outer rates drift down toward the inner rate.

    For each block size M, the outer rate of the M-step system on the M-fold
    join is the minimum over product refinements of the stride-M certified
    partition rate; divided by M it must stay above the inner rate and is
    expected (not asserted exactly) to drift toward it.
    """
    t = _Tally("hplus-power-trend", "soft")
    bundle = presets.alternating_golden_mean()
    zero = zero_cylinders(bundle)
    rng = _rng_for(config.seed, "trend")
    qs = []
    for omega in range(2):
        q = np.zeros((2, 2))
        for a in range(2):
            support = np.flatnonzero(bundle.adjacency[omega][a])
            q[a, support] = rng.dirichlet(np.ones(len(support)))
        qs.append(q)
    mu = stationary_starts(bundle, qs)
    minus = h_minus_report(mu, zero, 6).certified_upper

    values = []
    for m_steps in (1, 2, 3):
        blocked = range_join(zero, 0, m_steps - 1)
        kmax = max(1, 6 // m_steps)
        # every refinement keeps the blocked window
        nu = markov_to_word(mu, (kmax - 1) * m_steps + blocked.stop)
        outer = min(
            h / k
            for part in product_partitions_finer(blocked)
            for k, h in enumerate(_join_entropies(nu, part, kmax, m_steps), 1)
        )
        values.append(outer / m_steps)
    drift = values[-1] - minus
    decreasing = all(values[i + 1] <= values[i] + SOFT_SLACK for i in range(2))
    t.record(
        decreasing and drift >= -TOLERANCE,
        drift,
        {"values": values, "h_minus": minus},
    )
    return t.result()


def _check_search_gap(config, corpus):
    """The random Parry family attains the variational principle on every
    partition that pins a coordinate: its chain-rule rate is the integrated
    spectral rate.  No join is built."""
    t = _Tally("variational-gap", "exact")
    for inst in corpus:
        value = _chain_rule_rate(parry_measure(inst.bundle))
        reference = cycle_growth_rate(inst.bundle).integrated
        gap = abs(value - reference)
        t.record(
            gap <= TOLERANCE,
            TOLERANCE - gap,
            _repro(inst, value=value, reference=reference),
        )
    return t.result()


_CHECKS = [
    ("words-vs-counts", _check_words_vs_counts),
    ("relabel-invariance", _check_relabel),
    ("cover-algebra", _check_cover_algebra),
    ("refinement-enumeration", _check_refinement_enum),
    ("min-cover-exact", _check_min_cover_exact),
    ("count-monotone-submult", _check_count_monotone),
    ("fekete-tail", _check_fekete_tail),
    ("separated-bound", _check_separated),
    ("mass-shift", _check_mass_shift),
    ("cond-entropy", _check_cond_entropy_laws),
    ("join-count-bound", _check_join_count_bound),
    ("mix-laws", _check_mix_laws),
    ("witness-certificates", _check_witness),
    ("measure-invariance", _check_measure_invariance),
    ("power-identity", _check_power_identity),
    ("hminus-le-hplus", _check_hminus_le_hplus),
    ("rate-below-top", _check_rate_below_top),
    ("hplus-power-trend", _check_hplus_trend),
    ("variational-gap", _check_search_gap),
]

CHECK_IDS = tuple(name for name, _ in _CHECKS)


def run_suite(config: SuiteConfig = SuiteConfig(), instances=None) -> SuiteReport:
    """Run the selected checks over a deterministic corpus.

    ``instances`` replaces the generated corpus when given (for file-driven
    verification).  The checks are independent tasks, run across the
    available CPUs in forked processes (:func:`~rdelab.forked.run_tasks`);
    each draws only from its own seeded streams and the corpus is built
    first, so the report comes out in catalog order with the bytes of a
    serial run, and a failing check raises what a serial run raises.  There
    is no option for this.
    """
    corpus = _corpus(config, instances)
    tasks = [
        functools.partial(fn, config, corpus)
        for name, fn in _CHECKS
        if not config.only or name in config.only
    ]
    results: list[CheckResult] = []
    for out in run_tasks(tasks):
        if isinstance(out, list):
            results.extend(out)
        else:
            results.append(out)
    ok = all(r.failures == 0 for r in results if r.kind == "exact")
    cfg = {
        "seed": config.seed,
        "instances": config.instances,
        "draws": config.draws,
        "params": vars(config.params),
        "nmax": config.nmax,
        "horizon_cap": HORIZON_CAP,
        "tolerance": TOLERANCE,
        "soft_slack": SOFT_SLACK,
        "only": list(config.only),
    }
    return SuiteReport(schema_version="1", config=cfg, results=tuple(results), ok=ok)
