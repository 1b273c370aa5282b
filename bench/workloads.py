"""The four workloads: seeded instance documents, CLI job lists and the
checks each job's output must pass.

A workload is built by ``build(name, seed, small)``.  It returns the instance
documents to write and the jobs to run on them.  A job is one ``rdelab``
subcommand given as an argument list; ``{name}`` in an argument stands for the
path of instance file ``name``.  Each job writes its canonical JSON report,
and its check compares that report with values computed by ``oracle`` (never
by the library) and with the pinned reference file.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import gen
import oracle
from oracle import Doc

FLOAT_TOL = 1e-12  # entries computed by the same formula, different code
RATE_TOL = 1e-9  # rates reached by iteration, or sums taken in another order
PIN_TOL = 1e-12  # values pinned from the seed commit

ENUM_CAP = 10**5  # the CLI's default --enum-max
GM_SLACK = 0.05  # criterion-9 slack on the golden mean
FULL_SLACK = 0.02  # and on the full 2-shift

NAMES = ("horizon", "refine", "search", "verify")


@dataclass
class Job:
    name: str
    argv: list
    check: Callable  # (payload, outputs, reference) -> list of problems

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass
class Workload:
    name: str
    docs: dict  # instance name -> document
    jobs: list


def build(name: str, seed: int, small: bool = False) -> Workload:
    builders = {
        "horizon": _horizon,
        "refine": _refine,
        "search": _search,
        "verify": _verify,
    }
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}")
    docs: dict = {}
    jobs: list = []
    builders[name](gen.rng_for(name, seed), seed, small, docs, jobs)
    return Workload(name=name, docs=docs, jobs=jobs)


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------


def _close(a, b, tol) -> bool:
    return a is not None and b is not None and abs(a - b) <= tol


def _compare_pinned(job_name: str, got: dict, reference: dict) -> list:
    """Pinned fields must match the reference: integers exactly, floats
    within PIN_TOL."""
    want = reference.get(job_name)
    if want is None:
        return [f"no pinned reference for {job_name}"]
    problems = []
    for key, value in want.items():
        have = got.get(key)
        if isinstance(value, float):
            ok = isinstance(have, (int, float)) and _close(have, value, PIN_TOL)
        else:
            ok = have == value
        if not ok:
            problems.append(f"{key}: got {have!r}, pinned {value!r}")
    return problems


def _report_shape(rep: dict) -> list:
    seq = rep["sequence"]
    if not seq:
        return ["empty sequence"]
    problems = []
    if rep["certified_upper"] != min(v for _, v in seq):
        problems.append("certified_upper is not the minimum of the sequence")
    if [n for n, _ in seq] != list(range(1, len(seq) + 1)):
        problems.append("sequence steps are not 1..nmax")
    return problems


def _topent_singleton_check(doc: dict, window: int):
    """topent on a partition whose cells are single window words: entry n is
    sum_w P(w) ln N_w(n + window - 1) / n, and the exact rate is spectral."""

    def check(payload, outputs, reference):
        rep = payload["report"]
        problems = _report_shape(rep)
        d = Doc(doc)
        counted = oracle.singleton_sequence(d, len(rep["sequence"]), window)
        for (n, value), want in zip(rep["sequence"], counted):
            if not _close(value, want, FLOAT_TOL):
                problems.append(f"n={n}: {value!r} != counted {want!r}")
        rate = oracle.cycle_rate(d)
        if not _close(rep["exact_rate"], rate, RATE_TOL):
            problems.append(f"exact_rate {rep['exact_rate']!r} != spectral {rate!r}")
        return problems

    return check


def _topent_cover_check(doc: dict, cover_name: str, exact_upto: int = 2):
    """topent on an overlapping window-1 product cover.  Exact minimal
    subcovers for small n; for every n the count lies between the word count
    over the largest cell size and the word count."""

    def check(payload, outputs, reference):
        rep = payload["report"]
        problems = _report_shape(rep)
        d = Doc(doc)
        cover = doc["covers"][cover_name]
        largest = max(len(c) for c in cover["product"])
        for n, value in rep["sequence"]:
            counts = [oracle.counted(d, w, 0, n) for w in range(d.fibers)]
            upper = sum(d.weights[w] * math.log(counts[w]) for w in range(d.fibers)) / n
            lower = (
                sum(
                    d.weights[w] * math.log(max(1.0, counts[w] / largest**n))
                    for w in range(d.fibers)
                )
                / n
            )
            if not lower - FLOAT_TOL <= value <= upper + FLOAT_TOL:
                problems.append(f"n={n}: {value!r} outside [{lower!r}, {upper!r}]")
            if n <= exact_upto:
                want = (
                    sum(
                        d.weights[w] * math.log(oracle.joined_cover_count(d, cover, w, n))
                        for w in range(d.fibers)
                    )
                    / n
                )
                if not _close(value, want, FLOAT_TOL):
                    problems.append(f"n={n}: {value!r} != exact subcover {want!r}")
        if rep["exact_rate"] is not None:
            problems.append("an overlapping cover reported an exact rate")
        return problems

    return check


def _witness_check(doc: dict, n: int):
    """Certificates hold and the counts equal brute-force word counts: the
    pulled count covers [n, n + n^2), the full count [0, n^2 + n)."""

    def check(payload, outputs, reference):
        rep = payload["report"]
        problems = [] if rep["all_ok"] else ["witness certificates failed"]
        d = Doc(doc)
        pulled = [oracle.counted(d, w, n, n * n) for w in range(d.fibers)]
        full = [oracle.counted(d, w, 0, n * n + n) for w in range(d.fibers)]
        if rep["pulled_counts"] != pulled:
            problems.append(f"pulled counts {rep['pulled_counts']} != {pulled}")
        if rep["full_counts"] != full:
            problems.append(f"full counts {rep['full_counts']} != {full}")
        return problems

    return check


def _report_pins(payload):
    rep = payload["report"]
    return {"certified_upper": rep["certified_upper"], "exact_rate": rep["exact_rate"]}


def _witness_pins(payload):
    rep = payload["report"]
    return {"pulled_counts": rep["pulled_counts"], "full_counts": rep["full_counts"]}


def _add(jobs, name, argv, check, pins=None):
    """Append a job; ``pins(payload)`` selects the fields compared with the
    pinned reference."""

    def run_check(payload, outputs, reference):
        problems = check(payload, outputs, reference)
        if pins is not None:
            problems += _compare_pinned(name, pins(payload), reference)
        return problems

    jobs.append(Job(name, argv, run_check))


# ---------------------------------------------------------------------------
# horizon: deep joins through topent and witness
# ---------------------------------------------------------------------------

# (alphabet, fibers, ones per matrix)
_HORIZON_SHAPES = [(2, 1, 3), (2, 2, 3), (3, 1, 6), (2, 3, 3), (3, 2, 6), (2, 4, 3)]
# Join work of each seeded topent job: the joins up to nmax scan the words of
# each length against every joined element and build one section per element
# and fiber, which costs about _FIBER_COST word scans (a fit of job times).
# Bundles are drawn until nmax can bring the work within _WORK_BAND of
# _JOIN_WORK, so every seeded job is about the same size for every seed.
_FIBER_COST = 15
_JOIN_WORK = 6 * 10**4
_WORK_BAND = 1.7
_HORIZON_DRAWS = 200


def _nmax_for(doc: dict, elements: int, work: float):
    """The nmax whose join work lies within _WORK_BAND of ``work``, or None."""
    d = Doc(doc)
    total, n = 0, 0
    while total * _WORK_BAND < work:
        n += 1
        total += elements**n * (len(oracle.vocabulary(d, n)) + _FIBER_COST * d.fibers)
    return n if total <= work * _WORK_BAND else None


# Jobs on the fixed demo instances: (instance, subcommand, cover, nmax or n).
# All but the witness n=2 jobs take longer than any seeded job, so the tail
# percentile (the eleventh-largest job) falls on fixed work.
_HORIZON_FIXED = [
    ("gm", "topent", "zero_cyl", 10), ("gm", "topent", "zero_cyl", 11),
    ("gm", "topent", "pairs", 6), ("gm", "topent", "pairs", 7),
    ("gm", "topent", "overlap", 9),
    ("full2", "topent", "zero_cyl", 9), ("full2", "topent", "zero_cyl", 10),
    ("gm1", "topent", "zero_cyl", 10), ("gm1", "topent", "zero_cyl", 11),
    ("gm1", "topent", "zero_cyl", 12),
    ("gm1", "witness", "zero_cyl", 3), ("gm", "witness", "zero_cyl", 2),
    ("full2", "witness", "zero_cyl", 2),
]
_HORIZON_FIXED_SMALL = [
    ("gm", "topent", "zero_cyl", 6), ("gm", "topent", "pairs", 4),
    ("gm", "topent", "overlap", 4), ("gm1", "witness", "zero_cyl", 2),
]


def _horizon(rng, seed, small, docs, jobs):
    fixed = {"gm": gen.GOLDEN_MEAN, "gm1": gen.GOLDEN_MEAN_1, "full2": gen.FULL_SHIFT_2}
    docs.update(fixed)
    for inst, sub, cover, n in _HORIZON_FIXED_SMALL if small else _HORIZON_FIXED:
        doc = fixed[inst]
        if sub == "witness":
            argv = ["witness", "{" + inst + "}", "--cover", cover, "--n", str(n)]
            _add(jobs, f"{inst}.witness.{n}", argv, _witness_check(doc, n), _witness_pins)
            continue
        if cover == "overlap":
            check = _topent_cover_check(doc, cover)
        else:
            check = _topent_singleton_check(doc, doc["covers"][cover]["window"])
        argv = ["topent", "{" + inst + "}", "--cover", cover, "--nmax", str(n)]
        _add(jobs, f"{inst}.topent.{cover}.{n}", argv, check, _report_pins)
    shapes = _HORIZON_SHAPES[:2] if small else _HORIZON_SHAPES * 4
    for i, (alphabet, fibers, ones) in enumerate(shapes):
        for _ in range(_HORIZON_DRAWS):
            doc = gen.random_bundle(rng, alphabet, fibers, ones)
            n = 4 if small else _nmax_for(doc, alphabet, _JOIN_WORK)
            if n is not None:
                break
        else:
            raise RuntimeError(f"no bundle of shape {(alphabet, fibers, ones)} in {_HORIZON_DRAWS} draws")
        # both covers have ``alphabet`` elements, so their joins are alike
        doc["covers"] = {
            "zero_cyl": gen.zero_cylinders(doc),
            "overlap": gen.product_cover(rng, doc, 1, alphabet, extra=1),
        }
        name = f"b{i}"
        docs[name] = doc
        _add(
            jobs,
            f"{name}.topent.zero_cyl.{n}",
            ["topent", "{" + name + "}", "--cover", "zero_cyl", "--nmax", str(n)],
            _topent_singleton_check(doc, 1),
        )
        # on the overlapping cover topent also counts minimal subcovers, which
        # about doubles its time: one step less keeps it near the other job
        _add(
            jobs,
            f"{name}.topent.overlap.{n - 1}",
            ["topent", "{" + name + "}", "--cover", "overlap", "--nmax", str(n - 1)],
            _topent_cover_check(doc, "overlap"),
        )


# ---------------------------------------------------------------------------
# refine: conditional entropies with the min-entropy assignment search
# ---------------------------------------------------------------------------

# (alphabet, fibers, ones per matrix)
# no two-fiber shape: none of its instances draws a U1 whose searches add up
# to the width below (see _U1)
_REFINE_SHAPES = [(2, 1, 3), (2, 3, 3), (2, 4, 3)]
_REFINE_NMAX = 4


def _once(fn):
    """``fn()`` computed on the first call and kept: a check's reference is
    worked out when the check first runs, not during set-up."""
    kept = []

    def get():
        if not kept:
            kept.append(fn())
        return kept[0]

    return get


def _measure_oracle(doc: dict, cover: str, measure: str):
    """Lazily: the document, its transition matrices, their stationary
    starts and the cover's lowest-index refinement."""

    def compute():
        d = Doc(doc)
        qs = oracle.transitions(d, doc["measures"][measure])
        cell_of = oracle.first_cell_partition(d, doc["covers"][cover])
        return d, qs, oracle.stationary_starts(d, qs), cell_of

    return _once(compute)


def assignment_bits(doc: dict, cover: str, n: int, d: Doc, total: bool) -> float:
    """log2 of the largest assignment space the min-entropy search of the
    n-step joined cover can face in one fiber.  Words with the same
    candidate elements move together; groups that share no candidate are
    searched apart, so the space is that of the largest connected set.
    With ``total``, log2 of the spaces of all those searches in all fibers
    added up.  ``d`` is a view of ``doc``, kept between calls to reuse its
    words."""
    cells = oracle.cover_cells(d, doc["covers"][cover])
    m = doc["covers"][cover]["window"]
    homes = {v: tuple(i for i, c in enumerate(cells) if v in c) for v in oracle.vocabulary(d, m)}
    worst, spaces = 0.0, []
    for omega in range(d.fibers):
        groups = set()
        every = None
        # words with the same candidates per step have the same candidate set
        steps = {tuple(homes[w[k : k + m]] for k in range(n)) for w in d.words(omega, 0, m + n - 1)}
        for step in steps:
            cands = tuple(itertools.product(*step))
            if len(cands) > 1:
                groups.add(cands)
            every = set(cands) if every is None else every & set(cands)
        if every:
            continue  # one element holds every word: the search returns at once
        parent: dict = {}

        def find(x):
            while parent.get(x, x) != x:
                parent[x] = x = parent.get(parent[x], parent[x])
            return x

        for g in groups:
            for e in g[1:]:
                ra, rb = find(g[0]), find(e)
                if ra != rb:
                    parent[ra] = rb
        bits: dict = {}
        for g in groups:
            r = find(g[0])
            bits[r] = bits.get(r, 0.0) + math.log2(len(g))
        worst = max([worst, *bits.values()])
        spaces.extend(2.0**b for b in bits.values())
    return math.log2(sum(spaces)) if total and spaces else worst


def _partition_check(doc: dict, cover: str, measure: str):
    """measent --partition: the sequence and the chain-rule rate agree with
    the oracle's Markov word masses, and the rate is below the bound."""
    ref = _measure_oracle(doc, cover, measure)
    window = doc["covers"][cover]["window"]

    def check(payload, outputs, reference):
        d, qs, starts, cell_of = ref()
        rep = payload["report"]
        problems = _report_shape(rep)
        want = oracle.partition_sequence(d, qs, starts, cell_of, window, len(rep["sequence"]))
        for (n, value), w in zip(rep["sequence"], want):
            if not _close(value, w, RATE_TOL):
                problems.append(f"n={n}: {value!r} != oracle {w!r}")
        rate = rep["exact_rate"]
        if rate is not None and rate > rep["certified_upper"] + RATE_TOL:
            problems.append("chain-rule rate above certified_upper")
        if cover == "zero_cyl":
            chain = oracle.chain_rule_rate(d, qs, starts)
            if not _close(rate, chain, RATE_TOL):
                problems.append(f"chain-rule rate {rate!r} != oracle {chain!r}")
        return problems

    return check


def _minus_check(doc: dict, cover: str, measure: str, mode: str, prefix: str):
    """measent --kind minus: every entry lies below the entropy of the
    lowest-index refinement; general <= product at each n."""
    ref = _measure_oracle(doc, cover, measure)
    window = doc["covers"][cover]["window"]

    def check(payload, outputs, reference):
        d, qs, starts, cell_of = ref()
        rep = payload["report"]
        problems = _report_shape(rep)
        upper = oracle.partition_sequence(d, qs, starts, cell_of, window, len(rep["sequence"]))
        for (n, value), u in zip(rep["sequence"], upper):
            if not -FLOAT_TOL <= value <= u + RATE_TOL:
                problems.append(f"n={n}: {value!r} outside [0, {u!r}]")
        if mode == "product":
            general = outputs.get(f"{prefix}.minus.general")
            if general is None:
                problems.append("general-mode report missing")
            else:
                for (n, g), (_, p) in zip(general["report"]["sequence"], rep["sequence"]):
                    if g > p + RATE_TOL:
                        problems.append(f"n={n}: general {g!r} > product {p!r}")
        return problems

    return check


def _plus_check(doc: dict, cover: str, measure: str, prefix: str):
    """measent --kind plus: one candidate per product refinement, the value
    is their minimum, below the lowest-index refinement's bound and above
    the minus reports."""
    ref = _measure_oracle(doc, cover, measure)
    cover_doc = doc["covers"][cover]

    def check(payload, outputs, reference):
        d, qs, starts, cell_of = ref()
        count = oracle.refinement_count(d, cover_doc)
        res = payload["result"]
        problems = []
        values = res["candidate_values"]
        if len(values) != count:
            problems.append(f"{len(values)} candidates, expected {count}")
        if not values or res["value"] != min(values):
            problems.append("value is not the minimum candidate")
            return problems
        seq = oracle.partition_sequence(
            d, qs, starts, cell_of, cover_doc["window"], _REFINE_NMAX
        )
        if res["value"] > min(seq) + RATE_TOL:
            problems.append(f"value {res['value']!r} above a refinement's bound {min(seq)!r}")
        for mode in ("general", "product"):
            minus = outputs.get(f"{prefix}.minus.{mode}")
            if minus is not None and minus["report"]["certified_upper"] > res["value"] + RATE_TOL:
                problems.append(f"minus ({mode}) above plus")
        return problems

    return check


def _refine_jobs(jobs, name, doc, measure, covers, products, partitions, pin=False):
    """minus in general mode and plus on each cover, minus in product mode
    on the covers in ``products``, and the partition entropy of each
    partition.  Every cover has one overlapping word, so plus compares two
    refinements."""
    path = "{" + name + "}"
    pins = _report_pins if pin else None
    nmax = str(_REFINE_NMAX)
    for cover in covers:
        prefix = f"{name}.{cover}.{measure}"
        common = ["measent", path, "--measure", measure, "--cover", cover, "--nmax", nmax]
        _add(
            jobs,
            f"{prefix}.minus.general",
            common + ["--kind", "minus", "--mode", "general"],
            _minus_check(doc, cover, measure, "general", prefix),
            pins,
        )
        if cover in products:
            _add(
                jobs,
                f"{prefix}.minus.product",
                common + ["--kind", "minus", "--mode", "product"],
                _minus_check(doc, cover, measure, "product", prefix),
                pins,
            )
        _add(
            jobs,
            f"{prefix}.plus",
            common + ["--kind", "plus"],
            _plus_check(doc, cover, measure, prefix),
            (lambda p: {"value": p["result"]["value"]}) if pin else None,
        )
    for part in partitions:
        _add(
            jobs,
            f"{name}.{part}.{measure}.partition",
            ["measent", path, "--measure", measure, "--partition", part, "--nmax", nmax],
            _partition_check(doc, part, measure),
            pins,
        )


# Overlapping covers are drawn until the assignment search of their 4-step
# join has the width asked for (assignment_bits), so that every seed gives
# every instance the same jobs of about the same size; wider searches run
# for seconds to minutes.  U1 is the large search, U2 a small one.  On up to
# two fibers U2's product refinements are also few enough to enumerate for
# --mode product; on more fibers the joined vocabulary rarely allows it.
# U1's width is that of all its searches added up (one 15-bit search and a
# few small ones), as the search time grows with the total: an instance with
# a 15-bit search in each of two fibers takes about twice as long.
_U1 = (2, 15, 15.5, False, True)  # (elements, search bits from, below, enumerable, total)
_U2 = (3, 1, 5)
_PRODUCT_FIBERS = 2
_DRAWS = 500  # a shape that cannot meet the conditions fails instead of hanging


def _overlapping_cover(rng, doc, elements, lo, hi, enumerable=False, total=False):
    """A window-2 cover of ``elements`` elements with one overlapping word
    whose joined search is ``lo`` to below ``hi`` bits wide (assignment_bits
    with ``total``) and, when ``enumerable``, whose product refinements
    number at most ENUM_CAP; None after 20 draws."""
    d = Doc(doc)
    for _ in range(20):
        doc["covers"]["U"] = gen.product_cover(rng, doc, 2, elements, extra=1)
        width = assignment_bits(doc, "U", _REFINE_NMAX, d, total)
        cover = doc["covers"].pop("U")
        if lo <= width < hi and (
            not enumerable or oracle.refinement_count(d, cover, _REFINE_NMAX) <= ENUM_CAP
        ):
            return cover
    return None


def _instance(rng, alphabet, fibers, ones, measures, overlapping, floor=0.2):
    """A small instance whose measures have unique stationary starts, with
    the partition P2 and the overlapping covers ``{name: (elements, bits
    from, bits below, enumerable[, total])}`` (see _overlapping_cover);
    ``floor`` as in gen.markov_measure."""
    for _ in range(_DRAWS):
        doc = gen.random_bundle(rng, alphabet, fibers, ones)
        doc["measures"] = {f"m{j}": gen.markov_measure(rng, doc, floor) for j in range(measures)}
        d = Doc(doc)
        if any(
            oracle.stationary_starts(d, oracle.transitions(d, m)) is None
            for m in doc["measures"].values()
        ):
            continue
        doc["covers"] = {}
        for name, spec in overlapping.items():
            cover = _overlapping_cover(rng, doc, *spec)
            if cover is None:
                break
            doc["covers"][name] = cover
        else:
            doc["covers"]["P2"] = gen.product_cover(rng, doc, 2, 3, extra=0)
            return doc
    raise RuntimeError(f"no instance of shape {(alphabet, fibers, ones)} in {_DRAWS} draws")


_REFINE_COPIES = 12
# Near-uniform transition masses: the assignment search then prunes more
# alike on instances of one search width, so its time depends less on the
# seed (with masses from 0.2 to 1 its interquartile range at 15 bits was
# about three times as wide).
_REFINE_FLOOR = 0.9


def _refine(rng, seed, small, docs, jobs):
    docs["gm"] = gen.GOLDEN_MEAN
    _refine_jobs(jobs, "gm", gen.GOLDEN_MEAN, "balanced", ["overlap"], [], ["zero_cyl", "pairs"], pin=True)
    shapes = _REFINE_SHAPES[:2] if small else _REFINE_SHAPES * _REFINE_COPIES
    for i, (alphabet, fibers, ones) in enumerate(shapes):
        enumerable = fibers <= _PRODUCT_FIBERS
        doc = _instance(rng, alphabet, fibers, ones, 2, {"U1": _U1, "U2": _U2 + (enumerable,)},
                        _REFINE_FLOOR)
        doc["covers"]["zero_cyl"] = gen.zero_cylinders(doc)
        name = f"r{i}"
        docs[name] = doc
        measure = f"m{i % 2}"
        products = ["U2"] if enumerable else []
        _refine_jobs(jobs, name, doc, measure, ["U1", "U2"], products, ["zero_cyl", "P2"])


# ---------------------------------------------------------------------------
# search: variational search over invariant Markov families
# ---------------------------------------------------------------------------

# Evaluations per seeded search, spread over the fibers: one evaluation
# costs about one power iteration per fiber, so every job does similar work.
_SEARCH_WORK = 300
_SEARCH_FIBERS = [1, 2, 3, 4]


def _search_check(doc: dict, budget: int, slack: float | None):
    """The search value never beats the spectral rate; on the demo shifts it
    gets within the criterion-9 slack; the reference is the spectral rate."""
    spectral = _once(lambda: oracle.cycle_rate(Doc(doc)))

    def check(payload, outputs, reference):
        rate = spectral()
        res = payload["result"]
        problems = []
        if res["value"] > rate + RATE_TOL:
            problems.append(f"value {res['value']!r} above the rate {rate!r}")
        if slack is not None and res["value"] < rate - slack:
            problems.append(f"value {res['value']!r} more than {slack} below {rate!r}")
        if not _close(res["reference"], rate, RATE_TOL):
            problems.append(f"reference {res['reference']!r} != spectral {rate!r}")
        if not 1 <= res["evaluations"] <= budget:
            problems.append(f"{res['evaluations']} evaluations for budget {budget}")
        return problems

    return check


def _search(rng, seed, small, docs, jobs):
    demo_budget = 20 if small else 2000
    docs["gm"] = gen.GOLDEN_MEAN
    docs["full2"] = gen.FULL_SHIFT_2
    for name, slack in (("gm", GM_SLACK), ("full2", FULL_SLACK)):
        _add(
            jobs,
            f"{name}.maximize.{demo_budget}",
            ["maximize", "{" + name + "}", "--partition", "zero_cyl",
             "--budget", str(demo_budget), "--seed", "0"],
            _search_check(docs[name], demo_budget, None if small else slack),
            lambda p: {"reference": p["result"]["reference"]},
        )
    count = 4 if small else 24
    for i in range(count):
        fibers = _SEARCH_FIBERS[i % len(_SEARCH_FIBERS)]
        budget = 20 if small else _SEARCH_WORK // fibers
        # fixed-point theta: on longer theta-cycles stationary_starts can
        # return starts that its own orbit check rejects (MeasureError)
        # every seed gets the same mix of full-shift fibers (4 ones, whose
        # power iterations run longer) and golden-mean ones (3 ones)
        ones = 3 + (i // len(_SEARCH_FIBERS)) % 2
        doc = gen.random_bundle(rng, 2, fibers, ones, fixed_points=True)
        doc["covers"] = {"zero_cyl": gen.zero_cylinders(doc)}
        name = f"s{i}"
        docs[name] = doc
        _add(
            jobs,
            f"{name}.maximize",
            ["maximize", "{" + name + "}", "--partition", "zero_cyl",
             "--budget", str(budget), "--seed", "0"],
            _search_check(doc, budget, None),
        )


# ---------------------------------------------------------------------------
# verify: the property suite on one generated instance per job
# ---------------------------------------------------------------------------

# (alphabet, fibers, ones per matrix)
_VERIFY_SHAPES = [(2, 1, 3), (2, 2, 3), (3, 1, 6), (2, 3, 3), (2, 1, 4), (2, 4, 3), (2, 2, 4)]
_VERIFY_DRAWS = 20
# enough jobs that the tail percentile (ten jobs above it) lies above the median
_VERIFY_JOBS = 24
# The overlapping cover's joined search is kept small: the suite runs it
# through several checks, and wide searches would make job sizes depend on
# the seed.
_VERIFY_COVER = (3, 1, 5, False)


def _verify_check(seed: int):
    def check(payload, outputs, reference):
        problems = []
        if not payload["ok"]:
            problems.append("suite reported failure")
        if payload["config"]["seed"] != seed:
            problems.append("suite ran with another seed")
        for r in payload["results"]:
            if r["kind"] == "exact" and r["failures"]:
                problems.append(f"exact check {r['check']} failed {r['failures']} times")
        if not payload["results"]:
            problems.append("no checks ran")
        return problems

    return check


def _verify(rng, seed, small, docs, jobs):
    count = 2 if small else _VERIFY_JOBS
    shapes = [_VERIFY_SHAPES[i % len(_VERIFY_SHAPES)] for i in range(count)]
    for i, (alphabet, fibers, ones) in enumerate(shapes):
        # the CLI adds the zero cylinders as "zero"
        doc = _instance(rng, alphabet, fibers, ones, 1, {"U1": _VERIFY_COVER})
        name = f"v{i}"
        docs[name] = doc
        # the CLI's default suite seed: the variational-gap check searches
        # the golden mean with it, and about 2% of seeds make that search
        # raise MeasureError (see stationary_starts on longer theta-cycles)
        suite_seed = 7
        _add(
            jobs,
            f"{name}.verify",
            ["verify", "--file", "{" + name + "}", "--seed", str(suite_seed),
             "--draws", str(10 if small else _VERIFY_DRAWS)],
            _verify_check(suite_seed),
        )
