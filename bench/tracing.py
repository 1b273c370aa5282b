"""Per-layer tracing from outside the library.

``Tracer.install()`` replaces each traced function at every ``rdelab`` module
binding that refers to it (``from .covers import join`` copies the binding,
so the copy in ``entropy`` is replaced too) and each traced method on its
class; ``uninstall()`` puts the originals back.  A wrapped call records a
span ``[name, start, end, parent, job]`` in memory.  A span's self time is
its duration minus the durations of its direct children; a name's total time
counts only spans with no enclosing span of the same name.  Counters are
computed from return values after the span closes.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, JOB, OUTER = range(6)


def _join_counts(tracer, args, kwargs, result):
    tracer.add("covers.join.elements_out", result.element_count)
    tracer.add("covers.join.nonempty", sum(1 for elem in result.sections if any(elem)))


def _partitions_out(tracer, args, kwargs, result):
    tracer.add("covers.product_partitions_finer.partitions_out", result.count)


def _markov_words(tracer, args, kwargs, result):
    tracer.add("measures.markov_to_word.words_out", sum(len(t) for t in result.weights))


def _tuple_words(tracer, args, kwargs, result):
    tracer.add("base.admissible_tuples.words_out", len(result))
    names = ("bundle", "omega", "start", "length")
    bundle, omega, start, length = list(args) + [kwargs[n] for n in names[len(args) :]]
    key = (id(bundle), omega, start, length)
    if key in tracer.requests:
        tracer.add("base.admissible_tuples.repeats", 1)
    else:
        tracer.requests.add(key)


# (module, attribute, metric prefix, counter); dotted attributes are methods
TARGETS = [
    ("covers", "join", "covers.join", _join_counts),
    ("covers", "range_join", "covers.range_join", None),
    ("covers", "PositionedCover.membership", "covers.membership", None),
    ("covers", "PositionedPartition.membership", "covers.membership", None),
    ("covers", "PositionedPartition.cell_of", "covers.membership", None),
    ("covers", "product_partitions_finer", "covers.product_partitions_finer", _partitions_out),
    ("entropy", "cover_conditional_entropy", "entropy.cover_conditional_entropy", None),
    ("entropy", "partition_conditional_entropy", "entropy.partition_conditional_entropy", None),
    ("entropy", "PowerSystem.h_value_sequence", "entropy.PowerSystem.h_value_sequence", None),
    ("entropy", "topological_cover_entropy", "entropy.topological_cover_entropy", None),
    ("entropy", "h_minus_report", "entropy.h_minus_report", None),
    ("entropy", "h_plus_value", "entropy.h_plus_value", None),
    ("measures", "stationary_starts", "measures.stationary_starts", None),
    ("measures", "markov_to_word", "measures.markov_to_word", _markov_words),
    ("measures", "pushforward", "measures.pushforward", None),
    ("measures", "restrict", "measures.restrict", None),
    ("measures", "mix", "measures.mix", None),
    ("base", "admissible_tuples", "base.admissible_tuples", _tuple_words),
    ("base", "word_count", "base.word_count", None),
    ("base", "cycle_growth_rate", "base.cycle_growth_rate", None),
    ("base", "spectral_radius", "base.spectral_radius", None),
    ("covercomb", "min_subcover_count", "covercomb.min_subcover_count", None),
    ("covercomb", "exact_min_cover", "covercomb.exact_min_cover", None),
    ("covercomb", "maximal_multi_separated", "covercomb.maximal_multi_separated", None),
    ("covercomb", "cover_count", "covercomb.cover_count", None),
    ("variational", "witness_measures", "variational.witness_measures", None),
    ("variational", "maximize_invariant_entropy", "variational.maximize_invariant_entropy", None),
    ("harness", "run_suite", "harness.run_suite", None),
    ("instances", "load_instance", "instances.load_instance", None),
    ("instances", "canonical_json", "instances.canonical_json", None),
]


class Tracer:
    def __init__(self, guards: tuple = ()):
        self.spans: list = []
        self.stack: list = []
        self.job = None
        self.counters: dict = defaultdict(float)
        self.requests: set = set()
        self.guards = guards
        self.active: dict = defaultdict(int)
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def add(self, key: str, amount: float):
        self.counters[key] += amount

    def start_job(self, job_id):
        self.job = job_id
        self.requests = set()

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        outer = self.active[name] == 0
        self.spans.append([name, time.perf_counter(), None, parent, self.job, outer])
        self.stack.append(idx)
        self.active[name] += 1
        try:
            yield
        except self.guards as exc:
            if not getattr(exc, "_bench_counted", False):
                exc._bench_counted = True
                self.add(f"guards.tripped.{type(exc).__name__}", 1)
            raise
        finally:
            self.spans[idx][END] = time.perf_counter()
            self.stack.pop()
            self.active[name] -= 1

    def wrap(self, name: str, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.add(f"{name}.calls", 1)
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return traced

    # -- installing --------------------------------------------------------

    def install(self):
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "rdelab" or n.startswith("rdelab."))
        ]
        for modname, attr, name, counter in TARGETS:
            module = sys.modules[f"rdelab.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(name, original, counter))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, counter)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._undo.append((m, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo = []

    # -- reading -----------------------------------------------------------

    def totals(self) -> tuple[dict, dict]:
        """Inclusive and self seconds per span name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        for i, s in enumerate(self.spans):
            dur = s[END] - s[START]
            if s[OUTER]:
                total[s[NAME]] += dur
            own[s[NAME]] += dur - child[i]
        return total, own

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
