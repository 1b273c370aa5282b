"""Strict JSON instance files.

A document describes one driven bundle plus named covers and measures:

.. code-block:: json

    {
      "alphabet": ["a", "b"],
      "omega": ["w0", "w1"],
      "theta": [1, 0],
      "P": [0.5, 0.5],
      "adjacency": {"w0": [[1, 1], [1, 1]], "w1": [[1, 1], [1, 0]]},
      "covers": {
        "zero_cyl": {"window": 1, "product": [["a"], ["b"]]},
        "split": {"window": 1, "per_omega": {"w0": [["a"], ["b"]],
                                             "w1": [["a", "b"], ["b"]]}}
      },
      "measures": {"m0": {"Q": {"w0": [[0.5, 0.5], [0.5, 0.5]],
                                "w1": [[0.5, 0.5], [1, 0]]}}}
    }

Parsing is strict: unknown fields are rejected at every level, adjacency and
transition maps must name exactly the declared fibers, and cover words must
use the declared symbols.  A word is either a list of symbol names or, when
every symbol name is a single character, a plain string.  Start vectors of
measures are always derived from the transitions, never read.  Covers whose
sections are disjoint in every fiber load as partitions.

Every schema check runs at load, the transition checks of every measure
included.  A measure's start vectors are solved on its first read from
:attr:`LoadedInstance.measures`, so a command that reads no measure solves
none and one that reads one measure solves one.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .base import SymbolicBundle, ProbBase, validate
from .covers import CoverError, PositionedCover, per_fiber_cover, product_cover
from .measures import MarkovMeasure, MeasureError, check_transition, stationary_starts

__all__ = [
    "SchemaError",
    "LoadedInstance",
    "load_instance",
    "loads_instance",
    "dump_instance",
    "canonical_json",
]


class SchemaError(ValueError):
    """The document does not conform to the instance schema."""


TOP_KEYS = {"alphabet", "omega", "theta", "P", "adjacency", "covers", "measures"}
COVER_KEYS = {"window", "product", "per_omega"}
MEASURE_KEYS = {"Q"}


class _SolvedOnRead(Mapping):
    """Read-only map of measure names to measures whose transitions passed
    the schema checks.  A measure's starts are solved by
    :func:`stationary_starts` on its first read and kept; a solve's
    :class:`MeasureError` is a :class:`SchemaError` naming the measure."""

    def __init__(self, bundle: SymbolicBundle, transitions: dict):
        self._bundle = bundle
        self._transitions = transitions
        self._solved: dict[str, MarkovMeasure] = {}

    def __getitem__(self, name) -> MarkovMeasure:
        mu = self._solved.get(name)
        if mu is None:
            qs = self._transitions[name]
            try:
                mu = stationary_starts(self._bundle, qs)
            except MeasureError as exc:
                raise SchemaError(f"measures[{name!r}]: {exc}") from exc
            self._solved[name] = mu
        return mu

    def __contains__(self, name) -> bool:
        return name in self._transitions

    def __iter__(self):
        return iter(self._transitions)

    def __len__(self) -> int:
        return len(self._transitions)


@dataclass(frozen=True)
class LoadedInstance:
    bundle: SymbolicBundle
    covers: dict
    measures: Mapping


def canonical_json(obj) -> str:
    """Canonical serialization: sorted keys, no whitespace drift, full floats."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _expect(cond: bool, message: str):
    if not cond:
        raise SchemaError(message)


def _parse_word(
    raw, symbol_index: dict, single_char: bool, window: int, where: str
) -> tuple[int, ...]:
    """The symbol indices of one word; ``single_char`` says whether every
    symbol name is one character long, which string words need.  Messages
    are formatted only when a check fails."""
    if isinstance(raw, str):
        if not single_char:
            raise SchemaError(f"{where}: string words need single-character symbol names")
    elif not isinstance(raw, list):
        raise SchemaError(f"{where}: a word must be a string or a list of symbols")
    if len(raw) != window:
        raise SchemaError(f"{where}: word {raw!r} does not span the window")
    try:
        return tuple([symbol_index[s] for s in raw])
    except (KeyError, TypeError):
        # a name that is not declared, or a list or object in its place
        bad = next(s for s in raw if not (isinstance(s, str) and s in symbol_index))
        raise SchemaError(f"{where}: unknown symbol {bad!r}") from None


def loads_instance(text: str, check: bool = True) -> LoadedInstance:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    return parse_instance(doc, check=check)


def load_instance(path, check: bool = True) -> LoadedInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_instance(fh.read(), check=check)


def parse_instance(doc, check: bool = True) -> LoadedInstance:
    """Build a bundle (plus covers and measures) from a parsed document.

    With ``check=False`` the bundle skips invariant enforcement so that a
    broken instance can be diagnosed with :func:`rdelab.validate`; covers and
    measures are then only parsed if the bundle turns out valid.
    """
    _expect(isinstance(doc, dict), "top level must be an object")
    unknown = set(doc) - TOP_KEYS
    _expect(not unknown, f"unknown top-level fields {sorted(unknown)}")
    for key in ("alphabet", "omega", "theta", "P", "adjacency"):
        _expect(key in doc, f"missing required field {key!r}")

    alphabet = doc["alphabet"]
    _expect(
        isinstance(alphabet, list)
        and alphabet
        and all(isinstance(s, str) and s for s in alphabet),
        "alphabet must be a nonempty list of nonempty strings",
    )
    _expect(len(set(alphabet)) == len(alphabet), "alphabet names must be unique")
    omega = doc["omega"]
    _expect(
        isinstance(omega, list) and omega and all(isinstance(s, str) for s in omega),
        "omega must be a nonempty list of strings",
    )
    _expect(len(set(omega)) == len(omega), "fiber names must be unique")
    theta = doc["theta"]
    _expect(
        isinstance(theta, list)
        and len(theta) == len(omega)
        and all(isinstance(t, int) and not isinstance(t, bool) for t in theta),
        "theta must list one integer image per fiber",
    )
    _expect(
        all(0 <= t < len(omega) for t in theta),
        "theta entries must index fibers",
    )
    weights = doc["P"]
    _expect(
        isinstance(weights, list)
        and len(weights) == len(omega)
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in weights),
        "P must list one number per fiber",
    )
    adjacency = doc["adjacency"]
    _expect(isinstance(adjacency, dict), "adjacency must map fiber names to matrices")
    _expect(
        set(adjacency) == set(omega),
        "adjacency must name exactly the declared fibers",
    )
    d = len(alphabet)
    mats = []
    for name in omega:
        mat = adjacency[name]
        _expect(
            isinstance(mat, list)
            and len(mat) == d
            and all(isinstance(row, list) and len(row) == d for row in mat),
            f"adjacency[{name!r}] must be a {d}x{d} matrix",
        )
        _expect(
            all(x in (0, 1) and not isinstance(x, bool) for row in mat for x in row),
            f"adjacency[{name!r}] entries must be 0 or 1",
        )
        mats.append(np.array(mat, dtype=np.int8))

    base = ProbBase(
        weights=tuple(float(x) for x in weights),
        theta=tuple(theta),
        labels=tuple(omega),
        check=check,
    )
    bundle = SymbolicBundle(
        base=base, alphabet=tuple(alphabet), adjacency=tuple(mats), check=check
    )
    if not check and not validate(bundle).ok:
        return LoadedInstance(bundle=bundle, covers={}, measures={})

    symbol_index = {s: i for i, s in enumerate(alphabet)}
    single_char = all(len(s) == 1 for s in alphabet)
    covers: dict[str, PositionedCover] = {}
    for name, entry in (doc.get("covers") or {}).items():
        covers[name] = _parse_cover(bundle, name, entry, symbol_index, single_char, omega)
    transitions = {
        name: _parse_measure(bundle, name, entry, omega)
        for name, entry in (doc.get("measures") or {}).items()
    }
    return LoadedInstance(
        bundle=bundle, covers=covers, measures=_SolvedOnRead(bundle, transitions)
    )


def _parse_cover(
    bundle, name, entry, symbol_index, single_char, omega_names
) -> PositionedCover:
    where = f"covers[{name!r}]"
    _expect(isinstance(entry, dict), f"{where} must be an object")
    unknown = set(entry) - COVER_KEYS
    _expect(not unknown, f"{where}: unknown fields {sorted(unknown)}")
    _expect("window" in entry, f"{where}: missing window")
    window = entry["window"]
    _expect(
        isinstance(window, int) and not isinstance(window, bool) and window >= 1,
        f"{where}: window must be a positive integer",
    )
    has_p = "product" in entry
    has_o = "per_omega" in entry
    _expect(has_p != has_o, f"{where}: need exactly one of product / per_omega")

    def parse_elements(raw, tag):
        _expect(isinstance(raw, list) and raw, f"{tag} must be a nonempty list")
        out = []
        for i, words in enumerate(raw):
            at = f"{tag}[{i}]"
            _expect(isinstance(words, list), f"{at} must be a list of words")
            out.append(
                frozenset(
                    [_parse_word(w, symbol_index, single_char, window, at) for w in words]
                )
            )
        return out

    try:
        if has_p:
            elements = parse_elements(entry["product"], f"{where}.product")
            cover = product_cover(bundle, elements, partition=None)
        else:
            per = entry["per_omega"]
            _expect(isinstance(per, dict), f"{where}.per_omega must be an object")
            _expect(
                set(per) == set(omega_names),
                f"{where}.per_omega must name exactly the declared fibers",
            )
            by_fiber = {
                fn: parse_elements(per[fn], f"{where}.per_omega[{fn!r}]")
                for fn in omega_names
            }
            counts = {len(v) for v in by_fiber.values()}
            _expect(
                len(counts) == 1,
                f"{where}: every fiber must list the same number of elements",
            )
            k = counts.pop()
            elements = [
                [by_fiber[fn][i] for fn in omega_names] for i in range(k)
            ]
            cover = per_fiber_cover(bundle, elements, partition=None)
    except CoverError as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    _expect(cover.length == window, f"{where}: words do not span the window")
    return cover


def _parse_measure(bundle, name, entry, omega_names) -> list[np.ndarray]:
    """The measure's checked transition matrices, one per fiber."""
    where = f"measures[{name!r}]"
    _expect(isinstance(entry, dict), f"{where} must be an object")
    unknown = set(entry) - MEASURE_KEYS
    _expect(not unknown, f"{where}: unknown fields {sorted(unknown)}")
    _expect("Q" in entry, f"{where}: missing Q")
    q = entry["Q"]
    _expect(isinstance(q, dict), f"{where}.Q must map fiber names to matrices")
    _expect(
        set(q) == set(omega_names), f"{where}.Q must name exactly the declared fibers"
    )
    d = bundle.alphabet_size
    mats = []
    for fn in omega_names:
        mat = q[fn]
        _expect(
            isinstance(mat, list)
            and len(mat) == d
            and all(isinstance(row, list) and len(row) == d for row in mat),
            f"{where}.Q[{fn!r}] must be a {d}x{d} matrix",
        )
        _expect(
            all(
                isinstance(x, (int, float)) and not isinstance(x, bool)
                for row in mat
                for x in row
            ),
            f"{where}.Q[{fn!r}] entries must be numbers",
        )
        mats.append(np.array(mat, dtype=float))
    try:
        for omega, q in enumerate(mats):
            check_transition(bundle, omega, q)
    except MeasureError as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    return mats


def dump_instance(bundle: SymbolicBundle, covers=None, measures=None) -> dict:
    """Document form of a bundle with optional named covers and measures.

    The schema has no field for a cover's window start, so a cover that does
    not start at coordinate 0 raises :class:`SchemaError` instead of
    reloading on a different window.
    """
    doc = {
        "alphabet": list(bundle.alphabet),
        "omega": list(bundle.base.labels),
        "theta": list(bundle.base.theta),
        "P": list(bundle.base.weights),
        "adjacency": {
            bundle.base.labels[w]: bundle.adjacency[w].astype(int).tolist()
            for w in range(bundle.base.omega_count)
        },
    }
    if covers:
        out = {}
        for name, cover in covers.items():
            _expect(
                cover.start == 0,
                f"cover {name!r}: window starts at {cover.start}; "
                "instance files hold covers starting at 0 only",
            )
            entry = {"window": cover.length}
            words = lambda sect: [
                [bundle.alphabet[s] for s in w] for w in sorted(sect)
            ]
            if cover.product_form:
                entry["product"] = [words(d) for d in cover.product_sections]
            else:
                entry["per_omega"] = {
                    bundle.base.labels[omega]: [
                        words(elem[omega]) for elem in cover.sections
                    ]
                    for omega in range(bundle.base.omega_count)
                }
            out[name] = entry
        doc["covers"] = out
    if measures:
        doc["measures"] = {
            name: {
                "Q": {
                    bundle.base.labels[w]: mu.transitions[w].tolist()
                    for w in range(bundle.base.omega_count)
                }
            }
            for name, mu in measures.items()
        }
    return doc
