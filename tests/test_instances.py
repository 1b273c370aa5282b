import glob
import json

import pytest
from click.testing import CliRunner
from hypothesis import given
from hypothesis import strategies as st

from rdelab import presets, validate, zero_cylinders
from rdelab.base import admissible_tuples
from rdelab.cli import main
from rdelab.covers import PositionedCover, PositionedPartition
from rdelab.harness import gen_instance
from rdelab.instances import (
    SchemaError,
    canonical_json,
    dump_instance,
    loads_instance,
    parse_instance,
)

from conftest import small_cover


def golden_doc():
    return {
        "alphabet": ["a", "b"],
        "omega": ["w0", "w1"],
        "theta": [1, 0],
        "P": [0.5, 0.5],
        "adjacency": {"w0": [[1, 1], [1, 1]], "w1": [[1, 1], [1, 0]]},
        "covers": {
            "zero_cyl": {"window": 1, "product": [["a"], ["b"]]},
            "overlap": {"window": 1, "product": [["a", "b"], ["b"]]},
            "split": {
                "window": 1,
                "per_omega": {"w0": [["a"], ["b"]], "w1": [["a", "b"], []]},
            },
        },
        "measures": {
            "balanced": {
                "Q": {"w0": [[0.5, 0.5], [0.5, 0.5]], "w1": [[0.5, 0.5], [1, 0]]}
            }
        },
    }


class TestParsing:
    def test_round_trip(self, gm, gm_measure):
        doc = dump_instance(
            gm,
            covers={"zero": zero_cylinders(gm)},
            measures={"m": gm_measure},
        )
        loaded = parse_instance(doc)
        assert loaded.bundle.base.labels == gm.base.labels
        assert loaded.covers["zero"].sections == zero_cylinders(gm).sections
        assert loaded.measures["m"].starts[0] == pytest.approx(
            gm_measure.starts[0], abs=1e-12
        )

    def test_loaded_instance_round_trips(self):
        loaded = parse_instance(golden_doc())
        doc = dump_instance(loaded.bundle, loaded.covers, loaded.measures)
        again = parse_instance(doc)
        assert dump_instance(again.bundle, again.covers, again.measures) == doc
        assert doc["measures"] == golden_doc()["measures"]
        for name, mu in loaded.measures.items():
            assert [q.tobytes() for q in again.measures[name].transitions] == [
                q.tobytes() for q in mu.transitions
            ]
            assert [p.tobytes() for p in again.measures[name].starts] == [
                p.tobytes() for p in mu.starts
            ]

    def test_measures_are_solved_on_first_read(self, monkeypatch):
        import rdelab.instances as instances

        calls = []
        real = instances.stationary_starts
        monkeypatch.setattr(
            instances,
            "stationary_starts",
            lambda *args, **kwargs: calls.append(None) or real(*args, **kwargs),
        )
        loaded = parse_instance(golden_doc())
        assert calls == [] and "balanced" in loaded.measures and len(loaded.measures) == 1
        mu = loaded.measures["balanced"]
        assert loaded.measures["balanced"] is mu and len(calls) == 1
        with pytest.raises(KeyError):
            loaded.measures["nope"]
        with pytest.raises(TypeError):
            loaded.measures["other"] = mu

    @given(st.data())
    def test_cover_round_trip_keeps_the_window(self, data):
        bundle = presets.alternating_golden_mean()
        cover = data.draw(small_cover(bundle))
        if cover.start != 0:
            # the schema has no window start, so reloading would move it
            with pytest.raises(SchemaError, match="starts at"):
                dump_instance(bundle, covers={"c": cover})
            return
        loaded = parse_instance(dump_instance(bundle, covers={"c": cover}))
        back = loaded.covers["c"]
        assert back.window == cover.window
        assert back.sections == cover.sections
        assert back.product_sections == cover.product_sections

    def test_partitions_detected(self):
        loaded = parse_instance(golden_doc())
        assert isinstance(loaded.covers["zero_cyl"], PositionedPartition)
        assert not isinstance(loaded.covers["overlap"], PositionedPartition)
        assert isinstance(loaded.covers["split"], PositionedPartition)

    def test_word_strings_and_lists_agree(self):
        doc = golden_doc()
        doc["covers"]["zero_cyl"]["product"] = [[["a"]], [["b"]]]
        a = parse_instance(golden_doc()).covers["zero_cyl"]
        b = parse_instance(doc).covers["zero_cyl"]
        assert a.sections == b.sections

    def test_measure_starts_are_derived(self):
        loaded = parse_instance(golden_doc())
        assert loaded.measures["balanced"].starts[0] == pytest.approx(
            [0.75, 0.25], abs=1e-12
        )


class TestStrictness:
    def test_unknown_top_level_field(self):
        doc = golden_doc()
        doc["comment"] = "nope"
        with pytest.raises(SchemaError, match="unknown top-level"):
            parse_instance(doc)

    def test_unknown_cover_field(self):
        doc = golden_doc()
        doc["covers"]["zero_cyl"]["label"] = "x"
        with pytest.raises(SchemaError, match="unknown fields"):
            parse_instance(doc)

    def test_unknown_measure_field(self):
        doc = golden_doc()
        doc["measures"]["balanced"]["p"] = [0.5, 0.5]
        with pytest.raises(SchemaError, match="unknown fields"):
            parse_instance(doc)

    def test_adjacency_keys_must_match(self):
        doc = golden_doc()
        doc["adjacency"]["w2"] = [[1, 1], [1, 1]]
        with pytest.raises(SchemaError, match="exactly the declared fibers"):
            parse_instance(doc)

    def test_unknown_symbol_in_word(self):
        doc = golden_doc()
        doc["covers"]["zero_cyl"]["product"] = [["a"], ["z"]]
        with pytest.raises(SchemaError, match="unknown symbol"):
            parse_instance(doc)

    def test_word_window_mismatch(self):
        doc = golden_doc()
        doc["covers"]["zero_cyl"]["product"] = [["aa"], ["b"]]
        with pytest.raises(SchemaError, match="span the window"):
            parse_instance(doc)

    def test_theta_must_be_permutation_indices(self):
        doc = golden_doc()
        doc["theta"] = [1, 2]
        with pytest.raises(SchemaError, match="index fibers"):
            parse_instance(doc)

    def test_product_xor_per_omega(self):
        doc = golden_doc()
        doc["covers"]["zero_cyl"]["per_omega"] = {
            "w0": [["a"], ["b"]],
            "w1": [["a"], ["b"]],
        }
        with pytest.raises(SchemaError, match="exactly one of"):
            parse_instance(doc)

    def test_invalid_json_text(self):
        with pytest.raises(SchemaError, match="not valid JSON"):
            loads_instance("{nope")

    def test_uncovering_cover_rejected(self):
        doc = golden_doc()
        doc["covers"]["zero_cyl"]["product"] = [["a"], ["a"]]
        with pytest.raises(SchemaError, match="covering"):
            parse_instance(doc)

    def test_bad_measure_rows_rejected(self):
        doc = golden_doc()
        doc["measures"]["balanced"]["Q"]["w0"] = [[0.9, 0.5], [0.5, 0.5]]
        with pytest.raises(SchemaError, match="sum"):
            parse_instance(doc)


class TestUncheckedLoading:
    def test_broken_bundle_loads_for_diagnosis(self):
        doc = golden_doc()
        doc["adjacency"]["w1"] = [[1, 1], [0, 0]]
        loaded = parse_instance(doc, check=False)
        report = validate(loaded.bundle)
        assert not report.ok
        assert any(p.code == "dead-row" for p in report.problems)
        assert loaded.covers == {}


class TestCanonicalJson:
    def test_sorted_and_stable(self):
        a = canonical_json({"b": 1, "a": [0.1, 2]})
        b = canonical_json({"a": [0.1, 2], "b": 1})
        assert a == b == '{"a":[0.1,2],"b":1}\n'

    def test_full_precision_floats(self):
        x = 0.5493061443340549
        assert repr(x)[:10] in canonical_json({"x": x})
        assert json.loads(canonical_json({"x": x}))["x"] == x


def three_symbol_dead_doc():
    # fiber w0 has dead rows 0 and 2 and dead columns 1 and 2, fiber w1 a
    # dead row 1: the messages list each fiber's rows, then its columns
    return {
        "alphabet": ["a", "b", "c"],
        "omega": ["w0", "w1"],
        "theta": [1, 0],
        "P": [0.5, 0.5],
        "adjacency": {
            "w0": [[0, 0, 0], [1, 0, 0], [0, 0, 0]],
            "w1": [[1, 1, 1], [0, 0, 0], [1, 0, 0]],
        },
    }


def edited(path, value):
    """``golden_doc()`` with the entry at ``path`` (a key sequence) set to
    ``value``."""
    doc = golden_doc()
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def multi_character_doc(product):
    return {
        "alphabet": ["aa", "b"],
        "omega": ["w0"],
        "theta": [0],
        "P": [1.0],
        "adjacency": {"w0": [[1, 1], [1, 1]]},
        "covers": {"c": {"window": 2, "product": product}},
    }


LOADER_ERRORS = {
    "bad-shape": (
        edited(["adjacency", "w0"], [[1, 1]]),
        "adjacency['w0'] must be a 2x2 matrix",
    ),
    "not-binary": (
        edited(["adjacency", "w0"], [[1, 2], [1, 1]]),
        "adjacency['w0'] entries must be 0 or 1",
    ),
    "dead-rows-and-columns": (
        three_symbol_dead_doc(),
        "fiber w0: row 0 (symbol a) has no outgoing edge; "
        "fiber w0: row 2 (symbol c) has no outgoing edge; "
        "fiber w0: column 1 (symbol b) has no incoming edge; "
        "fiber w0: column 2 (symbol c) has no incoming edge; "
        "fiber w1: row 1 (symbol b) has no outgoing edge",
    ),
    "multi-character-string-word": (
        # a list word may use the names; the string word after it may not
        multi_character_doc([[["aa", "b"]], ["bb"]]),
        "covers['c'].product[1]: string words need single-character symbol names",
    ),
    "unknown-symbol": (
        edited(["covers", "zero_cyl", "product"], [["a"], ["z"]]),
        "covers['zero_cyl'].product[1]: unknown symbol 'z'",
    ),
    "word-off-the-window": (
        edited(["covers", "zero_cyl", "product"], [["aa"], ["b"]]),
        "covers['zero_cyl'].product[0]: word 'aa' does not span the window",
    ),
    "uncovered-word": (
        edited(["covers", "zero_cyl", "product"], [["a"], ["a"]]),
        "covers['zero_cyl']: covering fails in fiber w0: word (1,) uncovered",
    ),
    "per-omega-fibers": (
        edited(["covers", "split", "per_omega"], {"w0": [["a"], ["b"]]}),
        "covers['split'].per_omega must name exactly the declared fibers",
    ),
    "per-omega-element-counts": (
        edited(["covers", "split", "per_omega"], {"w0": [["a"], ["b"]], "w1": [["a", "b"]]}),
        "covers['split']: every fiber must list the same number of elements",
    ),
    "empty-element-list": (
        edited(["covers", "zero_cyl", "product"], []),
        "covers['zero_cyl'].product must be a nonempty list",
    ),
    "mass-on-a-forbidden-edge": (
        edited(["measures", "balanced", "Q", "w1"], [[0.5, 0.5], [0.5, 0.5]]),
        "measures['balanced']: fiber w1: transition mass on a forbidden edge",
    ),
    "rows-off-one": (
        edited(["measures", "balanced", "Q", "w0"], [[0.9, 0.5], [0.5, 0.5]]),
        "measures['balanced']: fiber w0: rows must sum to 1",
    ),
}


class TestLoaderErrors:
    """Each load error keeps its exact message, and the CLI exits 3 on it."""

    @pytest.mark.parametrize("case", sorted(LOADER_ERRORS))
    def test_message_and_exit_code(self, case, tmp_path):
        doc, message = LOADER_ERRORS[case]
        with pytest.raises(ValueError) as err:
            parse_instance(doc)
        assert str(err.value) == message
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        res = CliRunner().invoke(
            main, ["topent", str(path), "--cover", "zero_cyl"], catch_exceptions=False
        )
        assert res.exit_code == 3
        assert res.output == f"schema error: {message}\n"

    def test_validate_lists_the_dead_rows_and_columns_in_order(self, tmp_path):
        path = tmp_path / "dead.json"
        path.write_text(json.dumps(three_symbol_dead_doc()))
        res = CliRunner().invoke(main, ["validate", str(path)], catch_exceptions=False)
        assert res.exit_code == 1
        message = LOADER_ERRORS["dead-rows-and-columns"][1]
        codes = ["dead-row", "dead-row", "dead-column", "dead-column", "dead-row"]
        assert res.output == "".join(
            f"violation [{code}]: {m}\n" for code, m in zip(codes, message.split("; "))
        )

    @pytest.mark.parametrize("symbol", [["b"], {"b": 1}, [["b"]]])
    def test_a_list_or_object_symbol_is_an_unknown_symbol(self, symbol):
        doc = edited(["covers", "zero_cyl", "product"], [["a"], [[symbol]]])
        with pytest.raises(SchemaError) as err:
            parse_instance(doc)
        assert str(err.value) == (
            f"covers['zero_cyl'].product[1]: unknown symbol {symbol!r}"
        )


def reference_covers(doc) -> dict:
    """Each cover of ``doc`` built straight from the schema's meaning: a
    section is the fiber's words of the element cut down to the fiber's
    admissible window words, the product sections (when every fiber lists
    the same words) their union, and the cover a partition when its
    sections are disjoint in every fiber."""
    bundle = parse_instance({k: v for k, v in doc.items() if k != "covers"}).bundle
    index = {s: i for i, s in enumerate(doc["alphabet"])}
    fibers = doc["omega"]
    out = {}
    for name, entry in doc.get("covers", {}).items():
        window = entry["window"]
        adm = [set(admissible_tuples(bundle, w, 0, window)) for w in range(len(fibers))]

        def word_set(words):
            return frozenset(tuple(index[s] for s in w) for w in words)

        if "product" in entry:
            raw = [[word_set(e)] * len(fibers) for e in entry["product"]]
        else:
            per = entry["per_omega"]
            raw = [
                [word_set(per[f][i]) for f in fibers]
                for i in range(len(per[fibers[0]]))
            ]
        sections = tuple(
            tuple(frozenset(e[w] & adm[w]) for w in range(len(fibers))) for e in raw
        )
        product = None
        if all(len(set(e)) == 1 for e in raw):
            product = tuple(frozenset().union(*e) for e in sections)
        disjoint = all(
            sum(len(e[w]) for e in sections) == len(set().union(*(e[w] for e in sections)))
            for w in range(len(fibers))
        )
        out[name] = (disjoint, (0, window), sections, product)
    return out


def parity_documents():
    for path in sorted(glob.glob("demos/instances/*.json")):
        if "broken" not in path:
            with open(path, encoding="utf-8") as fh:
                yield path, json.load(fh)
    for seed in range(100):
        inst = gen_instance(seed)
        yield f"gen_instance {seed}", dump_instance(inst.bundle, inst.covers, inst.measures)


class TestLoadedObjects:
    def test_covers_match_the_reference_builder(self):
        checked = 0
        for label, doc in parity_documents():
            loaded = parse_instance(doc)
            expected = reference_covers(doc)
            assert sorted(loaded.covers) == sorted(expected), label
            for name, cover in loaded.covers.items():
                disjoint, window, sections, product = expected[name]
                assert type(cover) is (
                    PositionedPartition if disjoint else PositionedCover
                ), (label, name)
                assert cover.window == window, (label, name)
                assert cover.sections == sections, (label, name)
                assert cover.product_sections == product, (label, name)
                for elem in cover.sections:
                    for sect in elem:
                        assert all(
                            type(s) is int for w in sect for s in w
                        ), (label, name)
                checked += 1
        assert checked > 400
