import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rdelab import presets, validate, zero_cylinders
from rdelab.covers import PositionedPartition
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
