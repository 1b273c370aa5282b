import builtins
import json
import math
import time

import pytest
import numpy as np
from click.testing import CliRunner

import rdelab.harness as harness
import rdelab.variational as variational
from rdelab import (
    ProbBase,
    SymbolicBundle,
    cycle_growth_rate,
    stationary_starts,
    zero_cylinders,
)
from rdelab.cli import _default_measures, main
from rdelab.covers import PositionedPartition
from rdelab.harness import gen_instance
from rdelab.instances import dump_instance, load_instance

GOLDEN = "demos/instances/alternating_golden_mean.json"
FULL = "demos/instances/full_shift_2.json"
BROKEN = "demos/instances/broken_dead_row.json"


def run(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


class TestValidate:
    def test_ok_instance(self):
        res = run("validate", GOLDEN)
        assert res.exit_code == 0 and "ok" in res.output

    def test_broken_instance_names_the_row(self):
        res = run("validate", BROKEN)
        assert res.exit_code == 1
        assert "dead-row" in res.output and "w1" in res.output


class TestTopent:
    def test_exact_rate_line(self):
        res = run("topent", GOLDEN, "--cover", "zero_cyl", "--nmax", "12")
        assert res.exit_code == 0
        assert "exact rate 0.549306" in res.output

    def test_unknown_cover_exits_2(self):
        res = run("topent", GOLDEN, "--cover", "nope", "--nmax", "2")
        assert res.exit_code == 2
        assert "unknown cover" in res.output

    def test_default_join_cap(self):
        # covers.ELEMENT_CAP is 10**6: 2^19 index tuples pass, 2^20 trip it
        res = run("topent", GOLDEN, "--cover", "zero_cyl", "--nmax", "20")
        assert res.exit_code == 4
        assert "join would create 2^20 elements (cap 1000000)" in res.output
        res = run("topent", GOLDEN, "--cover", "zero_cyl", "--nmax", "19")
        assert res.exit_code == 0


class TestMeasent:
    def test_partition_report(self):
        res = run(
            "measent", GOLDEN, "--measure", "balanced", "--partition", "zero_cyl",
            "--nmax", "4",
        )
        assert res.exit_code == 0
        assert "exact rate 0.519860" in res.output

    def test_cover_minus_and_plus(self):
        res = run(
            "measent", GOLDEN, "--measure", "balanced", "--cover", "overlap",
            "--kind", "minus", "--nmax", "3",
        )
        assert res.exit_code == 0 and "certified upper bound" in res.output
        res = run(
            "measent", GOLDEN, "--measure", "balanced", "--cover", "overlap",
            "--kind", "plus", "--nmax", "3",
        )
        assert res.exit_code == 0 and "outer rate 0.000000" in res.output

    def test_requires_exactly_one_target(self):
        res = run("measent", GOLDEN, "--measure", "balanced", "--nmax", "2")
        assert res.exit_code == 2


class TestWitness:
    def test_two_step_run(self):
        res = run("witness", GOLDEN, "--cover", "zero_cyl", "--n", "2")
        assert res.exit_code == 0
        assert "separated words 12" in res.output
        assert "averaged inequalities: 2/2 hold" in res.output

    def test_vacuous_floor_is_json_null(self, tmp_path):
        # two fixed points, n=2: the full-count floor 2 // (2 * 2**2) is 0
        out = tmp_path / "witness.json"
        res = run(
            "witness", "demos/instances/two_fixed_points.json", "--cover", "zero_cyl",
            "--n", "2", "--json", str(out),
        )
        assert res.exit_code == 0
        report = json.loads(out.read_text())["report"]
        for check in report["averaged_checks"]:
            assert check["vacuous"] and check["rhs"] is None
        assert {c["rhs_submult"] for c in report["separation_checks"]} == {None}

    def test_horizon_guard_exits_4(self):
        res = run("witness", GOLDEN, "--cover", "zero_cyl", "--n", "5")
        assert res.exit_code == 4
        assert "guard" in res.output.lower()


class TestMaximize:
    def test_full_shift(self):
        res = run(
            "maximize", FULL, "--partition", "zero_cyl", "--budget", "200",
            "--seed", "0",
        )
        assert res.exit_code == 0
        assert "best value 0.69" in res.output

    def test_long_search_on_the_golden_mean(self, monkeypatch):
        # thousands of solves of the two-fiber cycle, each closing its orbit
        # within the constructor's tolerance; one solve of a search like this
        # once closed it only after its cycle product's residual had passed
        # (TestStationaryStarts in test_measures.py has its transition family)
        monkeypatch.setattr(variational, "SCORE_NMAX", 3)
        res = run("maximize", GOLDEN, "--cover", "overlap", "--budget", "12000")
        assert res.exit_code == 0
        assert "evaluations 12000" in res.output

    def test_a_chain_rule_target_gets_the_parry_family(self):
        res = run("maximize", GOLDEN, "--partition", "zero_cyl", "--budget", "50000")
        assert res.exit_code == 0
        assert "best value 0.549306" in res.output
        assert "gap        0.000000" in res.output
        assert "evaluations 1\n" in res.output

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_budget_below_one_is_a_usage_error(self, budget):
        res = run("maximize", FULL, "--partition", "zero_cyl", "--budget", budget)
        assert res.exit_code == 2
        assert "Invalid value for '--budget'" in res.output


@pytest.mark.parametrize(
    "args, option",
    [
        (["topent", GOLDEN, "--cover", "zero_cyl", "--nmax", "0"], "--nmax"),
        (["topent", GOLDEN, "--cover", "zero_cyl", "--nmax", "-2"], "--nmax"),
        (
            ["measent", GOLDEN, "--measure", "balanced", "--partition", "zero_cyl",
             "--nmax", "0"],
            "--nmax",
        ),
        (["witness", GOLDEN, "--cover", "zero_cyl", "--n", "0"], "--n"),
    ],
)
def test_horizon_below_one_is_a_usage_error(args, option, tmp_path):
    # exit 1 means a failed check; a horizon of no steps is a usage error
    out = tmp_path / "report.json"
    res = run(*args, "--json", str(out))
    assert res.exit_code == 2
    assert f"Invalid value for '{option}'" in res.output
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize(
    "args, option",
    [
        (
            ["measent", GOLDEN, "--measure", "balanced", "--cover", "overlap",
             "--mode", "product", "--enum-max"],
            "--enum-max",
        ),
        (["witness", GOLDEN, "--cover", "zero_cyl", "--n", "2", "--horizon-cap"],
         "--horizon-cap"),
    ],
)
def test_cap_below_one_is_a_usage_error(args, option, value, tmp_path):
    # exit 4 means a guard tripped on the input; a cap below one is a usage error
    out = tmp_path / "report.json"
    res = run(*args, value, "--json", str(out))
    assert res.exit_code == 2
    assert f"Invalid value for '{option}'" in res.output
    assert not out.exists()


class TestNaNMeasure:
    """``json`` reads ``NaN``; a measure holding one is a schema error."""

    @pytest.fixture
    def nan_file(self, tmp_path):
        doc = json.loads(open(GOLDEN).read())
        doc["measures"]["balanced"]["Q"]["w1"][0][1] = math.nan
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize(
        "args",
        [
            ["validate"],
            ["measent", "--measure", "balanced", "--partition", "zero_cyl", "--nmax", "2"],
        ],
    )
    def test_exits_3(self, nan_file, args):
        res = run(args[0], nan_file, *args[1:])
        assert res.exit_code == 3
        assert "schema error: measures['balanced']: fiber w1: rows must sum to 1" in res.output


class TestNaNWeight:
    """A NaN base weight is named by ``validate`` and refused on load."""

    @pytest.fixture
    def nan_file(self, tmp_path):
        doc = json.loads(open(GOLDEN).read())
        doc["P"][0] = math.nan
        path = tmp_path / "nan_weight.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_validate_names_it(self, nan_file):
        res = run("validate", nan_file)
        assert res.exit_code == 1
        assert "violation [weight-not-finite]: weights must be finite numbers" in res.output

    def test_topent_exits_3(self, nan_file, tmp_path):
        out = tmp_path / "report.json"
        res = run(
            "topent", nan_file, "--cover", "zero_cyl", "--nmax", "2", "--json", str(out)
        )
        assert res.exit_code == 3
        assert "schema error: weights must be finite numbers" in res.output
        assert not out.exists()


ANALYSES = {
    "topent": ["--cover", "zero_cyl"],
    "measent": ["--measure", "m", "--partition", "zero_cyl"],
    "witness": ["--cover", "zero_cyl", "--n", "2"],
    "maximize": ["--partition", "zero_cyl"],
}


class TestBrokenBundle:
    """A bundle that breaks an invariant is a schema error for every analysis;
    ``validate`` lists its violations instead."""

    @pytest.mark.parametrize("command", sorted(ANALYSES))
    def test_analysis_exits_3(self, command):
        res = run(command, BROKEN, *ANALYSES[command])
        assert res.exit_code == 3
        assert "schema error: fiber w1: row 1 (symbol b) has no outgoing edge" in res.output

    def test_verify_file_exits_3(self):
        res = run("verify", "--file", BROKEN)
        assert res.exit_code == 3
        assert "schema error: fiber w1: row 1 (symbol b)" in res.output

    def test_validate_keeps_its_violations(self):
        res = run("validate", BROKEN)
        assert res.exit_code == 1
        assert "violation [dead-row]" in res.output


def write_doc(tmp_path, doc, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def full_shift_window_24(tmp_path):
    # one fiber of the full 2-shift, a one-element product cover on a
    # window of 24: building the cover lists 2^24 admissible words
    return write_doc(
        tmp_path,
        {
            "alphabet": ["a", "b"],
            "omega": ["w0"],
            "theta": [0],
            "P": [1.0],
            "adjacency": {"w0": [[1, 1], [1, 1]]},
            "covers": {"long": {"window": 24, "product": [["a" * 24]]}},
            "measures": {"m": {"Q": {"w0": [[0.5, 0.5], [0.5, 0.5]]}}},
        },
    )


class TestLoadErrors:
    """A file whose load raises exits with the code of the error, before the
    command reads anything of it."""

    @pytest.mark.parametrize(
        "args",
        [
            ["validate"],
            ["topent", "--cover", "long"],
            ["measent", "--measure", "m", "--partition", "long"],
            ["witness", "--cover", "long", "--n", "1"],
            ["maximize", "--partition", "long"],
            ["verify", "--file"],
        ],
        ids=lambda a: a[0],
    )
    def test_a_guard_tripped_at_load_exits_4(self, args, tmp_path):
        path = full_shift_window_24(tmp_path)
        res = run(*args, path)
        assert res.exit_code == 4
        assert res.output == (
            "guard exceeded: window [0, 24) of fiber w0 has 16777216 admissible "
            "words (cap 1000000)\n"
        )

    def test_a_list_symbol_is_a_schema_error(self, tmp_path):
        with open(GOLDEN, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["covers"]["zero_cyl"]["product"] = [["a"], [[["b"]]]]
        res = run("validate", write_doc(tmp_path, doc))
        assert res.exit_code == 3
        assert res.output == (
            "schema error: covers['zero_cyl'].product[1]: unknown symbol ['b']\n"
        )


class TestVerify:
    def test_small_seeded_suite(self, tmp_path):
        out = tmp_path / "report.json"
        res = run(
            "verify", "--seed", "7", "--instances", "3", "--draws", "20",
            "--json", str(out),
        )
        assert res.exit_code == 0
        assert "suite ok" in res.output
        payload = json.loads(out.read_text())
        assert payload["ok"] is True

    def test_json_is_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            res = run(
                "verify", "--seed", "3", "--instances", "2", "--draws", "10",
                "--only", "mass-shift,cover-algebra", "--json", str(path),
            )
            assert res.exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "args, bad",
        [
            (["--only", "nonexistent"], "unknown check id 'nonexistent' (valid: "),
            (["--only", "mass-shift,nope"], "unknown check id 'nope' (valid: "),
            (["--instances", "0"], "Invalid value for '--instances'"),
            (["--draws", "0"], "Invalid value for '--draws'"),
            (["--draws", "-3"], "Invalid value for '--draws'"),
            (["--nmax", "0"], "Invalid value for '--nmax'"),
        ],
    )
    def test_vacuous_selections_are_usage_errors(self, args, bad, tmp_path):
        out = tmp_path / "report.json"
        res = run("verify", *args, "--json", str(out))
        assert res.exit_code == 2
        assert bad in res.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "caps",
        [
            "omega=0",
            "omega=-1",
            "window=0",
            "elements=0",
            "elements=1",
            "alphabet=0",
            "alphabet=-1",
        ],
    )
    def test_caps_below_their_floor_are_usage_errors(self, caps, tmp_path):
        out = tmp_path / "report.json"
        res = run("verify", "--caps", caps, "--json", str(out))
        assert res.exit_code == 2
        assert "caps need omega_max, alphabet_max and window_max >= 1" in res.output
        assert not out.exists()

    def test_one_symbol_alphabet_cap_runs(self):
        res = run(
            "verify", "--caps", "alphabet=1", "--seed", "3", "--instances", "2",
            "--draws", "10", "--only", "mass-shift,cover-algebra",
        )
        assert res.exit_code == 0
        assert "suite ok" in res.output

    def test_words_vs_counts_trips_the_word_cap_on_a_large_alphabet(self, tmp_path):
        # a one-fiber full shift on 40 symbols has 40**4 > WORD_CAP words of
        # length 4; the check lists them, so the count stops it before any
        # is built
        d = 40
        doc = {
            "alphabet": [f"s{i}" for i in range(d)],
            "omega": ["w0"],
            "theta": [0],
            "P": [1.0],
            "adjacency": {"w0": [[1] * d] * d},
        }
        path = tmp_path / "full40.json"
        path.write_text(json.dumps(doc))
        res = run("verify", "--file", str(path), "--only", "words-vs-counts")
        assert res.exit_code == 4
        assert (
            "guard exceeded: window [0, 4) of fiber w0 has 2560000 admissible "
            "words (cap 1000000)" in res.output
        )

    def test_file_driven_corpus(self):
        res = run(
            "verify", "--file", GOLDEN, "--only",
            "cond-entropy,mix-laws,measure-invariance",
        )
        assert res.exit_code == 0

    def test_a_file_cover_named_zero_is_checked_like_any_other(self, tmp_path):
        # the file's own "zero" is the overlapping cover, not the zero
        # cylinders that checks such as rate-below-top need
        with open(GOLDEN, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["covers"]["zero"] = doc["covers"]["overlap"]
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        checks = {}
        for name, source in (("own", str(path)), ("added", GOLDEN)):
            out = tmp_path / f"{name}.json"
            res = run("verify", "--file", source, "--json", str(out))
            assert res.exit_code == 0 and "suite ok" in res.output
            checks[name] = [r["check"] for r in json.loads(out.read_text())["results"]]
        # every check ran
        assert checks["own"] == checks["added"]

    @pytest.mark.parametrize("source", ["golden", "generated"])
    def test_variational_gap_checks_the_files_bundle(self, source, tmp_path, monkeypatch):
        # the check is exact: the Parry family's chain-rule rate is the
        # file's spectral rate, and a family that falls short fails it
        path = GOLDEN if source == "golden" else generated_file(tmp_path, 5)
        rate = cycle_growth_rate(load_instance(path).bundle).integrated
        if source == "generated":
            assert abs(rate - 0.5 * math.log(3)) > 0.01

        def gap_check(name):
            out = tmp_path / name
            res = run("verify", "--file", path, "--only", "variational-gap", "--json", str(out))
            (result,) = json.loads(out.read_text())["results"]
            assert result["kind"] == "exact"
            return res, result

        res, result = gap_check("parry.json")
        assert res.exit_code == 0
        assert (result["passes"], result["failures"]) == (1, 0)

        def uniform_rows(bundle):
            return _default_measures(bundle)["uniform"]

        monkeypatch.setattr(harness, "parry_measure", uniform_rows)
        res, result = gap_check("uniform.json")
        assert res.exit_code == 1
        assert "suite FAILED" in res.output
        (repro,) = result["failure_bundles"]
        assert repro["reference"] == rate
        assert repro["value"] < rate - 0.01

    def test_schema_error_exits_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"alphabet": ["a"], "omega": ["w"], "theta": [0], "P": [1.0], "adjacency": {"w": [[1]]}, "extra": 1}')
        res = run("topent", str(bad), "--cover", "x", "--nmax", "1")
        assert res.exit_code == 3
        assert "schema error" in res.output


@pytest.mark.parametrize(
    "args, window, words",
    [
        (["topent", "--cover", "overlap"], 4, 40**4),
        (["measent", "--measure", "uniform", "--cover", "overlap"], 6, 40**6),
        (["measent", "--measure", "uniform", "--cover", "overlap", "--kind", "plus"],
         6, 40**6),
    ],
)
def test_counts_and_measures_trip_the_word_cap_on_a_large_alphabet(
    args, window, words, tmp_path
):
    # the same one-fiber full shift on 40 symbols, with a two-element
    # cover and the uniform measure: the first window over WORD_CAP
    # stops each command, and no word list of it is built
    d = 40
    names = [f"s{i}" for i in range(d)]
    doc = {
        "alphabet": names,
        "omega": ["w0"],
        "theta": [0],
        "P": [1.0],
        "adjacency": {"w0": [[1] * d] * d},
        "covers": {
            "overlap": {
                "window": 1,
                "product": [[[s] for s in names[:21]], [[s] for s in names[20:]]],
            }
        },
        "measures": {"uniform": {"Q": {"w0": [[1 / d] * d] * d}}},
    }
    path = tmp_path / "full40.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    res = run(args[0], str(path), *args[1:])
    assert time.perf_counter() - start < 30
    assert res.exit_code == 4
    assert (
        f"guard exceeded: window [0, {window}) of fiber w0 has {words} admissible "
        "words (cap 1000000)" in res.output
    )


PLAIN_SUM = builtins.sum


def compensated_sum(values, start=0):
    """Builtin ``sum`` as Python 3.12 and later add floats: compensated
    (``math.fsum`` rounds the exact total once).  Integer sums stay exact."""
    values = list(values)
    if any(isinstance(x, float) for x in values):
        return math.fsum([start, *values])
    return PLAIN_SUM(values, start)


def report_jobs(path):
    """validate, then topent and measent (general and product minus,
    partition) runs on every cover and measure of an instance file."""
    inst = load_instance(path, check=False)
    jobs = [["validate", path]]
    for c, cover in sorted(inst.covers.items()):
        jobs.append(["topent", path, "--cover", c, "--nmax", "3"])
        for m in sorted(inst.measures):
            jobs.append(["measent", path, "--measure", m, "--cover", c, "--nmax", "3"])
            if cover.product_form:
                jobs.append(
                    ["measent", path, "--measure", m, "--cover", c, "--nmax", "2",
                     "--mode", "product", "--enum-max", "4096"]
                )
            if isinstance(cover, PositionedPartition):
                jobs.append(
                    ["measent", path, "--measure", m, "--partition", c, "--nmax", "3"]
                )
    return jobs


def generated_file(tmp_path, seed):
    path = tmp_path / f"gen{seed}.json"
    if seed == "ten-fixed-points":
        # ten fixed points whose weights add up to 1 + 4e-12 left to right,
        # a bundle validate rejects with the sum in its message: compensated,
        # that sum prints as 1.0000000000040001
        labels = [f"w{i}" for i in range(10)]
        doc = {
            "alphabet": ["a", "b"],
            "omega": labels,
            "theta": list(range(10)),
            "P": [0.1] * 9 + [0.1 + 4e-12],
            "adjacency": {w: [[1, 1], [1, 1]] for w in labels},
            "covers": {"zero_cyl": {"window": 1, "product": [["a"], ["b"]]}},
        }
        path.write_text(json.dumps(doc))
        return str(path)
    if seed == "six-cycle":
        # one theta-cycle of six points of weight 1/6: added left to right
        # the cycle's mass is 0x1.fffffffffffffp-1, compensated it is 1.0
        full, golden = [[1, 1], [1, 1]], [[1, 1], [1, 0]]
        bundle = SymbolicBundle(
            base=ProbBase(weights=(1 / 6,) * 6, theta=(1, 2, 3, 4, 5, 0)),
            alphabet=("a", "b"),
            adjacency=(full, golden) * 3,
        )
        rows = [np.array(a) / np.sum(a, axis=1, keepdims=True) for a in (full, golden)]
        covers = {"zero": zero_cylinders(bundle)}
        measures = {"m": stationary_starts(bundle, rows * 3)}
    else:
        inst = gen_instance(seed)
        bundle, covers, measures = inst.bundle, inst.covers, inst.measures
    path.write_text(json.dumps(dump_instance(bundle, covers, measures)))
    return str(path)


class TestReportsDoNotDependOnSum:
    """Reports keep their bytes when builtin ``sum`` compensates, as it does
    from Python 3.12 on.  Generated instances 4, 5 and 10 have three or four
    fibers or three symbols, so their sums have three or more terms, where
    compensation can change the last bit; the six-cycle instance changes
    a cycle's mass."""

    @pytest.mark.parametrize(
        "source",
        [
            GOLDEN, FULL, "demos/instances/two_fixed_points.json", 4, 5, 10,
            "six-cycle", "ten-fixed-points",
        ],
    )
    def test_same_bytes_with_a_compensated_sum(self, source, tmp_path, monkeypatch):
        path = str(source)
        if not path.endswith(".json"):
            path = generated_file(tmp_path, source)
        out = tmp_path / "report.json"
        for job in report_jobs(path):
            reports = []
            for summation in (PLAIN_SUM, compensated_sum):
                monkeypatch.setattr(builtins, "sum", summation)
                res = run(*job, "--json", str(out))
                monkeypatch.setattr(builtins, "sum", PLAIN_SUM)
                written = out.read_bytes() if out.exists() else None
                out.unlink(missing_ok=True)
                reports.append((res.exit_code, res.output, written))
            assert reports[0] == reports[1], job


def golden_with(tmp_path, **measures):
    """The golden-mean demo file with extra measures added."""
    with open(GOLDEN, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["measures"].update(measures)
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(doc))
    return str(path)


def counting_solves(monkeypatch):
    """Count the solves of file measures: the loader's ``stationary_starts``."""
    import rdelab.instances as instances

    calls = []
    real = instances.stationary_starts

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(instances, "stationary_starts", counting)
    return calls


def stalled_solves(monkeypatch):
    """Make every stationary-start solve trip its guard."""
    import rdelab.measures as measures
    from rdelab.base import PowerIterationError

    def stall(*args, **kwargs):
        raise PowerIterationError("stationary vector iteration stalled", 0.5)

    monkeypatch.setattr(measures, "_stationary_of", stall)


FILE_COMMANDS = {
    "validate": [],
    "topent": ["--cover", "zero_cyl", "--nmax", "2"],
    "measent": ["--measure", "balanced", "--partition", "zero_cyl", "--nmax", "2"],
    "witness": ["--cover", "zero_cyl", "--n", "2"],
    "maximize": ["--partition", "zero_cyl", "--budget", "20"],
}


class TestMeasuresSolvedOnRead:
    """A file's measures pass every schema check at load and are solved on
    their first read, so a command solves only the measure it reads."""

    BAD_ROWS = {"Q": {"w0": [[0.9, 0.5], [0.5, 0.5]], "w1": [[0.5, 0.5], [1, 0]]}}
    OTHER = {"Q": {"w0": [[0.5, 0.5], [0.5, 0.5]], "w1": [[0.5, 0.5], [1, 0]]}}

    @pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
    def test_an_unused_measure_with_bad_rows_exits_3(self, command, tmp_path):
        path = golden_with(tmp_path, bad=self.BAD_ROWS)
        res = run(command, path, *FILE_COMMANDS[command])
        assert res.exit_code == 3
        assert "schema error: measures['bad']: fiber w0: rows must sum to 1" in res.output

    def test_verify_file_with_bad_rows_exits_3(self, tmp_path):
        res = run("verify", "--file", golden_with(tmp_path, bad=self.BAD_ROWS))
        assert res.exit_code == 3
        assert "schema error: measures['bad']: fiber w0: rows must sum to 1" in res.output

    @pytest.mark.parametrize("command", ["topent", "witness", "maximize"])
    def test_commands_that_read_no_measure_solve_none(self, command, monkeypatch):
        calls = counting_solves(monkeypatch)
        res = run(command, GOLDEN, *FILE_COMMANDS[command])
        assert res.exit_code == 0
        assert calls == []

    def test_measent_solves_the_one_measure_it_reads(self, tmp_path, monkeypatch):
        path = golden_with(tmp_path, other=self.OTHER)
        calls = counting_solves(monkeypatch)
        res = run("measent", path, *FILE_COMMANDS["measent"])
        assert res.exit_code == 0
        assert len(calls) == 1

    def test_verify_file_solves_every_measure(self, tmp_path, monkeypatch):
        path = golden_with(tmp_path, other=self.OTHER)
        calls = counting_solves(monkeypatch)
        res = run("verify", "--file", path, "--only", "measure-invariance")
        assert res.exit_code == 0
        assert len(calls) == 2
        assert "pass 2, fail 0" in res.output

    @pytest.mark.parametrize("command", ["topent", "witness"])
    def test_a_stalled_solve_leaves_commands_that_read_no_measure(
        self, command, monkeypatch
    ):
        stalled_solves(monkeypatch)
        res = run(command, GOLDEN, *FILE_COMMANDS[command])
        assert res.exit_code == 0

    def test_a_stalled_solve_is_a_guard_trip_for_measent(self, monkeypatch, tmp_path):
        stalled_solves(monkeypatch)
        out = tmp_path / "report.json"
        res = run("measent", GOLDEN, *FILE_COMMANDS["measent"], "--json", str(out))
        assert res.exit_code == 4
        assert "guard exceeded: stationary vector iteration stalled" in res.output
        assert not out.exists()

    def test_a_stalled_solve_is_a_guard_trip_for_verify_file(self, monkeypatch):
        stalled_solves(monkeypatch)
        res = run("verify", "--file", GOLDEN, "--only", "measure-invariance")
        assert res.exit_code == 4
        assert "guard exceeded: stationary vector iteration stalled" in res.output

    def test_an_unknown_measure_is_named_before_any_solve(self, monkeypatch):
        # the file's one measure cannot be solved; naming another one is a
        # usage error, found without solving
        stalled_solves(monkeypatch)
        res = run("measent", GOLDEN, "--measure", "nope", "--partition", "zero_cyl")
        assert res.exit_code == 2
        assert "unknown measure 'nope' (available: balanced)" in res.output


class TestUnsolvableMeasure:
    """A measure whose starts fail their checks is a schema error when a
    command reads it, and no error for a command that does not."""

    @pytest.fixture(autouse=True)
    def inconsistent_starts(self, monkeypatch):
        import rdelab.measures as measures

        def point_mass(cycle, *args, **kwargs):
            return [np.array([1.0, 0.0]) for _ in cycle], True

        monkeypatch.setattr(measures, "_stationary_of", point_mass)

    def test_measent_exits_3(self):
        res = run("measent", GOLDEN, *FILE_COMMANDS["measent"])
        assert res.exit_code == 3
        assert "schema error: measures['balanced']: starts are not orbit consistent" in res.output

    def test_topent_runs(self):
        assert run("topent", GOLDEN, *FILE_COMMANDS["topent"]).exit_code == 0
