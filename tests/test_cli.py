import json

from click.testing import CliRunner

from rdelab.cli import main

GOLDEN = "demos/instances/alternating_golden_mean.json"
FULL = "demos/instances/full_shift_2.json"
BROKEN = "demos/instances/broken_dead_row.json"


def run(*args, env=None):
    return CliRunner().invoke(main, list(args), env=env, catch_exceptions=False)


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

    def test_file_driven_corpus(self):
        res = run(
            "verify", "--file", GOLDEN, "--only",
            "cond-entropy,mix-laws,measure-invariance",
        )
        assert res.exit_code == 0

    def test_bad_thread_env_is_usage_error(self):
        res = run("verify", "--seed", "1", "--instances", "1", env={"RDE_LAB_THREADS": "x"})
        assert res.exit_code == 2

    def test_schema_error_exits_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"alphabet": ["a"], "omega": ["w"], "theta": [0], "P": [1.0], "adjacency": {"w": [[1]]}, "extra": 1}')
        res = run("topent", str(bad), "--cover", "x", "--nmax", "1")
        assert res.exit_code == 3
        assert "schema error" in res.output
