"""Tests of the benchmark itself: every workload runs at its smallest size,
prints every metric BENCHMARK.json names, and its output checks can fail.

    python3 -m pytest bench
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import oracle  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("traced", [0, 1])
def test_smallest_run_prints_every_metric(workload, traced, tmp_path):
    out, spans = tmp_path / "runs.jsonl", tmp_path / "spans.jsonl"
    proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(traced), "--small", "--out", str(out), "--spans", str(spans))
    res = result(proc)
    record = json.loads(out.read_text())
    assert record["metrics"] == res["metrics"] and record["workload"] == workload
    assert {"python", "numpy", "click", "nproc", "commit", "src_lines"} <= set(record["meta"])
    assert record["meta"]["src_lines"]["covers.py"] > 0
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    names = SPEC["per_layer"] if traced else SPEC["end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in names]
    for m in names:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert proc.stdout.count(m["name"]) >= 2  # the human line and the JSON
    if traced:
        assert res["metrics"]["failed_frac"]["value"] == 0.0
        rows = [json.loads(line) for line in spans.read_text().splitlines()]
        first = workloads.build(workload, 1, small=True).jobs[0]
        assert f"cli.{first.subcommand}" in {r[0] for r in rows}
        assert all(r[1] <= r[2] and r[3] < i for i, r in enumerate(rows))
        checks = sum(v["value"] for k, v in res["metrics"].items() if k.startswith("harness.check."))
        assert (checks > 0) == (workload == "verify")


def test_same_seed_same_inputs():
    a = workloads.build("refine", 5)
    b = workloads.build("refine", 5)
    c = workloads.build("refine", 6)
    assert a.docs == b.docs and [j.argv for j in a.jobs] == [j.argv for j in b.jobs]
    assert a.docs != c.docs


def test_corrupted_reference_fails_the_run(tmp_path):
    import run

    sys.path.insert(0, run.SRC)
    ref = run.load_reference()
    ref["gm.topent.zero_cyl.6"]["certified_upper"] += 1e-9
    args = run.parse_args(["--workload", "horizon", "--seed", "1", "--seconds", "1", "--small"])
    cli, wl, paths = run.set_up(args, str(tmp_path))
    runner = run.Runner(cli, wl, paths, str(tmp_path), ref)
    runner.round()
    runner.round()  # the same reports again: the verdicts are reused
    assert runner.failed == 2 and list(runner.problems) == ["gm.topent.zero_cyl.6"]
    clean = run.Runner(cli, wl, paths, str(tmp_path), run.load_reference())
    clean.round()
    assert clean.failed == 0 and clean.attempted == len(wl.jobs)


def test_checks_reject_a_perturbed_report():
    wl = workloads.build("horizon", 1, small=True)
    job = next(j for j in wl.jobs if j.name.startswith("b0.topent.zero_cyl"))
    doc = wl.docs["b0"]
    d = oracle.Doc(doc)
    seq = oracle.singleton_sequence(d, 4)
    good = {"report": {"sequence": [[n + 1, v] for n, v in enumerate(seq)],
                       "certified_upper": min(seq), "exact_rate": oracle.cycle_rate(d)}}
    assert job.check(good, {}, {}) == []
    bad = copy.deepcopy(good)
    bad["report"]["sequence"][2][1] += 1e-10
    assert job.check(bad, {}, {})


def test_oracle_counts_agree_with_brute_force():
    doc = workloads.build("horizon", 2).docs["b3"]
    d = oracle.Doc(doc)
    for omega in range(d.fibers):
        for start in range(3):
            for n in range(1, 7):
                assert d.count(omega, start, n) == d.brute_count(omega, start, n)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "search", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_compare_flags_a_regression(tmp_path):
    def runs(path, scale):
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(5):
                metrics = {m["name"]: {"value": (1.0 + 0.01 * i) * scale, "unit": m["unit"]}
                           for m in SPEC["end_to_end"]}
                fh.write(json.dumps({"workload": "search", "trace": 0, "metrics": metrics}) + "\n")

    runs(tmp_path / "old.jsonl", 1.0)
    runs(tmp_path / "new.jsonl", 1.5)
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "compare.py"), str(tmp_path / "old.jsonl"),
         str(tmp_path / "new.jsonl")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert "wall_s=1.500 WORSE" in proc.stdout


def test_pace_scales_times_to_the_nominal_pace():
    import run

    nominal = run.PACE_NOMINAL_S
    assert run.paced(2.0, nominal, nominal) == 2.0
    # on a host at half the nominal pace the loop reads twice as long
    assert run.paced(2.0, 2 * nominal, 2 * nominal) == 1.0
    assert run.pace_s() > 0
