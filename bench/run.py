"""rdelab benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload horizon --seed 1 --seconds 30 --trace 0

Set-up imports numpy, click and ``rdelab`` (from ``src/`` next to this
directory), builds the seeded instance documents and writes them as instance
files.  It is repeated a few times and the median reported.  The workload
then runs its fixed job list in rounds until ``--seconds`` are spent.  A job
is one CLI subcommand called in-process through the click entry point; it
loads its instance file afresh, as a CLI user does, and writes its JSON
report, which is checked after the round against values the library did not
compute.  The load is a closed loop: one job at a time in one process, with
BLAS and OpenMP pinned to one thread.  Times are scaled to a fixed host pace
(see ``pace_s``).

With ``--trace 0`` the last line of stdout holds the end-to-end metrics; with
``--trace 1`` untraced and traced rounds alternate and it holds the per-layer
metrics.  Earlier lines describe the run in words.  ``--out FILE`` appends
the result with run metadata to a JSON-lines file for ``bench/compare.py``.
"""

import os
import sys
import time

T0 = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("RDE_LAB_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from importlib import metadata  # noqa: E402

import click  # noqa: E402
import numpy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
TAIL_ABOVE = 10  # jobs that must lie above the reported tail percentile

# Host pace.  On a shared host the same code can run half again as fast in one
# second as in the next (clock scaling, neighbours on sibling cores), which
# swamps any bound a comparison could use.  A fixed pure-Python loop, timed
# just before and just after every job and set-up, measures the pace; each
# time is scaled by PACE_NOMINAL_S over the mean of the two loop times around
# it, so every time the benchmark reports is in seconds at a fixed nominal
# pace (the loop's median on a 2-CPU x86-64 cloud host).  The loop is the
# benchmark's own code, so a change to the program cannot move it.
PACE_NOMINAL_S = 0.9e-3
_PACE_KEYS = [(i % 97, i % 13, i % 7) for i in range(600)]


def load_reference() -> dict:
    """The stable values pinned at the commit that added the benchmark."""
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json lists, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def pace_s() -> float:
    """Seconds one fixed pass of the pace loop takes now."""
    start = time.perf_counter()
    table: dict = {}
    acc = 0
    for _ in range(3):
        for key in _PACE_KEYS:
            a, b, c = key
            table[key] = table.get(key, 0) + a * b - c
            acc ^= hash(key) & 1023
    return time.perf_counter() - start


def paced(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two pace readings, at the nominal pace."""
    return seconds * 2.0 * PACE_NOMINAL_S / (before + after)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def import_cli():
    """Import ``rdelab.cli`` from a clean slate (a CLI user's cold import)."""
    for name in [n for n in sys.modules if n == "rdelab" or n.startswith("rdelab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return importlib.import_module("rdelab.cli")


def set_up(args, workdir):
    """Import, generate and write; returns (cli module, workload, paths)."""
    cli = import_cli()
    wl = workloads.build(args.workload, args.seed, small=args.small)
    paths = {}
    for name, doc in wl.docs.items():
        paths[name] = os.path.join(workdir, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return cli, wl, paths


# ---------------------------------------------------------------------------
# running
# ---------------------------------------------------------------------------


def call(cli, argv) -> tuple[int, str]:
    """Run one subcommand in-process; returns (exit code, captured output)."""
    sink = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            cli.main.main(args=argv, prog_name="rdelab", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            exc.show()
            code = exc.exit_code
        except Exception as exc:  # a crash is a failed job, not a crashed benchmark
            sink.write(f"{type(exc).__name__}: {exc}\n")
            code = -1
    return code, sink.getvalue()


class Runner:
    def __init__(self, cli, wl, paths, workdir, reference):
        self.cli = cli
        self.wl = wl
        self.reference = reference
        self.outdir = os.path.join(workdir, "out")
        os.makedirs(self.outdir, exist_ok=True)
        self.argvs = []
        for job in wl.jobs:
            argv = [a.format(**paths) for a in job.argv]
            self.argvs.append(argv + ["--json", self._out(job)])
        self.attempted = 0
        self.failed = 0
        self.problems: dict = {}
        self._checked = None  # (exit codes, reports, verdicts) of the last check

    def _out(self, job) -> str:
        return os.path.join(self.outdir, job.name + ".json")

    def round(self, tracer=None) -> tuple[float, list, float]:
        """Run the job list once; returns (wall seconds, per-job seconds),
        both at the nominal pace, and the raw wall seconds."""
        for job in self.wl.jobs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self._out(job))
        codes, raw, paces = [], [], [pace_s()]
        gc.collect()
        for i, (job, argv) in enumerate(zip(self.wl.jobs, self.argvs)):
            t = time.perf_counter()
            if tracer is None:
                codes.append(call(self.cli, argv))
            else:
                tracer.start_job(i)
                with tracer.span(f"cli.{job.subcommand}"):
                    codes.append(call(self.cli, argv))
            raw.append(time.perf_counter() - t)
            paces.append(pace_s())
        times = [paced(t, a, b) for t, a, b in zip(raw, paces, paces[1:])]
        self._check(codes)
        return sum(times), times, sum(raw)

    def _check(self, codes):
        outputs = {}
        for job in self.wl.jobs:
            try:
                with open(self._out(job), encoding="utf-8") as fh:
                    outputs[job.name] = json.load(fh)
            except (OSError, ValueError):
                pass
        exits = [code for code, _ in codes]
        if self._checked and self._checked[:2] == (exits, outputs):
            verdicts = self._checked[2]  # the same reports as last round
        else:
            verdicts = [self._verdict(job, c, outputs) for job, c in zip(self.wl.jobs, codes)]
            self._checked = (exits, outputs, verdicts)
        for job, problems in zip(self.wl.jobs, verdicts):
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.setdefault(job.name, problems)

    def _verdict(self, job, code_text, outputs) -> list:
        code, text = code_text
        if code != 0:
            return [f"exit code {code}: {text.strip()[-300:]}"]
        if job.name not in outputs:
            return ["no JSON report written"]
        try:
            return job.check(outputs[job.name], outputs, self.reference)
        except Exception as exc:  # a malformed report fails its job
            return [f"check raised {type(exc).__name__}: {exc}"]


def tail_percentile(count: int) -> tuple[int, int]:
    """(percentile, 0-based rank) of the highest percentile that leaves at
    least TAIL_ABOVE of ``count`` sorted values above it; the maximum when
    there are too few values."""
    if count <= TAIL_ABOVE:
        return 100, count - 1
    rank = count - TAIL_ABOVE - 1
    return (100 * (rank + 1)) // count, rank


def end_to_end(walls, job_times, setups):
    per_job = sorted(statistics.median(ts) for ts in zip(*job_times))
    pct, rank = tail_percentile(len(per_job))
    values = {
        "wall_s": statistics.median(walls),
        "job_p50_s": statistics.median(per_job),
        "job_tail_s": per_job[rank],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "wall_s": f"median of {len(walls)} rounds at the nominal pace",
        "job_p50_s": f"median of {len(per_job)} jobs, each its median over the rounds",
        "job_tail_s": f"p{pct} of {len(per_job)} jobs",
        "setup_s": f"median of {len(setups)} set-ups",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return values, notes


def per_layer(units, tracer, traced_rounds, walls, traced_walls, checks, attempted, failed):
    total, own = tracer.totals()
    c = tracer.counters
    values = {}
    for name, unit in units.items():
        if name.endswith(".self_s"):
            v = own.get(name[: -len(".self_s")], 0.0)
        elif name.startswith("harness.check."):
            v = checks.get(name[len("harness.check.") : -len(".total_s")], 0.0)
        elif name.endswith(".total_s"):
            v = total.get(name[: -len(".total_s")], 0.0)
        else:
            v = c.get(name, 0.0)
        values[name] = v / traced_rounds if unit in ("s", "count") else v
    elements = c.get("covers.join.elements_out", 0.0)
    calls = c.get("base.admissible_tuples.calls", 0.0)
    values["covers.join.nonempty_ratio"] = c.get("covers.join.nonempty", 0.0) / elements if elements else 0.0
    values["base.admissible_tuples.repeat_ratio"] = c.get("base.admissible_tuples.repeats", 0.0) / calls if calls else 0.0
    values["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(walls)
    values["failed_frac"] = failed / attempted
    values["guards.tripped"] = sum(v for k, v in values.items() if k.startswith("guards.tripped."))
    return values


def check_breakdown(runner, cli):
    """Seconds per suite check on verify jobs: each id through ``--only``.
    Returns (seconds by id, problems of the calls that failed); the calls
    are not jobs of the workload, so they stay out of its failed share."""
    out, problems = {}, {}
    for job, argv in zip(runner.wl.jobs, runner.argvs):
        if job.subcommand != "verify":
            continue
        for cid in sys.modules["rdelab.harness"].CHECK_IDS:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                code, text = call(cli, argv[:-2] + ["--only", cid])
            finally:
                tracer.uninstall()
            if code != 0:
                problems[f"{job.name} --only {cid}"] = [f"exit code {code}: {text.strip()[-300:]}"]
            total, _ = tracer.totals()
            out[cid] = out.get(cid, 0.0) + total.get("harness.run_suite", 0.0)
    return out, problems


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------


def _commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def run_metadata() -> dict:
    lines = {}
    pkg = os.path.join(SRC, "rdelab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                lines[name] = sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "src_lines": lines,
        "src_lines_total": sum(lines.values()),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--small", action="store_true", help="smallest job sizes, for tests")
    p.add_argument("--out", default=None, help="append the result to this JSON-lines file")
    p.add_argument("--spans", default=None, help="write the traced spans to this file")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    imports_s = time.perf_counter() - T0
    if not os.path.isdir(os.path.join(SRC, "rdelab")):
        print(f"no rdelab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        paces = [pace_s()]
        imports_s = paced(imports_s, paces[0], paces[0])
        setups = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            cli, wl, paths = set_up(args, workdir)
            t = time.perf_counter() - t
            paces.append(pace_s())
            setups.append(imports_s + paced(t, paces[-2], paces[-1]))
        return measure(args, cli, wl, paths, workdir, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))


def measure(args, cli, wl, paths, workdir, setups) -> int:
    runner = Runner(cli, wl, paths, workdir, load_reference())
    tracer = tracing.Tracer(guards=cli.GUARDS) if args.trace else None
    # the traced run ends with a per-check pass over the verify jobs, which
    # costs about one untraced round
    breakdown = tracer is not None and any(j.subcommand == "verify" for j in wl.jobs)
    walls, job_times, traced_walls, raw_walls = [], [], [], []
    start = time.perf_counter()
    last = 0.0
    while True:
        traced = tracer is not None and len(walls) > len(traced_walls)
        t = time.perf_counter()
        if traced:
            tracer.install()
            try:
                wall, _, _ = runner.round(tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
        else:
            wall, times, raw = runner.round()
            walls.append(wall)
            raw_walls.append(raw)
            job_times.append(times)
        last = max(last, time.perf_counter() - t)
        reserve = max(walls) if breakdown else 0.0
        done = walls and (tracer is None or traced_walls)
        if done and time.perf_counter() - start + last + reserve > args.seconds:
            break
    checks, broken = check_breakdown(runner, cli) if tracer is not None else ({}, {})

    meta = run_metadata()
    print(f"# rdelab benchmark: workload {wl.name}, seed {args.seed}, {len(wl.jobs)} jobs per round, "
          f"{len(walls)} untraced and {len(traced_walls)} traced rounds")
    print("# " + json.dumps(meta, sort_keys=True))
    for name, problems in sorted(runner.problems.items()):
        print(f"# FAILED {name}: {'; '.join(problems)}")
    for name, problems in sorted(broken.items()):
        print(f"# FAILED check breakdown {name}: {'; '.join(problems)}")
    if tracer is None:
        values, notes = end_to_end(walls, job_times, setups)
        notes["wall_s"] += f", {statistics.median(raw_walls):.4g} s unscaled"
        units = metric_units("end_to_end")
    else:
        units = metric_units("per_layer")
        values = per_layer(units, tracer, len(traced_walls), walls, traced_walls, checks,
                           runner.attempted, runner.failed)
        notes = {}
        if args.spans:
            tracer.write(args.spans)
    for name, value in values.items():
        print(f"{name:50s} {value:14.6g} {units[name]:6s} {notes.get(name, '')}")
    print(f"failed_frac {runner.failed}/{runner.attempted}")
    result = {
        "correct": runner.failed == 0 and not broken,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }
    if args.out:
        record = dict(result, workload=wl.name, seed=args.seed, trace=args.trace,
                      notes=notes, meta=meta, problems={**runner.problems, **broken},
                      rounds_s=walls, unscaled_rounds_s=raw_walls,
                      job_s={j.name: statistics.median(ts) for j, ts in zip(wl.jobs, zip(*job_times))})
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
