"""Command line front end.

Binds instance files to the library and prints human tables (6 decimal
places) plus optional canonical JSON reports (full double precision, byte
stable for identical inputs and seeds).

Exit codes:

* 0  success, all requested checks passed
* 1  a validation or verification check failed
* 2  usage error or unknown cover/measure name
* 3  instance file violates the schema
* 4  a solver guard (size, enumeration, horizon, convergence) tripped
"""

from __future__ import annotations

import sys
from dataclasses import replace

import click

from .base import BundleError, validate
from .covers import CoverError, PositionedPartition, zero_cylinders
from .entropy import (
    h_minus_report,
    h_plus_value,
    partition_entropy_report,
    topological_cover_entropy,
)
from .guards import GUARDS
from .harness import GenParams, Instance, SuiteConfig, run_suite
from .instances import SchemaError, canonical_json, load_instance
from .measures import MeasureError, stationary_starts
from .variational import maximize_invariant_entropy, witness_measures

EXIT_CHECK_FAILED = 1
EXIT_NAME = 2
EXIT_SCHEMA = 3
EXIT_GUARD = 4


def _write_json(path, payload):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(payload))


def _schema_checked(fn):
    try:
        return fn()
    except (SchemaError, BundleError, CoverError, MeasureError) as exc:
        click.echo(f"schema error: {exc}", err=True)
        sys.exit(EXIT_SCHEMA)


def _load(path, check=True):
    return _solve(lambda: load_instance(path, check=check))


def _pick(mapping, name, kind):
    if name not in mapping:
        known = ", ".join(sorted(mapping)) or "none"
        click.echo(f"unknown {kind} {name!r} (available: {known})", err=True)
        sys.exit(EXIT_NAME)
    return mapping[name]


def _guarded(fn):
    try:
        return fn()
    except GUARDS as exc:
        click.echo(f"guard exceeded: {exc}", err=True)
        sys.exit(EXIT_GUARD)


def _solve(read):
    """``read()`` of a file, which loads it, or of a loaded file's measures,
    which solves them: a load or solve that fails its checks is a schema
    error, and a tripped guard exits 4."""
    return _guarded(lambda: _schema_checked(read))


def _print_report(rep):
    for n, v in rep.sequence:
        click.echo(f"  n={n:<3d} value {v:.6f}")
    click.echo(f"certified upper bound {rep.certified_upper:.6f}")
    if rep.exact_rate is not None:
        click.echo(f"exact rate {rep.exact_rate:.6f}")


@click.group(
    epilog="Exit codes: 0 ok, 1 check failed, 2 usage/unknown name, "
    "3 schema violation, 4 solver guard exceeded."
)
def main():
    """Entropy calculus for random subshifts of finite type."""


@main.command("validate")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "json_path", type=click.Path(), default=None)
def validate_cmd(file, json_path):
    """Check every structural invariant of the instance's bundle."""
    inst = _load(file, check=False)
    report = validate(inst.bundle)
    _write_json(json_path, report.to_dict())
    if report.ok:
        click.echo("ok: all invariants hold")
        return
    for p in report.problems:
        click.echo(f"violation [{p.code}]: {p.message}")
    sys.exit(EXIT_CHECK_FAILED)


@main.command("topent")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--cover", "cover_name", required=True)
@click.option("--nmax", type=click.IntRange(min=1), default=8, show_default=True)
@click.option("--json", "json_path", type=click.Path(), default=None)
def topent_cmd(file, cover_name, nmax, json_path):
    """Step-averaged cover complexities and their certified upper bound."""
    inst = _load(file)
    cover = _pick(inst.covers, cover_name, "cover")
    rep = _guarded(lambda: topological_cover_entropy(cover, nmax))
    _print_report(rep)
    _write_json(json_path, {"cover": cover_name, "report": rep.to_dict()})


@main.command("measent")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--measure", "measure_name", required=True)
@click.option("--partition", "partition_name", default=None)
@click.option("--cover", "cover_name", default=None)
@click.option(
    "--mode",
    type=click.Choice(["general", "product"]),
    default="general",
    show_default=True,
)
@click.option(
    "--kind",
    type=click.Choice(["minus", "plus"]),
    default="minus",
    show_default=True,
)
@click.option("--nmax", type=click.IntRange(min=1), default=6, show_default=True)
@click.option("--enum-max", type=click.IntRange(min=1), default=10**5, show_default=True)
@click.option("--json", "json_path", type=click.Path(), default=None)
def measent_cmd(
    file, measure_name, partition_name, cover_name, mode, kind, nmax, enum_max, json_path
):
    """Measure-theoretic entropy reports for a partition or a cover."""
    if (partition_name is None) == (cover_name is None):
        raise click.UsageError("need exactly one of --partition / --cover")
    inst = _load(file)
    mu = _solve(lambda: _pick(inst.measures, measure_name, "measure"))
    if partition_name is not None:
        target = _pick(inst.covers, partition_name, "partition")
        if not isinstance(target, PositionedPartition):
            click.echo(f"{partition_name!r} is a cover, not a partition", err=True)
            sys.exit(EXIT_NAME)
        rep = _guarded(lambda: partition_entropy_report(mu, target, nmax))
        _print_report(rep)
        payload = {"measure": measure_name, "partition": partition_name, "report": rep.to_dict()}
    else:
        cover = _pick(inst.covers, cover_name, "cover")
        if kind == "minus":
            rep = _guarded(
                lambda: h_minus_report(mu, cover, nmax, mode, enum_cap=enum_max)
            )
            _print_report(rep)
            payload = {
                "measure": measure_name,
                "cover": cover_name,
                "kind": kind,
                "mode": mode,
                "report": rep.to_dict(),
            }
        else:
            res = _guarded(lambda: h_plus_value(mu, cover, nmax, enum_cap=enum_max))
            click.echo(f"outer rate {res.value:.6f}")
            click.echo(f"candidates examined {len(res.candidate_values)}")
            payload = {
                "measure": measure_name,
                "cover": cover_name,
                "kind": kind,
                "result": res.to_dict(),
            }
    _write_json(json_path, payload)


@main.command("witness")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--cover", "cover_name", required=True)
@click.option("--n", "steps", type=click.IntRange(min=1), required=True)
@click.option("--horizon-cap", type=click.IntRange(min=1), default=24, show_default=True)
@click.option("--json", "json_path", type=click.Path(), default=None)
def witness_cmd(file, cover_name, steps, horizon_cap, json_path):
    """Separated-set witness measures and their counting certificates."""
    inst = _load(file)
    cover = _pick(inst.covers, cover_name, "cover")
    separated, nu, mu, rep = _guarded(
        lambda: witness_measures(cover, steps, horizon_cap=horizon_cap)
    )
    labels = inst.bundle.base.labels
    for omega, size in enumerate(rep.separated_sizes):
        click.echo(
            f"fiber {labels[omega]}: separated words {size}, "
            f"pulled count {rep.pulled_counts[omega]}, "
            f"full count {rep.full_counts[omega]}"
        )
    sep_ok = sum(1 for c in rep.separation_checks if c.ok)
    avg_ok = sum(1 for c in rep.averaged_checks if c.ok)
    click.echo(
        f"separation inequalities: {sep_ok}/{len(rep.separation_checks)} hold"
    )
    click.echo(f"averaged inequalities: {avg_ok}/{len(rep.averaged_checks)} hold")
    for c in rep.averaged_checks:
        click.echo(
            f"  refinement {c.refinement} block {c.block}: "
            f"{c.lhs:.6f} >= {c.rhs:.6f} {'ok' if c.ok else 'VIOLATED'}"
        )
    click.echo(
        f"averaged measure: horizon {rep.common_horizon}, support "
        + ", ".join(
            f"{labels[w]}:{mu.support_size(w)}" for w in range(len(labels))
        )
    )
    _write_json(json_path, {"cover": cover_name, "report": rep.to_dict()})
    if not rep.all_ok:
        sys.exit(EXIT_CHECK_FAILED)


@main.command("maximize")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--partition", "partition_name", default=None)
@click.option("--cover", "cover_name", default=None)
@click.option(
    "--budget",
    type=click.IntRange(min=1),
    default=2000,
    show_default=True,
    help="evaluations of the hill climb",
)
@click.option("--seed", type=int, default=0, show_default=True, help="seed of the hill climb")
@click.option("--json", "json_path", type=click.Path(), default=None)
def maximize_cmd(file, partition_name, cover_name, budget, seed, json_path):
    """An invariant Markov family of maximal entropy on the target.

    On a partition that pins a coordinate (such as zero_cyl) the answer is
    the random Parry family, in one evaluation, and --budget and --seed are
    not used.  Covers and other partitions are hill-climbed; the restarts
    run across the available CPUs in forked processes and are merged in
    restart order, so the report does not depend on how many CPUs there
    are; there is no option for this.

    On a hill-climbed target the value is the measure's certified upper
    bound at step 4, not its entropy, and the reference is the topological
    rate's bound at step 8: the gap compares two upper bounds and can be
    negative.
    """
    if (partition_name is None) == (cover_name is None):
        raise click.UsageError("need exactly one of --partition / --cover")
    inst = _load(file)
    name = partition_name or cover_name
    target = _pick(inst.covers, name, "cover")
    if partition_name is not None and not isinstance(target, PositionedPartition):
        click.echo(f"{name!r} is a cover, not a partition", err=True)
        sys.exit(EXIT_NAME)
    res = _guarded(lambda: maximize_invariant_entropy(target, budget, seed))
    click.echo(f"best value {res.value:.6f}")
    click.echo(f"reference  {res.reference:.6f}")
    click.echo(f"gap        {res.gap:.6f}")
    click.echo(f"evaluations {res.evaluations}")
    labels = inst.bundle.base.labels
    for omega, q in enumerate(res.measure.transitions):
        click.echo(f"Q[{labels[omega]}]:")
        for row in q:
            click.echo("  " + "  ".join(f"{x:.6f}" for x in row))
    _write_json(json_path, {"target": name, "result": res.to_dict()})


@main.command("verify")
@click.option(
    "--file",
    "file_path",
    type=click.Path(exists=True, dir_okay=False),
    help="check this instance in place of generated ones (hplus-power-trend "
    "always uses the built-in alternating golden mean)",
)
@click.option("--seed", type=int, default=7, show_default=True)
@click.option("--instances", type=click.IntRange(min=1), default=12, show_default=True)
@click.option("--draws", type=click.IntRange(min=1), default=200, show_default=True)
@click.option("--nmax", type=click.IntRange(min=1), default=4, show_default=True)
@click.option(
    "--caps",
    default=None,
    help="instance size caps, e.g. omega=4,alphabet=3,window=2,elements=4",
)
@click.option("--only", default=None, help="comma-separated check ids")
@click.option("--json", "json_path", type=click.Path(), default=None)
def verify_cmd(file_path, seed, instances, draws, nmax, caps, only, json_path):
    """Run the mechanical property suite; nonzero exit iff a hard check fails.

    The checks run across the available CPUs in forked processes and are
    reported in catalog order, so the report does not depend on how many
    CPUs there are; there is no option for this.
    """
    params = GenParams()
    if caps:
        fields = {
            "omega": "omega_max",
            "alphabet": "alphabet_max",
            "window": "window_max",
            "elements": "cover_elements_max",
        }
        updates = {}
        for piece in caps.split(","):
            if "=" not in piece:
                raise click.UsageError(f"bad --caps entry {piece!r}")
            key, _, value = piece.partition("=")
            if key.strip() not in fields:
                raise click.UsageError(f"unknown cap {key.strip()!r}")
            try:
                updates[fields[key.strip()]] = int(value)
            except ValueError:
                raise click.UsageError(f"cap {key.strip()!r} needs an integer")
        params = replace(params, **updates)
    try:
        config = SuiteConfig(
            seed=seed,
            instances=instances,
            draws=draws,
            nmax=nmax,
            params=params,
            only=tuple(s.strip() for s in only.split(",")) if only else (),
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))
    corpus = None
    if file_path:
        loaded = _load(file_path)
        covers = dict(loaded.covers)
        covers.setdefault("zero", zero_cylinders(loaded.bundle))
        measures = _solve(lambda: dict(loaded.measures)) or _default_measures(
            loaded.bundle
        )
        corpus = [
            Instance(
                seed=-1,
                params=GenParams(),
                bundle=loaded.bundle,
                covers=covers,
                measures=measures,
            )
        ]
    report = _guarded(lambda: run_suite(config, instances=corpus))
    for r in report.results:
        status = "pass" if r.failures == 0 else "FAIL"
        skipped = f", skipped {r.skipped}" if r.skipped else ""
        click.echo(
            f"{r.check:28s} {r.kind:5s} {status}  "
            f"(pass {r.passes}, fail {r.failures}{skipped})"
        )
    click.echo("suite ok" if report.ok else "suite FAILED")
    _write_json(json_path, report.to_dict())
    if not report.ok:
        sys.exit(EXIT_CHECK_FAILED)


def _default_measures(bundle):
    qs = []
    for omega in range(bundle.base.omega_count):
        a = bundle.adjacency[omega].astype(float)
        qs.append(a / a.sum(axis=1, keepdims=True))
    return {"uniform": stationary_starts(bundle, qs)}


if __name__ == "__main__":
    main()
