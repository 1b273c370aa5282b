"""Fingerprint every report a checkout of rdelab writes, for byte-identity checks.

    python3 tools/report_bytes.py ROOT SEED [SEED ...] > ROOT.txt

``ROOT`` is a checkout (its ``src/`` and ``bench/`` are used; nothing under
``bench/`` is written).  One line per job: a label, the exit code, the sha256
of the job's output with its temporary directory and ``ROOT`` masked, and the
sha256 of its ``--json`` bytes.  The jobs are:

* every job of the four benchmark workloads at each ``SEED``, built by
  ``bench/workloads.build`` and run in-process through ``bench/run.py``'s
  ``call``;
* ``verify`` at seeds 7 and 8, ``verify --file`` on each valid demo instance,
  and ``witness --n 1..3`` on every cover of every demo instance;
* ``maximize --budget 400`` at seeds 0 and 5 on every partition
  (``--partition``) and every other cover (``--cover``) of every valid demo
  instance;
* ``topent --nmax 6`` on every cover, and ``measent --nmax 4`` (``--kind
  minus`` in ``--mode general`` and ``--mode product``, and ``--kind plus``)
  on every cover and measure, of every valid demo instance: product mode on
  the two-fiber demo is the path most sensitive to the order of join
  elements;
* the stdout of each ``demos/*.py`` script, run with ``ROOT/src`` first on
  ``PYTHONPATH``.

Before the demo scripts' lines, one ``power`` line per valid demo instance,
cover and block step ``M`` in 1..3 reads ``block_power_system(cover, M)``
directly: its ``block_alphabet_sizes()``, ``block_word_count(omega, k)`` for
every fiber and ``k`` in 1..3, and the ``float.hex`` values of
``h_value_sequence(mu, 2, mode)`` for every measure in both modes, or the type
name of the error a call raises.  Then one ``load`` line per demo instance, the
broken one included, and per ``harness.gen_instance`` seed 0..19 written out
with ``dump_instance``: the sha256 over the class name, window, sections and
product sections of every cover the file loads to and over ``validate``'s
report of its bundle (as ``rdelab validate`` loads it), each part replaced by
the error type and message when its load raises.  Then one ``count`` line per
cover that is not a partition, of each valid demo instance and of ``harness.gen_instance``
seeds 0..19: ``covercomb.cover_count(cover, 6)``, or the type name of the
error it raises.  Then one ``perron`` line per valid demo
instance and per ``harness.gen_instance`` seed 0..19: the ``float.hex`` of
every cycle rate of ``cycle_growth_rate``, and the sha256 of the transition
and of the start bytes of ``parry_measure``, or the type name of the error
it raises.

Two checkouts give the same reports exactly when ``diff`` of their outputs is
empty.
"""

import glob
import hashlib
import json
import os
import subprocess
import sys
import tempfile


def sha(data) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def masked(text: str, root: str, tmp: str = "") -> bytes:
    if tmp:
        text = text.replace(tmp, "<tmp>")
    return text.replace(root, "<root>").encode()


def hex_sequence(ps, mu, mode):
    """``float.hex`` of each value of ``ps.h_value_sequence(mu, 2, mode)``, or
    the type name of the error it raises."""
    try:
        return [v.hex() for _, v in ps.h_value_sequence(mu, 2, mode).sequence]
    except Exception as exc:  # the line records which error, not its text
        return type(exc).__name__


def count_lines(label, covers):
    """The ``count`` lines of one instance: ``cover_count(cover, 6)`` of each
    cover that is not a partition, or the type name of the error it raises."""
    from rdelab.covercomb import cover_count
    from rdelab.covers import PositionedPartition

    for name in sorted(covers):
        if isinstance(covers[name], PositionedPartition):
            continue
        try:
            counts = cover_count(covers[name], 6)
        except Exception as exc:  # the line records which error, not its text
            counts = type(exc).__name__
        print("count", label, name, counts, flush=True)


def sorted_sets(sections):
    return [sorted(s) for s in sections]


def load_line(label, path):
    """The ``load`` line of one instance file: a sha256 over its loaded covers
    and its ``validate`` report, or over each one's error type and message."""
    from rdelab.base import validate
    from rdelab.instances import canonical_json, load_instance

    parts = []
    try:
        covers = load_instance(path).covers
        for name in sorted(covers):
            c = covers[name]
            product = None if c.product_sections is None else sorted_sets(c.product_sections)
            parts.append(repr((name, type(c).__name__, c.window,
                               [sorted_sets(e) for e in c.sections], product)))
    except Exception as exc:  # the line records the error, text included
        parts.append(f"{type(exc).__name__}: {exc}")
    try:
        parts.append(canonical_json(validate(load_instance(path, check=False).bundle).to_dict()))
    except Exception as exc:  # the line records the error, text included
        parts.append(f"{type(exc).__name__}: {exc}")
    print("load", label, sha("\n".join(parts).encode()), flush=True)


def perron_line(label, bundle):
    """The ``perron`` line of one bundle: its cycle rates as ``float.hex`` and
    the sha256 of its Parry family's transitions and starts."""
    from rdelab.base import cycle_growth_rate
    from rdelab.measures import parry_measure

    rates = [c.rate.hex() for c in cycle_growth_rate(bundle).cycles]
    try:
        mu = parry_measure(bundle)
        family = [sha(b"".join(m.tobytes() for m in part))
                  for part in (mu.transitions, mu.starts)]
    except Exception as exc:  # the line records which error, not its text
        family = [type(exc).__name__]
    print("perron", label, rates, *family, flush=True)


def main(argv) -> int:
    if len(argv) < 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    root = os.path.abspath(argv[0])
    seeds = [int(s) for s in argv[1:]]
    sys.dont_write_bytecode = True  # leave the checkout as it is
    sys.path[:0] = [os.path.join(root, "bench"), os.path.join(root, "src")]
    import run  # bench/run.py: pins BLAS threads, defines ``call``
    import workloads
    from rdelab.covers import PositionedPartition
    from rdelab.entropy import block_power_system
    from rdelab.harness import gen_instance
    from rdelab.instances import dump_instance, load_instance

    cli = run.import_cli()
    with tempfile.TemporaryDirectory() as tmp:

        def job(label, argv):
            out = os.path.join(tmp, "out.json")
            code, text = run.call(cli, argv + ["--json", out])
            try:
                with open(out, "rb") as fh:
                    report = sha(fh.read())
                os.remove(out)
            except FileNotFoundError:
                report = "-"
            print(label, code, sha(masked(text, root, tmp)), report, flush=True)

        for seed in seeds:
            for name in workloads.NAMES:
                wl = workloads.build(name, seed)
                paths = {}
                for doc_name, doc in wl.docs.items():
                    paths[doc_name] = os.path.join(tmp, f"{doc_name}.json")
                    with open(paths[doc_name], "w", encoding="utf-8") as fh:
                        json.dump(doc, fh)
                for w in wl.jobs:
                    job(f"{name} {seed} {w.name}", [a.format(**paths) for a in w.argv])
        for seed in (7, 8):
            job(f"verify-seed {seed}", ["verify", "--seed", str(seed)])
        demos = sorted(glob.glob(os.path.join(root, "demos", "instances", "*.json")))
        for path in demos:
            base = os.path.basename(path)
            if "broken" not in base:
                job(f"verify-file {base}", ["verify", "--file", path])
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            covers = sorted(doc.get("covers", {}))
            measures = sorted(doc.get("measures", {}))
            for cover in covers:
                for n in (1, 2, 3):
                    job(f"witness {base} {cover} {n}",
                        ["witness", path, "--cover", cover, "--n", str(n)])
            if "broken" not in base:
                targets = load_instance(path).covers
                for cover in covers:
                    kind = isinstance(targets[cover], PositionedPartition)
                    flag = "--partition" if kind else "--cover"
                    for seed in (0, 5):
                        job(f"maximize {base} {cover} {seed}",
                            ["maximize", path, flag, cover, "--budget", "400",
                             "--seed", str(seed)])
                    job(f"topent {base} {cover}",
                        ["topent", path, "--cover", cover, "--nmax", "6"])
                    for measure in measures:
                        for kind in (["minus", "--mode", "general"],
                                     ["minus", "--mode", "product"], ["plus"]):
                            job(f"measent {base} {cover} {measure} {' '.join(kind)}",
                                ["measent", path, "--measure", measure, "--cover",
                                 cover, "--nmax", "4", "--kind", *kind])
    for path in demos:
        if "broken" in os.path.basename(path):
            continue
        inst = load_instance(path)
        for cover in sorted(inst.covers):
            for steps in (1, 2, 3):
                ps = block_power_system(inst.covers[cover], steps)
                counts = [[ps.block_word_count(omega, k) for k in (1, 2, 3)]
                          for omega in range(inst.bundle.base.omega_count)]
                values = [f"{m}/{mode}={hex_sequence(ps, inst.measures[m], mode)}"
                          for m in sorted(inst.measures) for mode in ("general", "product")]
                print("power", os.path.basename(path), cover, steps,
                      ps.block_alphabet_sizes(), counts, *values, flush=True)
    for path in demos:
        load_line(os.path.basename(path), path)
    with tempfile.TemporaryDirectory() as tmp:
        for seed in range(20):
            inst = gen_instance(seed)
            path = os.path.join(tmp, f"gen{seed}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(dump_instance(inst.bundle, inst.covers, inst.measures), fh)
            load_line(f"gen_instance {seed}", path)
    for path in demos:
        if "broken" not in os.path.basename(path):
            count_lines(os.path.basename(path), load_instance(path).covers)
    for seed in range(20):
        count_lines(f"gen_instance {seed}", gen_instance(seed).covers)
    for path in demos:
        if "broken" not in os.path.basename(path):
            perron_line(os.path.basename(path), load_instance(path).bundle)
    for seed in range(20):
        perron_line(f"gen_instance {seed}", gen_instance(seed).bundle)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    for demo in sorted(glob.glob(os.path.join(root, "demos", "*.py"))):
        res = subprocess.run([sys.executable, demo], cwd=root, env=env,
                             capture_output=True, text=True)
        print(f"demo {os.path.basename(demo)}", res.returncode, sha(masked(res.stdout, root)), "-")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
