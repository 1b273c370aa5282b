"""The benchmark's per-layer tracer (``bench/tracing.py``) wraps library
functions and methods by name.  A name it cannot find breaks
``python3 bench/run.py --trace 1``, which no other test runs, so each of its
``TARGETS`` is resolved here the way ``Tracer.install`` resolves it."""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = []
    for modname, attr, _, _ in tracing.TARGETS:
        module = importlib.import_module(f"rdelab.{modname}")
        if "." in attr:
            # the tracer wraps the class's own attribute, not an inherited one
            cls_name, meth = attr.split(".")
            found = meth in vars(getattr(module, cls_name, object))
        else:
            found = callable(getattr(module, attr, None))
        if not found:
            missing.append(f"{modname}.{attr}")
    assert not missing, missing
