"""The shape of the public interface."""

import dataclasses
import importlib
import inspect

import rdelab

MODULES = ["base", "covers", "covercomb", "measures", "entropy", "variational", "harness"]

# annotations, and names of unannotated parameters, that hand over a cover,
# which carries its bundle
COVER_TYPES = ("PositionedCover", "PositionedPartition")
COVER_NAMES = {"cover", "partition", "partitions", "target"}


def _public_objects():
    seen = {name: obj for name, obj in vars(rdelab).items() if not name.startswith("_")}
    for module in MODULES:
        mod = importlib.import_module(f"rdelab.{module}")
        for name in getattr(mod, "__all__", ()):
            seen.setdefault(name, getattr(mod, name))
    return seen


def _signatures(name, obj):
    if inspect.isfunction(obj):
        yield name, inspect.signature(obj)
    elif inspect.isclass(obj) and obj.__module__.startswith("rdelab"):
        if dataclasses.is_dataclass(obj):
            yield name, inspect.signature(obj)
        for attr, member in vars(obj).items():
            if inspect.isfunction(member) and not attr.startswith("_"):
                yield f"{name}.{attr}", inspect.signature(member)


def _takes_a_cover(param):
    if param.annotation is param.empty:
        return param.name in COVER_NAMES
    return any(t in str(param.annotation) for t in COVER_TYPES)


def test_no_signature_asks_for_a_bundle_beside_a_cover():
    with_cover, both = set(), []
    for name, obj in sorted(_public_objects().items()):
        for where, sig in _signatures(name, obj):
            params = list(sig.parameters.values())
            if any(map(_takes_a_cover, params)):
                with_cover.add(where)
                if any(p.name == "bundle" for p in params):
                    both.append(where)
    # not vacuous: signatures that hand over a cover are recognised
    assert {"topological_cover_entropy", "cover_count", "PowerSystem"} <= with_cover
    assert both == []
