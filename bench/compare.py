"""Compare two sets of benchmark results.

    python3 bench/compare.py OLD.jsonl NEW.jsonl

Each file holds the JSON lines that ``bench/run.py --out FILE`` appends, one
per run.  For every workload, one row gives each end-to-end metric's median
ratio NEW/OLD with both medians.  A move past the metric's bound from
BENCHMARK.json is flagged ``WORSE`` or ``better``.  When either side's
run-to-run spread (interquartile range over median) exceeds the bound the
metric is ``unresolved``, unless every NEW run beats every OLD run.  Exits 1
when any metric is ``WORSE``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load(path: str) -> dict:
    """workload -> metric -> list of values, from the untraced runs."""
    out: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec["trace"]:
                continue
            per = out.setdefault(rec["workload"], {})
            for name, m in rec["metrics"].items():
                per.setdefault(name, []).append(m["value"])
    return out


def spread(values: list) -> float:
    if len(values) < 2:
        return float("inf")
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else float("inf")


def verdict(old: list, new: list, bound: float, better: str) -> tuple[float, str]:
    ratio = statistics.median(new) / statistics.median(old)
    worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if better == "lower":
        clean_win = max(new) < min(old)
    else:
        clean_win = min(new) > max(old)
    if max(spread(old), spread(new)) > bound and not clean_win:
        return ratio, "unresolved"
    if worse > bound:
        return ratio, "WORSE"
    if -worse > bound:
        return ratio, "better"
    return ratio, "same"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old")
    p.add_argument("new")
    args = p.parse_args(argv)
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    old, new = load(args.old), load(args.new)
    regressed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in old or workload not in new:
            print(f"{workload:8s} missing from {'OLD' if workload not in old else 'NEW'}")
            continue
        cells = []
        for m in spec["end_to_end"]:
            a, b = old[workload].get(m["name"]), new[workload].get(m["name"])
            if not a or not b:
                continue
            ratio, flag = verdict(a, b, m["bound"], m["better"])
            regressed |= flag == "WORSE"
            cells.append(
                f"{m['name']}={ratio:.3f} {flag} "
                f"({statistics.median(a):.4g} -> {statistics.median(b):.4g} {m['unit']}, "
                f"n={len(a)}/{len(b)})"
            )
        print(f"{workload:8s} " + "; ".join(cells))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
