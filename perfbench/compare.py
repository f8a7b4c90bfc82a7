"""Diff two benchmark result files, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE.json NEW.json

Result files come from ``perfbench/suite.py``.  For every end-to-end metric
of ``BENCHMARK.json`` and every workload in both files this prints each
side's median and quartiles and a verdict on the normalized times:

- ``unresolved``: a side's spread (quartile distance over median) is wider
  than the metric's bound, and NEW does not beat BASE on every run;
- ``REGRESSION``: NEW's median is worse than BASE's by more than the bound;
- ``better``: NEW's median is better by more than BASE's own spread (or,
  when unresolved otherwise, every NEW run beats every BASE run);
- ``unchanged`` otherwise.

The same verdict is also taken on the raw times the files record.  Where
that one is resolved and differs from the verdict on the normalized times,
the metric is reported ``unresolved``, with both verdicts.

Failed operations in NEW where BASE had none are reported as ``FAILURES``.
Per-layer metrics from traced runs are listed with their medians, without
a verdict.  Exits 1 when any regression or new failure is found.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    _, mb, _ = quartiles(base)
    _, mn, _ = quartiles(new)
    change = sign * (mn - mb) / abs(mb)  # > 0 means NEW is worse
    dominates = max(sign * v for v in new) < min(sign * v for v in base)
    if max(spread(base), spread(new)) > bound:
        return "better" if dominates else "unresolved"
    if change > bound:
        return "REGRESSION"
    if -change > spread(base):
        return "better"
    return "unchanged"


def values(result: dict, workload: str, trace: int, metric: str,
           key: str = "metrics") -> list[float]:
    return [run[key][metric] for run in result["runs"].get(workload, [])
            if run["trace"] == trace and metric in run.get(key, {})]


def failures(result: dict, workload: str) -> int:
    return sum(run["failed"] for run in result["runs"].get(workload, []))


def compare(base: dict, new: dict, bench: dict, out=sys.stdout) -> int:
    bad = 0
    for workload in sorted(set(base["runs"]) & set(new["runs"])):
        print(f"{workload}", file=out)
        if failures(new, workload) > failures(base, workload):
            print(f"  FAILURES: {failures(new, workload)} failed operations "
                  f"(base {failures(base, workload)})", file=out)
            bad += 1
        for m in bench["end_to_end"]:
            a = values(base, workload, 0, m["name"])
            b = values(new, workload, 0, m["name"])
            if not a or not b:
                continue
            v = verdict(a, b, m["better"], m["bound"])
            ra = values(base, workload, 0, m["name"], "raw")
            rb = values(new, workload, 0, m["name"], "raw")
            if ra and rb:
                rv = verdict(ra, rb, m["better"], m["bound"])
                if rv not in ("unresolved", v):
                    v = f"unresolved ({v}; raw {rv})"
            bad += v == "REGRESSION"
            qa, qb = quartiles(a), quartiles(b)
            print(f"  {m['name']:14s} base {qa[1]:12.6g} [{qa[0]:.6g}, {qa[2]:.6g}]"
                  f"  new {qb[1]:12.6g} [{qb[0]:.6g}, {qb[2]:.6g}]"
                  f"  {100 * (qb[1] - qa[1]) / abs(qa[1]):+7.2f}%"
                  f"  bound {100 * m['bound']:.0f}%  {v}", file=out)
        for m in bench["per_layer"]:
            a = values(base, workload, 1, m["name"])
            b = values(new, workload, 1, m["name"])
            if a and b and (any(a) or any(b)):
                print(f"  {m['name']:44s} base {statistics.median(a):12.6g}"
                      f"  new {statistics.median(b):12.6g}", file=out)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Diff two benchmark result files.")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(args.base, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(args.new, encoding="utf-8") as fh:
        new = json.load(fh)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return compare(base, new, bench)


if __name__ == "__main__":
    sys.exit(main())
