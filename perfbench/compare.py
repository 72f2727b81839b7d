"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/run.py --workload W --seed N --seconds S --record base.jsonl
    ...  (the same runs on the other commit, into change.jsonl)
    python3 perfbench/compare.py base.jsonl change.jsonl

Each side is a JSONL file of ``record`` lines, or a directory of such files.
For every workload and end-to-end metric of ``BENCHMARK.json`` it prints each
side's median and quartiles and a verdict: ``worse`` or ``better`` when the
medians differ by more than the metric's bound, ``same`` when they do not,
and ``unresolved`` when either side's spread (quartile distance over median)
is wider than the bound, unless every run of the change beats every run of
the base. Exits 1 if any metric is worse.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, from the untraced records under ``path``."""
    files = sorted(glob.glob(os.path.join(path, "*.jsonl"))) if os.path.isdir(path) else [path]
    out: dict[str, dict[str, list[float]]] = {}
    for name in files:
        with open(name, encoding="ascii") as f:
            for line in f:
                rec = json.loads(line.removeprefix("record "))
                if rec["trace"]:
                    continue
                for metric, m in rec["metrics"].items():
                    out.setdefault(rec["workload"], {}).setdefault(metric, []).append(m["value"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    (b1, bm, b3), (c1, cm, c3) = quartiles(base), quartiles(change)
    if max((b3 - b1) / abs(bm), (c3 - c1) / abs(cm)) > bound:
        every_run_better = max(change) < min(base) if better == "lower" else min(change) > max(base)
        return "better" if every_run_better else "unresolved"
    rel = sign * (cm - bm) / abs(bm)
    if rel > bound:
        return "worse"
    if rel < -bound:
        return "better"
    return "same"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", help="JSONL file or directory of the base runs")
    p.add_argument("change", help="JSONL file or directory of the changed runs")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as f:
        metrics = json.load(f)["end_to_end"]
    base, change = load(args.base), load(args.change)
    worse = False
    print(f"{'workload':16s} {'metric':14s} {'base median [q1, q3] (n)':>36s}  "
          f"{'change median [q1, q3] (n)':>36s}  {'diff':>7s}  verdict")
    for workload in sorted(set(base) | set(change)):
        for m in metrics:
            b = base.get(workload, {}).get(m["name"])
            c = change.get(workload, {}).get(m["name"])
            if not b or not c:
                print(f"{workload:16s} {m['name']:14s} missing on one side")
                continue
            v = verdict(b, c, m["better"], m["bound"])
            worse |= v == "worse"
            cols = []
            for values in (b, c):
                q1, med, q3 = quartiles(values)
                cols.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] ({len(values)})")
            diff = (quartiles(c)[1] - quartiles(b)[1]) / abs(quartiles(b)[1])
            print(f"{workload:16s} {m['name']:14s} {cols[0]:>36s}  {cols[1]:>36s}  "
                  f"{diff:+7.1%}  {v} (bound {m['bound']:.0%} {m['unit']})")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
