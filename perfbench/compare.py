"""Judge a change against its parent from two sets of benchmark results.

Usage (from the repository root):

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records that ``run.py --record FILE`` appends, one per
untraced run. A pair is one parent and one change run of the same workload
and seed; the side that ran first must alternate from pair to pair. For
every end-to-end metric in BENCHMARK.json, on every workload:

- ``improved``: at least 10 pairs, the change wins at least 9 in 10 of them
  (ties count for neither), and the medians differ in its favour by more
  than the parent's interquartile range;
- ``unresolved``: fewer than 10 pairs, pairs that did not alternate, or a
  parent spread (interquartile range over median) wider than the metric's
  bound, unless every change run beats every parent run;
- ``worse``: the change median is worse than the parent median by more than
  the bound;
- ``no-worse``: otherwise.

A workload whose change runs fail more invocations than the parent's is
``worse`` whatever its timings. One row is printed per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9
ORDER = ("worse", "unresolved", "improved", "no-worse")


def load_records(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return [r for r in records if r.get("trace") == 0]


def iqr(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent: list[float], change: list[float], better: str, bound: float, alternated: bool) -> str:
    """Apply the pairwise rule to the values of one metric; index i of each list is pair i."""
    sign = 1.0 if better == "lower" else -1.0
    if len(parent) < MIN_PAIRS or not alternated:
        return "unresolved"
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    if wins >= WIN_SHARE * len(parent) and sign * (p_med - c_med) > iqr(parent):
        return "improved"
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if iqr(parent) / abs(p_med) > bound and not all_better:
        return "unresolved"
    if sign * (c_med - p_med) > bound * abs(p_med):
        return "worse"
    return "no-worse"


def alternates(pairs: list[tuple[dict, dict]]) -> bool:
    """True when the side that started first flips from each pair to the next."""
    firsts = [p["started"] < c["started"] for p, c in sorted(pairs, key=lambda pc: min(pc[0]["started"], pc[1]["started"]))]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def compare(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict[str, tuple[str, dict[str, str], int]]:
    """Per workload: overall verdict, verdict per metric, and the number of pairs."""
    rows = {}
    for workload in sorted({r["workload"] for r in parent} | {r["workload"] for r in change}):
        by_seed = {r["seed"]: r for r in change if r["workload"] == workload}
        pairs = [(p, by_seed[p["seed"]]) for p in parent if p["workload"] == workload and p["seed"] in by_seed]
        alternated = alternates(pairs)
        per_metric = {}
        for m in metrics:
            values = [(p["metrics"][m["name"]]["value"], c["metrics"][m["name"]]["value"]) for p, c in pairs]
            per_metric[m["name"]] = verdict([v[0] for v in values], [v[1] for v in values], m["better"], m["bound"], alternated)
        if sum(c["failed"] for _, c in pairs) > sum(p["failed"] for p, _ in pairs):
            overall = "worse"
        else:
            overall = min(per_metric.values(), key=ORDER.index)
        rows[workload] = (overall, per_metric, len(pairs))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare parent and change benchmark results.")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=str(Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark, "r", encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    rows = compare(load_records(args.parent), load_records(args.change), metrics)
    for workload, (overall, per_metric, n_pairs) in rows.items():
        detail = " ".join(f"{name}={v}" for name, v in per_metric.items())
        print(f"{workload:<20} {overall:<10} pairs={n_pairs} {detail}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
