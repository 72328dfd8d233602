"""Compare a parent and a change from interleaved runs.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds the records ``run.py --record FILE`` appended, one per
workload run, in run order; the n-th parent run of a workload is paired with
the n-th change run of it. Results taken on different PoW backends are not
compared. For each end-to-end metric the table gives both medians and
quartiles, the share of pairs the change won, and a verdict:

- ``better``: the change won at least 9 of 10 pairs and the medians differ by
  more than the parent's own quartile spread;
- ``worse``: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
- ``unresolved``: the parent's spread is wider than the bound, and not every
  change run beat every parent run;
- ``same`` otherwise.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict[str, list[dict]]:
    runs = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        if record["trace"] == 0:
            runs[record["workload"]].append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, float]:
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0) / len(pairs)
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    if wins >= 0.9 and abs(cm - pm) > p3 - p1 and sign * (cm - pm) > 0:
        return "better", wins
    if sign * (pm - cm) > bound * abs(pm):
        return "worse", wins
    all_beat = (min(change) > max(parent)) if sign > 0 else (max(change) < min(parent))
    if (p3 - p1) > bound * abs(pm) and not all_beat:
        return "unresolved", wins
    return "same", wins


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    backends = {r["env"]["backend"] for runs in (*parent.values(), *change.values())
                for r in runs}
    if len(backends) > 1:
        print(f"refusing to compare runs on different PoW backends: {sorted(backends)}")
        return 2
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    print(f"{'workload':8} {'metric':12} {'parent q1/med/q3':>30} {'change q1/med/q3':>30}"
          f" {'wins':>5} verdict")
    for workload in sorted(set(parent) & set(change)):
        n = min(len(parent[workload]), len(change[workload]))
        for m in metrics:
            p = [r["metrics"][m["name"]] for r in parent[workload][:n]]
            c = [r["metrics"][m["name"]] for r in change[workload][:n]]
            word, wins = verdict(p, c, m["better"], m["bound"])
            fmt = lambda v: "/".join(f"{x:.4g}" for x in quartiles(v))  # noqa: E731
            print(f"{workload:8} {m['name']:12} {fmt(p):>30} {fmt(c):>30} {wins:5.0%} {word}")
        failed = [sum(r["failed"] for r in runs[workload][:n]) for runs in (parent, change)]
        print(f"{workload:8} {'failed runs':12} {failed[0]:>30} {failed[1]:>30}  ({n} pairs)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
