"""leasim benchmark: end-to-end and per-layer numbers for three workloads.

    python3 perfbench/run.py --workload ladder --seed 3 --trace 0
    python3 perfbench/run.py                 # every workload in turn

Run from the repository root. Each workload runs single-threaded in its own
child process (``PYTHONPATH=src``), so peak RSS is that workload's alone.
``--trace 0`` reports the end-to-end metrics of untraced passes; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics.
Each workload measures for ``run_seconds`` from BENCHMARK.json; ``--seconds``
is accepted only with that value, so both sides of a comparison run alike.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 170


def run_child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload in a child process and return its result record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: child exited with {proc.returncode}")
    return json.loads(lines[-1])


def select(record: dict, metric_specs: list[dict]) -> dict:
    """The metrics BENCHMARK.json names, in its order, with their units.

    A message kind the workload never sends counts 0; any other metric the
    child did not produce is an error.
    """
    produced = dict.fromkeys(
        (m["name"] for m in metric_specs if m["name"].startswith("simnet.msgs.")), 0)
    produced.update(record["metrics"])
    missing = [m["name"] for m in metric_specs if m["name"] not in produced]
    if missing:
        raise RuntimeError(f"{record['workload']}: no value for {missing}")
    return {m["name"]: {"value": produced[m["name"]], "unit": m["unit"]}
            for m in metric_specs}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", "bundled", "ladder", "hostile"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="must equal BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None,
                        help="append each workload's result record (JSONL) here")
    args = parser.parse_args(argv)

    if not (SRC / "leasim").is_dir():
        print(f"error: no leasim sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    if args.seconds not in (None, seconds):
        print(f"error: --seconds {args.seconds} differs from run_seconds {seconds} "
              "in BENCHMARK.json", file=sys.stderr)
        return 2
    metric_specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload != "all":
        workloads = [args.workload]

    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in workloads:
        record = run_child(workload, args.seed, seconds, args.trace)
        chosen = select(record, metric_specs)
        for name, m in chosen.items():
            print(f"{workload:8} {name:34} {m['value']:>16.6g} {m['unit']}")
        for name in sorted(set(record["metrics"]) - set(chosen)):
            value = record["metrics"][name]
            if not name.startswith("simnet.msgs."):
                print(f"{workload:8} {name:34} {value:>16.6g} (not in BENCHMARK.json)")
            elif value:
                print(f"note: {workload}: {name} is not listed in BENCHMARK.json")
        print(f"{workload:8} {'failed_frac':34} "
              f"{record['failed'] / record['attempted']:>16.6g} "
              f"({record['failed']} of {record['attempted']} scenario runs)")
        if args.record:
            with args.record.open("a") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        correct = correct and record["correct"]
        attempted += record["attempted"]
        failed += record["failed"]
        if len(workloads) == 1:
            metrics = chosen
        else:
            metrics.update({f"{workload}.{k}": v for k, v in chosen.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
