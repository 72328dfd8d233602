"""One workload in one process: passes, correctness gate, counts, metrics.

Started by run.py with ``PYTHONPATH=src:perfbench``. Prints human-readable
lines, then one JSON result record as its last line.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
from collections import Counter
from pathlib import Path
from time import perf_counter

import measure
import snapshot
import workloads
from tracer import Tracer

from leasim import powcore

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GENERATED = HERE / "_generated"

HANDLER_MODULES = ("interface_enclave", "service_enclave", "payment_enclave",
                   "parties", "services", "runner")
TIMER_MODULES = ("interface_enclave", "service_enclave", "payment_enclave",
                 "parties", "runner")
# Behaviour that must not change: a difference fails the scenario run.
GATED = ("verdicts", "phases")


def environment() -> dict:
    return {"backend": powcore.BACKEND, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


def check_pass(result: measure.PassResult, first: measure.PassResult | None,
               expected: dict | None) -> tuple[int, list[str]]:
    """Failed scenario runs of one pass, with the reason for each failure."""
    reasons = list(result.failures)
    failed = {r.split(":", 1)[0] for r in reasons}
    for name, counts in result.scenarios.items():
        if first is not None and counts != first.scenarios.get(name):
            reasons.append(f"{name}: counts or digests differ between repeats of one seed")
            failed.add(name)
        want = (expected or {}).get(name)
        for key in GATED:
            if want is not None and counts[key] != want[key]:
                reasons.append(f"{name}: {key} {counts[key]} != recorded {want[key]}")
                failed.add(name)
    return len(failed), reasons


def count_changes(counts: dict, recorded: dict, prefix: str = "") -> list[str]:
    """Names of recorded counts that changed, as 'name: old -> new'.

    A count recorded as null is not compared (see snapshot.UNRECORDED).
    """
    changes = []
    for key in sorted(set(counts) | set(recorded)):
        if key in GATED and not prefix:
            continue
        new, old = counts.get(key), recorded.get(key)
        if old is None and key in recorded:
            continue
        if isinstance(new, dict) and isinstance(old, dict):
            changes += count_changes(new, old, f"{prefix}{key}.")
        elif new != old:
            changes.append(f"{prefix}{key}: {old} -> {new}")
    return changes


def end_to_end(passes: list[measure.PassResult]) -> dict:
    """Medians over the passes. Times are in host-normalised seconds (see
    hostspeed.py); the measured ones are kept beside them as ``measured_*``,
    and ``host_slowdown`` is measured over normalised pass time."""
    med = statistics.median
    pairs = [(p.measured, p.normalised) for p in passes]
    return {
        "slots_per_s": med(p.slots / p.normalised.total_s for p in passes),
        "setup_s": med(n.setup_s for _m, n in pairs),
        "run_s": med(n.run_s for _m, n in pairs),
        "report_s": med(n.report_s for _m, n in pairs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "host_slowdown": med(m.total_s / n.total_s for m, n in pairs),
        "measured_slots_per_s": med(p.slots / p.measured.total_s for p in passes),
        "measured_setup_s": med(m.setup_s for m, _n in pairs),
        "measured_run_s": med(m.run_s for m, _n in pairs),
    }


def per_layer(first: measure.PassResult, untraced: list[measure.PassResult],
              traced: list[tuple[measure.PassResult, Tracer]]) -> dict:
    """Per-layer metrics: counts from the world, times from traced passes."""
    def total(key: str) -> int | float:
        return sum(c[key] for c in first.scenarios.values())

    def med_self(span: str) -> float:
        return statistics.median(t.self_s.get(span, 0.0) for _p, t in traced)

    tracer = traced[0][1]
    out = {
        "powcore.mine_calls": tracer.calls["powcore.mine"],
        "powcore.hash_attempts": tracer.counts["powcore.mine"],
        "powcore.mine_s": med_self("powcore.mine"),
        "powcore.hashes_per_s": snapshot.kernel_hashes_per_s(),
        "simnet.events": total("events"),
        "simnet.msgs_sent": total("msgs_sent"),
        "simnet.msgs_delivered": total("msgs_delivered"),
        "simnet.msgs_dropped": total("msgs_dropped"),
        "simnet.timers": total("timers"),
        "simnet.virtual_end_s": total("virtual_end_s"),
        "simnet.rule_checks": tracer.calls["simnet.rule"],
        "ledger.blocks": total("blocks"),
        "ledger.consistency_calls": tracer.calls["ledger.consistency"],
        "ledger.consistency_headers": tracer.counts["ledger.consistency"],
        "gossip.records_synced": total("gossip_records_synced"),
    }
    msgs: Counter[str] = Counter()
    for counts in first.scenarios.values():
        msgs.update(counts["msgs"])
    out.update({f"simnet.msgs.{kind}": n for kind, n in sorted(msgs.items())})
    for metric, span in (("simnet.emit_s", "simnet.emit"), ("simnet.send_s", "simnet.send"),
                         ("simnet.deliver_s", "simnet.deliver"),
                         ("simnet.loop_s", "simnet.loop"), ("simnet.rule_s", "simnet.rule"),
                         ("ledger.assemble_s", "ledger.assemble"),
                         ("ledger.consistency_s", "ledger.consistency"),
                         ("ledger.verify_full_s", "ledger.verify_full"),
                         ("report.build_s", "report.build"), ("report.verify_s", "report.verify"),
                         ("report.digest_s", "report.digest"), ("scenario.load_s", "scenario.load"),
                         ("runner.build_world_s", "runner.build_world")):
        out[metric] = med_self(span)
    for module in HANDLER_MODULES:
        out[f"{module}.receive_calls"] = tracer.calls[f"{module}.receive"]
        out[f"{module}.receive_s"] = med_self(f"{module}.receive")
    for module in TIMER_MODULES:
        out[f"{module}.timer_calls"] = tracer.calls[f"{module}.timer"]
        out[f"{module}.timer_s"] = med_self(f"{module}.timer")
    traced_run = statistics.median(p.measured.run_s for p, _t in traced)
    out["trace.overhead_frac"] = traced_run / statistics.median(
        p.measured.run_s for p in untraced) - 1
    out["trace.named_frac"] = statistics.median(
        1 - t.self_s["simnet.loop"] / p.measured.run_s for p, t in traced)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    paths = workloads.scenario_files(args.workload, args.seed, SRC, GENERATED)
    recorded = snapshot.expected(args.workload, args.seed)
    if recorded is None:
        print(f"note: no recorded counts for {args.workload} seed {args.seed}; "
              "verdicts and phases are checked across repeats only")

    untraced: list[measure.PassResult] = []
    traced: list[tuple[measure.PassResult, Tracer]] = []
    deadline = perf_counter() + args.seconds
    while True:
        started = perf_counter()
        untraced.append(measure.run_pass(paths))
        if args.trace:
            with Tracer() as tracer:
                traced.append((measure.run_pass(paths, tracer), tracer))
        for label, result in (("untraced", untraced[-1]),
                              ("traced", traced[-1][0] if args.trace else None)):
            if result is not None:
                m, n = result.measured, result.normalised
                speed = f" host slowdown {m.total_s / n.total_s:.3f}" if n else ""
                print(f"pass {label}: setup {m.setup_s:.4f}s run {m.run_s:.4f}s "
                      f"report {m.report_s:.4f}s{speed}", flush=True)
        # Start no round that would end past the deadline, once two passes ran.
        now = perf_counter()
        if len(untraced) + len(traced) >= 2 and now + (now - started) > deadline:
            break

    first = untraced[0]
    attempted = failed = 0
    reasons: dict[str, None] = {}
    for result in untraced + [p for p, _t in traced]:
        n_failed, why = check_pass(result, first if result is not first else None, recorded)
        attempted += len(result.scenarios)
        failed += n_failed
        reasons.update(dict.fromkeys(why))
    for reason in reasons:
        print(f"FAIL {reason}")
    for name, counts in first.scenarios.items():
        if recorded is not None:
            for change in count_changes(counts, recorded.get(name, {})):
                print(f"count changed: {name} {change}")
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; "
          f"{first.slots} slots per pass")

    metrics = per_layer(first, untraced, traced) if args.trace else end_to_end(untraced)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": env, "correct": failed == 0, "attempted": attempted,
        "failed": failed, "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
