"""Command line front end.

    leasim run --scenario baseline.yaml        full run, human report
    leasim verify --scenario ...               run + invariant checks
    leasim replay --scenario ...               run twice, demand identical digests
    leasim estimate --scenario ...             closed-form schedule estimate

Exit codes: 0 success, 1 a failed invariant check (verify) or diverging
digests (replay), 2 a scenario that is missing, unreadable or fails the schema.
"""
from __future__ import annotations

import argparse
import json
import sys
from importlib import resources
from pathlib import Path

from .report import (build_report, canonical_json, render_report,
                     report_digest, verify_world)
from .runner import estimate_schedule, run_scenario
from .scenario import SchemaError, load_scenario


def _resolve(path_arg: str) -> Path:
    path = Path(path_arg)
    if path.exists():
        return path
    # fall back to the bundled scenario pack, with or without extension
    pack = resources.files("leasim") / "scenarios"
    for name in (path_arg, f"{path_arg}.yaml"):
        candidate = pack / name
        if candidate.is_file():
            return Path(str(candidate))
    raise FileNotFoundError(path_arg)


def _load(args):
    path = _resolve(args.scenario)
    return load_scenario(path, seed_override=args.seed)


def cmd_run(args) -> int:
    spec = _load(args)
    world = run_scenario(spec)
    report = build_report(world)
    if args.report_out:
        Path(args.report_out).write_text(canonical_json(report) + "\n")
    if args.log_out:
        with open(args.log_out, "wb") as out:
            out.writelines(world.sim.log.encoded())
    if args.json:
        print(canonical_json(report))
    else:
        print(render_report(report), end="")
    return 0


def cmd_verify(args) -> int:
    spec = _load(args)
    world = run_scenario(spec)
    failures = 0
    for name, ok, why in verify_world(world):
        print(f"{'PASS' if ok else 'FAIL'} {name}: {why}")
        failures += 0 if ok else 1
    if failures:
        print(f"FAILED: {failures} invariant check(s)")
        return 1
    print("ok: all invariant checks passed")
    return 0


def cmd_replay(args) -> int:
    digests = []
    for attempt in (1, 2):
        world = run_scenario(_load(args))
        report = build_report(world)
        digests.append((world.sim.log.digest(), report_digest(report)))
        print(f"run {attempt}: events={len(world.sim.log.lines)} "
              f"log={digests[-1][0][:16]} report={digests[-1][1][:16]}")
    if digests[0] == digests[1]:
        print("replay ok: bit-identical event log and report")
        return 0
    print("replay MISMATCH: runs diverged under the same seed")
    return 1


def cmd_estimate(args) -> int:
    spec = _load(args)
    est = estimate_schedule(spec)
    print(f"scenario {spec.name}: {est['slots']} slot(s)")
    print(f"  funding wait    {est['funding_wait']:.3f}")
    print(f"  action phase    {est['action_phase']:.3f}")
    print(f"  payment phase   {est['payment_phase']:.3f}")
    print(f"  total (virtual) {est['total']:.3f}")
    if args.json:
        print(json.dumps(est, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="leasim",
        description="Deterministic identity-lease protocol simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True,
                       help="scenario file, or the name of a bundled one")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")

    p_run = sub.add_parser("run", help="run a scenario and print the report")
    common(p_run)
    p_run.add_argument("--report-out", help="write canonical JSON report here")
    p_run.add_argument("--log-out", help="write the event log here")
    p_run.add_argument("--json", action="store_true",
                       help="print canonical JSON instead of text")
    p_run.set_defaults(fn=cmd_run)

    p_verify = sub.add_parser("verify", help="run invariant checks")
    common(p_verify)
    p_verify.set_defaults(fn=cmd_verify)

    p_replay = sub.add_parser("replay",
                              help="run twice and compare digests")
    common(p_replay)
    p_replay.set_defaults(fn=cmd_replay)

    p_est = sub.add_parser("estimate",
                           help="closed-form schedule estimate, no run")
    common(p_est)
    p_est.add_argument("--json", action="store_true")
    p_est.set_defaults(fn=cmd_estimate)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: scenario not found: {exc}", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"error: bad scenario: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
