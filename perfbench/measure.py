"""One benchmark pass: load, build, run, report and verify each scenario file.

A pass times the three phases a user pays for and then, outside the timed
regions, reads the deterministic counts of every scenario run. Counts come
from the finished world (event log, message lists, chain), so they are the
same with or without the tracer installed. An untraced pass also samples the
host's speed (see hostspeed.py) and leaves the sampling out of its phase
times.
"""
from __future__ import annotations

import gc
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

from hostspeed import SpeedMeter
from leasim import report as report_mod
from leasim import runner, scenario
from leasim.interface_enclave import RESOLVED

SETUP_REPEATS = 5

# Message events are logged as "<fate>:<message kind>". Each send attempt logs
# one of these fates; a scheduled delivery later logs recv, drop_dead or
# drop_unknown.
_SEND_FATES = ("send", "drop", "send_blocked")


@dataclass
class Phases:
    setup_s: float = 0.0
    run_s: float = 0.0
    report_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.setup_s + self.run_s + self.report_s


@dataclass
class PassResult:
    measured: Phases = field(default_factory=Phases)  # sampling left out
    normalised: Phases | None = None  # host-normalised; untraced passes only
    slots: int = 0
    scenarios: dict[str, dict] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


def run_pass(paths, tracer=None) -> PassResult:
    """Run every scenario file once. Set-up is short, so an untraced pass
    times it SETUP_REPEATS times per file and keeps the median.

    A traced pass does not sample host speed, so that no span is charged
    with the sampling work.
    """
    repeats = 1 if tracer else SETUP_REPEATS
    meter = None if tracer else SpeedMeter()
    clock = meter.clock if meter else perf_counter
    out = PassResult()
    intervals = []
    with meter or nullcontext():
        for path in paths:
            intervals.append(_run_scenario(path, repeats, clock, out))
    out.measured = _phases(intervals, lambda start, end: end - start)
    if meter:
        out.normalised = _phases(intervals, meter.normalised)
    return out


def _phases(intervals, seconds) -> Phases:
    """Phase times of a pass from each scenario's timed clock intervals."""
    out = Phases()
    for setups, run, report in intervals:
        out.setup_s += median(seconds(*interval) for interval in setups)
        out.run_s += seconds(*run)
        out.report_s += seconds(*report)
    return out


def _run_scenario(path, repeats: int, clock, out: PassResult):
    """Run one scenario file, record its counts in ``out`` and return the
    clock intervals of its set-ups, its run and its report."""
    setups = []
    for _ in range(repeats):
        world = None  # free a discarded world before timing the next one
        gc.collect()
        t0 = clock()
        spec = scenario.load_scenario(path)
        world = runner.build_world(spec)
        setups.append((t0, clock()))
    t1 = clock()
    world.sim.run(until=spec.timing.horizon)
    t2 = clock()
    report = report_mod.build_report(world)
    report_mod.render_report(report)
    checks = report_mod.verify_world(world)
    digests = (world.sim.log.digest(), report_mod.report_digest(report))
    t3 = clock()
    counts = scenario_counts(world, report, digests)
    out.slots += counts["slots"]
    out.scenarios[spec.name] = counts
    out.failures += [f"{spec.name}: verify {name} failed: {why}"
                     for name, ok, why in checks if not ok]
    del world, report, checks
    gc.collect()
    return setups, (t1, t2), (t2, t3)


def scenario_counts(world, report: dict, digests: tuple[str, str]) -> dict:
    """Machine-independent counts of one finished scenario run."""
    sim = world.sim
    kinds = Counter(line.split(" ", 3)[2][5:] for line in sim.log.lines)
    msgs: Counter[str] = Counter()
    fates: Counter[str] = Counter()
    for kind, n in kinds.items():
        fate, sep, msg_kind = kind.partition(":")
        if sep:
            fates[fate] += n
            if fate in _SEND_FATES:
                msgs[msg_kind] += n
    chain = world.node.chain
    slots = sum(1 for c in report["campaigns"] for s in c["slots"]
                if s["status"] in RESOLVED)
    slots += sum(len(c.get("slots", ())) for c in report.get("p2p", {}).get("campaigns", ()))
    verdicts = report["verdicts"]
    return {
        "events": len(sim.log.lines),
        "msgs_sent": sim._msg_seq,
        "msgs_delivered": len(sim.delivered),
        "msgs_dropped": len(sim.dropped) + fates["send_blocked"],
        "msgs": dict(sorted(msgs.items())),
        "drops_by_rule_owner": _tally(owner for _msg, _rule, owner in sim.dropped),
        "timers": sim._seq - fates["send"],
        "gossip_records_synced": kinds["gossip_owner"],
        "blocks": len(chain.blocks),
        "hash_attempts": sum(b.header.pow_nonce + 1 for b in chain.blocks),
        "virtual_end_s": round(sim.now, 6),
        "slots": slots,
        "verdicts": {
            "owners": _tally(v["verdict"] for v in verdicts["owners"].values()),
            "renters": _tally(v["verdict"] for v in verdicts["renters"].values()),
            "maintainer": verdicts["maintainer"]["verdict"],
        },
        "phases": {c["campaign_id"]: _phase_lengths(c["phases"]) for c in report["campaigns"]},
        "log_digest": digests[0],
        "report_digest": digests[1],
    }


def _tally(items) -> dict[str, int]:
    return dict(sorted(Counter(items).items()))


def _phase_lengths(marks: dict) -> dict:
    out = {}
    for phase in ("service", "payment"):
        start, end = marks.get(f"{phase}_start"), marks.get(f"{phase}_end")
        if start is not None and end is not None:
            out[phase] = round(end - start, 9)
    return out

