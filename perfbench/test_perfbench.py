"""Checks on the benchmark itself. From the repo root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
from __future__ import annotations

import signal
from pathlib import Path
from time import perf_counter

import pytest

import hostspeed
import measure
import workloads
from tracer import SPANS, Tracer

from leasim import report, runner, scenario

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("workload", ["ladder", "hostile"])
def test_generators_are_deterministic(workload, tmp_path):
    first = workloads.scenario_files(workload, 7, SRC, tmp_path / "a")[0].read_text()
    again = workloads.scenario_files(workload, 7, SRC, tmp_path / "b")[0].read_text()
    other = workloads.scenario_files(workload, 8, SRC, tmp_path / "c")[0].read_text()
    assert first == again
    assert first != other


def test_bundled_is_the_sorted_pack():
    names = [p.stem for p in workloads.bundled_paths(SRC)]
    assert len(names) == 14
    assert names == sorted(names)


def test_hostile_script_shape():
    raw = workloads.hostile(3)
    owners = {o["id"] for o in raw["owners"]}
    cut_owners = [c["owner_id"] for c in raw["host"]["cuts"]]
    assert len(owners) == workloads.HOSTILE_SLOTS * 9 // 8
    assert len(cut_owners) == len(set(cut_owners)) == 2 * (len(owners) // 10)
    assert set(cut_owners) <= owners
    assert raw["host"]["kills"][0]["actor"] == "payenc:0:1"


def test_hostile_kill_lands_mid_settlement(tmp_path):
    (path,) = workloads.scenario_files("hostile", 3, SRC, tmp_path)
    spec = scenario.load_scenario(path)
    world = runner.build_world(spec)
    world.sim.run(until=spec.timing.horizon)
    (campaign,) = report.build_report(world)["campaigns"]
    (kill,) = spec.host.kills
    assert campaign["phases"]["payment_start"] < kill.at < campaign["phases"]["payment_end"]


def _small(tmp_path, workload: str, slots: int = 24) -> list[Path]:
    path = tmp_path / f"{workload}.yaml"
    path.write_text(workloads.render(getattr(workloads, workload)(5, slots)))
    return [path]


@pytest.mark.parametrize("workload", ["ladder", "hostile"])
def test_tracing_changes_no_behaviour(workload, tmp_path):
    paths = _small(tmp_path, workload)
    plain = measure.run_pass(paths)
    with Tracer() as tracer:
        traced = measure.run_pass(paths, tracer)
    assert not plain.failures and not traced.failures
    assert traced.scenarios == plain.scenarios  # counts and both digests

    (counts,) = plain.scenarios.values()
    assert tracer.calls["simnet.send"] == counts["msgs_sent"]
    receives = sum(n for name, n in tracer.calls.items() if name.endswith(".receive"))
    assert receives == counts["msgs_delivered"]
    assert tracer.calls["powcore.mine"] == counts["blocks"]
    assert tracer.counts["powcore.mine"] == counts["hash_attempts"]
    assert (tracer.calls["simnet.rule"] > 0) == (workload == "hostile")
    assert 0 < tracer.self_s["simnet.loop"] < traced.measured.run_s


def test_replay_traced_keeps_phase_lengths():
    paths = [p for p in workloads.bundled_paths(SRC) if p.stem == "replay"]
    with Tracer() as tracer:
        result = measure.run_pass(paths, tracer)
    assert result.scenarios["replay"]["phases"] == {
        "iface:0:c1": {"service": 171.52, "payment": 197.4}}
    assert tracer.calls["report.verify"] == 1


def test_tracer_restores_every_original():
    import importlib

    def current():
        out = []
        for module, cls, attr, _name in SPANS:
            owner = importlib.import_module(f"leasim.{module}")
            owner = getattr(owner, cls) if cls else owner
            out.append(owner.__dict__[attr])
        sim = importlib.import_module("leasim.simnet")
        out += [sim.DropRule.__dict__["matches"], sim.Simulation.__dict__["schedule"],
                sim.Simulation.__dict__["schedule_for"]]
        return out

    before = current()
    with Tracer():
        assert all(a is not b for a, b in zip(before, current()))
    assert all(a is b for a, b in zip(before, current()))


def test_speed_meter_leaves_sampling_out_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.SpeedMeter() as meter:
        start, clock_start = perf_counter(), meter.clock()
        while perf_counter() - start < 0.3:
            pass
        took, clock_end = perf_counter() - start, meter.clock()
    clocked = clock_end - clock_start
    assert len(meter.took) >= 4
    assert clocked < took - 2 * min(meter.took)
    slowdowns = [t / hostspeed.REFERENCE_S for t in meter.took]
    normalised = meter.normalised(clock_start, clock_end)
    assert clocked / max(slowdowns) <= normalised <= clocked / min(slowdowns)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_normalised_divides_each_stretch_by_its_slowdown():
    meter = hostspeed.SpeedMeter()
    meter.at = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    meter.took = [hostspeed.REFERENCE_S * k for k in (2, 2, 2, 2, 4, 4, 4, 4)]
    # slowdowns, as medians of five: 2, 2, 2, 2, 4, 4, 4, 4
    assert meter.normalised(0.5, 2.5) == pytest.approx(1.0)
    assert meter.normalised(3.5, 6.0) == pytest.approx(0.25 + 2 / 4)
    assert meter.normalised(7.0, 9.0) == pytest.approx(0.5)
