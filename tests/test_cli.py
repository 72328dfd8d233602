"""The command line front end and the text report it prints.

The text report is checked against the JSON report it renders, entry by
entry, rather than against a stored copy of its output.
"""
from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import pytest
import yaml

from leasim import cli
from leasim.coins import fmt
from leasim.report import build_report, canonical_json, render_report, report_digest
from leasim.runner import estimate_schedule, run_scenario
from leasim.scenario import load_scenario, parse_scenario

PACK = resources.files("leasim") / "scenarios"

_worlds: dict[str, object] = {}


def bundled(name: str) -> Path:
    return Path(str(PACK / f"{name}.yaml"))


def world_for(name: str):
    if name not in _worlds:
        _worlds[name] = run_scenario(load_scenario(bundled(name)))
    return _worlds[name]


def entry_lines(report: dict) -> list[str]:
    """The line each slot, party, drop, verdict, evidence and p2p entry of
    ``report`` should render as, in report order."""
    lines = []
    for campaign in report["campaigns"]:
        for slot in campaign["slots"]:
            s, truth = slot["settlement"], slot["ground_truth"]
            settle = "landed" if s["landed"] else "intended" if s["intended"] else "none"
            lines.append(
                f"  slot {slot['slot_id']} owner={slot['owner_id']} status={slot['status']} "
                f"reward={fmt(slot['reward'])} performed={str(truth['performed']).lower()} "
                f"effect={str(truth['public_effect']).lower()} "
                f"settle={settle}{' BURNS' if slot['burns'] else ''}")
    for address, bal in report["parties"].items():
        lines.append(f"  {address} start={fmt(bal['start'])} end={fmt(bal['end'])} "
                     f"delta={fmt(bal['delta'])}")
    for drop in report["drops"]:
        lines.append(f"  t={drop['at']} {drop['kind']} cut={drop['cut_point']} "
                     f"by={drop['by']} {drop['src']}->{drop['dst']}")
    verdicts = report["verdicts"]
    parties = [(f"owner {k}", v) for k, v in verdicts["owners"].items()]
    parties += [(f"renter {k}", v) for k, v in verdicts["renters"].items()]
    parties.append(("maintainer", verdicts["maintainer"]))
    for who, verdict in parties:
        lines.append(f"  {who}: {verdict['verdict']}")
        lines.extend(f"    - {e}" for e in verdict["evidence"])
    if "p2p" in report:
        for cpu, count in report["p2p"]["bindings"].items():
            lines.append(f"  cpu {cpu}: {count} accepted binding(s)")
        for campaign in report["p2p"]["campaigns"]:
            lines.append(
                f"  campaign {campaign['service']}: {campaign['error']}" if "error" in campaign
                else f"  campaign {campaign['service']} x{campaign['count']}: "
                     f"{len(campaign['fulfilled'])} fulfilled, "
                     f"{campaign['remainder_refund']} refunded")
    return lines


def assert_renders(report: dict) -> list[str]:
    text = render_report(report)
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[-1] == f"report digest {report_digest(report)}"
    # every entry renders as its own line, in report order
    rest = iter(lines)
    for want in entry_lines(report):
        assert any(line == want for line in rest), want
    return lines


class TestRenderReport:
    @pytest.mark.parametrize("name", ["baseline", "cut45_all", "p2p", "collusion_social"])
    def test_every_entry_renders_as_its_line(self, name):
        report = build_report(world_for(name))
        lines = assert_renders(report)
        assert lines[0] == (f"scenario {report['scenario']} seed={report['seed']} "
                            f"mode={report['mode']}")
        assert ("drops (" in "\n".join(lines)) == bool(report["drops"])
        assert ("p2p:" in lines) == ("p2p" in report)

    def test_drops_and_p2p_have_entries(self):
        """The scenarios above reach the drop and p2p sections."""
        assert build_report(world_for("cut45_all"))["drops"]
        assert build_report(world_for("p2p"))["p2p"]["campaigns"]

    def test_campaign_flags_line(self):
        report = build_report(world_for("collusion_social"))
        flags = report["campaigns"][0]["flags"]
        assert (f"  flags collusive_service=true "
                f"claim_mismatches={flags['claim_mismatches']}") in render_report(report)

    def test_p2p_campaign_with_no_compliant_node(self):
        raw = yaml.safe_load(bundled("p2p").read_text())
        raw["renters"][0]["campaigns"][0]["action"] = "post"  # every owner allows upvote only
        report = build_report(run_scenario(parse_scenario(raw)))
        assert report["p2p"]["campaigns"][0]["error"] == "NoCompliantNodes"
        assert "  campaign social: NoCompliantNodes" in assert_renders(report)


class TestCommands:
    def test_run_json_prints_the_canonical_report(self, capsys):
        assert cli.main(["run", "--json", "--scenario", "baseline"]) == 0
        want = canonical_json(build_report(world_for("baseline")))
        assert capsys.readouterr().out == want + "\n"

    def test_run_prints_the_text_report(self, capsys):
        assert cli.main(["run", "--scenario", "cut45_all"]) == 0
        assert capsys.readouterr().out == render_report(build_report(world_for("cut45_all")))

    # replay logs more than _DIGEST_CHUNK lines, so its log has a sealed chunk
    @pytest.mark.parametrize("name", ["baseline", "replay"])
    def test_run_writes_report_and_log(self, tmp_path, name):
        report_out, log_out = tmp_path / "report.json", tmp_path / "events.log"
        assert cli.main(["run", "--scenario", name, "--report-out", str(report_out),
                         "--log-out", str(log_out)]) == 0
        world = world_for(name)
        assert report_out.read_text() == canonical_json(build_report(world)) + "\n"
        assert log_out.read_bytes() == world.sim.log.text().encode()

    def test_seed_override(self, capsys):
        assert cli.main(["run", "--json", "--seed", "7", "--scenario", "baseline"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 7
        assert report == build_report(run_scenario(load_scenario(bundled("baseline"),
                                                                 seed_override=7)))

    def test_verify_passes(self, capsys):
        assert cli.main(["verify", "--scenario", "baseline"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("ok:")
        assert all(line.startswith("PASS ") for line in lines[:-1])

    def test_verify_failure_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_world", lambda world: [
            ("conservation", True, "ok"), ("closure", False, "escrow left open")])
        assert cli.main(["verify", "--scenario", "baseline"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "PASS conservation: ok", "FAIL closure: escrow left open",
            "FAILED: 1 invariant check(s)"]

    def test_replay_ok(self, capsys):
        assert cli.main(["replay", "--scenario", "baseline"]) == 0
        out = capsys.readouterr().out.splitlines()
        world = world_for("baseline")
        run_line = (f"events={len(world.sim.log.lines)} log={world.sim.log.digest()[:16]} "
                    f"report={report_digest(build_report(world))[:16]}")
        assert out == [f"run 1: {run_line}", f"run 2: {run_line}",
                       "replay ok: bit-identical event log and report"]

    def test_replay_mismatch_exits_1(self, capsys, monkeypatch):
        digests = iter(["a" * 64, "b" * 64])
        monkeypatch.setattr(cli, "report_digest", lambda report: next(digests))
        assert cli.main(["replay", "--scenario", "baseline"]) == 1
        assert capsys.readouterr().out.splitlines()[-1].startswith("replay MISMATCH")

    def test_estimate_json_equals_estimate_schedule(self, capsys):
        assert cli.main(["estimate", "--json", "--scenario", "replay"]) == 0
        lines = capsys.readouterr().out.splitlines()
        est = estimate_schedule(load_scenario(bundled("replay")))
        assert json.loads(lines[-1]) == est
        assert lines[:-1] == [
            "scenario replay: 40 slot(s)",
            f"  funding wait    {est['funding_wait']:.3f}",
            "  action phase    171.520",
            "  payment phase   197.400",
            f"  total (virtual) {est['total']:.3f}",
        ]

    def test_bundled_name_with_or_without_extension(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # no local file shadows the bundled one
        assert cli._resolve("baseline") == cli._resolve("baseline.yaml") == bundled("baseline")

    def test_local_file_wins_over_bundled(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("baseline.yaml").write_text("name: local\n")
        assert cli._resolve("baseline.yaml") == Path("baseline.yaml")

    def test_missing_scenario_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        for command in ("run", "verify", "replay", "estimate"):
            assert cli.main([command, "--scenario", "no_such_scenario"]) == 2
            assert "scenario not found: no_such_scenario" in capsys.readouterr().err
