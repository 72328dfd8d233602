"""End-to-end campaign flows over the bundled scenarios.

Each test runs a scenario through the real event loop and checks the
outcome the scenario was written to demonstrate, plus the invariant suite.
Worlds are cached per scenario so several tests can share one run.
"""
from __future__ import annotations

import dataclasses
import gc
import os
import subprocess
import sys
import types
import typing
from importlib import resources
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

import leasim
from leasim import cli, ledger, powcore, runner, scenario
from leasim.attestation import Secret
from leasim.interface_enclave import RESOLVED, InterfaceEnclave
from leasim.ledger import BURN_ADDRESS, BlockHeader, Chain, Transaction, make_transaction
from leasim.report import _judge_owner, build_report, render_report, report_digest, verify_world
from leasim.runner import POLL_AT, build_world, estimate_schedule, run_scenario
from leasim.scenario import SAFE_LOADER, SchemaError, load_scenario, parse_scenario
from leasim.simnet import Message, Session, Simulation

_worlds: dict[str, object] = {}


def world_for(name: str):
    if name not in _worlds:
        path = resources.files("leasim") / "scenarios" / f"{name}.yaml"
        _worlds[name] = run_scenario(load_scenario(str(path)))
    return _worlds[name]


def report_for(name: str) -> dict:
    return build_report(world_for(name))


def only_campaign(world):
    campaigns = world.all_campaigns()
    assert len(campaigns) == 1
    return campaigns[0]


def slot_statuses(campaign) -> list[str]:
    return [s.status for s in sorted(campaign.slots.values(), key=lambda s: s.index)]


ALL_SCENARIOS = [
    "baseline", "replay", "cut1_forged_view", "cut2_owner_skip",
    "cut3_response", "cut45_all", "cut45_single_path", "collusion_social",
    "collusion_voting", "eclipse", "revert", "crash_payment", "distributed",
]


class TestBaseline:
    def test_all_slots_confirm_and_settle(self):
        campaign = only_campaign(world_for("baseline"))
        assert campaign.status == "terminated"
        assert slot_statuses(campaign) == ["confirmed"] * 3
        assert all(s.settlement_tx for s in campaign.slots.values())

    def test_phase_lengths_exact(self):
        campaign = only_campaign(world_for("baseline"))
        marks = campaign.phase_marks
        assert marks["service_end"] - marks["service_start"] == pytest.approx(
            3 * 4.288, abs=1e-9)
        assert marks["payment_end"] - marks["payment_start"] == pytest.approx(
            3 * 4.935, abs=1e-9)

    def test_money_flow(self):
        world = world_for("baseline")
        chain = world.node.chain
        # prices 2 + 2.5 + 3, fee 5% of each, deposit returned in full
        assert chain.balance("owner:o1") == 2_000_000
        assert chain.balance("owner:o2") == 2_500_000
        assert chain.balance("owner:o3") == 3_000_000
        assert chain.balance("maintainer") == 375_000
        assert chain.balance("renter:r1") == 1_000_000_000 - 7_875_000

    def test_all_verdicts_fair(self):
        verdicts = report_for("baseline")["verdicts"]
        assert all(v["verdict"] == "fair" for v in verdicts["owners"].values())
        assert all(v["verdict"] == "fair" for v in verdicts["renters"].values())
        assert verdicts["maintainer"]["verdict"] == "fair"

    def test_service_state_matches_claims(self):
        world = world_for("baseline")
        assert world.services["social"].items["item1"].counters == {"upvote": 3}


class TestReplayLoad:
    def test_forty_slots_exact_phases(self):
        campaign = only_campaign(world_for("replay"))
        marks = campaign.phase_marks
        assert slot_statuses(campaign) == ["confirmed"] * 40
        assert marks["service_end"] - marks["service_start"] == pytest.approx(
            40 * 4.288, abs=1e-9)
        assert marks["payment_end"] - marks["payment_start"] == pytest.approx(
            40 * 4.935, abs=1e-9)


class TestForgedFunding:
    def test_honest_owners_skip_eclipsed_owner_performs(self):
        campaign = only_campaign(world_for("cut1_forged_view"))
        assert slot_statuses(campaign) == [
            "skipped_inconsistent", "skipped_inconsistent", "confirmed"]

    def test_nothing_lands_on_real_chain(self):
        report = report_for("cut1_forged_view")
        c = report["campaigns"][0]
        assert not c["funding"]["landed"]
        assert c["landed"]["owner_rewards"] == 0
        assert c["intended"]["owner_rewards"] == 3_000_000
        # no real money moved anywhere
        assert all(b["delta"] == 0 for b in report["parties"].values())

    def test_verdicts_split_intended_vs_landed(self):
        verdicts = report_for("cut1_forged_view")["verdicts"]
        assert verdicts["owners"]["o3"]["verdict"] == "harmed"
        assert verdicts["owners"]["o1"]["verdict"] == "fair"
        assert verdicts["renters"]["r1"]["verdict"] == "advantaged"
        assert verdicts["maintainer"]["verdict"] == "harmed"

    def test_effect_delivered_without_payment(self):
        world = world_for("cut1_forged_view")
        assert world.services["social"].items["item1"].counters == {"upvote": 1}

    def test_forged_spends_are_orphaned_and_mining_stops(self):
        """The interface's spends of the forged escrow note can never land;
        they do not keep the node mining to the horizon."""
        world = world_for("cut1_forged_view")
        assert (world.sim.now, world.node.chain.height) == (105.0, 7)
        funding = only_campaign(world).funding_tx
        assert not world.node.chain.has_tx(funding.tx_id)
        # each pending transaction spends the forged escrow note or the
        # output of one submitted before it (split, settle, release, terminate)
        notes = {note.note_id for note, kind in funding.outputs if kind == "funding"}
        for tx in world.node.pool.pending.values():
            assert notes.issuperset(tx.inputs)
            notes.update(note.note_id for note, _kind in tx.outputs)
        kinds = [line.split(" kind=", 1)[1].split(" ", 1)[0]
                 for line in world.sim.log.lines]
        orphaned = [line.rsplit(" tx=", 1)[1] for line in world.sim.log.lines
                    if " kind=tx_orphaned " in line]
        assert orphaned == list(world.node.pool.pending) and len(orphaned) == 4
        assert kinds[-5:] == ["tx_orphaned"] * 4 + ["mining_stopped"]

    def test_report_names_the_orphaned_transactions(self):
        world = world_for("cut1_forged_view")
        orphaned = [line.rsplit(" tx=", 1)[1] for line in world.sim.log.lines
                    if " kind=tx_orphaned " in line]
        report = report_for("cut1_forged_view")
        assert report["sim"]["orphaned"] == orphaned
        assert f"  orphaned txs: {' '.join(orphaned)}\n" in render_report(report)
        # like p2p, the entry appears only when there is something to name
        for name in ALL_SCENARIOS:
            if name != "cut1_forged_view":
                assert "orphaned" not in report_for(name)["sim"], name


class TestOwnerChainCut:
    def test_skip_and_substitute(self):
        campaign = only_campaign(world_for("cut2_owner_skip"))
        slots = sorted(campaign.slots.values(), key=lambda s: s.index)
        assert slots[0].status == "skipped_unreachable"
        assert slots[0].substituted_by == slots[3].slot_id
        assert slots[3].owner_id == "o4"
        assert [s.status for s in slots[1:]] == ["confirmed"] * 3

    def test_self_cut_is_fair(self):
        verdicts = report_for("cut2_owner_skip")["verdicts"]
        assert all(v["verdict"] == "fair" for v in verdicts["owners"].values())
        assert verdicts["renters"]["r1"]["verdict"] == "fair"


class TestServiceResponseCut:
    def test_timeout_burns_deposit_share(self):
        campaign = only_campaign(world_for("cut3_response"))
        timed_out = [s for s in campaign.slots.values() if s.status == "timeout"]
        assert len(timed_out) == 1 and timed_out[0].owner_id == "o2"
        assert campaign.deposit_ledger["burned"] == timed_out[0].deposit_share
        world = world_for("cut3_response")
        assert world.node.chain.balance(BURN_ADDRESS) == 250_000

    def test_owner_self_harm_renter_harmed(self):
        verdicts = report_for("cut3_response")["verdicts"]
        assert verdicts["owners"]["o2"]["verdict"] == "fair"
        assert any("self" in e for e in verdicts["owners"]["o2"]["evidence"])
        assert verdicts["renters"]["r1"]["verdict"] == "harmed"


class TestSettlementSuppression:
    def test_all_paths_cut_nothing_lands(self):
        report = report_for("cut45_all")
        c = report["campaigns"][0]
        assert c["intended"]["owner_rewards"] == 7_500_000
        assert c["landed"]["owner_rewards"] == 0
        verdicts = report["verdicts"]
        assert all(v["verdict"] == "harmed" for v in verdicts["owners"].values())
        assert verdicts["renters"]["r1"]["verdict"] == "harmed"
        assert verdicts["maintainer"]["verdict"] == "harmed"

    def test_single_surviving_path_suffices(self):
        report = report_for("cut45_single_path")
        c = report["campaigns"][0]
        assert c["landed"] == c["intended"]
        assert len(report["drops"]) == 6  # both copies of all three settlements
        verdicts = report["verdicts"]
        assert all(v["verdict"] == "fair" for v in verdicts["owners"].values())
        assert verdicts["renters"]["r1"]["verdict"] == "fair"


class TestCollusionAsymmetry:
    def test_social_ghosts_detected_and_substituted(self):
        campaign = only_campaign(world_for("collusion_social"))
        slots = sorted(campaign.slots.values(), key=lambda s: s.index)
        assert [s.status for s in slots[:2]] == ["failed", "failed"]
        assert all(s.settlement_tx is None for s in slots[:2])
        assert [s.status for s in slots[2:]] == ["confirmed"] * 3
        # three real public effects, ghosts contributed none
        world = world_for("collusion_social")
        assert world.services["social"].items["item1"].counters == {"upvote": 3}

    def test_social_ghost_owners_unpaid(self):
        world = world_for("collusion_social")
        assert world.node.chain.balance("owner:og1") == 0
        assert world.node.chain.balance("owner:og2") == 0

    def test_voting_coercion_paid_but_flagged(self):
        report = report_for("collusion_voting")
        c = report["campaigns"][0]
        assert [s["status"] for s in c["slots"]] == ["confirmed"] * 3
        assert c["landed"]["owner_rewards"] == c["intended"]["owner_rewards"]
        assert c["flags"]["claim_mismatches"] == [c["slots"][0]["slot_id"]]
        world = world_for("collusion_voting")
        assert world.services["ballots"].tallies() == {"north": 2, "south": 0}
        verdicts = report["verdicts"]
        assert verdicts["owners"]["ov1"]["verdict"] == "fair"
        assert verdicts["renters"]["r1"]["verdict"] == "fair"


class TestEclipse:
    def test_stale_view_excluded_before_work(self):
        campaign = only_campaign(world_for("eclipse"))
        slots = sorted(campaign.slots.values(), key=lambda s: s.index)
        eclipsed = [s for s in slots if s.owner_id == "o2"]
        assert eclipsed[0].status == "skipped_inconsistent"
        assert eclipsed[0].substituted_by is not None
        truth = report_for("eclipse")["campaigns"][0]["slots"]
        assert not any(s["ground_truth"]["performed"]
                       for s in truth if s["owner_id"] == "o2")

    def test_forked_view_overlapping_the_renters_diverges(self):
        """The host feeds o2 a private fork of genesis: its headers cover the
        renter's funding window but differ there, so the gate answers
        "owner view diverges" rather than the stale view's empty sequence."""
        world = build_world(load_scenario(
            str(resources.files("leasim") / "scenarios" / "eclipse.yaml")))
        fork = Chain.from_blocks(world.node.chain.difficulty_bits, world.node.chain.blocks[:1])
        for _ in range(30):
            fork = fork.append_block([])
        world.sim.net.eclipse_feeds["o2"] = fork.headers_from
        world.sim.run(until=world.spec.timing.horizon)
        campaign = only_campaign(world)
        renter_heights = {h.height for h in campaign.renter_view}
        assert renter_heights and renter_heights <= {h.height for h in fork.headers()}
        (eclipsed,) = [s for s in campaign.slots.values() if s.owner_id == "o2"]
        assert (eclipsed.status, eclipsed.detail) == ("skipped_inconsistent",
                                                      "owner view diverges")
        spare = campaign.slots[eclipsed.substituted_by]
        assert (spare.owner_id, spare.status) == ("o4", "confirmed")
        assert "ben" not in world.services["social"].exposed_accounts("item1")
        assert build_report(world)["verdicts"]["owners"]["o2"]["verdict"] == "fair"
        assert all(ok for _, ok, _ in verify_world(world))


class TestGateHeights:
    """The gate asks each owner only for the heights of the renter's view."""

    def run_with_bad_header_past_tip(self, feed_of):
        """baseline, with every owner's view ending in a header whose digest
        is wrong, one height past the chain tip (so past the renter's view)."""
        world = build_world(load_scenario(
            str(resources.files("leasim") / "scenarios" / "baseline.yaml")))

        def view() -> list[BlockHeader]:
            headers = world.node.chain.headers()
            tip = headers[-1]
            return headers + [BlockHeader(tip.height + 1, tip.own_digest,
                                          tip.payload_digest, 0, b"bad")]

        for owner_id in world.owners:
            world.sim.net.eclipse_feeds[owner_id] = feed_of(view)
        world.sim.run(until=world.spec.timing.horizon)
        return only_campaign(world)

    def test_bad_header_past_the_renters_tip_is_not_asked_for(self):
        campaign = self.run_with_bad_header_past_tip(
            lambda view: lambda lo, hi: [h for h in view() if lo <= h.height <= hi])
        assert slot_statuses(campaign) == ["confirmed"] * 3

    def test_headers_sent_past_the_asked_heights_are_all_checked(self):
        campaign = self.run_with_bad_header_past_tip(
            lambda view: lambda lo, hi: [h for h in view() if lo <= h.height])
        assert [(s.status, s.detail) for s in campaign.slots.values()] == [
            ("skipped_inconsistent", "malformed view: side a: digest mismatch at height 7")] * 3


class TestRevertWindow:
    def test_reverted_slot_unpaid_deposit_refunded(self):
        campaign = only_campaign(world_for("revert"))
        reverted = [s for s in campaign.slots.values() if s.status == "reverted"]
        assert len(reverted) == 1 and reverted[0].owner_id == "o2"
        assert reverted[0].settlement_tx is None
        assert campaign.deposit_ledger["burned"] == 0
        world = world_for("revert")
        assert world.node.chain.balance("owner:o2") == 0
        # the public effect is gone
        assert not world.services["social"].public_effect_exists(
            "ben", "item1", "upvote")

    def test_griefer_judged_fair(self):
        verdicts = report_for("revert")["verdicts"]
        assert verdicts["owners"]["o2"]["verdict"] == "fair"
        assert verdicts["renters"]["r1"]["verdict"] == "fair"


class TestCrashRecovery:
    def test_settled_before_kill_stands(self):
        campaign = only_campaign(world_for("crash_payment"))
        slots = sorted(campaign.slots.values(), key=lambda s: s.index)
        assert slots[0].settlement_tx is not None
        world = world_for("crash_payment")
        assert world.node.chain.has_tx(slots[0].settlement_tx)

    def test_unsettled_confirmed_slots_burn(self):
        campaign = only_campaign(world_for("crash_payment"))
        slots = sorted(campaign.slots.values(), key=lambda s: s.index)
        assert [s.settlement_tx for s in slots[1:]] == [None, None]
        assert campaign.deposit_ledger["burned"] == sum(
            s.deposit_share for s in slots[1:])

    def test_share_recovered_via_mesh(self):
        world = world_for("crash_payment")
        log = world.sim.log.text()
        assert "share_recovered" in log
        assert "campaign_terminated" in log

    def test_harm_attributed_to_host(self):
        verdicts = report_for("crash_payment")["verdicts"]
        assert verdicts["owners"]["o2"]["verdict"] == "harmed"
        assert verdicts["owners"]["o3"]["verdict"] == "harmed"
        assert verdicts["renters"]["r1"]["verdict"] == "harmed"
        assert verdicts["owners"]["o1"]["verdict"] == "fair"

    def test_lost_heartbeats_of_a_live_enclave_release_no_key(self):
        raw = ladder_shape(40, 1, 1)
        raw["host"] = {"cuts": [{"kind": "heartbeat"}]}
        world = run_scenario(parse_scenario(raw))
        kinds = [line.split(" kind=", 1)[1].split(" ", 1)[0] for line in world.sim.log.lines]
        assert "recovery_refused" in kinds and "share_recovered" not in kinds
        campaign = only_campaign(world)
        assert campaign.status == "terminated"
        assert all(s.settlement_tx for s in campaign.slots.values())

    def test_second_enclave_dying_after_the_stop_still_terminates(self):
        # 60 slots on two payment enclaves: the payment phase runs from about
        # t=348 to 496. The first share is recovered, and the campaign
        # stopped, at t=421, while the second still has settlements queued;
        # its enclave dies at t=425 and its share is recovered at t=481.
        raw = ladder_shape(60, 1, 2)
        raw["host"] = {"kills": [{"actor": "payenc:0:0", "at": 350.0},
                                 {"actor": "payenc:0:1", "at": 425.0}]}
        world = run_scenario(parse_scenario(raw))
        campaign = only_campaign(world)
        recovered = [line for line in world.sim.log.lines if "kind=share_recovered" in line]
        assert len(recovered) == 2
        assert campaign.status == "terminated" and not campaign.settle_outstanding
        assert world.node.chain.balance(campaign.escrow_address) == 0
        assert build_report(world)["verdicts"]["renters"]["r1"]["verdict"] == "harmed"


def bundled_raw(name: str) -> dict:
    return yaml.safe_load((resources.files("leasim") / "scenarios" / f"{name}.yaml").read_text())


def upvotes(target: str) -> dict:
    return {"service": "social", "action": "upvote", "target": target, "count": 3}


def crash_three_campaigns() -> dict:
    """crash_payment with a second campaign for r1 and a one-campaign renter
    r2: every share sits on the payment enclave the host kills."""
    raw = bundled_raw("crash_payment")
    raw["services"][0]["items"] += ["item2", "item3"]
    raw["renters"][0]["campaigns"].append(upvotes("item2"))
    raw["renters"].append({"id": "r2", "balance": "1000", "campaigns": [upvotes("item3")]})
    raw["timing"]["horizon"] = 1500.0
    return raw


def second_campaign(name: str) -> dict:
    """A bundled one-campaign world with a second campaign for r1."""
    raw = bundled_raw(name)
    raw["services"][0]["items"].append("item2")
    raw["renters"][0]["campaigns"].append(upvotes("item2"))
    return raw


class TestMultiCampaignWorlds:
    """Each campaign keeps its own escrow key and its own funding note."""

    @pytest.mark.parametrize("make", [
        crash_three_campaigns,
        lambda: second_campaign("baseline"),
        lambda: second_campaign("cut1_forged_view"),
    ], ids=["crash_payment+2", "baseline+1", "cut1_forged_view+1"])
    def test_every_campaign_terminates_before_the_horizon(self, make):
        spec = parse_scenario(make())
        world = run_scenario(spec)
        expected = sum(len(r.campaigns) for r in spec.renters)
        assert [c.status for c in world.all_campaigns()] == ["terminated"] * expected
        killed = world.sim.net.killed
        ended = []
        for line in world.sim.log.lines:
            at = float(line.split(" ", 1)[0][2:])
            if "kind=campaign_terminated" in line:
                ended.append(at)
            elif "kind=recovery_refused" in line:
                payment = line.rsplit("payment=", 1)[1]
                assert payment not in killed or at < killed[payment][0], line
        assert len(ended) == expected and max(ended) < spec.timing.horizon
        assert all(ok for _, ok, _ in verify_world(world))

    def test_crash_recovers_every_share_of_the_dead_enclave(self):
        world = run_scenario(parse_scenario(crash_three_campaigns()))
        recovered = [line for line in world.sim.log.lines if "kind=share_recovered" in line]
        assert len(recovered) == 3
        verdicts = build_report(world)["verdicts"]["renters"]
        assert verdicts["r2"]["verdict"] == "harmed"
        assert any("(by host)" in line for line in verdicts["r2"]["evidence"])

    def test_second_funding_spends_the_first_fundings_change(self):
        world = run_scenario(parse_scenario(second_campaign("baseline")))
        first, second = (c.funding_tx for c in world.all_campaigns())
        change = [n.note_id for n, kind in first.outputs if kind == "change"]
        assert list(second.inputs) == change
        verdicts = build_report(world)["verdicts"]
        assert {v["verdict"] for group in ("owners", "renters")
                for v in verdicts[group].values()} == {"fair"}


class TestBlameScopedToCampaign:
    """Two renters, one campaign each; the host cuts campaign 0's payment broadcasts."""

    def run(self, *extra_cuts):
        path = resources.files("leasim") / "scenarios" / "baseline.yaml"
        raw = yaml.safe_load(path.read_text())
        one = [{"service": "social", "action": "upvote", "target": "item1", "count": 1}]
        raw["renters"] = [{"id": "r1", "balance": "1000", "campaigns": one},
                          {"id": "r2", "balance": "1000", "campaigns": one}]
        cut = {"kind": "tx_broadcast", "src": "payenc:0:0"}
        raw["host"] = {"cuts": [{**cut, "campaign_index": 0}]
                       + [{**cut, **extra} for extra in extra_cuts]}
        world = run_scenario(parse_scenario(raw))
        report = build_report(world)
        assert [c["renter_id"] for c in report["campaigns"]] == ["r1", "r2"]
        return report["verdicts"]["renters"]

    def test_uncut_renter_fair_without_evidence(self):
        renters = self.run()
        assert renters["r1"]["verdict"] == "harmed"
        assert renters["r2"] == {"verdict": "fair", "evidence": []}

    def test_each_renter_blames_only_its_own_campaign(self):
        renters = self.run({"campaign_index": 1, "rule_owner": "renter:r2"})
        assert renters["r1"]["verdict"] == "harmed"
        assert [e.endswith("(by host)") for e in renters["r1"]["evidence"]] == [True]
        assert renters["r2"]["verdict"] == "fair"
        assert any("self-inflicted" in e for e in renters["r2"]["evidence"])


class TestVerdictRulesNoScenarioReaches:
    def test_renter_rule_that_burns_its_deposit_is_self_harm(self):
        path = resources.files("leasim") / "scenarios" / "baseline.yaml"
        raw = yaml.safe_load(path.read_text())
        raw["host"] = {"cuts": [{"cut_point": 3, "owner_id": "o2",
                                 "rule_owner": "renter:r1"}]}
        verdicts = build_report(run_scenario(parse_scenario(raw)))["verdicts"]
        assert verdicts["renters"]["r1"] == {"verdict": "fair", "evidence": [
            "iface:0:c1: deposit burn 0.25 (iface:0:c1:s0001) traced to own rules",
            "self_harm: losses trace to this renter's own rules",
        ]}
        assert verdicts["owners"]["o2"]["verdict"] == "harmed"
        assert verdicts["owners"]["o2"]["evidence"][0].endswith("(by renter:r1)")
        assert verdicts["maintainer"]["verdict"] == "fair"

    @staticmethod
    def owned(*slots):
        """(campaign, slot) entries for one owner; each slot is (performed,
        public_effect, paid). No world pays an owner that did not act, so
        these are built by hand."""
        campaign = {"campaign_id": "c1", "renter_id": "r1", "funding": {"landed": True}}
        return [(campaign, {
            "slot_id": f"c1:s{i}", "action": "upvote:item1", "reward": 2_000_000,
            "ground_truth": {"performed": performed, "public_effect": effect},
            "settlement": {"landed": paid},
        }) for i, (performed, effect, paid) in enumerate(slots)]

    def judge(self, *slots):
        world = types.SimpleNamespace(sim=types.SimpleNamespace(dropped=[]))
        return _judge_owner(world, "o1", self.owned(*slots))

    def test_owner_paid_without_acting_is_advantaged(self):
        assert self.judge((True, True, True), (False, False, True)) == {
            "verdict": "advantaged", "evidence": [
                "c1:s0: acted and paid in full",
                "c1:s1: paid 2 without the account acting",
            ]}

    def test_harm_outranks_advantage(self):
        assert self.judge((False, False, True), (True, True, False)) == {
            "verdict": "harmed", "evidence": [
                "c1:s0: paid 2 without the account acting",
                "c1:s1: account acted (upvote:item1), reward 2 never landed (by host)",
            ]}


def ladder_shape(slots: int, service_enclaves: int, payment_enclaves: int) -> dict:
    """One honest social campaign, one owner per slot, fixed latency."""
    # one price for every owner: with mixed prices the equal escrow split can
    # leave a share short, and a refused settlement shortens the payment phase
    owners = [{"id": f"o{i}", "services": [{
        "service": "social", "username": f"user{i}", "password": f"pw-{i}",
        "price": "2", "allowed": ["upvote"]}]} for i in range(slots)]
    return {
        "name": f"ladder{slots}", "seed": 1,
        "chain": {"difficulty_bits": 4},
        "latency": {"model": "fixed"},
        "timing": {"horizon": 10.0 * slots + 600.0},
        "topology": {"mode": "centralized", "service_enclaves": service_enclaves,
                     "payment_enclaves": payment_enclaves},
        "services": [{"id": "social", "kind": "social", "items": ["item1"]}],
        "owners": owners,
        "renters": [{"id": "r1", "balance": str(10 * slots), "campaigns": [{
            "service": "social", "action": "upvote", "target": "item1",
            "count": slots}]}],
    }


class TestScheduleEstimate:
    @settings(max_examples=25, deadline=None)
    @given(slots=st.integers(1, 60), service_enclaves=st.integers(1, 4),
           payment_enclaves=st.integers(1, 4))
    def test_estimate_matches_simulated_phases(self, slots, service_enclaves,
                                               payment_enclaves):
        spec = parse_scenario(ladder_shape(slots, service_enclaves, payment_enclaves))
        marks = only_campaign(run_scenario(spec)).phase_marks
        estimate = estimate_schedule(spec)
        # exact up to the rounding of summing step latencies on the virtual clock
        assert marks["service_end"] - marks["service_start"] == pytest.approx(
            estimate["action_phase"], abs=1e-9)
        assert marks["payment_end"] - marks["payment_start"] == pytest.approx(
            estimate["payment_phase"], abs=1e-9)

    def test_fewer_slots_than_payment_enclaves_all_settle(self):
        world = run_scenario(parse_scenario(ladder_shape(2, 1, 4)))
        campaign = only_campaign(world)
        assert len(campaign.shares) == 2
        assert slot_statuses(campaign) == ["confirmed"] * 2
        assert all(world.node.chain.has_tx(s.settlement_tx)
                   for s in campaign.slots.values())
        assert campaign.deposit_ledger["burned"] == 0


class TestEventTrafficScaling:
    def test_events_grow_linearly_with_slots(self):
        """Guards against per-round traffic that runs for the whole campaign,
        such as owner polls swept until mining stops, which grows as n**2."""
        events = {n: len(run_scenario(parse_scenario(ladder_shape(n, 4, 4))).sim.log.lines)
                  for n in (100, 200)}
        assert events[200] / events[100] <= 2.1


class _UnreadQueue(list):
    """A payment queue that fails the run if anything iterates it."""

    def __iter__(self):
        raise AssertionError("the payment queue was iterated")


class TestPerSlotWork:
    """Per-slot work independent of the slot count: a gate compares only the
    renter's heights, and a settle does not sum the payment queue."""

    def gate_sizes(self, monkeypatch, slots: int) -> list[int]:
        sizes = []
        check = ledger.check_consistency

        def counting(a, b, difficulty_bits):
            sizes.append(len(a) + len(b))
            return check(a, b, difficulty_bits)

        monkeypatch.setattr(ledger, "check_consistency", counting)
        spec = parse_scenario(ladder_shape(slots, 2, 2))
        world = build_world(spec)
        for group in world.groups.values():
            for enc in group.payment_encs:
                enc.queue = _UnreadQueue()
        world.sim.run(until=spec.timing.horizon)
        campaign = only_campaign(world)
        assert len(sizes) == slots
        assert all(s.settlement_tx for s in campaign.slots.values())
        return sizes

    def test_gate_headers_and_settle_work_do_not_grow(self, monkeypatch):
        depth = parse_scenario(ladder_shape(1, 1, 1)).chain.confirmation_depth
        small = self.gate_sizes(monkeypatch, 40)
        large = self.gate_sizes(monkeypatch, 160)
        assert max(small) == max(large) <= 2 * depth


class TestMiningOverlap:
    """Each block's nonce search runs in the background, queued behind its
    parent's, from the moment the block is assembled until its digest is
    first read. A read in the same virtual instant would make the event
    loop wait on the search, so none may happen while the simulation runs.
    ``cut1_forged_view`` is left out: its renter mines six private-fork
    blocks in one instant."""

    def reads_in_the_mining_instant(self, monkeypatch, spec) -> list[int]:
        """Heights of blocks first read in the virtual instant they were
        posted, while ``spec``'s world runs."""
        clock: list = []  # the running Simulation, once there is one
        posted_at: dict = {}  # (height, payload_digest) -> virtual time of the post
        read: list = []  # (height, payload_digest) of each read, in order
        same_instant: list[int] = []
        post, mine_nonce = powcore.post, powcore.mine_nonce

        def now() -> float:
            return clock[0].now if clock else 0.0

        def posting(height, prev, payload_digest, bits):
            posted_at[height, payload_digest] = now()
            return post(height, prev, payload_digest, bits)

        def reading(height, prev_digest, payload_digest, bits):
            read.append((height, payload_digest))
            if clock and posted_at.get((height, payload_digest)) == now():
                same_instant.append(height)
            return mine_nonce(height, prev_digest, payload_digest, bits)

        monkeypatch.setattr(powcore, "post", posting)
        monkeypatch.setattr(powcore, "mine_nonce", reading)
        world = build_world(spec)
        clock.append(world.sim)
        world.sim.run(until=spec.timing.horizon)
        clock.clear()
        assert world.node.chain.verify_full() == (True, "ok")
        # Every block went through both hooks, and was read once.
        blocks = [(b.header.height, b.header.payload_digest) for b in world.node.chain.blocks]
        assert set(blocks) <= set(posted_at) and sorted(read) == sorted(blocks)
        return same_instant

    def test_ladder_shape_reads_no_block_in_its_mining_instant(self, monkeypatch):
        spec = parse_scenario(dict(ladder_shape(40, 4, 4), latency={"model": "normal"}))
        assert self.reads_in_the_mining_instant(monkeypatch, spec) == []

    @pytest.mark.parametrize("name", sorted(
        p.stem for p in (resources.files("leasim") / "scenarios").iterdir()
        if p.name.endswith(".yaml") and p.stem != "cut1_forged_view"))
    def test_bundled_scenario_reads_no_block_in_its_mining_instant(self, monkeypatch, name):
        spec = load_scenario(str(resources.files("leasim") / "scenarios" / f"{name}.yaml"))
        assert self.reads_in_the_mining_instant(monkeypatch, spec) == []

    @pytest.mark.parametrize("cpus", ["all", "one"])
    def test_ladder_shape_reads_blocks_only_to_verify_funding(self, monkeypatch, cpus):
        """Assembling a block reads nothing of its parent, so the chain
        node's tick never waits for a nonce: with the helper, which queues
        the block's search behind the parent's, and on one CPU, where
        nothing is posted and each block is mined at its first read. While
        the world runs, only funding verification reads a block."""
        if cpus == "one" and not hasattr(os, "sched_setaffinity"):
            pytest.skip("needs os.sched_setaffinity")
        readers: list[set[str]] = []  # the functions on the stack of each read
        posted: list = []  # the jobs posts returned
        mine_nonce, post = powcore.mine_nonce, powcore.post

        def posting(*job):
            posted.append(post(*job))
            return posted[-1]

        def reading(*job):
            frame, names = sys._getframe(1), set()
            while frame is not None:
                names.add(frame.f_code.co_qualname)
                frame = frame.f_back
            readers.append(names)
            return mine_nonce(*job)

        spec = parse_scenario(dict(ladder_shape(40, 4, 4), latency={"model": "normal"}))
        cpus_before = os.sched_getaffinity(0)
        if cpus == "one":
            os.sched_setaffinity(0, {min(cpus_before)})
        try:
            world = build_world(spec)
            monkeypatch.setattr(powcore, "mine_nonce", reading)
            monkeypatch.setattr(powcore, "post", posting)
            jobs_before = powcore._helper.seq if powcore._helper else 0
            world.sim.run(until=spec.timing.horizon)
        finally:
            os.sched_setaffinity(0, cpus_before)
        assert world.node.chain.height > 10 and readers
        assert not [names for names in readers if {"Chain._mine", "Mempool.assemble"} & names]
        assert all("InterfaceEnclave._verify_funding" in names for names in readers)
        queued = [job for job in posted if job is not None]
        if cpus == "one" or powcore._helper is None:
            assert not queued
        else:  # every block queued behind its parent, and no read posted one afresh
            assert len(queued) == len(posted) == world.node.chain.height
            assert powcore._helper.seq - jobs_before == len(queued)


class TestDeliveredMessagesFreed:
    def test_only_dropped_messages_outlive_the_run(self):
        """A delivered Message is freed once its handler returns; only
        ``sim.dropped``, which the report's blame reads, keeps Messages."""

        def live_messages() -> int:
            gc.collect()
            return sum(1 for obj in gc.get_objects() if type(obj) is Message)

        before = live_messages()
        world = run_scenario(parse_scenario(ladder_shape(200, 4, 4)))
        assert len(world.sim.delivered) > 10_000
        assert live_messages() - before <= len(world.sim.dropped)


class TestOpenSlotCount:
    """Campaign.open_slots always equals a scan for unresolved slots."""

    @staticmethod
    def run_checking_count(raw: dict, monkeypatch) -> tuple[object, list[str]]:
        """Run ``raw``, comparing the count with a scan after every call of
        the two handlers that resolve slots; returns the calls checked."""
        checked = []

        def checking(name: str):
            real = getattr(InterfaceEnclave, name)

            def wrapper(self, sim, *args):
                real(self, sim, *args)
                for campaign in self.campaigns.values():
                    assert campaign.open_slots == sum(
                        1 for s in campaign.slots.values() if s.status not in RESOLVED)
                checked.append(name)

            return wrapper

        for name in ("_on_slot_result", "_stop_campaign"):
            monkeypatch.setattr(InterfaceEnclave, name, checking(name))
        world = run_scenario(parse_scenario(raw))
        assert "_on_slot_result" in checked
        return world, checked

    def test_after_substitution(self, monkeypatch):
        path = resources.files("leasim") / "scenarios" / "cut2_owner_skip.yaml"
        world, _checked = self.run_checking_count(yaml.safe_load(path.read_text()), monkeypatch)
        campaign = only_campaign(world)
        assert any(s.substituted_by for s in campaign.slots.values())
        assert campaign.open_slots == 0 and "payment_start" in campaign.phase_marks

    def test_after_emergency_stop(self, monkeypatch):
        raw = ladder_shape(40, 1, 1)
        # the payment enclave dies during the service phase: its share is
        # recovered and the campaign stopped with slots still in flight
        raw["host"] = {"kills": [{"actor": "payenc:0:0", "at": 100.0}]}
        world, checked = self.run_checking_count(raw, monkeypatch)
        campaign = only_campaign(world)
        assert "_stop_campaign" in checked
        assert "cancelled" in slot_statuses(campaign)
        assert campaign.open_slots == 0 and campaign.status == "terminated"


class TestCrossProcessDeterminism:
    """String hashes differ per process, so nothing may iterate a set of ids."""

    DIGESTS = (
        "import sys\n"
        "from leasim.report import build_report, report_digest\n"
        "from leasim.runner import run_scenario\n"
        "from leasim.scenario import load_scenario\n"
        "world = run_scenario(load_scenario(sys.argv[1]))\n"
        "print(world.sim.log.digest(), report_digest(build_report(world)))\n"
    )

    def test_stopped_campaign_digests_ignore_hash_seed(self, tmp_path):
        path = resources.files("leasim") / "scenarios" / "crash_payment.yaml"
        raw = yaml.safe_load(path.read_text())
        raw["topology"]["service_enclaves"] = 3
        raw["host"]["kills"][0]["at"] = 101.0  # after the first of three settlements
        scenario = tmp_path / "crash_three_service_enclaves.yaml"
        scenario.write_text(yaml.safe_dump(raw))
        src = str(Path(leasim.__file__).resolve().parent.parent)

        def digests(hash_seed: str) -> str:
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
            done = subprocess.run([sys.executable, "-c", self.DIGESTS, str(scenario)],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            return done.stdout

        world = run_scenario(load_scenario(str(scenario)))
        cancels = [line for line in world.sim.log.lines if "kind=send:cancel_campaign" in line]
        assert len({line.split(" dst=")[1].split()[0] for line in cancels}) == 3
        assert digests("1") == digests("2")


class TestDistributed:
    def test_remote_owners_reach_primary_via_gossip(self):
        world = world_for("distributed")
        campaign = only_campaign(world)
        assert slot_statuses(campaign) == ["confirmed"] * 3
        assert "gossip_owner" in world.sim.log.text()
        # records enrolled at b became selectable at a
        assert {"o1", "o2", "o3"} <= set(world.groups["a"].enclave.owners)

    def test_gossip_stops_with_slot_selection(self, monkeypatch):
        """No gossip tick runs after the first one that finds mining stopped
        or slot selection over, and the records it syncs are unchanged."""
        ticks: list[bool] = []  # per tick: was selection over when it ended?
        world = None
        schedule = Simulation.schedule

        def recording(sim, delay, fn):
            if fn.__qualname__ == "_schedule_gossip.<locals>.tick":
                def tick(fn=fn):
                    fn()
                    ticks.append(world.node.stopped or not runner._selection_open(world))
                return schedule(sim, delay, tick)
            return schedule(sim, delay, fn)

        monkeypatch.setattr(Simulation, "schedule", recording)
        path = resources.files("leasim") / "scenarios" / "distributed.yaml"
        spec = load_scenario(str(path))
        world = build_world(spec)
        world.sim.run(until=spec.timing.horizon)
        assert len(ticks) > 100 and ticks == [False] * (len(ticks) - 1) + [True]
        assert [line for line in world.sim.log.lines if "kind=gossip_owner" in line] == [
            "t=0.250000 actor=iface:b kind=gossip_owner owner=o1 via=iface:a",
            "t=0.250000 actor=iface:a kind=gossip_owner owner=o2 via=iface:b",
            "t=0.250000 actor=iface:a kind=gossip_owner owner=o3 via=iface:b",
        ]

    @staticmethod
    def run_with_host(host: dict):
        """Run ``distributed`` under a host script."""
        path = resources.files("leasim") / "scenarios" / "distributed.yaml"
        raw = yaml.safe_load(path.read_text())
        raw["host"] = host
        return run_scenario(parse_scenario(raw))

    def test_cut_gossip_edge_hides_remote_owners(self):
        world = self.run_with_host(
            {"cuts": [{"kind": "gossip_batch", "src": "iface:b", "dst": "iface:a"}]})
        assert set(world.groups["a"].enclave.owners) == {"o1"}
        assert set(world.groups["b"].enclave.owners) == {"o1", "o2", "o3"}
        campaign = only_campaign(world)
        assert [(s.owner_id, s.status) for s in campaign.slots.values()] == [("o1", "confirmed")]
        report = build_report(world)
        assert report["drops"] and {(d["kind"], d["by"]) for d in report["drops"]} == {
            ("gossip_batch", "host")}
        assert all(ok for _, ok, _ in verify_world(world))

    def test_killed_interface_neither_sends_nor_receives_gossip(self):
        # killed at t=0, iface:b never finishes an enrollment: it has nothing
        # to send, and iface:a's batches die at its door
        world = self.run_with_host({"kills": [{"actor": "iface:b", "at": 0.0}]})
        assert set(world.groups["a"].enclave.owners) == {"o1"}
        assert TestSecretTaint.fates(world, "gossip_batch")[:2] == ["send", "drop_dead"]
        # killed after the first round, it still holds changed records
        world = self.run_with_host({"kills": [{"actor": "iface:b", "at": 0.3}]})
        blocked = [line for line in world.sim.log.lines if "send_blocked:gossip_batch" in line]
        assert blocked == ["t=0.500000 actor=iface:b kind=send_blocked:gossip_batch rule=kill1"
                           " msg=28 src=iface:b dst=iface:a"]

    def test_unsessioned_gossip_leaks_credentials(self, monkeypatch):
        session_for = InterfaceEnclave._session_for
        monkeypatch.setattr(
            InterfaceEnclave, "_session_for",
            lambda self, sim, peer: None if peer.startswith("iface:")
            else session_for(self, sim, peer))
        world = self.run_with_host({})
        (check,) = [c for c in verify_world(world) if c[0] == "no_unsessioned_secrets"]
        assert check[1:] == (False, "secret in cleartext gossip_batch iface:a->iface:b")


class TestP2P:
    def test_mining_stops_after_grace(self):
        """Every p2p slot runs while the world is built, so the node stops
        after its grace blocks."""
        world = world_for("p2p")
        assert (world.sim.now, world.node.chain.height) == (105.0, 7)
        assert world.sim.log.lines[-1] == (
            "t=105.000000 actor=node:main kind=mining_stopped height=7")

    def test_cpu_flood_collapses_to_one_binding(self):
        world = world_for("p2p")
        assert world.p2p["registry"].accepted_count("cpu:flood") == 1

    def test_campaign_fulfilled_breadth_first(self):
        world = world_for("p2p")
        campaign = world.p2p["campaigns"][0]
        assert campaign["fulfilled"] == ["iface:n1", "iface:n2"]
        assert campaign["remainder_refund"] == 0
        assert [s["status"] for s in campaign["slots"]] == ["confirmed", "confirmed"]

    def test_empty_whitelist_permits_no_target(self):
        """``whitelist: []`` allows no target, as in centralized mode; only a
        missing whitelist allows any."""
        raw = yaml.safe_load(
            (resources.files("leasim") / "scenarios" / "p2p.yaml").read_text())
        for owner in raw["owners"]:
            for entry in owner["services"]:
                entry["whitelist"] = []
        world = run_scenario(parse_scenario(raw))
        assert world.p2p["campaigns"] == [
            {"renter": "r1", "service": "social", "error": "NoCompliantNodes"}]


class TestInvariantsEverywhere:
    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_verify_suite_green(self, name):
        failures = [(check, why) for check, ok, why in
                    verify_world(world_for(name)) if not ok]
        assert not failures

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_deposit_ledger_closes(self, name):
        for campaign in world_for(name).all_campaigns():
            led = campaign.deposit_ledger
            if led:
                assert led["quoted"] == (led["returned"] + led["burned"]
                                         + led["terminal_refund"])

    @staticmethod
    def failed_checks(world) -> dict[str, str]:
        return {check: why for check, ok, why in verify_world(world) if not ok}

    def test_settlement_without_reward_fails_atomicity(self):
        world = run_scenario(load_scenario(
            str(resources.files("leasim") / "scenarios" / "baseline.yaml")))
        chain = world.node.chain
        note = chain.unspent_notes("renter:r1")[0]
        forged = make_transaction([note.note_id], [("renter:r1", note.value, "change")],
                                  {"renter:r1"}, memo="settle:forged")
        world.node.chain = chain.append_block([forged])
        assert self.failed_checks(world) == {
            "settlement_atomicity": f"{forged.tx_id[:12]} missing outputs ['change']"}

    def test_reordered_share_chain_fails_linearity(self):
        world = run_scenario(load_scenario(
            str(resources.files("leasim") / "scenarios" / "baseline.yaml")))
        (group,) = world.groups.values()
        (enc,) = group.payment_encs
        (share,) = enc.shares.values()
        share.issued[:2] = share.issued[1::-1]  # the second settlement first
        assert self.failed_checks(world) == {"linear_share_chains": (
            f"share {share.address} breaks the chain at {share.issued[1].tx_id[:12]}")}

    def test_rerun_is_bit_identical(self):
        path = resources.files("leasim") / "scenarios" / "cut3_response.yaml"
        digests = set()
        for _ in range(2):
            world = run_scenario(load_scenario(str(path)))
            digests.add((world.sim.log.digest(),
                         report_digest(build_report(world))))
        assert len(digests) == 1


BUNDLED = sorted(p.name.removesuffix(".yaml")
                 for p in (resources.files("leasim") / "scenarios").iterdir()
                 if p.name.endswith(".yaml"))


class TestMiningStops:
    """Machine-independent mining counts of the bundled scenarios. The
    smallest-nonce search makes each block's hash attempts exact."""

    BLOCKS = {
        "baseline": 15, "collusion_social": 16, "collusion_voting": 15,
        "crash_payment": 20, "cut1_forged_view": 8, "cut2_owner_skip": 16,
        "cut3_response": 16, "cut45_all": 15, "cut45_single_path": 15,
        "distributed": 15, "eclipse": 15, "p2p": 8, "replay": 38, "revert": 16,
    }

    @pytest.mark.parametrize("name", BUNDLED)
    def test_node_stops_before_horizon(self, name):
        world = world_for(name)
        assert world.node.stopped
        assert world.sim.now < world.spec.timing.horizon
        assert len(world.node.chain.blocks) == self.BLOCKS[name]

    def test_total_hash_attempts(self):
        assert sorted(self.BLOCKS) == BUNDLED
        assert sum(block.header.pow_nonce + 1 for name in BUNDLED
                   for block in world_for(name).node.chain.blocks) == 859_657


def poll_events(world, fate: str = "send") -> list[tuple[str, str]]:
    """(time as logged, actor) of every ``<fate>:poll`` line, in log order."""
    out = []
    for line in world.sim.log.lines:
        t, actor, kind = line.split(" ", 3)[:3]
        if kind == f"kind={fate}:poll":
            out.append((t[2:], actor[6:]))
    return out


class TestOwnerPolls:
    """One sweep timer sends every owner's one-way liveness poll."""

    @staticmethod
    def baseline() -> dict:
        path = resources.files("leasim") / "scenarios" / "baseline.yaml"
        return yaml.safe_load(path.read_text())

    @pytest.mark.parametrize("name", BUNDLED)
    def test_no_poll_ack(self, name):
        assert not any("poll_ack" in line for line in world_for(name).sim.log.lines)

    @staticmethod
    def selection_closed_at(world) -> float | None:
        """Virtual time at which the last renter intent was launched or
        refused, or None while some campaign still waits in created."""
        campaigns = world.all_campaigns()
        if any(c.status == "created" for c in campaigns):
            return None
        launches = [c.phase_marks["service_start"] for c in campaigns]
        refusals = [float(line.split(" ", 1)[0][2:]) for line in world.sim.log.lines
                    if " kind=recv:quote_failed " in line]
        assert len(launches) + len(refusals) == sum(
            len(r.intents) for r in world.renters.values())
        return max(launches + refusals)

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_rounds_every_half_interval_in_enrollment_order(self, name):
        world = world_for(name)
        pollers = [f"owner:{o.owner_id}" for o in world.spec.owners if o.polls]
        # a run whose campaign never ends is cut off by the horizon instead
        stops = [float(line.split(" ", 1)[0][2:]) for line in world.sim.log.lines
                 if " kind=mining_stopped " in line]
        stopped_at = stops[0] if stops else world.spec.timing.horizon
        closed_at = self.selection_closed_at(world)
        if closed_at is not None:
            stopped_at = min(stopped_at, closed_at)
        # rounds up to and including the first one after selection closed
        expected, at = [], POLL_AT
        while at <= world.spec.timing.horizon:
            expected += [(f"{at:.6f}", actor) for actor in pollers]
            if at > stopped_at:
                break
            at += world.spec.timing.poll_interval / 2
        assert poll_events(world) == expected

    def test_owner_with_polls_false_sends_none(self):
        raw = self.baseline()
        raw["owners"][1]["polls"] = False
        world = run_scenario(parse_scenario(raw))
        actors = {actor for _t, actor in poll_events(world)}
        assert actors == {"owner:o1", "owner:o3"}
        assert not any("owner:o2" in line and ":poll " in line for line in world.sim.log.lines)

    @staticmethod
    def run_recording_selections(raw: dict, monkeypatch) -> tuple[object, list]:
        """Run ``raw``, recording the owner ids of every compliant_accounts answer."""
        selections = []
        real = InterfaceEnclave.compliant_accounts

        def recording(self, sim, *args):
            out = real(self, sim, *args)
            selections.append([owner for owner, _price in out])
            return out

        monkeypatch.setattr(InterfaceEnclave, "compliant_accounts", recording)
        return run_scenario(parse_scenario(raw)), selections

    def test_host_cut_poll_makes_owner_stale(self, monkeypatch):
        raw = self.baseline()
        raw["renters"][0]["campaigns"][0]["count"] = 2
        assert {s.owner_id for s in only_campaign(
            run_scenario(parse_scenario(raw))).slots.values()} == {"o1", "o2"}

        raw["host"] = {"cuts": [{"kind": "poll", "src": "owner:o2"}]}
        world, selections = self.run_recording_selections(raw, monkeypatch)
        assert {s.owner_id for s in only_campaign(world).slots.values()} == {"o1", "o3"}
        # the only two selections: at the quote o2 is still fresh from its
        # enrollment, and by the launch it is stale
        assert selections == [["o1", "o2", "o3"], ["o1", "o3"]]
        assert {actor for _t, actor in poll_events(world)} == {"owner:o1", "owner:o3"}
        poll_drops = [d for d in build_report(world)["drops"] if d["kind"] == "poll"]
        assert poll_drops
        assert {(d["by"], d["src"]) for d in poll_drops} == {("host", "owner:o2")}

    def test_delayed_quote_request_still_finds_fresh_owners(self, monkeypatch):
        raw = self.baseline()
        poll_interval = parse_scenario(raw).timing.poll_interval
        # the quote arrives long after every owner's last poll would have
        # gone stale, had the sweep stopped while no campaign existed yet
        raw["host"] = {"delays": [{"kind": "quote_request", "extra": 2 * poll_interval}]}
        world, selections = self.run_recording_selections(raw, monkeypatch)
        (quoted_at,) = [float(line.split(" ", 1)[0][2:]) for line in world.sim.log.lines
                        if " kind=recv:quote_request " in line]
        assert quoted_at > POLL_AT + 2 * poll_interval
        assert selections == [["o1", "o2", "o3"], ["o1", "o2", "o3"]]
        campaign = only_campaign(world)
        assert slot_statuses(campaign) == ["confirmed"] * 3
        assert {actor for _t, actor in poll_events(world)} == {
            "owner:o1", "owner:o2", "owner:o3"}

    @pytest.mark.parametrize("kill_at", [0.1, 40.0])
    def test_killed_owner_stops_polling(self, kill_at):
        raw = self.baseline()
        raw["host"] = {"kills": [{"actor": "owner:o2", "at": kill_at}]}
        world = run_scenario(parse_scenario(raw))
        sent = [float(t) for t, actor in poll_events(world) if actor == "owner:o2"]
        assert all(t < kill_at for t in sent)
        blocked = poll_events(world, "send_blocked")
        # the first round is not guarded: an owner killed before it is blocked once
        assert blocked == ([(f"{POLL_AT:.6f}", "owner:o2")] if kill_at < POLL_AT else [])
        others = [t for t, actor in poll_events(world) if actor == "owner:o1"]
        assert len(others) > len(sent) + 1


class TestEnrollmentFailure:
    """An owner whose enrollment fails is logged once and never selected."""

    @staticmethod
    def enrollment_lines(world) -> list[str]:
        """``t=<time> <kind> <fields>`` of every enrollment outcome, in log order."""
        out = []
        for line in world.sim.log.lines:
            time, _actor, rest = line.split(" ", 2)
            if rest.startswith(("kind=enroll_failed ", "kind=owner_enrolled ")):
                out.append(f"{time} {rest[5:]}")
        return out

    def test_bad_credentials(self):
        world = build_world(parse_scenario(TestOwnerPolls.baseline()))
        # o1's password changed at the service after the scenario was written
        world.services["social"].accounts["ada"] = "pw-changed"
        world.sim.run(until=world.spec.timing.horizon)
        assert self.enrollment_lines(world) == [
            "t=0.000000 enroll_failed owner=o1 error=BadCredentials",
            "t=0.000000 owner_enrolled owner=o2 services=1",
            "t=0.000000 owner_enrolled owner=o3 services=1",
        ]
        campaign = only_campaign(world)
        assert [s.owner_id for s in campaign.slots.values()] == ["o2", "o3"]
        assert all(ok for _, ok, _ in verify_world(world))

    def test_unreachable_proxy(self):
        raw = TestOwnerPolls.baseline()
        raw["host"] = {"cuts": [{"kind": "nonce_rt", "dst": "proxy:o1"}]}
        world = run_scenario(parse_scenario(raw))
        assert self.enrollment_lines(world) == [
            "t=0.000000 owner_enrolled owner=o2 services=1",
            "t=0.000000 owner_enrolled owner=o3 services=1",
            "t=5.000000 enroll_failed owner=o1 error=ProxyUnreachable",
        ]
        assert [s.owner_id for s in only_campaign(world).slots.values()] == ["o2", "o3"]
        assert all(ok for _, ok, _ in verify_world(world))


class TestEventKindsDocumented:
    FORMATS = Path(__file__).resolve().parent.parent / "docs" / "formats.md"

    @pytest.mark.parametrize("name", BUNDLED)
    def test_every_event_kind_is_named_in_formats_doc(self, name):
        doc = self.FORMATS.read_text()
        kinds = {line.split(" kind=", 1)[1].split(" ", 1)[0]
                 for line in world_for(name).sim.log.lines}
        # message events are documented by prefix, as `drop:<msg kind>`
        named = {k.split(":")[0] + ":<msg kind>" if ":" in k else k for k in kinds}
        undocumented = sorted(k for k in named if f"`{k}`" not in doc)
        assert not undocumented


class TestMessageKindsDocumented:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_every_sent_kind_has_a_messages_row(self, name):
        doc = TestEventKindsDocumented.FORMATS.read_text()
        kinds = set()
        for line in world_for(name).sim.log.lines:
            fate, sep, kind = line.split(" kind=", 1)[1].split(" ", 1)[0].partition(":")
            if sep and fate in ("send", "drop", "send_blocked"):
                kinds.add(kind)
        undocumented = sorted(k for k in kinds if f"\n| `{k}` |" not in doc)
        assert not undocumented


class TestScenarioKeysDocumented:
    def test_scenario_block_has_exactly_the_declared_keys(self):
        doc = TestEventKindsDocumented.FORMATS.read_text()
        block = yaml.load(doc.split("```yaml\n", 1)[1].split("```", 1)[0],
                          Loader=SAFE_LOADER)
        mismatches = []

        def walk(cls, node, path):
            declared, _required = scenario._keys(cls)
            if set(node) != set(declared):
                mismatches.append((path, sorted(set(declared) - set(node)),
                                   sorted(set(node) - set(declared))))
            hints = typing.get_type_hints(cls)
            for key, value in node.items():
                if key not in declared:
                    continue
                hint = hints[declared[key][0]]
                if dataclasses.is_dataclass(hint):
                    walk(hint, value, f"{path}.{key}")
                elif typing.get_origin(hint) is list and dataclasses.is_dataclass(
                        typing.get_args(hint)[0]):
                    for i, item in enumerate(value):
                        walk(typing.get_args(hint)[0], item, f"{path}.{key}[{i}]")

        walk(scenario.ScenarioSpec, block, "scenario")
        # each entry: (path, declared but undocumented, documented but undeclared)
        assert not mismatches


class TestScenarioLoader:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_parse_alike_under_both_loaders(self, name):
        text = (resources.files("leasim") / "scenarios" / f"{name}.yaml").read_text()
        assert yaml.load(text, Loader=SAFE_LOADER) == yaml.safe_load(text)

    def test_ladder_shape_parses_alike_under_both_loaders(self):
        text = yaml.safe_dump(ladder_shape(200, 4, 4), sort_keys=False)
        assert yaml.load(text, Loader=SAFE_LOADER) == yaml.safe_load(text) == ladder_shape(
            200, 4, 4)

    def test_malformed_file_is_a_schema_error(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("name: broken\nowners: [o1, {id: o2\n")
        with pytest.raises(SchemaError, match="not valid YAML"):
            load_scenario(path)

    @pytest.mark.parametrize("field, value", [
        ("campaign_index", -1), ("campaign_index", "x"), ("campaign_index", 1),
        ("step", 0), ("step", "x"),
    ])
    def test_bad_cut_scope_exits_2(self, tmp_path, capsys, field, value):
        """``baseline`` has one campaign, so index 0 is the only valid one."""
        raw = yaml.safe_load(
            (resources.files("leasim") / "scenarios" / "baseline.yaml").read_text())
        raw["host"] = {"cuts": [{"kind": "svc_confirm", field: value}]}
        path = tmp_path / "bad_cut.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli.main(["verify", "--scenario", str(path)]) == 2
        assert f"host.cuts[0].{field}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, entry", [
        ("cuts", {"kind": "svc_request", "cut_point": 2}),
        ("delays", {"extra": 1.0}),
        ("kills", {"actor": "iface:n2", "at": 0.0}),
        ("eclipse", {"owner": "o1", "source": "stale"}),
    ])
    def test_p2p_host_script_exits_2(self, tmp_path, capsys, key, entry):
        """p2p sends nothing over the simulated wire, so a host script there
        would be parsed and then ignored."""
        raw = bundled_raw("p2p")
        raw["host"] = {key: [entry]}
        path = tmp_path / "p2p_host.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli.main(["verify", "--scenario", str(path)]) == 2
        assert f"host.{key}: p2p mode" in capsys.readouterr().err

    def test_cut_scope_bounds_accepted(self):
        raw = yaml.safe_load(
            (resources.files("leasim") / "scenarios" / "baseline.yaml").read_text())
        raw["host"] = {"cuts": [{"kind": "svc_confirm", "campaign_index": 0, "step": 1}]}
        (cut,) = parse_scenario(raw).host.cuts
        assert (cut.campaign_index, cut.step) == (0, 1)

    @pytest.mark.parametrize("keys, value, field", [
        (("services", 0, "collusion"), "false", "services[0].collusion"),
        (("owners", 0, "polls"), "no", "owners[0].polls"),
        (("owners", 0, "services", 0, "accepts_revert_window"), 1,
         "owners[0].services[0].accepts_revert_window"),
        (("owners", 0, "cpu"), "", "owners[0].cpu"),
        (("host", "cuts", 0, "kind"), "", "host.cuts[0].kind"),
        (("host", "cuts", 0, "src"), 3, "host.cuts[0].src"),
        (("host", "cuts", 0, "dst"), ["proxy:o1"], "host.cuts[0].dst"),
        (("host", "cuts", 0, "rule_owner"), 7, "host.cuts[0].rule_owner"),
        (("host", "delays", 0, "kind"), 4, "host.delays[0].kind"),
        (("host", "delays", 0, "dst"), "", "host.delays[0].dst"),
        (("maintainer_address",), "", "maintainer_address"),
        (("chain",), 5, "chain"),
        (("owners",), [5], "owners[0]"),
        (("host",), [], "host"),
        (("services",), None, "services"),
        (("renters", 0, "campaigns"), [1], "renters[0].campaigns[0]"),
        (("host", "cuts"), [3], "host.cuts[0]"),
        (("host", "cuts", 0, "owner_id"), ["o1"], "host.cuts[0].owner_id"),
        (("host", "eclipse", 0, "renter"), ["r1"], "host.eclipse[0].renter"),
        (("chain",), {"depth": 6, 1: 2}, "chain.1"),
        (("services", 0, "items"), "item1", "services[0].items"),
        (("owners", 0, "services", 0, "whitelist"), "item1",
         "owners[0].services[0].whitelist"),
        (("owners", 0, "home_interface"), "", "owners[0].home_interface"),
        (("host", "eclipse", 0, "renter"), 5, "host.eclipse[0].renter"),
        (("host", "cuts", 0, "cut_point"), True, "host.cuts[0].cut_point"),
        (("chain", "block_interval"), float("nan"), "chain.block_interval"),
        (("timing", "horizon"), float("inf"), "timing.horizon"),
        (("host", "kills"), [{"actor": "payenc:0:0", "at": 10**400}], "host.kills[0].at"),
        (("topology",), {"mode": "distributed", "interfaces": ["a"], "edges": [["a", "a"]]},
         "topology.edges[0]"),
    ])
    def test_bad_field_value_exits_2(self, tmp_path, capsys, keys, value, field):
        """Flags must be real booleans, names non-empty strings, and every
        section and list the shape the schema declares."""
        raw = yaml.safe_load(
            (resources.files("leasim") / "scenarios" / "baseline.yaml").read_text())
        raw["host"] = {"cuts": [{"kind": "svc_confirm"}], "delays": [{"extra": 1.0}],
                       "eclipse": [{"owner": "o1", "source": "stale"}]}
        target = raw
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        path = tmp_path / "bad_field.yaml"
        path.write_text(yaml.safe_dump(raw, sort_keys=False))
        assert cli.main(["verify", "--scenario", str(path)]) == 2
        assert f"bad_field.{field}: " in capsys.readouterr().err

    def test_directory_exits_2(self, tmp_path, capsys):
        assert cli.main(["verify", "--scenario", str(tmp_path)]) == 2
        assert f"{tmp_path}: cannot read the file" in capsys.readouterr().err

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.yaml"
        path.write_bytes("name: caf\xe9\n".encode("latin-1"))
        assert cli.main(["verify", "--scenario", str(path)]) == 2
        assert f"{path}: cannot read the file" in capsys.readouterr().err


class _Probe:
    """An actor that accepts any message and keeps nothing."""

    def receive(self, msg, sim):
        pass


class TestSecretTaint:
    """verify_world names the first cleartext message that carried a Secret,
    delivered or dropped, and counts every delivered and dropped message."""

    def taint_check(self, world) -> tuple[bool, str]:
        (check,) = [c for c in verify_world(world) if c[0] == "no_unsessioned_secrets"]
        return check[1], check[2]

    @staticmethod
    def run_with(script):
        """Run a 2-slot honest ladder with an extra ``probe`` actor, after
        ``script(sim)`` has installed rules and scheduled extra traffic."""
        spec = parse_scenario(ladder_shape(2, 1, 1))
        world = build_world(spec)
        world.sim.register("probe", _Probe())
        script(world.sim)
        world.sim.run(until=spec.timing.horizon)
        return world

    @staticmethod
    def fates(world, kind: str | None = None) -> list[str]:
        """The fates (send, recv, drop, drop_dead, ...) logged for every
        message, or for the messages of one ``kind``, in log order."""
        out = []
        for line in world.sim.log.lines:
            fate, sep, msg_kind = line.split(" ", 3)[2][5:].partition(":")
            if sep and kind in (None, msg_kind):
                out.append(fate)
        return out

    def test_shared_payload_with_a_secret_fails(self):
        world = run_scenario(parse_scenario(ladder_shape(2, 1, 1)))
        ok, why = self.taint_check(world)
        scanned = len(world.sim.delivered) + len(world.sim.dropped)
        assert ok and why.startswith(f"{scanned} messages scanned")

        shared = {"login": ["user0", Secret("password", "pw-0")]}
        session = Session("s-test", "owner:o0", "probe")

        def send_all(sim):
            for n, sealed in enumerate([True] * 5 + [False] * 5):
                sim.send("owner:o0", "probe", f"m{n}", shared,
                         session=session if sealed else None, latency=0.5)

        world = self.run_with(lambda sim: sim.schedule_at(1.0, lambda: send_all(sim)))
        assert [self.fates(world, f"m{n}") for n in range(10)] == [["send", "recv"]] * 10
        ok, why = self.taint_check(world)
        assert not ok and why == "secret in cleartext m5 owner:o0->probe"

    def test_secret_dropped_by_a_host_rule_fails(self):
        def script(sim):
            sim.net.set_cut(kind="leak")
            sim.schedule_at(1.0, lambda: sim.send(
                "owner:o0", "probe", "leak", {"key": Secret("key", "k-0")}))

        world = self.run_with(script)
        assert self.fates(world, "leak") == ["drop"]
        assert self.taint_check(world) == (False, "secret in cleartext leak owner:o0->probe")

    def test_secret_sent_to_an_unknown_receiver_fails(self):
        # the message crossed the host's wire even though nobody took it
        world = self.run_with(lambda sim: sim.schedule_at(1.0, lambda: sim.send(
            "owner:o0", "nobody", "leak", {"key": Secret("key", "k-0")})))
        assert self.fates(world, "leak") == ["send", "drop_unknown"]
        assert self.taint_check(world) == (False, "secret in cleartext leak owner:o0->nobody")

    def test_secret_sent_to_a_killed_receiver_fails(self):
        def script(sim):
            sim.net.kill_enclave("probe", at_time=1.0)
            sim.schedule_at(1.0, lambda: sim.send(
                "owner:o0", "probe", "leak", {"key": Secret("key", "k-0")}, latency=0.5))

        world = self.run_with(script)
        assert self.fates(world, "leak") == ["send", "drop_dead"]
        assert self.taint_check(world) == (False, "secret in cleartext leak owner:o0->probe")

    def test_scanned_count_is_every_delivered_and_dropped_message(self):
        def script(sim):
            sim.net.set_cut(kind="cut")
            sim.net.kill_enclave("probe", at_time=2.0)
            for kind, at in (("ok", 1.0), ("cut", 1.0), ("dead", 2.5)):
                sim.schedule_at(at, lambda kind=kind: sim.send(
                    "owner:o0", "probe", kind, {"endpoint": "home"}))
            sim.schedule_at(1.0, lambda: sim.send("owner:o0", "nobody", "lost", {}))

        world = self.run_with(script)
        assert [self.fates(world, k) for k in ("ok", "cut", "dead", "lost")] == [
            ["send", "recv"], ["drop"], ["send", "drop_dead"], ["send", "drop_unknown"]]
        scanned = sum(1 for fate in self.fates(world)
                      if fate in ("recv", "drop", "drop_dead", "drop_unknown"))
        ok, why = self.taint_check(world)
        assert ok and why.startswith(f"{scanned} messages scanned")

    def test_shared_clean_payload_counts_every_message(self):
        shared = {"endpoint": "home"}

        def send_all(sim):
            for _ in range(7):
                sim.send("owner:o0", "probe", "clean", shared, latency=0.5)

        ok, why = self.taint_check(self.run_with(lambda sim: None))
        before = int(why.split()[0])
        world = self.run_with(lambda sim: sim.schedule_at(1.0, lambda: send_all(sim)))
        assert self.fates(world, "clean") == ["send"] * 7 + ["recv"] * 7
        ok, why = self.taint_check(world)
        assert ok and why.startswith(f"{before + 7} messages scanned")


_PLAIN_TYPES = (str, bytes, int, float, bool, type(None))


def _can_hold_secret(hint, seen: tuple = ()) -> bool:
    """Whether a value declared as ``hint`` is, or can hold, a Secret. A
    dataclass's field annotations and a generic's type arguments are walked
    down to plain types; anything else (``object``, ``Any``, a bare ``dict``)
    could hold one."""
    if isinstance(hint, type) and issubclass(hint, Secret):
        return True
    if hint is Ellipsis or hint in _PLAIN_TYPES:
        return False
    if dataclasses.is_dataclass(hint):
        return hint not in seen and any(
            _can_hold_secret(field, seen + (hint,))
            for field in typing.get_type_hints(hint).values())
    if typing.get_origin(hint) in (tuple, list, set, frozenset, dict, typing.Union,
                                   types.UnionType):
        return any(_can_hold_secret(arg, seen) for arg in typing.get_args(hint))
    return True


class TestCleartextLeafTypes:
    """``contains_secret`` does not look into objects other than dicts, lists,
    tuples and sets. Pin every other type that reaches a cleartext payload in
    the bundled scenarios, and check from its declared fields that none can
    hold a Secret."""

    LEAVES = {str, int, bool, type(None), Transaction, BlockHeader}

    def test_pinned_and_secret_free(self, monkeypatch):
        found: set[type] = set()
        check = Simulation._check_cleartext

        def collect(value) -> None:
            if isinstance(value, dict):
                value = value.values()
            elif not isinstance(value, (list, tuple, set, frozenset)):
                found.add(type(value))
                return
            for item in value:
                collect(item)

        def probe(sim, msg) -> None:
            payload = sim.host_visible_payload(msg)
            if payload is not None:
                collect(payload)
            check(sim, msg)

        monkeypatch.setattr(Simulation, "_check_cleartext", probe)
        for name in BUNDLED:
            run_scenario(load_scenario(
                str(resources.files("leasim") / "scenarios" / f"{name}.yaml")))
        assert found == self.LEAVES
        assert not [leaf for leaf in found if _can_hold_secret(leaf)]

    def test_field_walk_finds_a_secret_slot(self):
        assert _can_hold_secret(Secret)
        assert _can_hold_secret(Message)  # payload: dict
        assert _can_hold_secret(Session | Secret)
        assert _can_hold_secret(tuple[str, ...] | None) is False
