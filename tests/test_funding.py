"""Renter forgery: the interface enclave refuses every start_campaign whose
chain view does not prove the quoted escrow funding (the paper's objective
i, owners are paid from funds that really exist).

The forgery tests run ``baseline`` and tamper with the renter's one
``start_campaign`` as it is sent. The enclave must answer ``start_failed``
with the exact error, leave the campaign ``created`` and launch no slot.
The last two tests cover the renter's other dead ends: no account fits the
request, or the renter cannot pay the quote.
"""
from __future__ import annotations

import dataclasses
from importlib import resources

import pytest
import yaml

from leasim.report import verify_world
from leasim.runner import build_world, run_scenario
from leasim.scenario import load_scenario, parse_scenario

BASELINE = resources.files("leasim") / "scenarios" / "baseline.yaml"
K = 6  # baseline's confirmation_depth


def run_tampered(tamper):
    """Run baseline with ``tamper(payload, chain)`` rewriting the renter's
    start_campaign payload (a copy, with its own chain_view) in flight."""
    world = build_world(load_scenario(str(BASELINE)))
    send = world.sim.send

    def forging_send(src, dst, kind, payload, **kw):
        if kind == "start_campaign":
            payload = {**payload, "chain_view": dict(payload["chain_view"])}
            tamper(payload, world.node.chain)
        return send(src, dst, kind, payload, **kw)

    world.sim.send = forging_send
    world.sim.run(until=world.spec.timing.horizon)
    return world


def assert_refused(world, error: str) -> None:
    (iface,) = world.ifaces.values()
    (campaign,) = iface.campaigns.values()
    assert world.renters["r1"].results == [
        {"kind": "start_failed", "campaign_id": campaign.campaign_id, "error": error}]
    assert campaign.status == "created"
    assert campaign.slots == {} and campaign.shares == {}
    assert not any(" kind=funding_verified " in line or "kind=send:share_assign" in line
                   for line in world.sim.log.lines)


def drop_first_header(p, chain):
    p["chain_view"]["headers"] = p["chain_view"]["headers"][1:]


def bump_tip_nonce(p, chain):
    headers = p["chain_view"]["headers"]
    headers[-1:] = [dataclasses.replace(headers[-1], pow_nonce=headers[-1].pow_nonce + 1)]


def change_memo(p, chain):
    p["chain_view"]["funding_tx"] = dataclasses.replace(p["chain_view"]["funding_tx"],
                                                       memo="fund:elsewhere")


def hide_tx_from_block(p, chain):
    p["chain_view"]["block_tx_ids"] = [
        t for t in p["chain_view"]["block_tx_ids"] if t != p["funding_tx_id"]]


def pad_block(p, chain):
    p["chain_view"]["block_tx_ids"] = [*p["chain_view"]["block_tx_ids"], "0" * 64]


def too_few_confirmations(p, chain):
    p["chain_view"]["headers"] = p["chain_view"]["headers"][:K - 1]


def genesis_as_funding(p, chain):
    """A real, confirmed transaction that pays the escrow nothing."""
    genesis = chain.blocks[0].txs[0]
    p["funding_tx_id"] = genesis.tx_id
    p["chain_view"] = {"headers": chain.headers_from(0), "funding_tx": genesis,
                       "funding_height": 0, "block_tx_ids": [genesis.tx_id]}


def empty_view(p, chain):
    p["chain_view"]["headers"] = []


def unknown_campaign(p, chain):
    p["campaign_id"] = "iface:0:c99"


@pytest.mark.parametrize("tamper, error", [
    (empty_view, "UnverifiedFunding: bad headers (empty sequence)"),
    (bump_tip_nonce, "UnverifiedFunding: bad headers (digest mismatch at height 6)"),
    (drop_first_header, "UnverifiedFunding: funding block outside view"),
    (change_memo, "UnverifiedFunding: tx content does not match id"),
    (hide_tx_from_block, "UnverifiedFunding: tx absent from its block"),
    (pad_block, "UnverifiedFunding: block payload mismatch"),
    (too_few_confirmations, f"UnverifiedFunding: {K - 1} confirmations < {K}"),
    (genesis_as_funding, "UnverifiedFunding: amount short"),
])
def test_unproven_funding_is_refused(tamper, error):
    assert_refused(run_tampered(tamper), error)


def test_unknown_campaign_is_refused():
    world = run_tampered(unknown_campaign)
    (campaign,) = world.all_campaigns()
    assert world.renters["r1"].results == [
        {"kind": "start_failed", "campaign_id": "iface:0:c99", "error": "UnknownCampaign"}]
    assert campaign.status == "created"
    assert campaign.slots == {}


def test_replayed_start_is_refused_and_launches_nothing_more():
    """A second start for a campaign already running is an unknown campaign."""
    world = build_world(load_scenario(str(BASELINE)))
    send = world.sim.send

    def replaying_send(src, dst, kind, payload, **kw):
        msg = send(src, dst, kind, payload, **kw)
        if kind == "start_campaign":
            world.sim.schedule(1.0, lambda: send(src, dst, kind, payload, **kw))
        return msg

    world.sim.send = replaying_send
    world.sim.run(until=world.spec.timing.horizon)
    (campaign,) = world.all_campaigns()
    started, refused = world.renters["r1"].results
    assert started == {"kind": "campaign_started", "campaign_id": campaign.campaign_id,
                       "slots": 3}
    assert refused == {"kind": "start_failed", "campaign_id": campaign.campaign_id,
                       "error": "UnknownCampaign"}
    assert len(campaign.slots) == 3 and campaign.status == "terminated"
    assert sum(" kind=funding_verified " in line for line in world.sim.log.lines) == 1


def run_baseline_with(**renter):
    raw = yaml.safe_load(BASELINE.read_text())
    raw["renters"][0].update(renter)
    return run_scenario(parse_scenario(raw))


def test_no_compliant_account_fails_the_quote():
    campaign = {"service": "social", "action": "post", "target": "item1", "count": 3}
    world = run_baseline_with(campaigns=[campaign])  # every owner allows upvote only
    assert world.renters["r1"].results == [
        {"kind": "quote_failed", "error": "NoCompliantAccounts"}]
    assert world.all_campaigns() == []
    assert all(ok for _, ok, _ in verify_world(world))


def test_renter_short_of_the_quote_never_funds():
    world = run_baseline_with(balance="8")  # the quote asks 8.625
    (campaign,) = world.all_campaigns()
    assert world.renters["r1"].results == [
        {"kind": "underfunded", "campaign_id": campaign.campaign_id}]
    assert (campaign.status, campaign.slots) == ("created", {})
    assert world.node.chain.balance("renter:r1") == 8_000_000
