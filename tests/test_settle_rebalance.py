"""The settlement rebalance path, as it stands.

A payment enclave refuses a ``settle`` its share cannot cover
(``insufficient_share``). The interface enclave then moves the slot to
another live share that can (``settle_rebalanced``), or gives the slot's
settlement up (``settle_failed``).

The world: three owners priced 1, 1 and 3 coins, one three-slot campaign,
two payment enclaves. Slots go to shares round-robin, so share 0 carries
slots 0 and 2 (1.15 and 3.45 coins with deposit and fee) and share 1 slot
1. An equal split gives each share 2.875 coins, which cannot cover slot 2.
"""
from __future__ import annotations

from leasim import interface_enclave
from leasim.coins import coins
from leasim.report import build_report, verify_world
from leasim.runner import run_scenario
from leasim.scenario import parse_scenario


def shape() -> dict:
    return {
        "name": "rebalance", "seed": 1,
        "chain": {"difficulty_bits": 8, "block_interval": 15.0, "confirmation_depth": 6},
        "latency": {"model": "fixed"},
        "timing": {"horizon": 400.0},
        "topology": {"mode": "centralized", "service_enclaves": 1, "payment_enclaves": 2},
        "services": [{"id": "social", "kind": "social", "items": ["item1"]}],
        "owners": [{"id": f"o{i}", "services": [{
            "service": "social", "username": f"u{i}", "password": f"pw-u{i}",
            "price": price, "allowed": ["upvote"]}]}
            for i, price in enumerate(["1", "1", "3"], 1)],
        "renters": [{"id": "r1", "balance": "100", "campaigns": [{
            "service": "social", "action": "upvote", "target": "item1", "count": 3}]}],
    }


def settle_events(world) -> list[str]:
    """``<actor> <kind> <fields>`` of each refusal, rebalance and failure."""
    out = []
    for line in world.sim.log.lines:
        _time, actor, rest = line.split(" ", 2)
        if rest.startswith(("kind=send:insufficient_share ", "kind=settle_rebalanced ",
                            "kind=settle_failed ")):
            out.append(f"{actor[6:]} {rest[5:].split(' msg=')[0]}")
    return out


def run():
    world = run_scenario(parse_scenario(shape()))
    (campaign,) = world.all_campaigns()
    return world, campaign, sorted(campaign.slots.values(), key=lambda s: s.index)


def test_equal_split_refuses_slot_2_and_no_share_can_take_it():
    world, campaign, slots = run()
    assert [s.share_index for s in slots] == [0, 1, 0]
    assert settle_events(world) == [
        "payenc:0:0 send:insufficient_share",
        "iface:0 settle_failed slot=iface:0:c1:s0002",
    ]
    assert campaign.status == "terminated" and not campaign.settle_outstanding
    assert [s.status for s in slots] == ["confirmed"] * 3
    assert all(world.node.chain.has_tx(s.settlement_tx) for s in slots[:2])
    assert (slots[2].settlement_tx, slots[2].detail) == (None, "insufficient_share")
    # the slot was performed and never paid: its deposit share burns
    assert campaign.deposit_ledger == {"quoted": coins("0.5"), "returned": coins("0.2"),
                                       "burned": coins("0.3"), "terminal_refund": 0}
    owners = build_report(world)["verdicts"]["owners"]
    assert [owners[o]["verdict"] for o in ("o1", "o2", "o3")] == ["fair", "fair", "harmed"]
    assert all(ok for _, ok, _ in verify_world(world))


def test_refused_slot_moves_to_a_share_that_can_pay(monkeypatch):
    # share 0 holds exactly slot 0's cost, share 1 the rest (slots 1 and 2)
    monkeypatch.setattr(interface_enclave, "split_values",
                        lambda amount, parts: [coins("1.15"), amount - coins("1.15")])
    world, campaign, slots = run()
    assert settle_events(world) == [
        "payenc:0:0 send:insufficient_share",
        "iface:0 settle_rebalanced slot=iface:0:c1:s0002 to_share=1",
    ]
    assert [s.share_index for s in slots] == [0, 1, 1]
    assert campaign.status == "terminated" and not campaign.settle_outstanding
    assert all(world.node.chain.has_tx(s.settlement_tx) for s in slots)
    assert campaign.deposit_ledger["burned"] == 0
    verdicts = build_report(world)["verdicts"]
    assert all(v["verdict"] == "fair" for v in verdicts["owners"].values())
    assert verdicts["renters"]["r1"]["verdict"] == "fair"
    assert all(ok for _, ok, _ in verify_world(world))
