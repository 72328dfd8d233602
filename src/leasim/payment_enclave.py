"""Payment enclave: one fund share, one linear chain of settlement txs.

Every settled slot produces a single transaction spending the share head with
reward, deposit-share and fee outputs plus a change head for the next slot.
The tx goes out three ways: broadcast through the host, a copy to the owner,
a copy to the renter. Any one surviving path lands the whole settlement,
which is what makes suppression unprofitable for everyone.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import ledger
from .service_enclave import LatencyModel
from .simnet import CUT_DEPOSIT_COPY, CUT_REWARD_COPY, Message, Simulation


@dataclass
class FundShare:
    campaign_id: str
    index: int
    address: str
    head_note_id: str | None
    head_value: int
    escrow_address: str
    maintainer_address: str
    iface_id: str
    issued: list[ledger.Transaction] = field(default_factory=list)
    released: bool = False
    # cost of this share's orders waiting in the enclave's queue. The order
    # being proved has left the queue and is not counted, so a later settle
    # can overspend the share; ROADMAP item 1 counts it, on purpose.
    queued: int = 0


def _cost(order: dict) -> int:
    """What settling ``order`` spends from its share."""
    return order["reward"] + order["deposit_share"] + order["fee"]


class PaymentEnclave:
    def __init__(self, actor_id: str, *, latency: LatencyModel, liveness_window: float,
                 node_id: str):
        self.actor_id = actor_id
        self.latency = latency
        self.liveness_window = liveness_window
        self.node_id = node_id
        self.shares: dict[str, FundShare] = {}  # campaign_id -> share
        self.queue: list[dict] = []
        self.busy = False
        self._beating = False

    # ------------------------------------------------------------------

    def receive(self, msg: Message, sim: Simulation) -> None:
        p = msg.payload
        if msg.kind == "share_assign":
            self.shares[p["campaign_id"]] = FundShare(
                campaign_id=p["campaign_id"], index=p["share_index"],
                address=p["address"], head_note_id=p["note_id"],
                head_value=p["value"], escrow_address=p["escrow_address"],
                maintainer_address=p["maintainer_address"], iface_id=p["iface_id"],
            )
            self._start_heartbeat(sim)
        elif msg.kind == "settle":
            self._on_settle(p, sim)
        elif msg.kind == "release_share":
            self._release(p["campaign_id"], sim)

    # ------------------------------------------------------------------
    # heartbeats

    def _start_heartbeat(self, sim: Simulation) -> None:
        if self._beating:
            return
        self._beating = True
        self._beat(sim)

    def _beat(self, sim: Simulation) -> None:
        active = [s for s in self.shares.values() if not s.released]
        if not active:
            self._beating = False
            return
        for share in active:
            sim.send(self.actor_id, share.iface_id, "heartbeat",
                     {"payment_id": self.actor_id})
        sim.schedule_for(self.actor_id, self.liveness_window / 3,
                         lambda: self._beat(sim))

    # ------------------------------------------------------------------
    # settlement

    def _on_settle(self, order: dict, sim: Simulation) -> None:
        share = self.shares.get(order["campaign_id"])
        if share is None or share.released:
            return
        cost = _cost(order)
        if share.head_value - share.queued < cost:
            sim.send(self.actor_id, share.iface_id, "insufficient_share",
                     {"campaign_id": share.campaign_id, "slot_id": order["slot_id"]},
                     campaign_id=share.campaign_id)
            return
        share.queued += cost
        self.queue.append(order)
        self._pump(sim)

    def _pump(self, sim: Simulation) -> None:
        if self.busy or not self.queue:
            return
        self.busy = True
        order = self.queue.pop(0)
        self.shares[order["campaign_id"]].queued -= _cost(order)
        # proof generation is the per-tx cost; the tx exists only after it
        sim.schedule_for(self.actor_id, self.latency.draw_snark(sim.rng),
                         lambda: self._issue(order, sim))

    def _issue(self, order: dict, sim: Simulation) -> None:
        share = self.shares[order["campaign_id"]]
        cost = _cost(order)
        outputs = [
            (order["owner_payout"], order["reward"], "reward"),
            (order["renter_refund"], order["deposit_share"], "deposit_return"),
            (share.maintainer_address, order["fee"], "fee"),
        ]
        change = share.head_value - cost
        if change > 0:
            outputs.append((share.address, change, "change"))
        tx = ledger.make_transaction(
            [share.head_note_id], outputs, {share.address},
            memo=f"settle:{order['slot_id']}",
        )
        share.issued.append(tx)
        share.head_note_id = tx.outputs[-1][0].note_id if change > 0 else None
        share.head_value = change
        sim.log.emit(sim.now, self.actor_id, "settlement_issued",
                     slot=order["slot_id"], tx=tx.tx_id[:12])
        sim.send(self.actor_id, self.node_id, "tx_broadcast", {"tx": tx},
                 campaign_id=share.campaign_id)
        sim.send(self.actor_id, order["owner_actor"], "tx_copy", {"tx": tx},
                 cut_point=CUT_REWARD_COPY, campaign_id=share.campaign_id,
                 owner_id=order["owner_actor"].split(":", 1)[1])
        sim.send(self.actor_id, order["renter_actor"], "tx_copy", {"tx": tx},
                 cut_point=CUT_DEPOSIT_COPY, campaign_id=share.campaign_id)
        sim.send(self.actor_id, share.iface_id, "settled",
                 {"campaign_id": share.campaign_id, "slot_id": order["slot_id"],
                  "tx": tx}, campaign_id=share.campaign_id)
        self.busy = False
        self._pump(sim)

    # ------------------------------------------------------------------
    # release at termination

    def _release(self, campaign_id: str, sim: Simulation) -> None:
        share = self.shares.get(campaign_id)
        if share is None or share.released:
            return
        share.released = True
        tx = None
        if share.head_note_id is not None and share.head_value > 0:
            tx = ledger.make_transaction(
                [share.head_note_id],
                [(share.escrow_address, share.head_value, "change")],
                {share.address}, memo=f"release:{campaign_id}:{share.index}",
            )
            share.issued.append(tx)
            share.head_note_id = None
            share.head_value = 0
            sim.send(self.actor_id, self.node_id, "tx_broadcast", {"tx": tx},
                     campaign_id=campaign_id)
        sim.send(self.actor_id, share.iface_id, "share_released",
                 {"campaign_id": campaign_id, "share_index": share.index, "tx": tx},
                 campaign_id=campaign_id)
