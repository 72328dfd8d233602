"""Behavioral actors: identity owners, their devices, and renters.

An owner's device (``ProxyActor``) echoes enrollment nonces, answers the
consistency gate's chain queries from its owner's node view (or an eclipse
feed the host wired in), and relays service traffic; on each final
confirmation it relayed, a ``reverts_actions`` owner schedules its
service's ``revert_all``, which undoes whatever that kind can undo. The
owner (``OwnerActor``) enrolls, polls, and redeems settlement copies by
broadcasting them to the chain node. Renters fund campaigns and present a
chain view that is either the honest tip or a privately mined fork.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import ledger
from .services import Service
from .simnet import CUT_OWNER_CHAIN, CUT_RENTER_CHAIN, Message, Simulation

OWNER_PROFILES = ("honest", "reverts_actions")


@dataclass
class OwnerActor:
    """An enrolled identity owner and their wallet."""

    owner_id: str
    profile: str
    node_id: str
    chain_supplier: object  # () -> ledger.Chain, the owner's own node view
    service_backends: dict[str, Service] = field(default_factory=dict)
    credentials: dict[str, tuple[str, str]] = field(default_factory=dict)  # sid -> (user, pw)
    revert_delay: float = 1.0

    def __post_init__(self) -> None:
        self.actor_id = f"owner:{self.owner_id}"
        self.proxy_id = f"proxy:{self.owner_id}"
        self.payout_address = self.actor_id

    def view_headers(self, sim: Simulation, lo: int, hi: int) -> list[ledger.BlockHeader]:
        """Headers at heights ``lo`` through ``hi`` that this owner can see."""
        feed = sim.net.eclipse_feeds.get(self.owner_id)
        if feed is not None:
            return feed(lo, hi)
        return self.chain_supplier().headers_from(lo, hi)

    def receive(self, msg: Message, sim: Simulation) -> None:
        if msg.kind == "tx_copy":
            # settlement copy: redeem by broadcasting ourselves
            sim.send(self.actor_id, self.node_id, "tx_broadcast", {"tx": msg.payload["tx"]})

    def confirmed(self, sim: Simulation, service_id: str) -> None:
        """A final confirmation from ``service_id`` passed through this
        owner's device: a ``reverts_actions`` owner undoes its actions there
        ``revert_delay`` later, unless it has been killed by then."""
        if self.profile == "reverts_actions":
            sim.schedule_for(self.actor_id, self.revert_delay,
                             lambda: self._revert_everything(sim, service_id))

    def _revert_everything(self, sim: Simulation, service_id: str) -> None:
        backend = self.service_backends[service_id]
        for item_id, kind in backend.revert_all(*self.credentials[service_id]):
            sim.log.emit(sim.now, self.actor_id, "owner_revert",
                         service=service_id, item=item_id, action=kind)


@dataclass
class ProxyActor:
    """The owner's device: echoes nonces, answers chain queries from its
    owner's view, relays service traffic."""

    owner: OwnerActor

    def __post_init__(self) -> None:
        self.actor_id = self.owner.proxy_id
        self.owner_id = self.owner.owner_id

    def receive(self, msg: Message, sim: Simulation) -> None:
        p = msg.payload
        if msg.kind == "nonce_rt":
            sim.send(self.actor_id, p["reply_to"], "nonce_echo", {"nonce": p["nonce"]})
        elif msg.kind == "chain_query":
            sim.send(
                self.actor_id, p["reply_to"], "chain_view",
                {"headers": self.owner.view_headers(sim, *p["heights"]),
                 "slot_id": p["slot_id"]},
                cut_point=CUT_OWNER_CHAIN, owner_id=self.owner_id,
                campaign_id=msg.campaign_id,
            )
        elif msg.kind == "svc_request":
            sim.send(self.actor_id, p["dst_service"], "svc_request", p,
                     campaign_id=msg.campaign_id, owner_id=msg.owner_id, step=msg.step)
        elif msg.kind in ("svc_response", "svc_confirm"):
            if msg.kind == "svc_confirm":
                self.owner.confirmed(sim, p["service_id"])
            sim.send(self.actor_id, p["reply_to"], msg.kind, p,
                     cut_point=msg.cut_point, campaign_id=msg.campaign_id,
                     owner_id=msg.owner_id, step=msg.step)


@dataclass
class CampaignIntent:
    service_id: str
    action_kind: str
    action_target: str
    count: int
    revert_window: float = 0.0


@dataclass
class RenterActor:
    """Funds campaigns; presents either the honest tip or a private fork."""

    renter_id: str
    node_id: str
    chain_supplier: object  # () -> ledger.Chain
    interface_id: str
    intents: list[CampaignIntent]
    view_mode: str = "honest_tip"  # or forged_fork
    poll_interval: float = 5.0

    def __post_init__(self) -> None:
        self.actor_id = f"renter:{self.renter_id}"
        self.address = self.actor_id
        self.forged_fork: ledger.Chain | None = None
        self.results: list[dict] = []
        # what this renter's broadcast fundings spend, and the change they
        # make, which it may spend before that change lands
        self._spent: set[str] = set()
        self._change: dict[str, ledger.Note] = {}

    # -- scripted plan -----------------------------------------------------

    def start(self, sim: Simulation) -> None:
        for intent in self.intents:
            sim.send(
                self.actor_id, self.interface_id, "quote_request",
                {"renter_id": self.renter_id, "service_id": intent.service_id,
                 "action_kind": intent.action_kind, "action_target": intent.action_target,
                 "count": intent.count, "revert_window": intent.revert_window,
                 "refund_address": self.address},
            )

    def receive(self, msg: Message, sim: Simulation) -> None:
        p = msg.payload
        if msg.kind == "quote":
            self._fund(sim, p)
        elif msg.kind in ("quote_failed", "start_failed", "campaign_started"):
            self.results.append({"kind": msg.kind, **p})
        elif msg.kind == "tx_copy":
            sim.send(self.actor_id, self.node_id, "tx_broadcast", {"tx": p["tx"]})

    # -- funding -----------------------------------------------------------

    def _spendable(self) -> list[ledger.Note]:
        """Honest-chain notes, less those this renter's own fundings spend,
        then those fundings' change. A forged-fork renter's fundings live in
        private forks, so it funds each fork from honest-chain notes alone."""
        notes = {n.note_id: n for n in self.chain_supplier().unspent_notes(self.address)}
        notes.update(self._change)
        return [note for note_id, note in notes.items() if note_id not in self._spent]

    def _fund(self, sim: Simulation, quote: dict) -> None:
        total = quote["total"]
        note = next((n for n in self._spendable() if n.value >= total), None)
        if note is None:
            self.results.append({"kind": "underfunded", "campaign_id": quote["campaign_id"]})
            return
        outputs = [(quote["escrow_address"], total, "funding")]
        if note.value > total:
            outputs.append((self.address, note.value - total, "change"))
        tx = ledger.make_transaction([note.note_id], outputs, {self.address},
                                     memo=f"fund:{quote['campaign_id']}")
        record = {"quote": quote, "funding_tx": tx}
        if self.view_mode == "forged_fork":
            self._start_with_fork(sim, record)
        else:
            self._spent.update(tx.inputs)
            self._change.update((n.note_id, n) for n, kind in tx.outputs if kind == "change")
            sim.send(self.actor_id, self.node_id, "tx_broadcast", {"tx": tx})
            sim.schedule(self.poll_interval, lambda: self._poll_funding(sim, record))

    def _poll_funding(self, sim: Simulation, record: dict) -> None:
        quote = record["quote"]
        chain = self.chain_supplier()
        tx_id = record["funding_tx"].tx_id
        if chain.confirmations(tx_id) >= quote["k"]:
            self._send_start(sim, record, chain)
        else:
            sim.schedule(self.poll_interval, lambda: self._poll_funding(sim, record))

    def _start_with_fork(self, sim: Simulation, record: dict) -> None:
        """Mine the funding tx into a private fork with exactly k confirmations.

        The fork is never broadcast; header checks alone cannot tell it from
        the honest chain, which is the point of the consistency gate.
        """
        quote = record["quote"]
        fork = self.chain_supplier()
        fork = fork.append_block([record["funding_tx"]])
        for _ in range(quote["k"] - 1):
            fork = fork.append_block([])
        self.forged_fork = fork
        sim.log.emit(sim.now, self.actor_id, "forged_fork",
                     height=fork.height, campaign=quote["campaign_id"])
        self._send_start(sim, record, fork)

    def _send_start(self, sim: Simulation, record: dict, chain: ledger.Chain) -> None:
        quote = record["quote"]
        tx = record["funding_tx"]
        height = chain.inclusion_height(tx.tx_id)
        block = chain.blocks[height]
        view = {
            "headers": chain.headers_from(height),
            "funding_tx": tx,
            "funding_height": height,
            "block_tx_ids": [t.tx_id for t in block.txs],
        }
        sim.send(
            self.actor_id, self.interface_id, "start_campaign",
            {"campaign_id": quote["campaign_id"], "funding_tx_id": tx.tx_id,
             "refund_address": self.address, "chain_view": view},
            cut_point=CUT_RENTER_CHAIN, campaign_id=quote["campaign_id"],
        )
