"""Behavioral actors: identity owners, their relay proxies, and renters.

Owners answer chain queries from their own node view (or an eclipse feed the
host wired in), relay settlement copies to the chain node, and optionally
revert actions. Proxies are dumb relays on the owner's device: they echo
enrollment nonces and forward chain queries and service traffic. Renters fund campaigns and present a chain view that is
either the honest tip or a privately mined fork.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import ledger
from .simnet import CUT_OWNER_CHAIN, CUT_RENTER_CHAIN, Message, Session, Simulation

OWNER_PROFILES = ("honest", "reverts_actions", "cuts_responses", "eclipsed")


@dataclass
class OwnerActor:
    """An enrolled identity owner and their wallet."""

    owner_id: str
    profile: str
    proxy_id: str
    node_id: str
    chain_supplier: object  # () -> ledger.Chain, the owner's own node view
    service_backends: dict[str, object] = field(default_factory=dict)
    credentials: dict[str, tuple[str, str]] = field(default_factory=dict)  # sid -> (user, pw)
    revert_delay: float = 1.0

    def __post_init__(self) -> None:
        if self.profile not in OWNER_PROFILES:
            raise ValueError(f"unknown owner profile {self.profile!r}")
        self.actor_id = f"owner:{self.owner_id}"
        self.payout_address = self.actor_id

    # -- chain view --------------------------------------------------------

    def view_headers(self, sim: Simulation, from_height: int) -> list[ledger.BlockHeader]:
        feed = sim.net.eclipse_feeds.get(self.owner_id)
        if feed is not None:
            return feed(from_height)
        return self.chain_supplier().headers_from(from_height)

    # -- message handling --------------------------------------------------

    def receive(self, msg: Message, sim: Simulation) -> None:
        p = msg.payload
        if msg.kind == "chain_query":
            headers = self.view_headers(sim, p.get("from_height", 0))
            sim.send(
                self.actor_id, self.proxy_id, "chain_view",
                {"headers": headers, "reply_to": p["reply_to"],
                 "owner_id": self.owner_id, "slot_id": p.get("slot_id")},
                cut_point=CUT_OWNER_CHAIN, owner_id=self.owner_id,
                campaign_id=msg.campaign_id,
            )
        elif msg.kind == "tx_copy":
            # settlement copy: redeem by broadcasting ourselves
            sim.send(self.actor_id, self.node_id, "tx_broadcast", {"tx": p["tx"]})
        elif msg.kind == "relay_note" and self.profile == "reverts_actions":
            service_id = p.get("service_id")
            backend = self.service_backends.get(service_id)
            if backend is not None and hasattr(backend, "revert"):
                sim.schedule_for(
                    self.actor_id, self.revert_delay,
                    lambda: self._revert_everything(sim, service_id, backend),
                )

    def _revert_everything(self, sim: Simulation, service_id: str, backend) -> None:
        username, password = self.credentials[service_id]
        for item_id, kind in backend.actions_of(username, password):
            backend.revert(username, item_id, kind)
            sim.log.emit(sim.now, self.actor_id, "owner_revert",
                         service=service_id, item=item_id, action=kind)


@dataclass
class ProxyActor:
    """The owner-device relay: echoes nonces, forwards chain and service traffic."""

    owner_id: str

    def __post_init__(self) -> None:
        self.actor_id = f"proxy:{self.owner_id}"
        self.owner_actor = f"owner:{self.owner_id}"

    def receive(self, msg: Message, sim: Simulation) -> None:
        p = msg.payload
        if msg.kind == "nonce_rt":
            sim.send(self.actor_id, p["reply_to"], "nonce_echo", {"nonce": p["nonce"]})
        elif msg.kind == "chain_query":
            sim.send(self.actor_id, self.owner_actor, "chain_query", p,
                     campaign_id=msg.campaign_id, owner_id=self.owner_id)
        elif msg.kind == "chain_view":
            sim.send(self.actor_id, p["reply_to"], "chain_view", p,
                     cut_point=CUT_OWNER_CHAIN, owner_id=self.owner_id,
                     campaign_id=msg.campaign_id)
        elif msg.kind == "svc_request":
            sim.send(self.actor_id, p["dst_service"], "svc_request", p,
                     session=msg.session, campaign_id=msg.campaign_id,
                     owner_id=msg.owner_id, step=msg.step)
        elif msg.kind in ("svc_response", "svc_confirm"):
            if msg.kind == "svc_confirm":
                # owner's device sees traffic metadata, never payload content
                sim.send(self.actor_id, self.owner_actor, "relay_note",
                         {"service_id": p.get("service_id")})
            sim.send(self.actor_id, p["reply_to"], msg.kind, p,
                     session=msg.session, cut_point=msg.cut_point,
                     campaign_id=msg.campaign_id, owner_id=msg.owner_id, step=msg.step)


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
    session: Session | None = None

    def __post_init__(self) -> None:
        if self.view_mode not in ("honest_tip", "forged_fork"):
            raise ValueError(f"unknown renter view mode {self.view_mode!r}")
        self.actor_id = f"renter:{self.renter_id}"
        self.address = self.actor_id
        self.forged_fork: ledger.Chain | None = None
        self.results: list[dict] = []

    # -- scripted plan -----------------------------------------------------

    def start(self, sim: Simulation) -> None:
        for intent in self.intents:
            sim.send(
                self.actor_id, self.interface_id, "quote_request",
                {"renter_id": self.renter_id, "service_id": intent.service_id,
                 "action_kind": intent.action_kind, "action_target": intent.action_target,
                 "count": intent.count, "revert_window": intent.revert_window,
                 "refund_address": self.address},
                session=self.session,
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

    def _fund(self, sim: Simulation, quote: dict) -> None:
        chain = self.chain_supplier()
        total = quote["total"]
        note = next(
            (n for n in chain.unspent_notes(self.address) if n.value >= total), None
        )
        if note is None:
            self.results.append({"kind": "underfunded", "campaign_id": quote["campaign_id"]})
            return
        outputs = [(quote["escrow_address"], total, "funding")]
        if note.value > total:
            outputs.append((self.address, note.value - total, "change"))
        tx = ledger.make_transaction([note.note_id], outputs, {self.address},
                                     memo=f"fund:{quote['campaign_id']}")
        record = {"quote": quote, "funding_tx": tx, "started": False}
        if self.view_mode == "forged_fork":
            self._start_with_fork(sim, record)
        else:
            sim.send(self.actor_id, self.node_id, "tx_broadcast", {"tx": tx})
            sim.schedule(self.poll_interval, lambda: self._poll_funding(sim, record))

    def _poll_funding(self, sim: Simulation, record: dict) -> None:
        if record["started"]:
            return
        quote = record["quote"]
        chain = self.chain_supplier()
        tx_id = record["funding_tx"].tx_id
        if chain.confirmations(tx_id) >= quote["k"]:
            record["started"] = True
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
        record["started"] = True
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
            session=self.session, cut_point=CUT_RENTER_CHAIN,
            campaign_id=quote["campaign_id"],
        )
