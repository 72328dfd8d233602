"""Interface enclave: enrollment, quoting, funding verification, dispatch.

The interface enclave is the campaign coordinator. It verifies owner proxies
by nonce round-trip and credentials by test login, prices campaigns as an
upper bound over the most expensive compliant accounts, verifies funding
against the renter-provided chain view only (it has no trusted network view
of its own), splits funds across payment enclaves, dispatches action batches,
and closes the books at termination: every deposit unit ends up returned,
burned, or refunded, bit-exact.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import ledger
from .attestation import AttestationMesh, RecoveryRefused
from .coins import rate_floor
from .gossip import merge
from .simnet import Message, Simulation

NONCE_TIMEOUT = 5.0

RESOLVED = ("confirmed", "reverted", "timeout", "failed",
            "skipped_inconsistent", "skipped_unreachable", "cancelled")
BURNED_STATUSES = ("timeout",)  # plus confirmed-but-unsettled, decided at termination


@dataclass
class Policy:
    service_id: str
    allowed_actions: frozenset[str]
    price_per_action: int  # coin units
    accepts_revert_window: bool = True
    target_whitelist: frozenset[str] | None = None  # None = any target

    def permits(self, action_kind: str, target: str, revert_window: float) -> bool:
        if action_kind not in self.allowed_actions:
            return False
        if self.target_whitelist is not None and target not in self.target_whitelist:
            return False
        if revert_window > 0 and not self.accepts_revert_window:
            return False
        return True


@dataclass
class OwnerRecord:
    owner_id: str
    payout_address: str
    proxy_id: str
    services: dict[str, dict]  # sid -> {username, password: Secret, policy: Policy}
    last_poll: float

    def polled_after(self, other: OwnerRecord) -> bool:
        """The preference gossip merges owner records by."""
        return self.last_poll > other.last_poll


@dataclass
class Slot:
    slot_id: str
    index: int
    owner_id: str
    service_id: str
    action_kind: str
    action_target: str
    reward: int
    deposit_share: int
    fee: int
    share_index: int
    service_enclave: str
    status: str = "pending"
    effect_claimed: bool = False
    settlement_tx: str | None = None
    substituted_by: str | None = None
    detail: str = ""


@dataclass
class ShareInfo:
    index: int
    payment_id: str
    address: str
    head_note_id: str
    head_value: int
    alive: bool = True
    released: bool = False


@dataclass
class Campaign:
    campaign_id: str
    renter_id: str
    renter_actor: str
    service_id: str
    action_kind: str
    action_target: str
    count: int
    revert_window: float
    refund_address: str
    escrow_address: str
    quoted_funds: int
    quoted_deposit: int
    fee_allowance: int
    total: int
    status: str = "created"
    funding_tx: ledger.Transaction | None = None
    renter_view: list = field(default_factory=list)
    slots: dict[str, Slot] = field(default_factory=dict)
    spares: list[tuple[str, int]] = field(default_factory=list)  # (owner_id, price)
    shares: dict[int, ShareInfo] = field(default_factory=dict)
    open_slots: int = 0  # slots whose status is not in RESOLVED
    settle_outstanding: set[str] = field(default_factory=set)
    escrow_notes: list[tuple[str, int]] = field(default_factory=list)
    terminal_tx: ledger.Transaction | None = None
    phase_marks: dict[str, float] = field(default_factory=dict)
    deposit_ledger: dict[str, int] = field(default_factory=dict)


def quote_funds(prices: list[int], count: int) -> int:
    """Upper bound: the min(count, available) highest per-action prices."""
    top = sorted(prices, reverse=True)[: min(count, len(prices))]
    return sum(top)


def split_values(amount: int, parts: int) -> list[int]:
    """Equal split; the first amount % parts shares carry one extra unit."""
    if parts <= 0:
        raise ValueError("parts must be positive")
    base, extra = divmod(amount, parts)
    return [base + 1 if i < extra else base for i in range(parts)]


class InterfaceEnclave:
    def __init__(
        self,
        actor_id: str,
        mesh: AttestationMesh,
        *,
        difficulty_bits: int,
        confirmation_depth: int,
        deposit_rate: Fraction,
        fee_rate: Fraction,
        poll_interval: float,
        liveness_window: float,
        maintainer_address: str,
        service_enclaves: list[str],
        payment_enclaves: list[str],
        node_id: str,
    ):
        self.actor_id = actor_id
        self.mesh = mesh
        self.difficulty_bits = difficulty_bits
        self.k = confirmation_depth
        self.deposit_rate = deposit_rate
        self.fee_rate = fee_rate
        self.poll_interval = poll_interval
        self.liveness_window = liveness_window
        self.maintainer_address = maintainer_address
        self.service_enclaves = list(service_enclaves)
        self.payment_enclaves = list(payment_enclaves)
        self.node_id = node_id
        self.owners: dict[str, OwnerRecord] = {}
        # owner ids to gossip next round, in order, each mapped to the
        # interface its record came from (None when it changed here)
        self.changed: dict[str, str | None] = {}
        self.campaigns: dict[str, Campaign] = {}
        self._campaign_seq = 0
        self._pending_enroll: dict[str, dict] = {}  # nonce -> enrollment record
        self.last_beat: dict[str, float] = {}
        self._rebalance_tried: dict[str, set[int]] = {}
        self._watcher_running = False

    # ------------------------------------------------------------------
    # dispatch

    def receive(self, msg: Message, sim: Simulation) -> None:
        handler = getattr(self, f"_on_{msg.kind}", None)
        if handler is not None:
            handler(msg, sim)

    # ------------------------------------------------------------------
    # enrollment

    def _on_enroll(self, msg: Message, sim: Simulation) -> None:
        """One record per enrollment, keyed by its nonce: the ``enroll``
        payload, the services still to test, those accepted, and whether the
        proxy echoed the nonce. Each test login carries the nonce as its
        ``state_key``, and the logins run one at a time, so a response always
        answers ``untested[0]``."""
        p = msg.payload
        nonce = f"n{sim.rng.getrandbits(64):016x}"
        self._pending_enroll[nonce] = {
            **p,  # owner_id, payout_address, proxy_id, services
            "nonce": nonce,
            "untested": list(p["services"]),
            "accepted": {},
            "echoed": False,
        }
        sim.send(self.actor_id, p["proxy_id"], "nonce_rt",
                 {"nonce": nonce, "reply_to": self.actor_id})
        sim.schedule(NONCE_TIMEOUT, lambda: self._nonce_timeout(sim, nonce))

    def _nonce_timeout(self, sim: Simulation, nonce: str) -> None:
        """An enrollment still pending ``NONCE_TIMEOUT`` after it began fails:
        its proxy never echoed the nonce, or a test login went unanswered."""
        state = self._pending_enroll.pop(nonce, None)
        if state is not None:
            sim.log.emit(sim.now, self.actor_id, "enroll_failed", owner=state["owner_id"],
                         error="LoginUnanswered" if state["echoed"] else "ProxyUnreachable")

    def _on_nonce_echo(self, msg: Message, sim: Simulation) -> None:
        state = self._pending_enroll.get(msg.payload["nonce"])
        if state is None:
            return
        state["echoed"] = True
        self._validate_next_credential(sim, state)

    def _validate_next_credential(self, sim: Simulation, state: dict) -> None:
        if not state["untested"]:
            self._finish_enroll(sim, state)
            return
        cred = state["services"][state["untested"][0]]
        sim.send(
            self.actor_id, state["proxy_id"], "svc_request",
            {"state_key": state["nonce"], "step": 1, "username": cred["username"],
             "password": cred["password"].value,
             "action_kind": "login", "action_target": "-",
             "reply_to": self.actor_id, "dst_service": cred["service_actor"]},
            step=1,
        )

    def _on_svc_response(self, msg: Message, sim: Simulation) -> None:
        state = self._pending_enroll.get(msg.payload["state_key"])
        if state is None:
            return
        sid = state["untested"].pop(0)
        if msg.payload["status"] == "ok":
            state["accepted"][sid] = state["services"][sid]
        self._validate_next_credential(sim, state)

    def _finish_enroll(self, sim: Simulation, state: dict) -> None:
        del self._pending_enroll[state["nonce"]]
        owner_id = state["owner_id"]
        if not state["accepted"]:
            sim.log.emit(sim.now, self.actor_id, "enroll_failed", owner=owner_id,
                         error="BadCredentials")
            return
        self.owners[owner_id] = OwnerRecord(
            owner_id=owner_id,
            payout_address=state["payout_address"],
            proxy_id=state["proxy_id"],
            services=state["accepted"],
            last_poll=sim.now,
        )
        self.changed[owner_id] = None
        sim.log.emit(sim.now, self.actor_id, "owner_enrolled", owner=owner_id,
                     services=len(state["accepted"]))

    def _on_poll(self, msg: Message, sim: Simulation) -> None:
        record = self.owners.get(msg.payload["owner_id"])
        if record is not None:
            record.last_poll = sim.now
            self.changed[record.owner_id] = None

    # ------------------------------------------------------------------
    # owner-record gossip (distributed mode)

    def send_gossip(self, sim: Simulation, peer: str,
                    records: dict[str, OwnerRecord]) -> None:
        """One round's batch for a neighbouring interface. Records travel as
        plain dicts, so the wire check sees the credentials they carry."""
        sim.send(self.actor_id, peer, "gossip_batch",
                 {"records": [dict(vars(record)) for record in records.values()]})

    def _on_gossip_batch(self, msg: Message, sim: Simulation) -> None:
        records = {r["owner_id"]: OwnerRecord(**r) for r in msg.payload["records"]}
        learned = [owner_id for owner_id in records if owner_id not in self.owners]
        merge(self.owners, self.changed, records, OwnerRecord.polled_after, msg.src)
        for owner_id in learned:
            sim.log.emit(sim.now, self.actor_id, "gossip_owner", owner=owner_id,
                         via=msg.src)

    # ------------------------------------------------------------------
    # quoting and selection

    def compliant_accounts(self, sim: Simulation, service_id: str, action_kind: str,
                           target: str, revert_window: float) -> list[tuple[str, int]]:
        """(owner_id, price) ascending by price, ties by owner_id; fresh proxies only."""
        out = []
        for owner_id in sorted(self.owners):
            record = self.owners[owner_id]
            if sim.now - record.last_poll > self.poll_interval:
                continue
            entry = record.services.get(service_id)
            if entry is None:
                continue
            policy: Policy = entry["policy"]
            if policy.permits(action_kind, target, revert_window):
                out.append((owner_id, policy.price_per_action))
        out.sort(key=lambda pair: (pair[1], pair[0]))
        return out

    def _on_quote_request(self, msg: Message, sim: Simulation) -> None:
        p = msg.payload
        # numbered whether refused or not: ids follow the order of requests
        self._campaign_seq += 1
        compliant = self.compliant_accounts(
            sim, p["service_id"], p["action_kind"], p["action_target"], p["revert_window"]
        )
        if not compliant:
            sim.send(self.actor_id, msg.src, "quote_failed",
                     {"error": "NoCompliantAccounts"})
            return
        funds = quote_funds([price for _, price in compliant], p["count"])
        deposit = rate_floor(self.deposit_rate, funds)
        fee_allowance = rate_floor(self.fee_rate, funds)
        campaign_id = f"{self.actor_id}:c{self._campaign_seq}"
        campaign = Campaign(
            campaign_id=campaign_id,
            renter_id=p["renter_id"],
            renter_actor=msg.src,
            service_id=p["service_id"],
            action_kind=p["action_kind"],
            action_target=p["action_target"],
            count=p["count"],
            revert_window=p["revert_window"],
            refund_address=p["refund_address"],
            escrow_address=f"escrow:{campaign_id}",
            quoted_funds=funds,
            quoted_deposit=deposit,
            fee_allowance=fee_allowance,
            total=funds + deposit + fee_allowance,
        )
        self.campaigns[campaign_id] = campaign
        sim.send(
            self.actor_id, msg.src, "quote",
            {"campaign_id": campaign_id, "funds": funds, "deposit": deposit,
             "fee_allowance": fee_allowance, "total": campaign.total,
             "escrow_address": campaign.escrow_address, "k": self.k},
        )

    # ------------------------------------------------------------------
    # funding verification and campaign start

    def _verify_funding(self, campaign: Campaign, view: dict, funding_tx_id: str) -> str | None:
        """Returns an error string, or None when the view proves the funding."""
        headers = view["headers"]
        ok, detail = ledger.verify_headers_detail(headers, self.difficulty_bits)
        if not ok or not headers:
            return f"UnverifiedFunding: bad headers ({detail})"
        heights = {h.height: h for h in headers}
        height = view["funding_height"]
        if height not in heights:
            return "UnverifiedFunding: funding block outside view"
        tx = view["funding_tx"]
        rebuilt = ledger.make_transaction(
            list(tx.inputs), [(n.owner_address, n.value, kind) for n, kind in tx.outputs],
            set(tx.signers), memo=tx.memo,
        )
        if rebuilt.tx_id != funding_tx_id or tx.tx_id != funding_tx_id:
            return "UnverifiedFunding: tx content does not match id"
        block_tx_ids = view["block_tx_ids"]
        if funding_tx_id not in block_tx_ids:
            return "UnverifiedFunding: tx absent from its block"
        if ledger.payload_digest_for(block_tx_ids) != heights[height].payload_digest:
            return "UnverifiedFunding: block payload mismatch"
        confirmations = max(h.height for h in headers) - height + 1
        if confirmations < self.k:
            return f"UnverifiedFunding: {confirmations} confirmations < {self.k}"
        paid = sum(note.value for note, _ in tx.outputs_for(campaign.escrow_address))
        if paid < campaign.total:
            return "UnverifiedFunding: amount short"
        return None

    def _on_start_campaign(self, msg: Message, sim: Simulation) -> None:
        p = msg.payload
        campaign = self.campaigns.get(p["campaign_id"])
        if campaign is None or campaign.status != "created":
            sim.send(self.actor_id, msg.src, "start_failed",
                     {"campaign_id": p.get("campaign_id"), "error": "UnknownCampaign"})
            return
        error = self._verify_funding(campaign, p["chain_view"], p["funding_tx_id"])
        if error is not None:
            sim.send(self.actor_id, msg.src, "start_failed",
                     {"campaign_id": campaign.campaign_id, "error": error})
            return
        campaign.funding_tx = p["chain_view"]["funding_tx"]
        campaign.refund_address = p["refund_address"]
        campaign.renter_view = p["chain_view"]["headers"]
        sim.log.emit(sim.now, self.actor_id, "funding_verified",
                     campaign=campaign.campaign_id, total=campaign.total)
        self._launch(sim, campaign)
        sim.send(self.actor_id, msg.src, "campaign_started",
                 {"campaign_id": campaign.campaign_id,
                  "slots": len(campaign.slots)})

    def _launch(self, sim: Simulation, campaign: Campaign) -> None:
        compliant = self.compliant_accounts(
            sim, campaign.service_id, campaign.action_kind,
            campaign.action_target, campaign.revert_window,
        )
        n = min(campaign.count, len(compliant))
        chosen, campaign.spares = compliant[:n], compliant[n:]
        # one share per payment enclave, but no share that no slot draws on:
        # its funds would sit idle while the slots' shares fall short
        self._split_funds(sim, campaign, self.payment_enclaves[:max(n, 1)])
        for owner_id, price in chosen:
            self._add_slot(sim, campaign, owner_id, price)
        campaign.status = "running"
        campaign.phase_marks["service_start"] = sim.now
        self._start_watcher(sim)
        self._advance(sim, campaign)

    def _split_funds(self, sim: Simulation, campaign: Campaign,
                     payment_ids: list[str]) -> None:
        note = next(
            note for note, kind in campaign.funding_tx.outputs
            if note.owner_address == campaign.escrow_address and kind == "funding"
        )
        values = split_values(campaign.total, len(payment_ids))
        outputs = [
            (f"share:{campaign.campaign_id}:{i}", value, "change")
            for i, value in enumerate(values)
        ]
        split_tx = ledger.make_transaction(
            [note.note_id], outputs, {campaign.escrow_address},
            memo=f"split:{campaign.campaign_id}",
        )
        sim.send(self.actor_id, self.node_id, "tx_broadcast", {"tx": split_tx})
        for i, payment_id in enumerate(payment_ids):
            share_note = split_tx.outputs[i][0]
            campaign.shares[i] = ShareInfo(
                index=i, payment_id=payment_id, address=share_note.owner_address,
                head_note_id=share_note.note_id, head_value=share_note.value,
            )
            self.mesh.backup_keys(sim, payment_id, self.actor_id,
                                  key_handle=share_note.owner_address)
            self.last_beat.setdefault(payment_id, sim.now)
            sim.send(
                self.actor_id, payment_id, "share_assign",
                {"campaign_id": campaign.campaign_id, "share_index": i,
                 "address": share_note.owner_address, "note_id": share_note.note_id,
                 "value": share_note.value, "escrow_address": campaign.escrow_address,
                 "maintainer_address": self.maintainer_address,
                 "iface_id": self.actor_id},
                campaign_id=campaign.campaign_id,
            )

    def _add_slot(self, sim: Simulation, campaign: Campaign, owner_id: str,
                  price: int, *, replacing: Slot | None = None) -> Slot:
        index = len(campaign.slots)  # only this method adds slots
        share_index = (replacing.share_index if replacing is not None
                       else index % len(campaign.shares))
        enclave = (replacing.service_enclave if replacing is not None
                   else self.service_enclaves[index % len(self.service_enclaves)])
        slot = Slot(
            slot_id=f"{campaign.campaign_id}:s{index:04d}",
            index=index,
            owner_id=owner_id,
            service_id=campaign.service_id,
            action_kind=campaign.action_kind,
            action_target=campaign.action_target,
            reward=price,
            deposit_share=rate_floor(self.deposit_rate, price),
            fee=rate_floor(self.fee_rate, price),
            share_index=share_index,
            service_enclave=enclave,
        )
        campaign.slots[slot.slot_id] = slot
        campaign.open_slots += 1
        record = self.owners[owner_id]
        cred = record.services[campaign.service_id]
        sim.send(
            self.actor_id, enclave, "batch",
            {"campaign_id": campaign.campaign_id,
             "renter_headers": campaign.renter_view,
             "revert_window": campaign.revert_window,
             "reply_to": self.actor_id,
             "slot_id": slot.slot_id, "owner_id": owner_id,
             "proxy_id": record.proxy_id,
             "username": cred["username"],
             "password": cred["password"],
             "service_actor": cred["service_actor"],
             "action_kind": campaign.action_kind,
             "action_target": campaign.action_target},
            campaign_id=campaign.campaign_id, owner_id=owner_id,
        )
        return slot

    # ------------------------------------------------------------------
    # slot results and the payment phase

    def _on_slot_result(self, msg: Message, sim: Simulation) -> None:
        p = msg.payload
        campaign = self.campaigns.get(p["campaign_id"])
        if campaign is None or campaign.status not in ("running", "stopping"):
            return
        slot = campaign.slots.get(p["slot_id"])
        if slot is None or slot.status in RESOLVED:
            return
        slot.status = p["status"]  # ServiceEnclave._resolve sends only RESOLVED ones
        campaign.open_slots -= 1
        slot.effect_claimed = p.get("performed", False)
        slot.detail = p.get("detail", "")
        # "failed" means the visibility probe found no public effect, so a
        # substitute cannot overshoot the requested count; timeouts might
        # have landed invisibly and are never substituted
        if (slot.status in ("skipped_inconsistent", "skipped_unreachable", "failed")
                and campaign.status == "running" and campaign.spares):
            owner_id, price = campaign.spares.pop(0)
            substitute = self._add_slot(sim, campaign, owner_id, price, replacing=slot)
            slot.substituted_by = substitute.slot_id
            sim.log.emit(sim.now, self.actor_id, "slot_substituted",
                         slot=slot.slot_id, by=substitute.slot_id, owner=owner_id)
        self._advance(sim, campaign)

    def _send_settle(self, sim: Simulation, campaign: Campaign, slot: Slot,
                     share: ShareInfo) -> None:
        record = self.owners[slot.owner_id]
        sim.send(
            self.actor_id, share.payment_id, "settle",
            {"campaign_id": campaign.campaign_id, "slot_id": slot.slot_id,
             "reward": slot.reward, "deposit_share": slot.deposit_share,
             "fee": slot.fee, "owner_payout": record.payout_address,
             "owner_actor": f"owner:{slot.owner_id}",
             "renter_refund": campaign.refund_address,
             "renter_actor": campaign.renter_actor},
            campaign_id=campaign.campaign_id, owner_id=slot.owner_id,
        )

    def _on_settled(self, msg: Message, sim: Simulation) -> None:
        p = msg.payload
        campaign = self.campaigns[p["campaign_id"]]
        slot = campaign.slots[p["slot_id"]]
        tx: ledger.Transaction = p["tx"]
        slot.settlement_tx = tx.tx_id
        share = campaign.shares[slot.share_index]
        change = [n for n, kind in tx.outputs if kind == "change"]
        share.head_note_id = change[0].note_id if change else None
        share.head_value = change[0].value if change else 0
        campaign.settle_outstanding.discard(slot.slot_id)
        self._advance(sim, campaign)

    def _on_insufficient_share(self, msg: Message, sim: Simulation) -> None:
        p = msg.payload
        campaign = self.campaigns[p["campaign_id"]]
        slot = campaign.slots[p["slot_id"]]
        needed = slot.reward + slot.deposit_share + slot.fee
        # head_value lags behind queued settlements, so remember refusals to
        # keep the retry bounded by the share count
        tried = self._rebalance_tried.setdefault(slot.slot_id, set())
        tried.add(slot.share_index)
        for share in sorted(campaign.shares.values(), key=lambda s: s.index):
            if share.alive and not share.released and share.head_value >= needed \
                    and share.index not in tried:
                sim.log.emit(sim.now, self.actor_id, "settle_rebalanced",
                             slot=slot.slot_id, to_share=share.index)
                slot.share_index = share.index
                self._send_settle(sim, campaign, slot, share)
                return
        slot.detail = "insufficient_share"
        slot.settlement_tx = None
        campaign.settle_outstanding.discard(slot.slot_id)
        sim.log.emit(sim.now, self.actor_id, "settle_failed", slot=slot.slot_id)
        self._advance(sim, campaign)

    # ------------------------------------------------------------------
    # heartbeats, crash recovery

    def _on_heartbeat(self, msg: Message, sim: Simulation) -> None:
        self.last_beat[msg.payload["payment_id"]] = sim.now

    def _start_watcher(self, sim: Simulation) -> None:
        if self._watcher_running:
            return
        self._watcher_running = True
        sim.schedule_for(self.actor_id, self.liveness_window / 2,
                         lambda: self._watch(sim))

    def _watch(self, sim: Simulation) -> None:
        active = [c for c in self.campaigns.values()
                  if c.status in ("running", "stopping")]
        if not active:
            self._watcher_running = False
            return
        for campaign in active:
            for share in campaign.shares.values():
                if not share.alive or share.released:
                    continue
                beat = self.last_beat.get(share.payment_id, 0.0)
                if sim.now - beat > self.liveness_window:
                    self._recover_share(sim, campaign, share)
        sim.schedule_for(self.actor_id, self.liveness_window / 2,
                         lambda: self._watch(sim))

    def _recover_share(self, sim: Simulation, campaign: Campaign,
                       share: ShareInfo) -> None:
        try:
            self.mesh.authorize_recovery(sim, self.actor_id, share.address)
        except RecoveryRefused:
            # heartbeats lost but the enclave is provably alive: no key release,
            # no sweep; keep waiting
            sim.log.emit(sim.now, self.actor_id, "recovery_refused",
                         payment=share.payment_id)
            return
        share.alive = False
        sim.log.emit(sim.now, self.actor_id, "share_recovered",
                     campaign=campaign.campaign_id, share=share.index,
                     value=share.head_value)
        if share.head_note_id is not None and share.head_value > 0:
            sweep = ledger.make_transaction(
                [share.head_note_id],
                [(campaign.escrow_address, share.head_value, "change")],
                {share.address}, memo=f"recover:{campaign.campaign_id}:{share.index}",
            )
            sim.send(self.actor_id, self.node_id, "tx_broadcast", {"tx": sweep})
            campaign.escrow_notes.append(
                (sweep.outputs[0][0].note_id, share.head_value)
            )
        share.released = True
        self._stop_campaign(sim, campaign)

    def _stop_campaign(self, sim: Simulation, campaign: Campaign) -> None:
        """Appendix-style emergency stop: cancel work, settle nothing further.

        Runs again for each further share recovered: a dead share answers no
        settlement, so none that it holds may stay outstanding.
        """
        if campaign.status != "stopping":
            campaign.status = "stopping"
            for enclave in sorted({s.service_enclave for s in campaign.slots.values()}):
                sim.send(self.actor_id, enclave, "cancel_campaign",
                         {"campaign_id": campaign.campaign_id},
                         campaign_id=campaign.campaign_id)
            for slot in campaign.slots.values():
                if slot.status not in RESOLVED:
                    slot.status = "cancelled"
                    campaign.open_slots -= 1
            campaign.phase_marks.setdefault("service_end", sim.now)
            campaign.phase_marks.setdefault("payment_start", sim.now)
        for slot_id in list(campaign.settle_outstanding):
            if not campaign.shares[campaign.slots[slot_id].share_index].alive:
                campaign.settle_outstanding.discard(slot_id)
        self._advance(sim, campaign)

    # ------------------------------------------------------------------
    # the campaign lifecycle

    def _advance(self, sim: Simulation, campaign: Campaign) -> None:
        """Take a running or stopping campaign as far as it can go: into the
        payment phase once no slot is open, release every live share once no
        settlement is outstanding, and terminate once every share is released.
        A stopped campaign skips the payment phase: ``_stop_campaign`` marks
        its start."""
        if campaign.status not in ("running", "stopping") or campaign.open_slots:
            return
        marks = campaign.phase_marks
        if "payment_start" not in marks:
            marks["service_end"] = marks["payment_start"] = sim.now
            confirmed = sorted(
                (s for s in campaign.slots.values() if s.status == "confirmed"),
                key=lambda s: s.index,
            )
            sim.log.emit(sim.now, self.actor_id, "payment_phase",
                         campaign=campaign.campaign_id, confirmed=len(confirmed))
            for slot in confirmed:
                campaign.settle_outstanding.add(slot.slot_id)
                self._send_settle(sim, campaign, slot, campaign.shares[slot.share_index])
        if campaign.settle_outstanding:
            return
        if "payment_end" not in marks:
            marks["payment_end"] = sim.now
            for share in campaign.shares.values():
                if share.alive and not share.released:
                    sim.send(self.actor_id, share.payment_id, "release_share",
                             {"campaign_id": campaign.campaign_id},
                             campaign_id=campaign.campaign_id)
        if all(share.released for share in campaign.shares.values()):
            self._terminate(sim, campaign)

    def _on_share_released(self, msg: Message, sim: Simulation) -> None:
        p = msg.payload
        campaign = self.campaigns[p["campaign_id"]]
        share = campaign.shares[p["share_index"]]
        share.released = True
        tx: ledger.Transaction | None = p.get("tx")
        if tx is not None:
            note = tx.outputs[0][0]
            campaign.escrow_notes.append((note.note_id, note.value))
        self._advance(sim, campaign)

    def _terminate(self, sim: Simulation, campaign: Campaign) -> None:
        burn_slots = [s for s in campaign.slots.values() if self._burns(s)]
        burn_total = sum(s.deposit_share for s in burn_slots)
        returned = sum(s.deposit_share for s in campaign.slots.values()
                       if s.settlement_tx is not None)
        available = sum(value for _, value in campaign.escrow_notes)
        refund = available - burn_total
        outputs: list[tuple[str, int, str]] = []
        if burn_total > 0:
            outputs.append((ledger.BURN_ADDRESS, burn_total, "burn"))
        if refund > 0:
            outputs.append((campaign.refund_address, refund, "refund"))
        if outputs and campaign.escrow_notes:
            terminal = ledger.make_transaction(
                [note_id for note_id, _ in campaign.escrow_notes], outputs,
                {campaign.escrow_address}, memo=f"terminate:{campaign.campaign_id}",
            )
            campaign.terminal_tx = terminal
            sim.send(self.actor_id, self.node_id, "tx_broadcast", {"tx": terminal})
            sim.send(self.actor_id, campaign.renter_actor, "tx_copy", {"tx": terminal},
                     campaign_id=campaign.campaign_id)
        campaign.status = "terminated"
        campaign.deposit_ledger = {
            "quoted": campaign.quoted_deposit,
            "returned": returned,
            "burned": burn_total,
            "terminal_refund": campaign.quoted_deposit - returned - burn_total,
        }
        sim.log.emit(sim.now, self.actor_id, "campaign_terminated",
                     campaign=campaign.campaign_id, burned=burn_total,
                     refund=max(refund, 0))

    @staticmethod
    def _burns(slot: Slot) -> bool:
        """Deposit shares that must burn: unattributable or unredeemable loss.

        A timeout is an unattributable suppression; a confirmed slot that never
        settled would otherwise let the full deposit return without its reward,
        breaking the deposit-completeness argument.
        """
        if slot.status in BURNED_STATUSES:
            return True
        return slot.status == "confirmed" and slot.settlement_tx is None
