"""Run reports: ground truth, money closure, and fairness verdicts.

The report separates what enclaves intended (settlements issued, deposit
ledger closed bit-exact) from what actually landed on the real chain, because
the interesting attacks live exactly in that gap. Verdicts are per party:
fair, harmed, or advantaged, with harm taking precedence over advantage and
self-inflicted losses counting as fair.
"""
from __future__ import annotations

import hashlib
import json

from .coins import fmt
from .interface_enclave import InterfaceEnclave
from .ledger import BURN_ADDRESS
from .runner import World
from .services import ServiceAction


def _landed(world: World, tx_id: str | None) -> bool:
    return tx_id is not None and world.node.chain.has_tx(tx_id)


def _owner_username(world: World, owner_id: str, service_id: str) -> str | None:
    owner = world.owners.get(owner_id)
    if owner is None:
        return None
    cred = owner.credentials.get(service_id)
    return cred[0] if cred else None


def _ground_truth(world: World, slot) -> dict:
    """What the service itself says happened, independent of any enclave."""
    backend = world.services.get(slot.service_id)
    username = _owner_username(world, slot.owner_id, slot.service_id)
    if backend is None or username is None:
        return {"performed": False, "public_effect": False}
    action = ServiceAction(slot.action_kind, slot.action_target)
    return {"performed": backend.performed(username, action),
            "public_effect": backend.public_effect(username, action)}


def _slot_entry(world: World, slot) -> dict:
    truth = _ground_truth(world, slot)
    return {
        "slot_id": slot.slot_id,
        "index": slot.index,
        "owner_id": slot.owner_id,
        "service_id": slot.service_id,
        "action": f"{slot.action_kind}:{slot.action_target}",
        "status": slot.status,
        "detail": slot.detail,
        "reward": slot.reward,
        "deposit_share": slot.deposit_share,
        "fee": slot.fee,
        "effect_claimed": slot.effect_claimed,
        "ground_truth": truth,
        "substituted_by": slot.substituted_by,
        "settlement": {
            "intended": slot.settlement_tx is not None,
            "tx_id": slot.settlement_tx,
            "landed": _landed(world, slot.settlement_tx),
        },
        "burns": InterfaceEnclave._burns(slot),
    }


def _campaign_entry(world: World, campaign) -> dict:
    slots = [
        _slot_entry(world, s)
        for s in sorted(campaign.slots.values(), key=lambda s: s.index)
    ]

    terminal = campaign.terminal_tx
    burn_out = refund_out = 0
    if terminal is not None:
        for note, kind in terminal.outputs:
            if kind == "burn":
                burn_out += note.value
            elif kind == "refund":
                refund_out += note.value
    terminal_id = terminal.tx_id if terminal is not None else None
    terminal_landed = _landed(world, terminal_id)

    # one pass: a settled slot counts on the intended side, and on the landed
    # side too once its settlement is on the chain
    zero = {"owner_rewards": 0, "deposit_returned": 0, "fees": 0, "burned": 0}
    intended, landed = dict(zero), dict(zero)
    for s in slots:
        settlement = s["settlement"]
        for side, counted in ((intended, settlement["intended"]),
                              (landed, settlement["landed"])):
            if counted:
                side["owner_rewards"] += s["reward"]
                side["deposit_returned"] += s["deposit_share"]
                side["fees"] += s["fee"]
        if s["burns"]:
            intended["burned"] += s["deposit_share"]
    intended["terminal_refund"] = refund_out
    landed["burned"] = burn_out if terminal_landed else 0
    landed["terminal_refund"] = refund_out if terminal_landed else 0
    mismatches = [
        s["slot_id"] for s in slots
        if s["status"] == "confirmed" and s["effect_claimed"]
        and not s["ground_truth"]["public_effect"]
    ]
    collusive = world.services[campaign.service_id].colludes
    funding_id = campaign.funding_tx.tx_id if campaign.funding_tx is not None else None
    return {
        "campaign_id": campaign.campaign_id,
        "renter_id": campaign.renter_id,
        "service_id": campaign.service_id,
        "action": f"{campaign.action_kind}:{campaign.action_target}",
        "count": campaign.count,
        "status": campaign.status,
        "quote": {
            "funds": campaign.quoted_funds,
            "deposit": campaign.quoted_deposit,
            "fee_allowance": campaign.fee_allowance,
            "total": campaign.total,
        },
        "funding": {"tx_id": funding_id, "landed": _landed(world, funding_id)},
        "phases": {k: round(v, 9) for k, v in sorted(campaign.phase_marks.items())},
        "flags": {
            "claim_mismatches": mismatches,
            "collusive_service": collusive,
        },
        "slots": slots,
        "deposit_ledger": dict(campaign.deposit_ledger),
        "intended": intended,
        "landed": landed,
        "terminal": {
            "tx_id": terminal_id,
            "landed": terminal_landed,
            "burn": burn_out,
            "refund": refund_out,
        },
    }


def _party_balances(world: World, held: dict[str, int]) -> dict[str, dict[str, int]]:
    """Start, end and delta per party; ``held`` is ``Chain.balances()``."""
    start = {f"renter:{r.renter_id}": r.balance for r in world.spec.renters}
    parties = dict.fromkeys(start, 0) | {
        f"owner:{o.owner_id}": 0 for o in world.spec.owners
    }
    parties[world.spec.maintainer_address] = 0
    out = {}
    for address in sorted(parties):
        s = start.get(address, 0)
        e = held.get(address, 0)
        out[address] = {"start": s, "end": e, "delta": e - s}
    return out


def _drop_summary(world: World) -> list[dict]:
    out = []
    for msg, rule_id, owner in world.sim.dropped:
        out.append({
            "rule": rule_id, "by": owner, "kind": msg.kind,
            "cut_point": msg.cut_point, "campaign_id": msg.campaign_id,
            "owner_id": msg.owner_id, "src": msg.src, "dst": msg.dst,
            "at": round(msg.send_time, 9),
        })
    return out


# ----------------------------------------------------------------------
# verdicts


# An owner's unpaid slot is also lost when these drops keep its settlement,
# or the confirmation that earns it, off the chain, whoever the message names.
OWNER_LOSS_KINDS = ("tx_broadcast", "tx_copy", "svc_confirm")


def _blame(world: World, actor_id: str, campaign_id: str,
           owner_id: str | None = None) -> str | None:
    """Who a loss in ``campaign_id`` is charged to: None when every rule that
    dropped in its scope is the actor's own (self-inflicted), otherwise the
    rule owners. The scope is every drop in the campaign or in none; for an
    owner, only those naming the owner or of an ``OWNER_LOSS_KINDS`` kind."""
    found = set()
    for msg, _rule, rule_owner in world.sim.dropped:
        if msg.campaign_id not in (None, campaign_id):
            continue
        if owner_id is None or msg.owner_id == owner_id or msg.kind in OWNER_LOSS_KINDS:
            found.add(rule_owner)
    if found and found <= {actor_id}:
        return None
    return ",".join(sorted(found)) or "host"


def _loss(by: str | None, self_inflicted: str, harmed: str) -> tuple[str, str]:
    """The finding for a loss that ``_blame`` charged to ``by``."""
    if by is None:
        return "self_harm", self_inflicted
    return "harmed", f"{harmed} (by {by})"


def _verdict(findings: list[tuple[str, str]], self_harm: str = "") -> dict:
    """Verdict from (kind, evidence) findings in report order: harmed beats
    advantaged beats fair, and a fair party with a self-inflicted loss gets
    the ``self_harm`` line last."""
    kinds = {kind for kind, _text in findings}
    verdict = ("harmed" if "harmed" in kinds else
               "advantaged" if "advantaged" in kinds else "fair")
    evidence = [text for _kind, text in findings]
    if verdict == "fair" and "self_harm" in kinds:
        evidence.append(self_harm)
    return {"verdict": verdict, "evidence": evidence}


def _judge_owner(world: World, owner_id: str, owned: list[tuple[dict, dict]]) -> dict:
    """Verdict for one owner from its (campaign, slot) entries, in report order."""
    findings = []
    for campaign, slot in owned:
        slot_id, reward = slot["slot_id"], fmt(slot["reward"])
        truth = slot["ground_truth"]
        paid = slot["settlement"]["landed"]
        if truth["public_effect"] and not paid:
            by = _blame(world, f"owner:{owner_id}", campaign["campaign_id"], owner_id)
            if by is not None and not campaign["funding"]["landed"]:
                by = f"renter:{campaign['renter_id']} (forged funding)"
            findings.append(_loss(
                by, f"{slot_id}: account acted, unpaid; losses self-inflicted",
                f"{slot_id}: account acted ({slot['action']}), reward {reward} never landed",
            ))
        elif paid and not truth["performed"]:
            findings.append(("advantaged",
                             f"{slot_id}: paid {reward} without the account acting"))
        elif paid:
            findings.append(("fair", f"{slot_id}: acted and paid in full"))
    return _verdict(findings, "self_harm: suppression rules belonged to this owner")


def _judge_renter(world: World, renter_id: str, campaigns: list[dict]) -> dict:
    """Verdict for one renter from its own campaign entries, in report order."""
    findings = []
    for campaign in campaigns:
        campaign_id = campaign["campaign_id"]
        if not campaign["funding"]["landed"]:
            effects = sum(1 for s in campaign["slots"]
                          if s["ground_truth"]["public_effect"])
            if effects:
                findings.append(("advantaged", (
                    f"{campaign_id}: {effects} public effects delivered, "
                    f"funding never landed on the real chain")))
            continue
        by = _blame(world, f"renter:{renter_id}", campaign_id)
        intended, landed = campaign["intended"], campaign["landed"]
        short = (intended["deposit_returned"] + intended["terminal_refund"]
                 - landed["deposit_returned"] - landed["terminal_refund"])
        if short > 0:
            findings.append(_loss(
                by, f"{campaign_id}: refund shortfall {fmt(short)} self-inflicted",
                f"{campaign_id}: {fmt(short)} of intended returns never landed",
            ))
        mismatches = campaign["flags"]["claim_mismatches"]
        if mismatches:
            findings.append(("fair", (
                f"{campaign_id}: {len(mismatches)} confirmed slot(s) claim effects "
                f"the service never applied ({', '.join(mismatches)}); "
                f"undetectable at confirmation")))
        burned = campaign["deposit_ledger"].get("burned", 0)
        if burned:
            burn_slots = ", ".join(s["slot_id"] for s in campaign["slots"] if s["burns"])
            findings.append(_loss(
                by, f"{campaign_id}: deposit burn {fmt(burned)} ({burn_slots}) "
                f"traced to own rules",
                f"{campaign_id}: deposit {fmt(burned)} burned ({burn_slots})",
            ))
    return _verdict(findings, "self_harm: losses trace to this renter's own rules")


def _judge_maintainer(campaigns: list[dict]) -> dict:
    findings = []
    for campaign in campaigns:
        fees = campaign["intended"]["fees"]
        missing = fees - campaign["landed"]["fees"]
        if missing > 0:
            findings.append(("harmed",
                             f"{campaign['campaign_id']}: fees {fmt(missing)} never landed"))
        elif fees:
            findings.append(("fair", f"{campaign['campaign_id']}: fees {fmt(fees)} "
                                     f"landed in full"))
    return _verdict(findings)


# ----------------------------------------------------------------------


def build_report(world: World) -> dict:
    chain = world.node.chain
    campaigns = [_campaign_entry(world, c)
                 for c in sorted(world.all_campaigns(),
                                 key=lambda c: c.campaign_id)]
    owned: dict[str, list[tuple[dict, dict]]] = {}
    rented: dict[str, list[dict]] = {}
    for campaign in campaigns:
        rented.setdefault(campaign["renter_id"], []).append(campaign)
        for slot in campaign["slots"]:
            owned.setdefault(slot["owner_id"], []).append((campaign, slot))
    held = chain.balances()
    balances = _party_balances(world, held)
    final_total = sum(held.values())
    verdicts = {
        "owners": {
            o.owner_id: _judge_owner(world, o.owner_id, owned.get(o.owner_id, []))
            for o in world.spec.owners
        },
        "renters": {
            r.renter_id: _judge_renter(world, r.renter_id, rented.get(r.renter_id, []))
            for r in world.spec.renters
        },
        "maintainer": _judge_maintainer(campaigns),
    }
    report = {
        "scenario": world.spec.name,
        "seed": world.spec.seed,
        "mode": world.spec.topology.mode,
        "sim": {
            "ended_at": round(world.sim.now, 9),
            "chain_height": chain.height,
            "events": len(world.sim.log.lines),
            "event_digest": world.sim.log.digest(),
        },
        "campaigns": campaigns,
        "parties": balances,
        "conservation": {
            "issuance": chain.issuance,
            "unspent_total": final_total,
            "burn_address": held.get(BURN_ADDRESS, 0),
            "ok": final_total == chain.issuance,
        },
        "drops": _drop_summary(world),
        "verdicts": verdicts,
    }
    if world.node.orphaned:
        report["sim"]["orphaned"] = world.node.orphaned
    if world.p2p:
        report["p2p"] = {
            "registrations": world.p2p["registrations"],
            "campaigns": world.p2p["campaigns"],
            "bindings": {
                cpu: world.p2p["registry"].accepted_count(cpu)
                for cpu in sorted({r["cpu"] for r in world.p2p["registrations"]})
            },
        }
    return report


def canonical_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def report_digest(report: dict) -> str:
    return hashlib.sha256(canonical_json(report).encode()).hexdigest()


def render_report(report: dict) -> str:
    lines = [
        f"scenario {report['scenario']} seed={report['seed']} mode={report['mode']}",
        f"  virtual end t={report['sim']['ended_at']} "
        f"chain height={report['sim']['chain_height']} "
        f"events={report['sim']['events']}",
    ]
    if "orphaned" in report["sim"]:
        lines.append(f"  orphaned txs: {' '.join(report['sim']['orphaned'])}")
    for campaign in report["campaigns"]:
        q = campaign["quote"]
        lines.append(
            f"campaign {campaign['campaign_id']} [{campaign['status']}] "
            f"{campaign['action']} x{campaign['count']} "
            f"funds={fmt(q['funds'])} deposit={fmt(q['deposit'])} "
            f"fee={fmt(q['fee_allowance'])}"
        )
        for mark, t in campaign["phases"].items():
            lines.append(f"  phase {mark} t={t}")
        for slot in campaign["slots"]:
            s = slot["settlement"]
            settle = ("landed" if s["landed"] else
                      "intended" if s["intended"] else "none")
            truth = slot["ground_truth"]
            lines.append(
                f"  slot {slot['slot_id']} owner={slot['owner_id']} "
                f"status={slot['status']} reward={fmt(slot['reward'])} "
                f"performed={str(truth['performed']).lower()} "
                f"effect={str(truth['public_effect']).lower()} "
                f"settle={settle}{' BURNS' if slot['burns'] else ''}"
            )
        ledger_ = campaign["deposit_ledger"]
        if ledger_:
            lines.append(
                f"  deposits quoted={fmt(ledger_['quoted'])} "
                f"returned={fmt(ledger_['returned'])} "
                f"burned={fmt(ledger_['burned'])} "
                f"residue={fmt(ledger_['terminal_refund'])}"
            )
        flags = campaign["flags"]
        if flags["collusive_service"] or flags["claim_mismatches"]:
            lines.append(
                f"  flags collusive_service="
                f"{str(flags['collusive_service']).lower()} "
                f"claim_mismatches={flags['claim_mismatches']}"
            )
        for side in ("intended", "landed"):
            d = campaign[side]
            lines.append(
                f"  {side} rewards={fmt(d['owner_rewards'])} "
                f"deposit_back={fmt(d['deposit_returned'])} fees={fmt(d['fees'])} "
                f"burn={fmt(d['burned'])} refund={fmt(d['terminal_refund'])}"
            )
    lines.append("parties:")
    for address, bal in report["parties"].items():
        lines.append(
            f"  {address} start={fmt(bal['start'])} end={fmt(bal['end'])} "
            f"delta={fmt(bal['delta'])}"
        )
    cons = report["conservation"]
    lines.append(
        f"conservation issuance={fmt(cons['issuance'])} "
        f"unspent={fmt(cons['unspent_total'])} "
        f"burned={fmt(cons['burn_address'])} ok={str(cons['ok']).lower()}"
    )
    if report["drops"]:
        lines.append(f"drops ({len(report['drops'])}):")
        for drop in report["drops"][:50]:
            lines.append(
                f"  t={drop['at']} {drop['kind']} cut={drop['cut_point']} "
                f"by={drop['by']} {drop['src']}->{drop['dst']}"
            )
    lines.append("verdicts:")
    verdicts = report["verdicts"]
    parties = [(f"owner {k}", v) for k, v in verdicts["owners"].items()]
    parties += [(f"renter {k}", v) for k, v in verdicts["renters"].items()]
    for party, v in parties + [("maintainer", verdicts["maintainer"])]:
        lines.append(f"  {party}: {v['verdict']}")
        lines.extend(f"    - {e}" for e in v["evidence"])
    if "p2p" in report:
        lines.append("p2p:")
        for cpu, count in report["p2p"]["bindings"].items():
            lines.append(f"  cpu {cpu}: {count} accepted binding(s)")
        for campaign in report["p2p"]["campaigns"]:
            if "error" in campaign:
                lines.append(f"  campaign {campaign['service']}: {campaign['error']}")
            else:
                lines.append(
                    f"  campaign {campaign['service']} x{campaign['count']}: "
                    f"{len(campaign['fulfilled'])} fulfilled, "
                    f"{campaign['remainder_refund']} refunded"
                )
    lines.append(f"report digest {report_digest(report)}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# verification suite


def verify_world(world: World) -> list[tuple[str, bool, str]]:
    """Independent invariant checks over a finished run."""
    checks: list[tuple[str, bool, str]] = []
    chain = world.node.chain

    ok, why = chain.verify_full()
    checks.append(("chain_integrity", ok, why))

    unspent = sum(chain.balances().values())
    checks.append((
        "value_conservation",
        unspent == chain.issuance,
        f"unspent {fmt(unspent)} vs issuance {fmt(chain.issuance)}",
    ))

    burn_spent = bool(chain.spent_notes(BURN_ADDRESS))
    burned_notes = chain.balance(BURN_ADDRESS)
    checks.append((
        "burn_unspendable", not burn_spent,
        f"burn address holds {fmt(burned_notes)}",
    ))

    for campaign in world.all_campaigns():
        ledger_ = campaign.deposit_ledger
        if not ledger_:
            continue
        closes = (ledger_["quoted"]
                  == ledger_["returned"] + ledger_["burned"]
                  + ledger_["terminal_refund"])
        checks.append((
            f"deposit_closure:{campaign.campaign_id}", closes,
            f"quoted {fmt(ledger_['quoted'])} = returned {fmt(ledger_['returned'])} "
            f"+ burned {fmt(ledger_['burned'])} "
            f"+ residue {fmt(ledger_['terminal_refund'])}",
        ))

    atomic_ok, atomic_why = _check_atomic_settlements(world)
    checks.append(("settlement_atomicity", atomic_ok, atomic_why))

    linear_ok, linear_why = _check_linear_share_chains(world)
    checks.append(("linear_share_chains", linear_ok, linear_why))

    taint_ok, taint_why = _check_secret_taint(world)
    checks.append(("no_unsessioned_secrets", taint_ok, taint_why))

    return checks


def _check_atomic_settlements(world: World) -> tuple[bool, str]:
    count = 0
    for height in range(world.node.chain.height + 1):
        for tx in world.node.chain.blocks[height].txs:
            if not tx.memo.startswith("settle:"):
                continue
            count += 1
            kinds = sorted(kind for _note, kind in tx.outputs)
            want = {"reward", "deposit_return", "fee"}
            if not want <= set(kinds):
                return False, f"{tx.tx_id[:12]} missing outputs {kinds}"
    return True, f"{count} settlement txs each carry reward+deposit+fee"


def _check_linear_share_chains(world: World) -> tuple[bool, str]:
    checked = 0
    for enc in world.payment_encs:
        for share in enc.shares.values():
            prev_out = None
            for tx in share.issued:
                if prev_out is not None and prev_out not in tx.inputs:
                    return False, (
                        f"share {share.address} breaks the chain at "
                        f"{tx.tx_id[:12]}"
                    )
                change = [n for n, kind in tx.outputs
                          if n.owner_address == share.address]
                prev_out = change[0].note_id if change else None
                checked += 1
    return True, f"{checked} settlement txs form linear per-share chains"


def _check_secret_taint(world: World) -> tuple[bool, str]:
    # The simulation checked each message as it was delivered or dropped.
    sim = world.sim
    if sim.secret_leak is not None:
        return False, sim.secret_leak
    scanned = len(sim.delivered) + len(sim.dropped) + sim.dropped_unknown
    return True, f"{scanned} messages scanned, secrets only on attested channels"
