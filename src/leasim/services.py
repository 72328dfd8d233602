"""Mock target services.

Two services with opposite observability:

- SocialService: authenticated multi-request pipeline (5 exchanges per
  action); the action takes effect only on the final exchange, so cutting any
  earlier exchange leaves state unchanged while cutting only the final
  response leaves the action applied but unconfirmed. Public counters and a
  public actor listing make honest actions externally verifiable; ghost
  accounts confirm without ever touching public state; hidden items need a
  direct link.
- VotingService: one counted vote per credential (first_counts or
  last_counts), a ballot box whose observer API exposes only tallies, and an
  individual-verifiability hook (a credential holder can check their counted
  vote, nobody else can).

Services are passive actors: they answer request messages immediately; all
latency is sampled by the callers.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from leasim.simnet import CUT_SERVICE_RESPONSE, Simulation

OBSERVABLE_KINDS = {"upvote": True, "post": True, "follow": True, "vote": False}


class ServiceError(Exception):
    pass


class AuthFailed(ServiceError):
    pass


class DuplicateAction(ServiceError):
    pass


class AlreadyVoted(ServiceError):
    pass


class NotFound(ServiceError):
    pass


class NothingToRevert(ServiceError):
    pass


@dataclass(frozen=True)
class ServiceAction:
    kind: str
    target: str

    @property
    def observable(self) -> bool:
        return OBSERVABLE_KINDS[self.kind]


@dataclass
class ItemState:
    item_id: str
    hidden: bool = False
    counters: dict[str, int] = field(default_factory=dict)
    public_actions: list[tuple[str, str]] = field(default_factory=list)  # (account, kind)
    private_log: list[tuple[str, str]] = field(default_factory=list)  # incl. ghost actions


class SocialService:
    """Observable service with a 5-request action pipeline."""

    PIPELINE_LENGTH = 5

    def __init__(self, service_id: str, *, collusion: bool = False):
        self.service_id = service_id
        self.collusion = collusion
        self.accounts: dict[str, str] = {}
        self.ghosts: set[str] = set()
        self.items: dict[str, ItemState] = {}
        self.applied: set[tuple[str, str, str]] = set()  # (account, item, kind)
        self._stages: dict[str, int] = {}  # pipeline state per driver-chosen key

    # -- administration ----------------------------------------------------

    def add_account(self, username: str, password: str, *, ghost: bool = False) -> None:
        self.accounts[username] = password
        if ghost:
            self.ghosts.add(username)

    def add_item(self, item_id: str, *, hidden: bool = False) -> ItemState:
        item = ItemState(item_id=item_id, hidden=hidden)
        self.items[item_id] = item
        return item

    # -- pipeline ----------------------------------------------------------

    def handle_request(self, state_key: str, step: int, username: str, password: str,
                       action: ServiceAction) -> dict:
        """One pipeline exchange. State changes happen only at the final step."""
        if step == 1:
            if self.accounts.get(username) != password:
                return {"status": "error", "error": "AuthFailed", "step": step}
            self._stages[state_key] = 1
            return {"status": "ok", "step": step}
        if self._stages.get(state_key, 0) != step - 1:
            return {"status": "error", "error": "BadPipelineOrder", "step": step}
        self._stages[state_key] = step
        if step < self.PIPELINE_LENGTH:
            return {"status": "ok", "step": step}
        # final exchange: apply the action
        del self._stages[state_key]
        return self._apply(username, action, step)

    def _apply(self, username: str, action: ServiceAction, step: int) -> dict:
        item = self.items.get(action.target)
        if item is None:
            return {"status": "error", "error": "NotFound", "step": step}
        key = (username, action.target, action.kind)
        if key in self.applied:
            return {"status": "error", "error": "DuplicateAction", "step": step}
        item.private_log.append((username, action.kind))
        if username in self.ghosts:
            # plays along: confirmation without any public effect
            return {"status": "confirmed", "step": step, "effect": "none"}
        self.applied.add(key)
        item.counters[action.kind] = item.counters.get(action.kind, 0) + 1
        item.public_actions.append((username, action.kind))
        return {"status": "confirmed", "step": step, "effect": "applied"}

    # -- public state ------------------------------------------------------

    def observe(self, item_id: str, *, has_link: bool = False) -> dict[str, int]:
        item = self.items.get(item_id)
        if item is None or (item.hidden and not has_link):
            raise NotFound(item_id)
        return dict(item.counters)

    def public_effect_exists(self, username: str, item_id: str, kind: str) -> bool:
        """External verification: effect visible from an independent account.

        ``applied`` holds exactly the (account, item, kind) triples in the
        items' ``public_actions``: ``_apply`` and ``revert`` change both."""
        return (username, item_id, kind) in self.applied

    def revert(self, username: str, item_id: str, kind: str) -> None:
        key = (username, item_id, kind)
        if key not in self.applied:
            raise NothingToRevert(f"{username} never applied {kind} on {item_id}")
        self.applied.discard(key)
        item = self.items[item_id]
        item.counters[kind] -= 1
        item.public_actions.remove((username, kind))

    def actions_of(self, username: str, password: str) -> list[tuple[str, str]]:
        """The account's own activity view (login required)."""
        if self.accounts.get(username) != password:
            raise AuthFailed(username)
        return [
            (item_id, kind)
            for item_id, item in sorted(self.items.items())
            for acting, kind in item.public_actions
            if acting == username
        ]

    def exposed_accounts(self, item_id: str) -> set[str]:
        """What a colluding service learns: everyone who acted on the item."""
        item = self.items.get(item_id)
        if item is None:
            return set()
        return {username for username, _ in item.private_log}

    def dump(self) -> str:
        lines = [f"service {self.service_id} kind=social accounts={len(self.accounts)}"]
        for item_id in sorted(self.items):
            item = self.items[item_id]
            counters = ",".join(f"{k}:{v}" for k, v in sorted(item.counters.items())) or "-"
            lines.append(
                f"item {item_id} hidden={int(item.hidden)} counters={counters} "
                f"public_actions={len(item.public_actions)}"
            )
        return "\n".join(lines) + "\n"


class VotingService:
    """Unobservable service: ballots are unlinkable, observers see tallies only."""

    PIPELINE_LENGTH = 2  # login, cast

    def __init__(self, service_id: str, *, policy: str = "first_counts",
                 fake_credentials: set[str] | None = None):
        if policy not in ("first_counts", "last_counts"):
            raise ValueError(f"unknown vote policy {policy!r}")
        self.service_id = service_id
        self.policy = policy
        self.accounts: dict[str, str] = {}
        self.candidates: set[str] = set()
        self.votes: dict[str, str] = {}  # private linkage, never exposed
        self.fake_credentials = set(fake_credentials or ())  # coercion scenario flag
        self.shadow_votes: dict[str, str] = {}  # cast with fake creds, never counted
        self._stages: dict[str, int] = {}

    def add_account(self, username: str, password: str) -> None:
        self.accounts[username] = password

    def add_candidate(self, candidate: str) -> None:
        self.candidates.add(candidate)

    def handle_request(self, state_key: str, step: int, username: str, password: str,
                       action: ServiceAction) -> dict:
        if step == 1:
            if self.accounts.get(username) != password:
                return {"status": "error", "error": "AuthFailed", "step": step}
            self._stages[state_key] = 1
            return {"status": "ok", "step": step}
        if self._stages.get(state_key, 0) != 1:
            return {"status": "error", "error": "BadPipelineOrder", "step": step}
        del self._stages[state_key]
        return self._cast(username, action.target, step)

    def _cast(self, username: str, candidate: str, step: int) -> dict:
        if candidate not in self.candidates:
            return {"status": "error", "error": "NotFound", "step": step}
        if username in self.fake_credentials:
            # indistinguishable confirmation; the ballot never counts
            self.shadow_votes[username] = candidate
            return {"status": "confirmed", "step": step}
        if username in self.votes:
            if self.policy == "first_counts":
                return {"status": "error", "error": "AlreadyVoted", "step": step}
            self.votes[username] = candidate  # last_counts: override
            return {"status": "confirmed", "step": step}
        self.votes[username] = candidate
        return {"status": "confirmed", "step": step}

    def cast_vote(self, username: str, password: str, candidate: str) -> dict:
        """Single-shot cast (login + cast), used by owner-side revotes."""
        first = self.handle_request(f"direct:{username}", 1, username, password,
                                    ServiceAction("vote", candidate))
        if first["status"] == "error":
            return first
        return self.handle_request(f"direct:{username}", 2, username, password,
                                   ServiceAction("vote", candidate))

    # -- observer API ------------------------------------------------------

    def tallies(self) -> dict[str, int]:
        result = {c: 0 for c in sorted(self.candidates)}
        for candidate in self.votes.values():
            result[candidate] += 1
        return result

    def verify_my_vote(self, username: str, password: str) -> str | None:
        """Individual verifiability: only the credential holder can check."""
        if self.accounts.get(username) != password:
            raise AuthFailed(username)
        if username in self.fake_credentials:
            return self.shadow_votes.get(username)  # the lie that keeps coercion safe
        return self.votes.get(username)

    def counted(self, username: str) -> bool:
        return username in self.votes

    def exposed_accounts(self, _target: str) -> set[str]:
        return set()  # ballots are unlinkable even for the service's campaigns

    def dump(self) -> str:
        lines = [f"service {self.service_id} kind=voting policy={self.policy} "
                 f"accounts={len(self.accounts)}"]
        for candidate, count in sorted(self.tallies().items()):
            lines.append(f"tally {candidate} votes={count}")
        return "\n".join(lines) + "\n"


class ServiceActorAdapter:
    """Wraps a service as a simulation actor answering proxy-relayed requests."""

    def __init__(self, actor_id: str, service):
        self.actor_id = actor_id
        self.service = service

    def receive(self, msg, sim: Simulation) -> None:
        p = msg.payload
        if msg.kind == "svc_request":
            action = ServiceAction(p["action_kind"], p["action_target"])
            result = self.service.handle_request(
                p["state_key"], p["step"], p["username"], p["password"], action)
            final = p["step"] == self.service.PIPELINE_LENGTH
            sim.send(
                self.actor_id, msg.src,
                "svc_confirm" if final else "svc_response",
                {**result, "slot_id": p.get("slot_id"), "reply_to": p.get("reply_to"),
                 "state_key": p["state_key"], "service_id": self.service.service_id},
                cut_point=CUT_SERVICE_RESPONSE if final else None,
                campaign_id=msg.campaign_id,
                owner_id=msg.owner_id,
                step=p["step"],
            )
        elif msg.kind == "svc_verify":
            visible = self.service.public_effect_exists(
                p["username"], p["item_id"], p["action_kind"]
            )
            sim.send(self.actor_id, msg.src, "svc_verify_resp",
                     {"visible": visible, "slot_id": p.get("slot_id")},
                     campaign_id=msg.campaign_id, owner_id=msg.owner_id)
