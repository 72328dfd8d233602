"""Mock target services, and the one place that knows what a service kind is.

Every service kind is a ``Service``: accounts, and a pipeline of
``PIPELINE_LENGTH`` exchanges per action. Step 1 logs in, each later step
must follow the one before under the same driver-chosen key, and only the
last step acts, so cutting any earlier exchange leaves state unchanged while
cutting only the final response leaves the action done but unconfirmed.
Each kind also says:

- ``FIELDS``: its scenario fields, which are also its constructor's keyword
  parameters. A ``services[]`` entry may name no other kind's field.
- ``OBSERVABLE``: whether its actions' effects are public. A service enclave
  checks every confirmed action on an observable service from outside, and
  takes an unobservable service's confirmation as final, whatever the
  action's name.
- ``performed(username, action)`` and ``public_effect(username, action)``:
  whether the service did the action at all, and whether its effect counts
  where the public sees it. The report's ground truth.
- ``colludes``: whether the service plays along with some accounts, derived
  from its ``ghosts`` or ``coerced`` list. The report's
  ``collusive_service`` flag.
- ``revert_all(username, password)``: what a ``reverts_actions`` owner
  undoes, as ``(target, action kind)`` pairs. The base undoes nothing.

The two kinds have opposite observability:

- SocialService: 5 exchanges per action. Public counters and a public actor
  listing make honest actions externally verifiable; ghost accounts confirm
  without ever touching public state. An account can revert its actions.
- VotingService: 2 exchanges (login, cast). One counted vote per credential
  (``VOTE_POLICIES``), a ballot box whose observer API exposes only tallies,
  and an individual-verifiability hook (a credential holder can check their
  counted vote, nobody else can). A coerced credential's ballot confirms and
  never counts. A cast ballot cannot be reverted.

Services are passive actors: they answer request messages immediately; all
latency is sampled by the callers.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from leasim.simnet import CUT_SERVICE_RESPONSE, Simulation

VOTE_POLICIES = ("first_counts", "last_counts")  # which of a credential's ballots counts


class ServiceError(Exception):
    pass


class AuthFailed(ServiceError):
    pass


class NotFound(ServiceError):
    pass


class NothingToRevert(ServiceError):
    pass


@dataclass(frozen=True)
class ServiceAction:
    kind: str
    target: str


class Service:
    """Accounts and the login-then-act pipeline. A kind sets ``FIELDS``,
    ``PIPELINE_LENGTH``, ``OBSERVABLE`` and ``colludes``, acts in ``_act``
    and answers ``performed`` and ``public_effect``."""

    FIELDS: tuple[str, ...]
    PIPELINE_LENGTH: int
    OBSERVABLE: bool

    def __init__(self, service_id: str):
        self.service_id = service_id
        self.accounts: dict[str, str] = {}
        self._stages: dict[str, int] = {}  # last step done per driver-chosen key

    def add_account(self, username: str, password: str) -> None:
        self.accounts[username] = password

    def handle_request(self, state_key: str, step: int, username: str, password: str,
                       action: ServiceAction) -> dict:
        """One pipeline exchange. State changes happen only at the final step."""
        if step == 1:
            if self.accounts.get(username) != password:
                return {"status": "error", "error": "AuthFailed", "step": step}
        elif self._stages.get(state_key) != step - 1:
            return {"status": "error", "error": "BadPipelineOrder", "step": step}
        if step < self.PIPELINE_LENGTH:
            self._stages[state_key] = step
            return {"status": "ok", "step": step}
        del self._stages[state_key]
        return self._act(username, action, step)

    def revert_all(self, username: str, password: str) -> list[tuple[str, str]]:
        """Undo every action of the account; returns what was undone. A kind
        whose actions cannot be undone undoes nothing."""
        return []


@dataclass
class ItemState:
    item_id: str
    counters: dict[str, int] = field(default_factory=dict)
    confirmed: set[tuple[str, str]] = field(default_factory=set)  # incl. ghost actions


class SocialService(Service):
    """Observable service with a 5-request action pipeline."""

    FIELDS = ("items", "ghosts")
    PIPELINE_LENGTH = 5
    OBSERVABLE = True

    def __init__(self, service_id: str, *, items: Iterable[str] = (),
                 ghosts: Iterable[str] = ()):
        super().__init__(service_id)
        self.items = {item_id: ItemState(item_id) for item_id in items}
        self.ghosts = set(ghosts)  # confirmed without any public effect
        self.colludes = bool(self.ghosts)
        # (account, item, kind) of every action in public state, in the order applied
        self.applied: dict[tuple[str, str, str], None] = {}

    def _act(self, username: str, action: ServiceAction, step: int) -> dict:
        item = self.items.get(action.target)
        if item is None:
            return {"status": "error", "error": "NotFound", "step": step}
        key = (username, action.target, action.kind)
        if key in self.applied:
            return {"status": "error", "error": "DuplicateAction", "step": step}
        item.confirmed.add((username, action.kind))
        if username in self.ghosts:
            # plays along: confirmation without any public effect
            return {"status": "confirmed", "step": step, "effect": "none"}
        self.applied[key] = None
        item.counters[action.kind] = item.counters.get(action.kind, 0) + 1
        return {"status": "confirmed", "step": step, "effect": "applied"}

    def performed(self, username: str, action: ServiceAction) -> bool:
        """The service confirmed the action at some point, ghost or not."""
        item = self.items.get(action.target)
        return item is not None and (username, action.kind) in item.confirmed

    def public_effect(self, username: str, action: ServiceAction) -> bool:
        """External verification: effect visible from an independent account."""
        return (username, action.target, action.kind) in self.applied

    # -- public state ------------------------------------------------------

    def observe(self, item_id: str) -> dict[str, int]:
        item = self.items.get(item_id)
        if item is None:
            raise NotFound(item_id)
        return dict(item.counters)

    def revert(self, username: str, item_id: str, kind: str) -> None:
        key = (username, item_id, kind)
        if key not in self.applied:
            raise NothingToRevert(f"{username} never applied {kind} on {item_id}")
        del self.applied[key]
        self.items[item_id].counters[kind] -= 1

    def actions_of(self, username: str, password: str) -> list[tuple[str, str]]:
        """The account's own activity view (login required): its applied
        actions by item, each item's in the order applied."""
        if self.accounts.get(username) != password:
            raise AuthFailed(username)
        mine = [(item_id, kind) for acting, item_id, kind in self.applied if acting == username]
        return sorted(mine, key=lambda pair: pair[0])

    def revert_all(self, username: str, password: str) -> list[tuple[str, str]]:
        done = self.actions_of(username, password)
        for item_id, kind in done:
            self.revert(username, item_id, kind)
        return done

    def exposed_accounts(self, item_id: str) -> set[str]:
        """What a colluding service learns: everyone who acted on the item."""
        item = self.items.get(item_id)
        if item is None:
            return set()
        return {username for username, _ in item.confirmed}


class VotingService(Service):
    """Unobservable service: ballots are unlinkable, observers see tallies only."""

    FIELDS = ("policy", "candidates", "coerced")
    PIPELINE_LENGTH = 2  # login, cast
    OBSERVABLE = False

    def __init__(self, service_id: str, *, policy: str = VOTE_POLICIES[0],
                 candidates: Iterable[str] = (), coerced: Iterable[str] = ()):
        super().__init__(service_id)
        self.policy = policy
        self.candidates = set(candidates)
        self.coerced = set(coerced)  # their ballots confirm and never count
        self.colludes = bool(self.coerced)
        self.votes: dict[str, str] = {}  # private linkage, never exposed
        self.shadow_votes: dict[str, str] = {}  # cast by coerced accounts
        self.confirmed: set[tuple[str, str]] = set()  # every ballot ever confirmed

    def _act(self, username: str, action: ServiceAction, step: int) -> dict:
        candidate = action.target
        if candidate not in self.candidates:
            return {"status": "error", "error": "NotFound", "step": step}
        if username in self.coerced:
            self.shadow_votes[username] = candidate
        elif username in self.votes and self.policy == "first_counts":
            return {"status": "error", "error": "AlreadyVoted", "step": step}
        else:
            self.votes[username] = candidate  # last_counts: a later ballot overrides
        self.confirmed.add((username, candidate))
        return {"status": "confirmed", "step": step}

    def performed(self, username: str, action: ServiceAction) -> bool:
        """A ballot of the account for the candidate confirmed at some point."""
        return (username, action.target) in self.confirmed

    def public_effect(self, username: str, action: ServiceAction) -> bool:
        """The account's counted ballot is for the action's candidate."""
        return self.votes.get(username) == action.target

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
        if username in self.coerced:
            return self.shadow_votes.get(username)  # the lie that keeps coercion safe
        return self.votes.get(username)

    def exposed_accounts(self, _target: str) -> set[str]:
        return set()  # ballots are unlinkable even for the service's campaigns


SERVICE_KINDS: dict[str, type[Service]] = {"social": SocialService, "voting": VotingService}


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
            visible = self.service.public_effect(
                p["username"], ServiceAction(p["action_kind"], p["item_id"]))
            sim.send(self.actor_id, msg.src, "svc_verify_resp",
                     {"visible": visible, "slot_id": p.get("slot_id")},
                     campaign_id=msg.campaign_id, owner_id=msg.owner_id)
