"""Deterministic virtual-time message bus with host-scoped interception.

The event loop is the only mutator: a heap keyed by (time, sequence) drives
actor callbacks, and every random draw flows through the simulation's single
seeded source. Identical (scenario, seed) pairs therefore produce bit-identical
event logs and reports.

Host powers are exactly drop, delay and kill, plus eclipse feeds (serving a
chosen fork to one owner's chain queries). The interception surface never
exposes payloads of attested sessions: rules match on message metadata only.
Cut points 1-5 name the five protocol messages an adversary can sever:

    1 renter latest-block   2 owner latest-block     3 service response
    4 return-deposit copy to renter                  5 reward-tx copy to owner

Every drop is logged with the single rule (and owning adversary) that caused
it, which is what fairness verdicts later cite as evidence.

Credentials and keys travel wrapped in ``Secret``. The simulation checks each
cleartext message as it is delivered or dropped and keeps the first one that
carries a Secret (``Simulation.secret_leak``), so no message has to outlive
its delivery for the report to check that no secret left an attested session.
"""
from __future__ import annotations

import hashlib
import heapq
import random
from dataclasses import dataclass, field

CUT_RENTER_CHAIN = 1
CUT_OWNER_CHAIN = 2
CUT_SERVICE_RESPONSE = 3
CUT_DEPOSIT_COPY = 4
CUT_REWARD_COPY = 5

CUT_POINTS = (
    CUT_RENTER_CHAIN,
    CUT_OWNER_CHAIN,
    CUT_SERVICE_RESPONSE,
    CUT_DEPOSIT_COPY,
    CUT_REWARD_COPY,
)


@dataclass(frozen=True)
class Session:
    """Attested channel marker: payloads are opaque to the host."""

    session_id: str
    peer_a: str
    peer_b: str
    established: bool = True


@dataclass(frozen=True)
class Secret:
    """Taint tag for credential/key material."""

    label: str
    value: str

    def __repr__(self) -> str:  # never leak material into logs
        return f"Secret({self.label})"


# Types contains_secret has met and found it never looks into. Whether it
# looks into a value depends only on the value's type, so this only grows.
_LEAF_TYPES: set[type] = set()


def contains_secret(obj) -> bool:
    """Whether ``obj`` is a Secret, or a dict, list, tuple, set or frozenset
    holding one at any depth. Other objects, dataclasses included, are not
    looked into."""
    if isinstance(obj, Secret):
        return True
    if isinstance(obj, dict):
        obj = obj.values()
    elif not isinstance(obj, (list, tuple, set, frozenset)):
        _LEAF_TYPES.add(type(obj))
        return False
    # Payloads are mostly flat: a value of a known leaf type costs no call.
    for value in obj:
        if type(value) not in _LEAF_TYPES and contains_secret(value):
            return True
    return False


@dataclass(slots=True)
class Message:
    msg_id: int
    src: str
    dst: str
    kind: str
    payload: dict
    send_time: float
    session: Session | None = None
    cut_point: int | None = None
    campaign_id: str | None = None
    owner_id: str | None = None
    step: int | None = None


@dataclass
class DropRule:
    rule_id: str
    owner: str  # adversary actor this rule belongs to (verdict attribution)
    cut_point: int | None = None
    kind: str | None = None
    src: str | None = None
    dst: str | None = None
    campaign_id: str | None = None
    owner_id: str | None = None
    step: int | None = None
    from_time: float = 0.0
    until_time: float | None = None
    active: bool = True

    def matches(self, msg: Message, now: float) -> bool:
        if not self.active or now < self.from_time:
            return False
        if self.until_time is not None and now > self.until_time:
            return False
        for want, got in (
            (self.cut_point, msg.cut_point),
            (self.kind, msg.kind),
            (self.src, msg.src),
            (self.dst, msg.dst),
            (self.campaign_id, msg.campaign_id),
            (self.owner_id, msg.owner_id),
            (self.step, msg.step),
        ):
            if want is not None and want != got:
                return False
        return True


@dataclass
class DelayRule:
    rule_id: str
    owner: str
    extra: float
    cut_point: int | None = None
    kind: str | None = None
    dst: str | None = None

    def matches(self, msg: Message) -> bool:
        for want, got in (
            (self.cut_point, msg.cut_point),
            (self.kind, msg.kind),
            (self.dst, msg.dst),
        ):
            if want is not None and want != got:
                return False
        return True


_DIGEST_CHUNK = 4096  # lines joined and encoded per hasher update


class EventLog:
    """Append-only event log; one line per event, stable field order."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self._hasher = hashlib.sha256()  # of the first ``_hashed`` lines, each + "\n"
        self._hashed = 0

    def emit(self, time: float, actor: str, kind: str, **ids) -> None:
        pairs = "".join([f" {key}={value}" for key, value in ids.items()])
        self.lines.append(f"t={time:.6f} actor={actor} kind={kind}{pairs}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    def digest(self) -> str:
        """SHA-256 of ``text()``. Each call hashes only the lines added since
        the last one, a chunk at a time, so the log's text is never built."""
        lines = self.lines
        if not lines:
            return hashlib.sha256(b"\n").hexdigest()  # text() of an empty log
        for start in range(self._hashed, len(lines), _DIGEST_CHUNK):
            chunk = lines[start:start + _DIGEST_CHUNK]
            self._hasher.update(("\n".join(chunk) + "\n").encode())
        self._hashed = len(lines)
        return self._hasher.copy().hexdigest()


class HostControl:
    """The infrastructure maintainer's entire power surface.

    Only drop/delay/kill/eclipse: no payload inspection, no enclave state
    mutation. Anything else the host "does" in a scenario must be expressed
    through these.

    ``drop_rules``/``delay_rules`` list the rules in install order; install
    them through ``set_cut``/``add_delay``. A message is checked only against
    the rules that can match it: the drop rules scoped to its cut point (or to
    none) and to its ``owner_id`` (or to none), and the delay rules scoped to
    its cut point (or to none). Those candidate lists are filled lazily per
    key, in install order, and live until the next rule of their kind is
    installed, which empties the index. An owner that no drop rule names has
    the candidates of a message with no owner, so it shares their key.
    """

    def __init__(self, sim: Simulation) -> None:
        self._sim = sim
        self.drop_rules: list[DropRule] = []
        self.delay_rules: list[DelayRule] = []
        # (cut_point, owner_id) -> drop rules that can match, in install order
        self._drops_for: dict[tuple[int | None, str | None], list[DropRule]] = {}
        self._scoped_owners: set[str | None] = set()  # owner_ids the drop rules name
        self._delays_for: dict[int | None, list[DelayRule]] = {}  # cut_point -> rules
        self.killed: dict[str, tuple[float, str]] = {}  # actor_id -> (time, rule_id)
        self.eclipse_feeds: dict[str, object] = {}  # owner_id -> chain supplier
        self._rule_seq = 0

    def _next_rule_id(self, prefix: str) -> str:
        self._rule_seq += 1
        return f"{prefix}{self._rule_seq}"

    def set_cut(self, cut_point: int | None = None, *, owner: str = "host", **scope) -> DropRule:
        rule = DropRule(
            rule_id=self._next_rule_id("cut"), owner=owner, cut_point=cut_point, **scope
        )
        self.drop_rules.append(rule)
        self._scoped_owners.add(rule.owner_id)
        self._drops_for.clear()
        self._sim.log.emit(
            self._sim.now, owner, "rule_set", rule=rule.rule_id,
            cut=cut_point if cut_point is not None else "-", match=rule.kind or "-",
        )
        return rule

    def clear_cut(self, rule: DropRule) -> None:
        rule.active = False
        self._sim.log.emit(self._sim.now, rule.owner, "rule_cleared", rule=rule.rule_id)

    def add_delay(self, extra: float, *, owner: str = "host", **scope) -> DelayRule:
        rule = DelayRule(
            rule_id=self._next_rule_id("delay"), owner=owner, extra=extra, **scope
        )
        self.delay_rules.append(rule)
        self._delays_for.clear()
        self._sim.log.emit(
            self._sim.now, owner, "rule_set", rule=rule.rule_id, delay=f"{extra:.6f}"
        )
        return rule

    def kill_enclave(self, actor_id: str, at_time: float, *, owner: str = "host") -> str:
        rule_id = self._next_rule_id("kill")

        def do_kill() -> None:
            if actor_id not in self.killed:
                self.killed[actor_id] = (self._sim.now, rule_id)
                self._sim.log.emit(self._sim.now, owner, "kill", target=actor_id, rule=rule_id)

        self._sim.schedule_at(at_time, do_kill)
        return rule_id

    def set_eclipse(self, owner_id: str, feed, *, owner: str = "host") -> str:
        rule_id = self._next_rule_id("eclipse")
        self.eclipse_feeds[owner_id] = feed
        self._sim.log.emit(self._sim.now, owner, "eclipse_set", target=owner_id, rule=rule_id)
        return rule_id

    def is_killed(self, actor_id: str) -> bool:
        return actor_id in self.killed

    def _drop_rule_for(self, msg: Message, now: float) -> DropRule | None:
        """The first rule, in install order, that drops ``msg`` at ``now``."""
        owner_id = msg.owner_id
        key = (msg.cut_point, owner_id if owner_id in self._scoped_owners else None)
        rules = self._drops_for.get(key)
        if rules is None:
            rules = self._drops_for[key] = [
                rule for rule in self.drop_rules
                if rule.cut_point in (None, key[0]) and rule.owner_id in (None, key[1])
            ]
        for rule in rules:
            if rule.matches(msg, now):
                return rule
        return None

    def _delayed(self, msg: Message, latency: float) -> float:
        """``latency`` plus every matching delay rule's extra, in install order."""
        rules = self._delays_for.get(msg.cut_point)
        if rules is None:
            rules = self._delays_for[msg.cut_point] = [
                rule for rule in self.delay_rules if rule.cut_point in (None, msg.cut_point)
            ]
        for rule in rules:
            if rule.matches(msg):
                latency += rule.extra
        return latency


class Simulation:
    """Discrete-event core: virtual clock, actor registry, network delivery.

    The queue holds ``(when, seq, fn, arg)``: a timer runs ``fn()`` (its
    ``arg`` is None) and a delivery runs ``fn(msg)``. ``seq`` advances once
    per scheduled item, so items due at the same instant run in the order
    they were scheduled.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.now = 0.0
        self.log = EventLog()
        self.actors: dict[str, object] = {}
        self.net = HostControl(self)
        self._queue: list[tuple[float, int, object, Message | None]] = []
        self._seq = 0
        self._msg_seq = 0
        self._stamp_at: float | None = None  # the sim.now that _stamp_text shows
        self._stamp_text = ""
        self.dropped: list[tuple[Message, str, str]] = []  # (msg, rule_id, rule_owner)
        self.dropped_unknown = 0  # messages to an unregistered actor
        # msg_ids of delivered messages; a Message is freed once its handler returns
        self.delivered: list[int] = []
        # the first cleartext message seen carrying a Secret, as verify reports it
        self.secret_leak: str | None = None

    # -- scheduling --------------------------------------------------------

    def schedule(self, delay: float, fn) -> None:
        self.schedule_at(self.now + delay, fn)

    def schedule_at(self, when: float, fn) -> None:
        if when < self.now:
            raise ValueError("cannot schedule into the past")
        self._seq += 1
        heapq.heappush(self._queue, (when, self._seq, fn, None))

    def schedule_for(self, actor_id: str, delay: float, fn) -> None:
        """Timer owned by an actor: silently skipped if the actor was killed."""

        def guarded() -> None:
            if not self.net.is_killed(actor_id):
                fn()

        self.schedule(delay, guarded)

    def run(self, until: float | None = None) -> None:
        queue, pop = self._queue, heapq.heappop
        while queue:
            if until is not None and queue[0][0] > until:
                break
            when, _, fn, arg = pop(queue)
            self.now = when
            if arg is None:
                fn()
            else:
                fn(arg)

    # -- actors and messages ----------------------------------------------

    def register(self, actor_id: str, actor: object) -> None:
        if actor_id in self.actors:
            raise ValueError(f"duplicate actor id {actor_id}")
        self.actors[actor_id] = actor

    def _stamp(self) -> str:
        """``t=<now> actor=``, the start of an event line at ``self.now``.

        Formatted once per virtual instant: many messages share one.
        """
        now = self.now
        if now != self._stamp_at:
            self._stamp_at = now
            self._stamp_text = f"t={now:.6f} actor="
        return self._stamp_text

    def _check_cleartext(self, msg: Message) -> None:
        """Record ``msg`` as the leak if the host can read a Secret in it.
        Called as each message is delivered or dropped."""
        if self.secret_leak is None and contains_secret(self.host_visible_payload(msg)):
            self.secret_leak = f"secret in cleartext {msg.kind} {msg.src}->{msg.dst}"

    def send(
        self,
        src: str,
        dst: str,
        kind: str,
        payload: dict,
        *,
        latency: float = 0.0,
        session: Session | None = None,
        cut_point: int | None = None,
        campaign_id: str | None = None,
        owner_id: str | None = None,
        step: int | None = None,
    ) -> Message:
        """Schedule delivery unless a drop rule fires; drops are attributed.

        Message lines are the hottest in the log, so they are written here
        and in ``_deliver`` straight into ``log.lines``, in the format
        ``EventLog.emit`` gives them (details as in docs/formats.md).
        """
        self._msg_seq += 1
        now = self.now
        msg = Message(self._msg_seq, src, dst, kind, payload, now, session,
                      cut_point, campaign_id, owner_id, step)
        tail = f" msg={self._msg_seq} src={src} dst={dst}"
        if cut_point is not None:
            tail += f" cut={cut_point}"
        if campaign_id is not None:
            tail += f" campaign={campaign_id}"
        if owner_id is not None:
            tail += f" owner={owner_id}"
        net, lines = self.net, self.log.lines
        killed = net.killed.get(src)
        if killed is not None:
            lines.append(f"{self._stamp()}{src} kind=send_blocked:{kind} rule={killed[1]}{tail}")
            return msg
        if net.drop_rules:
            rule = net._drop_rule_for(msg, now)
            if rule is not None:
                self._check_cleartext(msg)
                self.dropped.append((msg, rule.rule_id, rule.owner))
                lines.append(f"{self._stamp()}{src} kind=drop:{kind} rule={rule.rule_id}"
                             f" by={rule.owner}{tail}")
                return msg
        if net.delay_rules:
            latency = net._delayed(msg, latency)
        lines.append(f"{self._stamp()}{src} kind=send:{kind}{tail}")
        when = now + latency
        if when < now:
            raise ValueError("cannot schedule into the past")
        self._seq += 1
        heapq.heappush(self._queue, (when, self._seq, self._deliver, msg))
        return msg

    def _deliver(self, msg: Message) -> None:
        dst = msg.dst
        lines = self.log.lines
        killed = self.net.killed.get(dst)
        if killed is not None:
            rule_id = killed[1]
            lines.append(f"{self._stamp()}{dst} kind=drop_dead:{msg.kind}"
                         f" msg={msg.msg_id} rule={rule_id}")
            self._check_cleartext(msg)
            self.dropped.append((msg, rule_id, "host"))
            return
        actor = self.actors.get(dst)
        if actor is None:
            lines.append(f"{self._stamp()}{dst} kind=drop_unknown:{msg.kind} msg={msg.msg_id}")
            self._check_cleartext(msg)
            self.dropped_unknown += 1
            return
        lines.append(f"{self._stamp()}{dst} kind=recv:{msg.kind} msg={msg.msg_id} src={msg.src}")
        self._check_cleartext(msg)
        self.delivered.append(msg.msg_id)
        actor.receive(msg, self)

    def host_visible_payload(self, msg: Message) -> dict | None:
        """What the host's interception could read: None for attested traffic."""
        if msg.session is not None and msg.session.established:
            return None
        return msg.payload
