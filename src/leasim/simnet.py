"""Deterministic virtual-time message bus with host-scoped interception.

The event loop is the only mutator: a heap keyed by (time, sequence) drives
actor callbacks, and every random draw flows through the simulation's single
seeded source. Identical (scenario, seed) pairs therefore produce bit-identical
event logs and reports.

Host powers are exactly drop, delay and kill, plus eclipse feeds (serving a
chosen fork to one owner's chain queries). Rules match on message metadata
only. Whether the host can read a payload is a property of the message kind:
the kinds in ``SEALED_KINDS`` travel sealed, and every other kind is
cleartext. Cut points 1-5 name the five protocol messages an
adversary can sever; a cut point is set per send site, since one kind
(``tx_copy``) rides different cuts to different receivers:

    1 renter latest-block   2 owner latest-block     3 service response
    4 return-deposit copy to renter                  5 reward-tx copy to owner

Every drop is logged with the single rule (and owning adversary) that caused
it, which is what fairness verdicts later cite as evidence.

Credentials and keys travel wrapped in ``Secret``. The simulation checks each
cleartext message as it is delivered or dropped and keeps the first one that
carries a Secret (``Simulation.secret_leak``), so no message has to outlive
its delivery for the report to check that no secret travelled in cleartext.
"""
from __future__ import annotations

import hashlib
import heapq
import random
from dataclasses import dataclass

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

# The message kinds whose payloads the host cannot read: each travels between
# attested peers, or, for svc_request, over TLS to the service. Every other
# kind is cleartext.
SEALED_KINDS = frozenset({
    "enroll", "gossip_batch", "quote_request", "quote", "quote_failed",
    "start_campaign", "start_failed", "campaign_started", "share_assign",
    "batch", "settle", "cancel_campaign", "release_share", "svc_request",
})


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
    cut_point: int | None = None
    campaign_id: str | None = None
    owner_id: str | None = None
    step: int | None = None


@dataclass
class DropRule:
    """A host rule: a matching message is dropped, or, when ``extra`` is
    set, delayed by ``extra``."""

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
    extra: float | None = None

    def matches(self, msg: Message, now: float) -> bool:
        if now < self.from_time:
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


_DIGEST_CHUNK = 512  # lines sealed into one UTF-8 chunk


class EventLog:
    """Append-only event log; one line per event, stable field order.

    The log's text is its lines, each followed by "\\n". Every
    ``_DIGEST_CHUNK`` lines are sealed into one chunk of that text, encoded
    as UTF-8, and their ``str`` objects are dropped; only the lines written
    since the last seal stay open as ``str``. ``lines`` reads them all back.
    A line holds no "\\n".
    """

    def __init__(self) -> None:
        self._chunks: list[bytes] = []  # sealed, each ``_DIGEST_CHUNK`` lines
        self._open: list[str] = []  # written since the last seal
        self._sealed = 0  # lines in ``_chunks``
        self._hasher = hashlib.sha256()  # of the first ``_hashed`` chunks
        self._hashed = 0
        self._stamp_at: float | None = None  # the time ``_stamp`` shows
        self._stamp = ""

    def write(self, time: float, actor: str, rest: str) -> None:
        """Append ``t=<time> actor=<actor> kind=<rest>``, the format of every
        line. The time prefix is formatted once per instant: many lines
        share one."""
        if time != self._stamp_at:
            self._stamp_at = time
            self._stamp = f"t={time:.6f} actor="
        lines = self._open
        lines.append(f"{self._stamp}{actor} kind={rest}")
        if len(lines) == _DIGEST_CHUNK:
            lines.append("")  # so the join ends the last line with "\n"
            self._chunks.append("\n".join(lines).encode())
            self._sealed += _DIGEST_CHUNK
            self._open = []

    def emit(self, time: float, actor: str, kind: str, **ids) -> None:
        pairs = "".join([f" {key}={value}" for key, value in ids.items()])
        self.write(time, actor, kind + pairs)

    @property
    def lines(self) -> LogLines:
        """Every line written, oldest first, as a read-only view."""
        return LogLines(self)

    def _open_text(self) -> bytes:
        """The open lines' part of ``text()``, encoded."""
        if self._open or not self._chunks:  # an empty log's text is "\n"
            return ("\n".join(self._open) + "\n").encode()
        return b""

    def encoded(self):
        """Yield ``text()`` encoded as UTF-8, in pieces: the sealed chunks as
        they are, then the open lines."""
        yield from self._chunks
        yield self._open_text()

    def text(self) -> str:
        return b"".join(self.encoded()).decode()

    def digest(self) -> str:
        """SHA-256 of ``text()``. Each call hashes only the chunks sealed
        since the last one, plus the open lines."""
        chunks = self._chunks
        for chunk in chunks[self._hashed:]:
            self._hasher.update(chunk)
        self._hashed = len(chunks)
        hasher = self._hasher.copy()
        hasher.update(self._open_text())
        return hasher.hexdigest()


class LogLines:
    """A read-only view of an EventLog's lines, sealed and open, in order.

    ``len`` costs nothing and iteration decodes one chunk at a time."""

    __slots__ = ("_log",)

    def __init__(self, log: EventLog) -> None:
        self._log = log

    def __len__(self) -> int:
        return self._log._sealed + len(self._log._open)

    def __iter__(self):
        log = self._log
        for chunk in log._chunks:
            yield from chunk.decode().split("\n")[:-1]
        yield from log._open


class HostControl:
    """The infrastructure maintainer's entire power surface.

    Only drop/delay/kill/eclipse: no payload inspection, no enclave state
    mutation. Anything else the host "does" in a scenario must be expressed
    through these.

    ``rules`` lists the drop and delay rules in install order; install them
    through ``set_cut``/``add_delay``. A message is checked only against the
    rules that can match it: those scoped to its cut point (or to none) and
    to its ``owner_id`` (or to none). Those candidate lists are filled lazily
    per key, in install order, and live until the next rule is installed,
    which empties the index. An owner that no rule names has the candidates
    of a message with no owner, so it shares their key.
    """

    def __init__(self, sim: Simulation) -> None:
        self._sim = sim
        self.rules: list[DropRule] = []
        # (cut_point, owner_id) -> rules that can match, in install order
        self._candidates: dict[tuple[int | None, str | None], list[DropRule]] = {}
        self._scoped_owners: set[str | None] = set()  # owner_ids the rules name
        self.killed: dict[str, tuple[float, str]] = {}  # actor_id -> (time, rule_id)
        self.eclipse_feeds: dict[str, object] = {}  # owner_id -> chain supplier
        self._rule_seq = 0

    def _next_rule_id(self, prefix: str) -> str:
        self._rule_seq += 1
        return f"{prefix}{self._rule_seq}"

    def _install(self, rule: DropRule) -> None:
        self.rules.append(rule)
        self._scoped_owners.add(rule.owner_id)
        self._candidates.clear()

    def set_cut(self, cut_point: int | None = None, *, owner: str = "host", **scope) -> DropRule:
        rule = DropRule(
            rule_id=self._next_rule_id("cut"), owner=owner, cut_point=cut_point, **scope
        )
        self._install(rule)
        self._sim.log.emit(
            self._sim.now, owner, "rule_set", rule=rule.rule_id,
            cut=cut_point if cut_point is not None else "-", match=rule.kind or "-",
        )
        return rule

    def add_delay(self, extra: float, *, owner: str = "host", **scope) -> DropRule:
        rule = DropRule(
            rule_id=self._next_rule_id("delay"), owner=owner, extra=extra, **scope
        )
        self._install(rule)
        self._sim.log.emit(
            self._sim.now, owner, "rule_set", rule=rule.rule_id, delay=f"{extra:.6f}"
        )
        return rule

    def kill_enclave(self, actor_id: str, at_time: float) -> str:
        rule_id = self._next_rule_id("kill")

        def do_kill() -> None:
            if actor_id not in self.killed:
                self.killed[actor_id] = (self._sim.now, rule_id)
                self._sim.log.emit(self._sim.now, "host", "kill", target=actor_id, rule=rule_id)

        self._sim.schedule_at(at_time, do_kill)
        return rule_id

    def set_eclipse(self, owner_id: str, feed) -> str:
        rule_id = self._next_rule_id("eclipse")
        self.eclipse_feeds[owner_id] = feed
        self._sim.log.emit(self._sim.now, "host", "eclipse_set", target=owner_id, rule=rule_id)
        return rule_id

    def is_killed(self, actor_id: str) -> bool:
        return actor_id in self.killed

    def _fate(self, msg: Message, now: float,
              latency: float) -> tuple[DropRule | None, float]:
        """``(rule, latency)`` for ``msg`` sent at ``now``: the first drop rule
        that matches it, in install order, or None and ``latency`` plus every
        matching delay rule's extra, added in install order."""
        owner_id = msg.owner_id
        key = (msg.cut_point, owner_id if owner_id in self._scoped_owners else None)
        rules = self._candidates.get(key)
        if rules is None:
            rules = self._candidates[key] = [
                rule for rule in self.rules
                if rule.cut_point in (None, key[0]) and rule.owner_id in (None, key[1])
            ]
        for rule in rules:
            if rule.matches(msg, now):
                if rule.extra is None:
                    return rule, latency
                latency += rule.extra
        return None, latency


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
        cut_point: int | None = None,
        campaign_id: str | None = None,
        owner_id: str | None = None,
        step: int | None = None,
    ) -> Message:
        """Schedule delivery unless a drop rule fires; drops are attributed.
        Message lines carry the details docs/formats.md lists.

        Raises ValueError, having numbered, logged and scheduled nothing,
        when the delivery time, after delay rules, is before now."""
        now = self.now
        msg = Message(self._msg_seq + 1, src, dst, kind, payload, now, cut_point,
                      campaign_id, owner_id, step)
        net = self.net
        killed = net.killed.get(src)
        rule = None
        if killed is None and net.rules:
            rule, latency = net._fate(msg, now, latency)
        when = now + latency
        if killed is None and rule is None and when < now:
            raise ValueError("cannot schedule into the past")
        self._msg_seq += 1
        tail = f" msg={self._msg_seq} src={src} dst={dst}"
        if cut_point is not None:
            tail += f" cut={cut_point}"
        if campaign_id is not None:
            tail += f" campaign={campaign_id}"
        if owner_id is not None:
            tail += f" owner={owner_id}"
        write = self.log.write
        if killed is not None:
            write(now, src, f"send_blocked:{kind} rule={killed[1]}{tail}")
            return msg
        if rule is not None:
            self._check_cleartext(msg)
            self.dropped.append((msg, rule.rule_id, rule.owner))
            write(now, src, f"drop:{kind} rule={rule.rule_id} by={rule.owner}{tail}")
            return msg
        write(now, src, f"send:{kind}{tail}")
        self._seq += 1
        heapq.heappush(self._queue, (when, self._seq, self._deliver, msg))
        return msg

    def _deliver(self, msg: Message) -> None:
        dst, now = msg.dst, self.now
        killed = self.net.killed.get(dst)
        if killed is not None:
            rule_id = killed[1]
            self.log.write(now, dst, f"drop_dead:{msg.kind} msg={msg.msg_id} rule={rule_id}")
            self._check_cleartext(msg)
            self.dropped.append((msg, rule_id, "host"))
            return
        actor = self.actors.get(dst)
        if actor is None:
            self.log.write(now, dst, f"drop_unknown:{msg.kind} msg={msg.msg_id}")
            self._check_cleartext(msg)
            self.dropped_unknown += 1
            return
        self.log.write(now, dst, f"recv:{msg.kind} msg={msg.msg_id} src={msg.src}")
        self._check_cleartext(msg)
        self.delivered.append(msg.msg_id)
        actor.receive(msg, self)

    def host_visible_payload(self, msg: Message) -> dict | None:
        """What the host's interception could read: None for a sealed kind."""
        if msg.kind in SEALED_KINDS:
            return None
        return msg.payload
