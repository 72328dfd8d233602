"""Virtual-time network: determinism, drop attribution, host power surface."""
from __future__ import annotations

import gc
import hashlib
import random
import tracemalloc

import pytest

from leasim import simnet


class Recorder:
    def __init__(self, actor_id: str):
        self.actor_id = actor_id
        self.inbox: list[tuple[float, str, object]] = []

    def receive(self, msg, sim):
        self.inbox.append((sim.now, msg.kind, msg.payload))


def mk_sim(seed=1, actors=("a", "b")):
    sim = simnet.Simulation(seed=seed)
    recs = {name: Recorder(name) for name in actors}
    for name, rec in recs.items():
        sim.register(name, rec)
    return sim, recs


class TestDelivery:
    def test_zero_latency_same_tick(self):
        sim, recs = mk_sim()
        sim.send("a", "b", "ping", {"x": 1})
        sim.run()
        assert recs["b"].inbox == [(0.0, "ping", {"x": 1})]

    def test_latency_orders_delivery(self):
        sim, recs = mk_sim()
        sim.send("a", "b", "slow", {}, latency=2.5)
        sim.send("a", "b", "fast", {}, latency=0.5)
        sim.run()
        assert [k for _, k, _ in recs["b"].inbox] == ["fast", "slow"]
        assert [t for t, _, _ in recs["b"].inbox] == [0.5, 2.5]

    def test_fifo_among_equal_times(self):
        sim, recs = mk_sim()
        for i in range(5):
            sim.send("a", "b", f"m{i}", {}, latency=1.0)
        sim.run()
        assert [k for _, k, _ in recs["b"].inbox] == [f"m{i}" for i in range(5)]

    def test_schedule_into_past_rejected(self):
        sim, _ = mk_sim()
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(4.0, lambda: None)

    def test_send_into_past_rejected_before_numbering_or_logging(self):
        sim, recs = mk_sim()
        sim.schedule_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.send("a", "b", "ping", {}, latency=-1.0)
        assert (len(sim.log.lines), sim._msg_seq, sim._queue) == (0, 0, [])
        # the check is on the latency after delay rules
        sim.net.add_delay(2.0)
        msg = sim.send("a", "b", "ping", {}, latency=-1.0)
        sim.run()
        assert msg.msg_id == 1 and recs["b"].inbox == [(6.0, "ping", {})]

    def test_duplicate_registration_rejected(self):
        sim, _ = mk_sim()
        with pytest.raises(ValueError):
            sim.register("a", Recorder("a"))


class TestDeterminism:
    def scripted_run(self, seed):
        sim, recs = mk_sim(seed, actors=("a", "b", "c"))
        for i in range(20):
            dst = sim.rng.choice(["b", "c"])
            sim.send("a", dst, "msg", {"i": i}, latency=sim.rng.uniform(0.1, 2.0))
        sim.run()
        return sim.log.digest(), list(sim.delivered)

    def test_same_seed_same_trace(self):
        assert self.scripted_run(42) == self.scripted_run(42)

    def test_different_seed_different_trace(self):
        assert self.scripted_run(42) != self.scripted_run(43)


class TestDropRules:
    def test_cut_matches_and_attributes(self):
        sim, recs = mk_sim()
        rule = sim.net.set_cut(kind="svc_confirm")
        sim.send("a", "b", "svc_confirm", {})
        sim.send("a", "b", "other", {})
        sim.run()
        assert [k for _, k, _ in recs["b"].inbox] == ["other"]
        (msg, rule_id, by) = sim.dropped[0]
        assert msg.kind == "svc_confirm" and rule_id == rule.rule_id and by == "host"

    def test_first_matching_rule_wins(self):
        sim, recs = mk_sim()
        r1 = sim.net.set_cut(dst="b", owner="one")
        sim.net.set_cut(kind="x", owner="two")
        sim.send("a", "b", "x", {})
        sim.run()
        assert sim.dropped[0][1] == r1.rule_id and sim.dropped[0][2] == "one"

    def test_time_window(self):
        sim, recs = mk_sim()
        sim.net.set_cut(kind="x", from_time=1.0, until_time=2.0)
        sim.schedule_at(0.5, lambda: sim.send("a", "b", "x", {"n": 1}))
        sim.schedule_at(1.5, lambda: sim.send("a", "b", "x", {"n": 2}))
        sim.schedule_at(2.5, lambda: sim.send("a", "b", "x", {"n": 3}))
        sim.run()
        assert [p["n"] for _, _, p in recs["b"].inbox] == [1, 3]

    def test_cut_point_scoping(self):
        sim, recs = mk_sim()
        sim.net.set_cut(simnet.CUT_DEPOSIT_COPY)
        sim.send("a", "b", "tx_copy", {"t": "dep"}, cut_point=simnet.CUT_DEPOSIT_COPY)
        sim.send("a", "b", "tx_copy", {"t": "rew"}, cut_point=simnet.CUT_REWARD_COPY)
        sim.run()
        assert [p["t"] for _, _, p in recs["b"].inbox] == ["rew"]

    def test_owner_scoping(self):
        sim, recs = mk_sim()
        sim.net.set_cut(simnet.CUT_OWNER_CHAIN, owner_id="o1", owner="o1")
        sim.send("a", "b", "chain_view", {"o": 1}, cut_point=simnet.CUT_OWNER_CHAIN, owner_id="o1")
        sim.send("a", "b", "chain_view", {"o": 2}, cut_point=simnet.CUT_OWNER_CHAIN, owner_id="o2")
        sim.run()
        assert [p["o"] for _, _, p in recs["b"].inbox] == [2]


class TestDelayRules:
    def test_delay_adds_latency(self):
        sim, recs = mk_sim()
        sim.net.add_delay(3.0, kind="x")
        sim.send("a", "b", "x", {}, latency=1.0)
        sim.run()
        assert recs["b"].inbox[0][0] == 4.0

    def test_delay_beyond_deadline_equals_drop(self):
        """Timeout-equivalence oracle: a message delayed past the receiver's
        deadline produces the same observable decision as dropping it."""

        def run(tamper):
            sim, recs = mk_sim()
            verdict = []
            if tamper == "delay":
                sim.net.add_delay(10.0, kind="answer")
            elif tamper == "drop":
                sim.net.set_cut(kind="answer")
            sim.send("b", "a", "answer", {}, latency=1.0)
            sim.schedule_at(
                5.0,
                lambda: verdict.append(
                    "ok" if any(k == "answer" for _, k, _ in recs["a"].inbox) else "timeout"
                ),
            )
            sim.run()
            return verdict[0]

        assert run(None) == "ok"
        assert run("delay") == run("drop") == "timeout"


class TestRuleIndex:
    """Rules are indexed by cut point and owner; matching must equal an
    install-order scan."""

    def test_interleaved_rules_attribute_first_match_in_install_order(self):
        sim, _ = mk_sim()
        cut2, cut5 = simnet.CUT_OWNER_CHAIN, simnet.CUT_REWARD_COPY
        sim.net.set_cut(cut5, owner_id="o1", owner="early5")
        sim.net.set_cut(kind="x", owner="wild")  # a cut-5 candidate after early5
        sim.net.set_cut(cut2, owner="late2")  # cut-2 candidates: the wildcard, then late2
        sim.net.set_cut(cut5, owner="late5")
        sent = [
            (cut5, "x", "o1", "early5"),
            (cut5, "x", "o2", "wild"),
            (cut5, "y", "o2", "late5"),
            (cut2, "x", "o1", "wild"),
            (cut2, "y", "o1", "late2"),
            (None, "x", "o1", "wild"),
        ]
        for cut, kind, owner_id, _ in sent:
            sim.send("a", "b", kind, {}, cut_point=cut, owner_id=owner_id)
        sim.send("a", "b", "y", {})  # no cut point, no wildcard for kind y
        assert [by for _msg, _rule, by in sim.dropped] == [by for *_, by in sent]

    def test_random_rule_sets_agree_with_install_order_scan(self):
        """Installs and sends interleave, so sends meet index entries filled
        before a later install."""
        rng = random.Random(3)
        for _ in range(40):
            sim, _ = mk_sim()
            for _ in range(60):
                step = rng.random()
                if step < 0.15:
                    sim.net.set_cut(
                        rng.choice([None, *simnet.CUT_POINTS]),
                        kind=rng.choice([None, "x", "y"]),
                        owner_id=rng.choice([None, "o1", "o2"]),
                    )
                    continue
                cut = rng.choice([None, *simnet.CUT_POINTS])
                msg = sim.send("a", "b", rng.choice(["x", "y"]), {}, cut_point=cut,
                               owner_id=rng.choice([None, "o1", "o2", "o3"]))
                drops = [r for r in sim.net.rules if r.extra is None]
                first = next((r for r in drops if r.matches(msg, sim.now)), None)
                dropped = sim.dropped and sim.dropped[-1][0] is msg
                assert (sim.dropped[-1][1] if dropped else None) == (
                    first.rule_id if first else None)

    def test_owner_rule_installed_after_that_owners_sends_drops_the_next(self):
        sim, recs = mk_sim()
        cut = simnet.CUT_OWNER_CHAIN
        # names o1, so o1's cut-2 sends fill an index entry of their own
        sim.net.set_cut(simnet.CUT_REWARD_COPY, owner_id="o1")
        for t in (0.5, 1.5):
            sim.schedule_at(t, lambda t=t: sim.send("a", "b", "chain_view", {"t": t},
                                                    cut_point=cut, owner_id="o1"))
        sim.schedule_at(1.0, lambda: sim.net.set_cut(cut, owner_id="o1", owner="mid"))
        sim.run()
        assert [p["t"] for _, _, p in recs["b"].inbox] == [0.5]
        assert [by for *_, by in sim.dropped] == ["mid"]

    def test_rule_installed_mid_run_applies_to_later_sends(self):
        sim, recs = mk_sim()
        cut = simnet.CUT_REWARD_COPY
        sim.net.set_cut(cut, owner_id="other")  # rules exist, so sends consult the index
        sim.schedule_at(1.0, lambda: sim.net.set_cut(cut, kind="tx_copy", owner="mid5"))
        sim.schedule_at(2.0, lambda: sim.net.set_cut(kind="z", owner="midwild"))
        for t in (0.5, 1.5, 2.5):
            sim.schedule_at(t, lambda t=t: sim.send("a", "b", "tx_copy", {"t": t}, cut_point=cut))
            sim.schedule_at(t, lambda t=t: sim.send("a", "b", "z", {"t": t}, cut_point=cut))
        sim.run()
        assert [(k, p["t"]) for _, k, p in recs["b"].inbox] == [
            ("tx_copy", 0.5), ("z", 0.5), ("z", 1.5)]
        assert [by for *_, by in sim.dropped] == ["mid5", "mid5", "midwild"]

    def test_window_holds_for_cut_scoped_rules(self):
        sim, recs = mk_sim()
        cut = simnet.CUT_DEPOSIT_COPY
        sim.net.set_cut(cut, from_time=1.0, until_time=2.0, owner="window")
        for n, t in enumerate((0.5, 1.5, 2.5)):
            sim.schedule_at(t, lambda n=n: sim.send("a", "b", "tx_copy", {"n": n}, cut_point=cut))
        sim.run()
        assert [p["n"] for _, _, p in recs["b"].inbox] == [0, 2]
        assert [by for *_, by in sim.dropped] == ["window"]

    def test_delay_rules_at_a_cut_point_add_up(self):
        sim, recs = mk_sim()
        sim.net.add_delay(1.0, cut_point=simnet.CUT_DEPOSIT_COPY)
        sim.net.add_delay(0.5, kind="tx_copy")
        sim.net.add_delay(2.0, cut_point=simnet.CUT_REWARD_COPY)
        sim.net.add_delay(0.25, cut_point=simnet.CUT_DEPOSIT_COPY, dst="b")
        sim.send("a", "b", "tx_copy", {"c": 4}, latency=1.0, cut_point=simnet.CUT_DEPOSIT_COPY)
        sim.send("a", "b", "tx_copy", {"c": 5}, latency=1.0, cut_point=simnet.CUT_REWARD_COPY)
        sim.send("a", "b", "tx_copy", {"c": 0}, latency=1.0)
        sim.run()
        assert sorted((p["c"], t) for t, _, p in recs["b"].inbox) == [
            (0, 1.5), (4, 2.75), (5, 3.5)]

    def test_send_with_no_cut_point_or_owner_reads_the_wildcard_bucket(self):
        sim, recs = mk_sim()
        sim.net.set_cut(simnet.CUT_OWNER_CHAIN, kind="probe", dst="b", owner="cut2")
        sim.send("a", "b", "probe", {"n": 0})
        sim.run()
        sim.net.set_cut(kind="probe", dst="b", owner="wild")
        sim.send("a", "b", "probe", {"n": 1})
        sim.run()
        assert [p["n"] for _, _, p in recs["b"].inbox] == [0]
        assert [by for *_, by in sim.dropped] == ["wild"]

    def test_send_checks_only_rules_at_its_cut_point(self, monkeypatch):
        checked = []
        matches = simnet.DropRule.matches

        def counting(rule, msg, now):
            checked.append((rule.rule_id, msg.cut_point))
            return matches(rule, msg, now)

        monkeypatch.setattr(simnet.DropRule, "matches", counting)
        sim, recs = mk_sim()
        sim.net.set_cut(simnet.CUT_REWARD_COPY, owner_id="o1")
        wild = sim.net.set_cut(kind="never")
        sim.send("a", "b", "chain_view", {}, cut_point=simnet.CUT_OWNER_CHAIN, owner_id="o1")
        sim.send("a", "b", "poll", {})
        sim.run()
        assert len(recs["b"].inbox) == 2
        assert checked == [(wild.rule_id, simnet.CUT_OWNER_CHAIN), (wild.rule_id, None)]


class TestKillAndTimers:
    def test_killed_actor_stops_receiving(self):
        sim, recs = mk_sim()
        sim.net.kill_enclave("b", at_time=1.0)
        sim.schedule_at(0.5, lambda: sim.send("a", "b", "early", {}))
        sim.schedule_at(1.5, lambda: sim.send("a", "b", "late", {}))
        sim.run()
        assert [k for _, k, _ in recs["b"].inbox] == ["early"]
        assert sim.dropped[0][2] == "host"

    def test_killed_actor_cannot_send(self):
        sim, recs = mk_sim()
        sim.net.kill_enclave("a", at_time=0.0)
        sim.schedule_at(1.0, lambda: sim.send("a", "b", "x", {}))
        sim.run()
        assert recs["b"].inbox == []
        assert "send_blocked:x" in sim.log.text()

    def test_actor_timer_skipped_after_kill(self):
        sim, recs = mk_sim()
        fired = []
        sim.schedule_for("b", 2.0, lambda: fired.append("beat"))
        sim.net.kill_enclave("b", at_time=1.0)
        sim.run()
        assert fired == []


class TestHostPowerSurface:
    def test_attested_payload_opaque_to_host(self, monkeypatch):
        sim, recs = mk_sim()
        msg = sim.send("a", "b", "svc_request", {"password": "pw"})
        sim.run()
        assert sim.delivered == [msg.msg_id]
        assert sim.host_visible_payload(msg) is None
        assert recs["b"].inbox[0][2] == {"password": "pw"}
        # sealing is the kind's: out of the set, the same message is readable
        monkeypatch.setattr(simnet, "SEALED_KINDS", simnet.SEALED_KINDS - {"svc_request"})
        assert sim.host_visible_payload(msg) == {"password": "pw"}

    def test_unsessioned_payload_visible(self):
        sim, _ = mk_sim()
        msg = sim.send("a", "b", "tx_broadcast", {"tx": "..."})
        sim.run()
        assert sim.delivered == [msg.msg_id]
        assert "tx_broadcast" not in simnet.SEALED_KINDS
        assert sim.host_visible_payload(msg) == {"tx": "..."}

    def test_host_control_has_no_forge_primitive(self):
        # the only mutations exposed are drop/delay/kill/eclipse style controls
        public = {n for n in vars(simnet.HostControl) if not n.startswith("_")}
        assert public == {
            "set_cut", "add_delay", "kill_enclave", "set_eclipse", "is_killed"
        }


class TestEventLog:
    def test_log_lines_carry_time_actor_kind(self):
        sim, _ = mk_sim()
        sim.send("a", "b", "ping", {}, latency=1.25)
        sim.run()
        text = sim.log.text()
        assert "t=0.000000 actor=a kind=send:ping" in text
        assert "t=1.250000 actor=b kind=recv:ping" in text

    def test_digest_is_content_hash(self):
        sim, _ = mk_sim()
        sim.send("a", "b", "ping", {})
        sim.run()
        assert sim.log.digest() == hashlib.sha256(sim.log.text().encode()).hexdigest()

    def test_digest_follows_further_emits(self):
        log = simnet.EventLog()
        assert log.digest() == hashlib.sha256(b"\n").hexdigest()
        for n in range(3):
            log.emit(float(n), "a", "tick", n=n)
            assert log.digest() == hashlib.sha256(log.text().encode()).hexdigest()
            assert log.digest() == log.digest()

    def test_digest_mid_run_and_after_more_lines(self):
        sim, _recs = mk_sim()
        checks = []

        def check():
            text_digest = hashlib.sha256(sim.log.text().encode()).hexdigest()
            checks.append((len(sim.log.lines), sim.log.digest() == text_digest))

        # enough lines that later digests span several hashed chunks
        sends = simnet._DIGEST_CHUNK * 3 // 2
        for n in range(sends):
            sim.schedule(n * 0.01, lambda n=n: sim.send("a", "b", "ping", {"n": n}))
        for at in (0.005, sends * 0.005 + 0.005):
            sim.schedule(at, check)
        sim.run()
        check()
        sim.log.emit(sim.now, "a", "tick")
        check()
        sizes = [size for size, _same in checks]
        assert all(same for _size, same in checks)
        assert sizes == sorted(set(sizes)) and sizes[0] > 0
        assert sizes[1] > simnet._DIGEST_CHUNK and sizes[-1] > 2 * simnet._DIGEST_CHUNK

    def test_lines_view_across_seals(self):
        chunk = simnet._DIGEST_CHUNK
        log = simnet.EventLog()
        for n in range(2 * chunk + 3):
            log.emit(n / 8, "a", "tick", n=n)
        want = [emitted(n / 8, "a", "tick", n=n) for n in range(2 * chunk + 3)]
        lines = log.lines
        assert len(lines) == len(want)
        assert list(lines) == want
        assert "\n".join(lines) + "\n" == log.text()

    def test_sealed_log_keeps_little_more_than_its_text(self):
        """Past the first seal the log holds fewer than a chunk of line
        objects, and not much more memory than its text's bytes."""
        chunk = simnet._DIGEST_CHUNK
        rests = [f"tick n={n:06d} ".ljust(76, "x") for n in range(3 * chunk + 5)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            log = simnet.EventLog()
            for rest in rests:
                log.write(1.0, "a", rest)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        text = log.text().encode()
        assert len(text) == len(rests) * 101  # 100-character lines
        assert strs_held_by(log) < chunk
        assert grown <= 1.25 * len(text)

    def test_line_keeps_detail_order(self):
        log = simnet.EventLog()
        log.emit(1.5, "a", "k", zeta=2, alpha="x")
        log.emit(0.0, "b", "bare")
        assert list(log.lines) == ["t=1.500000 actor=a kind=k zeta=2 alpha=x",
                                   "t=0.000000 actor=b kind=bare"]

    def test_write_takes_the_line_after_kind(self):
        log = simnet.EventLog()
        log.write(1.5, "a", "k x=1")
        log.emit(1.5, "a", "k", x=1)
        log.write(2.0, "b", "bare")
        assert list(log.lines) == ["t=1.500000 actor=a kind=k x=1"] * 2 + [
            "t=2.000000 actor=b kind=bare"]


def strs_held_by(obj) -> int:
    """How many str objects ``obj`` reaches through its attributes and
    containers."""
    seen, todo, found = set(), [obj], 0
    while todo:
        item = todo.pop()
        if id(item) in seen or isinstance(item, type):
            continue
        seen.add(id(item))
        if type(item) is str:
            found += 1
        todo.extend(gc.get_referents(item))
    return found


def emitted(time, actor, kind, **details):
    """The line EventLog.emit writes for these arguments."""
    log = simnet.EventLog()
    log.emit(time, actor, kind, **details)
    return list(log.lines)[0]


# (send keyword arguments, the log details they add), in docs/formats.md order
SCOPES = [
    ({}, {}),
    ({"cut_point": 3}, {"cut": 3}),
    ({"campaign_id": "iface:0:c1", "owner_id": "o7"}, {"campaign": "iface:0:c1", "owner": "o7"}),
    ({"cut_point": 2, "campaign_id": "iface:0:c1", "owner_id": "o7", "step": 4},
     {"cut": 2, "campaign": "iface:0:c1", "owner": "o7"}),
]


class TestMessageLines:
    """Send and delivery lines, through EventLog.write, in emit's format."""

    @pytest.mark.parametrize("scope,ids", SCOPES)
    def test_send_and_recv(self, scope, ids):
        sim, _ = mk_sim()
        sim.send("a", "b", "ping", {}, latency=0.5, **scope)
        sim.run()
        assert list(sim.log.lines) == [
            emitted(0.0, "a", "send:ping", msg=1, src="a", dst="b", **ids),
            emitted(0.5, "b", "recv:ping", msg=1, src="a"),
        ]

    @pytest.mark.parametrize("scope,ids", SCOPES)
    def test_drop_cites_rule_first(self, scope, ids):
        sim, _ = mk_sim()
        rule = sim.net.set_cut(owner="adv", kind="ping")
        sim.send("a", "b", "ping", {}, **scope)
        assert list(sim.log.lines)[-1] == emitted(
            0.0, "a", "drop:ping", rule=rule.rule_id, by="adv", msg=1, src="a", dst="b", **ids)

    @pytest.mark.parametrize("scope,ids", SCOPES)
    def test_killed_sender_is_blocked(self, scope, ids):
        sim, _ = mk_sim()
        kill = sim.net.kill_enclave("a", at_time=0.5)
        sim.schedule_at(1.25, lambda: sim.send("a", "b", "ping", {}, **scope))
        sim.run()
        assert list(sim.log.lines)[-1] == emitted(
            1.25, "a", "send_blocked:ping", rule=kill, msg=1, src="a", dst="b", **ids)

    def test_killed_receiver_drops_dead(self):
        sim, _ = mk_sim()
        kill = sim.net.kill_enclave("b", at_time=0.5)
        sim.send("a", "b", "ping", {}, latency=1.0, **SCOPES[-1][0])
        sim.run()
        assert list(sim.log.lines)[-1] == emitted(1.0, "b", "drop_dead:ping", msg=1, rule=kill)
        assert [(m.msg_id, rule, by) for m, rule, by in sim.dropped] == [(1, kill, "host")]

    def test_unknown_receiver(self):
        sim, _ = mk_sim()
        sim.send("a", "nobody", "ping", {}, latency=0.75)
        sim.run()
        assert list(sim.log.lines)[-1] == emitted(0.75, "nobody", "drop_unknown:ping", msg=1)
        assert sim.delivered == [] and sim.dropped == []

    def test_message_fields(self):
        sim, _ = mk_sim()
        msg = sim.send("a", "b", "ping", {"x": 1}, **SCOPES[-1][0])
        assert msg == simnet.Message(
            msg_id=1, src="a", dst="b", kind="ping", payload={"x": 1}, send_time=0.0,
            cut_point=2, campaign_id="iface:0:c1", owner_id="o7", step=4)
        assert not hasattr(msg, "__dict__")


class TestTimePrefix:
    def stamps(self, sim):
        return [line.split(" actor=")[0] for line in sim.log.lines]

    def test_same_and_different_instants(self):
        sim, _ = mk_sim()
        sim.send("a", "b", "x", {})  # before run
        sim.send("a", "b", "y", {})
        for at in (1.0000004, 1.0000006, 2.5, 2.5):
            sim.schedule_at(at, lambda: sim.send("a", "b", "z", {}, latency=0.25))
        sim.run()
        sends = [s for s, line in zip(self.stamps(sim), sim.log.lines) if "kind=send:" in line]
        recvs = [s for s, line in zip(self.stamps(sim), sim.log.lines) if "kind=recv:" in line]
        assert sends == ["t=0.000000", "t=0.000000", "t=1.000000", "t=1.000001",
                         "t=2.500000", "t=2.500000"]
        assert recvs == ["t=0.000000", "t=0.000000", "t=1.250000", "t=1.250001",
                         "t=2.750000", "t=2.750000"]

    def test_follows_now_set_directly(self):
        sim, _ = mk_sim()
        sim.send("a", "b", "x", {})
        sim.now = 3.5
        sim.send("a", "b", "x", {})
        sim.now = 0.0
        sim.send("a", "b", "x", {})
        assert self.stamps(sim) == ["t=0.000000", "t=3.500000", "t=0.000000"]


class TestQueueOrder:
    def test_timer_and_delivery_at_one_instant_fire_in_seq_order(self):
        sim = simnet.Simulation(seed=1)
        order = []

        class Actor:
            def receive(self, msg, sim):
                order.append(msg.kind)

        sim.register("a", Actor())
        sim.register("b", Actor())
        sim.schedule_at(1.0, lambda: order.append("timer1"))
        sim.send("a", "b", "m1", {}, latency=1.0)
        sim.schedule_at(1.0, lambda: order.append("timer2"))
        sim.send("a", "b", "m2", {}, latency=1.0)
        sim.schedule_at(0.5, lambda: sim.send("a", "b", "m3", {}, latency=0.5))
        sim.run()
        assert order == ["timer1", "m1", "timer2", "m2", "m3"]

    def test_seq_counts_scheduled_items_and_msg_seq_counts_sends(self):
        sim, _ = mk_sim()
        sim.net.set_cut(kind="cut")
        sim.schedule(1.0, lambda: None)
        sim.schedule_for("a", 2.0, lambda: None)
        sim.send("a", "b", "ok", {})
        sim.send("a", "b", "cut", {})
        sim.send("a", "nobody", "ok", {})
        assert (sim._seq, sim._msg_seq) == (4, 3)
        sim.run()
        assert (sim._seq, sim._msg_seq) == (4, 3)
