"""Service backends: pipeline atomicity, ghosts, voting privacy."""
from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from leasim import services, simnet
from leasim.services import ServiceAction


def mk_social(**kw):
    svc = services.SocialService("news", **kw)
    svc.add_account("alice", "pw-a")
    svc.add_account("bob", "pw-b")
    svc.add_item("post1")
    return svc


def drive_pipeline(svc, key, user, pw, action):
    out = None
    for step in range(1, svc.PIPELINE_LENGTH + 1):
        out = svc.handle_request(key, step, user, pw, action)
        if out["status"] == "error":
            return out
    return out


class TestSocialPipeline:
    def test_effect_only_at_final_step(self):
        svc = mk_social()
        action = ServiceAction("upvote", "post1")
        for step in range(1, 5):
            svc.handle_request("k1", step, "alice", "pw-a", action)
            assert svc.observe("post1") == {}, f"effect leaked at step {step}"
        out = svc.handle_request("k1", 5, "alice", "pw-a", action)
        assert out == {"status": "confirmed", "step": 5, "effect": "applied"}
        assert svc.observe("post1") == {"upvote": 1}

    def test_out_of_order_step_rejected(self):
        svc = mk_social()
        action = ServiceAction("upvote", "post1")
        svc.handle_request("k1", 1, "alice", "pw-a", action)
        out = svc.handle_request("k1", 3, "alice", "pw-a", action)
        assert out["error"] == "BadPipelineOrder"
        assert svc.observe("post1") == {}

    def test_auth_failed_stops_pipeline(self):
        svc = mk_social()
        out = drive_pipeline(svc, "k1", "alice", "wrong", ServiceAction("upvote", "post1"))
        assert out["error"] == "AuthFailed"
        assert svc.observe("post1") == {}

    def test_duplicate_action_clean_rejection(self):
        svc = mk_social()
        action = ServiceAction("upvote", "post1")
        drive_pipeline(svc, "k1", "alice", "pw-a", action)
        out = drive_pipeline(svc, "k2", "alice", "pw-a", action)
        assert out["error"] == "DuplicateAction"
        assert svc.observe("post1") == {"upvote": 1}

    def test_unknown_target(self):
        svc = mk_social()
        out = drive_pipeline(svc, "k1", "alice", "pw-a", ServiceAction("upvote", "ghost-post"))
        assert out["error"] == "NotFound"

    def test_concurrent_pipelines_do_not_interfere(self):
        svc = mk_social()
        a, b = ServiceAction("upvote", "post1"), ServiceAction("post", "post1")
        svc.handle_request("ka", 1, "alice", "pw-a", a)
        svc.handle_request("kb", 1, "bob", "pw-b", b)
        for step in range(2, 6):
            svc.handle_request("ka", step, "alice", "pw-a", a)
            svc.handle_request("kb", step, "bob", "pw-b", b)
        assert svc.observe("post1") == {"upvote": 1, "post": 1}


class TestGhostAccounts:
    def test_ghost_confirms_without_public_effect(self):
        svc = mk_social()
        svc.add_account("spook", "pw-s", ghost=True)
        out = drive_pipeline(svc, "k1", "spook", "pw-s", ServiceAction("upvote", "post1"))
        assert out == {"status": "confirmed", "step": 5, "effect": "none"}
        assert svc.observe("post1") == {}
        assert not svc.public_effect_exists("spook", "post1", "upvote")

    def test_colluding_view_still_sees_ghost_activity(self):
        svc = mk_social(collusion=True)
        svc.add_account("spook", "pw-s", ghost=True)
        drive_pipeline(svc, "k1", "spook", "pw-s", ServiceAction("upvote", "post1"))
        drive_pipeline(svc, "k2", "alice", "pw-a", ServiceAction("upvote", "post1"))
        assert svc.exposed_accounts("post1") == {"spook", "alice"}


class TestHiddenItems:
    def test_hidden_item_needs_link(self):
        svc = mk_social()
        svc.add_item("secret", hidden=True)
        drive_pipeline(svc, "k1", "alice", "pw-a", ServiceAction("upvote", "secret"))
        with pytest.raises(services.NotFound):
            svc.observe("secret")
        assert svc.observe("secret", has_link=True) == {"upvote": 1}


class TestRevert:
    def test_revert_removes_public_effect(self):
        svc = mk_social()
        drive_pipeline(svc, "k1", "alice", "pw-a", ServiceAction("upvote", "post1"))
        svc.revert("alice", "post1", "upvote")
        assert svc.observe("post1") == {"upvote": 0}
        assert not svc.public_effect_exists("alice", "post1", "upvote")

    def test_revert_without_action(self):
        svc = mk_social()
        with pytest.raises(services.NothingToRevert):
            svc.revert("alice", "post1", "upvote")

    def test_reverted_action_can_be_reapplied(self):
        # the duplicate check follows the applied set, not history
        svc = mk_social()
        drive_pipeline(svc, "k1", "alice", "pw-a", ServiceAction("upvote", "post1"))
        svc.revert("alice", "post1", "upvote")
        out = drive_pipeline(svc, "k2", "alice", "pw-a", ServiceAction("upvote", "post1"))
        assert out["effect"] == "applied"


_PASSWORDS = {"alice": "pw-a", "bob": "pw-b", "spook": "pw-s"}  # spook is a ghost
_USERS = tuple(_PASSWORDS)
_OPS = st.lists(st.tuples(st.sampled_from(("apply", "revert")), st.sampled_from(_USERS),
                          st.sampled_from(("post1", "post2", "nowhere")),
                          st.sampled_from(("upvote", "post"))), max_size=30)


class TestPublicEffect:
    @settings(max_examples=60, deadline=None)
    @given(_OPS)
    def test_agrees_with_the_items_public_actions(self, ops):
        svc = mk_social()
        svc.add_item("post2")
        svc.add_account("spook", "pw-s", ghost=True)
        for n, (op, user, item_id, kind) in enumerate(ops):
            if op == "apply":
                drive_pipeline(svc, f"k{n}", user, _PASSWORDS[user],
                               ServiceAction(kind, item_id))
            else:
                try:
                    svc.revert(user, item_id, kind)
                except services.NothingToRevert:
                    pass
            for probe_user in _USERS:
                for probe_item in ("post1", "post2", "nowhere"):
                    for probe_kind in ("upvote", "post"):
                        item = svc.items.get(probe_item)
                        expect = item is not None and (
                            probe_user, probe_kind) in item.public_actions
                        assert svc.public_effect_exists(
                            probe_user, probe_item, probe_kind) is expect, (n, ops[:n + 1])


def mk_voting(policy="first_counts", fake=()):
    svc = services.VotingService("poll", policy=policy, fake_credentials=set(fake))
    for name in ("u1", "u2", "u3"):
        svc.add_account(name, f"pw-{name}")
    svc.add_candidate("red")
    svc.add_candidate("blue")
    return svc


class TestVoting:
    def test_first_counts_rejects_revote(self):
        svc = mk_voting()
        assert svc.cast_vote("u1", "pw-u1", "red")["status"] == "confirmed"
        out = svc.cast_vote("u1", "pw-u1", "blue")
        assert out["error"] == "AlreadyVoted"
        assert svc.tallies() == {"blue": 0, "red": 1}

    def test_last_counts_overrides(self):
        svc = mk_voting(policy="last_counts")
        svc.cast_vote("u1", "pw-u1", "red")
        out = svc.cast_vote("u1", "pw-u1", "blue")
        assert out["status"] == "confirmed"
        assert svc.tallies() == {"blue": 1, "red": 0}

    def test_unknown_candidate(self):
        svc = mk_voting()
        assert svc.cast_vote("u1", "pw-u1", "green")["error"] == "NotFound"

    def test_verify_my_vote_requires_credentials(self):
        svc = mk_voting()
        svc.cast_vote("u1", "pw-u1", "red")
        assert svc.verify_my_vote("u1", "pw-u1") == "red"
        with pytest.raises(services.AuthFailed):
            svc.verify_my_vote("u1", "stolen-guess")

    def test_observer_view_is_unlinkable_metamorphic(self):
        """Permuting which voter chose which candidate leaves every observer
        visible artifact identical: tallies only, no identities."""

        def observer_view(assignment):
            svc = mk_voting()
            for user, cand in assignment:
                svc.cast_vote(user, f"pw-{user}", cand)
            return (svc.tallies(), svc.dump(), svc.exposed_accounts("poll"))

        a = observer_view([("u1", "red"), ("u2", "blue"), ("u3", "red")])
        b = observer_view([("u3", "red"), ("u1", "blue"), ("u2", "red")])
        assert a == b
        assert a[2] == set()
        assert "u1" not in a[1]


class TestCoercedCredentials:
    def test_shadow_vote_confirms_but_never_counts(self):
        svc = mk_voting(fake=("u2",))
        out = svc.cast_vote("u2", "pw-u2", "red")
        assert out["status"] == "confirmed"  # indistinguishable from a real cast
        assert svc.tallies() == {"blue": 0, "red": 0}
        assert not svc.counted("u2")

    def test_verification_repeats_the_lie(self):
        svc = mk_voting(fake=("u2",))
        svc.cast_vote("u2", "pw-u2", "red")
        assert svc.verify_my_vote("u2", "pw-u2") == "red"


class Collector:
    def __init__(self, actor_id):
        self.actor_id = actor_id
        self.msgs = []

    def receive(self, msg, sim):
        self.msgs.append(msg)


class TestActorAdapter:
    def drive(self, payload_step, svc=None):
        sim = simnet.Simulation(seed=3)
        svc = svc or mk_social()
        proxy = Collector("proxy:o1")
        sim.register("proxy:o1", proxy)
        sim.register("svc:news", services.ServiceActorAdapter("svc:news", svc))
        for step in range(1, payload_step + 1):
            sim.send(
                "proxy:o1", "svc:news", "svc_request",
                {"state_key": "slot7", "step": step, "username": "alice",
                 "password": "pw-a", "action_kind": "upvote", "action_target": "post1",
                 "slot_id": "slot7"},
                campaign_id="c1", owner_id="o1",
            )
            sim.run()
        return sim, svc, proxy

    def test_intermediate_steps_are_plain_responses(self):
        _, _, proxy = self.drive(4)
        assert [m.kind for m in proxy.msgs] == ["svc_response"] * 4
        assert all(m.cut_point is None for m in proxy.msgs)

    def test_final_step_is_cut_three_confirm(self):
        sim, svc, proxy = self.drive(5)
        final = proxy.msgs[-1]
        assert final.kind == "svc_confirm"
        assert final.cut_point == simnet.CUT_SERVICE_RESPONSE
        assert final.payload["effect"] == "applied" and final.payload["slot_id"] == "slot7"
        assert svc.observe("post1") == {"upvote": 1}

    def test_verify_roundtrip(self):
        sim, svc, proxy = self.drive(5)
        sim.send("proxy:o1", "svc:news", "svc_verify",
                 {"username": "alice", "item_id": "post1", "action_kind": "upvote",
                  "slot_id": "slot7"})
        sim.run()
        resp = proxy.msgs[-1]
        assert resp.kind == "svc_verify_resp" and resp.payload["visible"] is True
