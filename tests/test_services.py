"""Service backends: pipeline atomicity, ghosts, voting privacy."""
from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from leasim import services, simnet
from leasim.services import ServiceAction


def mk_social(ghosts=()):
    svc = services.SocialService("news", items=["post1"], ghosts=ghosts)
    svc.add_account("alice", "pw-a")
    svc.add_account("bob", "pw-b")
    svc.add_account("spook", "pw-s")
    return svc


def mk_voting(policy="first_counts", coerced=()):
    svc = services.VotingService("poll", policy=policy, candidates=["red", "blue"],
                                 coerced=coerced)
    for name in ("u1", "u2", "u3"):
        svc.add_account(name, f"pw-{name}")
    return svc


def drive_pipeline(svc, key, user, pw, action):
    out = None
    for step in range(1, svc.PIPELINE_LENGTH + 1):
        out = svc.handle_request(key, step, user, pw, action)
        if out["status"] == "error":
            return out
    return out


def cast(svc, user, candidate):
    return drive_pipeline(svc, user, user, f"pw-{user}", ServiceAction("vote", candidate))


# each kind: a service, one of its accounts with its password, and an action
# that account may take
KINDS = {
    "social": (mk_social, "alice", "pw-a", ServiceAction("upvote", "post1")),
    "voting": (mk_voting, "u1", "pw-u1", ServiceAction("vote", "red")),
}


class TestPipeline:
    """The login-then-act pipeline every service kind shares."""

    @pytest.fixture(params=sorted(KINDS))
    def kind(self, request):
        make, user, pw, action = KINDS[request.param]
        return make(), user, pw, action

    def test_effect_only_at_final_step(self, kind):
        svc, user, pw, action = kind
        for step in range(1, svc.PIPELINE_LENGTH):
            assert svc.handle_request("k1", step, user, pw, action) == {
                "status": "ok", "step": step}
            assert not svc.performed(user, action), f"effect leaked at step {step}"
        out = svc.handle_request("k1", svc.PIPELINE_LENGTH, user, pw, action)
        assert out["status"] == "confirmed"
        assert svc.performed(user, action) and svc.public_effect(user, action)

    def test_out_of_order_step_rejected(self, kind):
        svc, user, pw, action = kind
        svc.handle_request("k1", 1, user, pw, action)
        out = svc.handle_request("k1", 3, user, pw, action)
        assert out["error"] == "BadPipelineOrder"
        assert not svc.performed(user, action)

    def test_auth_failed_stops_pipeline(self, kind):
        svc, user, _pw, action = kind
        out = drive_pipeline(svc, "k1", user, "wrong", action)
        assert out == {"status": "error", "error": "AuthFailed", "step": 1}
        assert not svc.performed(user, action)

    def test_step_past_the_last_rejected(self, kind):
        svc, user, pw, action = kind
        for step in range(1, svc.PIPELINE_LENGTH):
            svc.handle_request("k1", step, user, pw, action)
        out = svc.handle_request("k1", svc.PIPELINE_LENGTH + 1, user, pw, action)
        assert out["error"] == "BadPipelineOrder"
        assert not svc.performed(user, action)
        # and after the last step, the key starts over at a login
        drive_pipeline(svc, "k2", user, pw, action)
        out = svc.handle_request("k2", svc.PIPELINE_LENGTH + 1, user, pw, action)
        assert out["error"] == "BadPipelineOrder"

    def test_voting_step_three_does_not_cast(self):
        svc = mk_voting()
        action = ServiceAction("vote", "red")
        svc.handle_request("k1", 1, "u1", "pw-u1", action)
        out = svc.handle_request("k1", 3, "u1", "pw-u1", action)
        assert out == {"status": "error", "error": "BadPipelineOrder", "step": 3}
        assert svc.tallies() == {"blue": 0, "red": 0}
        # the login still stands, so the real cast goes through
        assert svc.handle_request("k1", 2, "u1", "pw-u1", action)["status"] == "confirmed"
        assert svc.tallies() == {"blue": 0, "red": 1}


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
        assert not svc.performed("alice", ServiceAction("upvote", "ghost-post"))

    def test_concurrent_pipelines_do_not_interfere(self):
        svc = mk_social()
        a, b = ServiceAction("upvote", "post1"), ServiceAction("post", "post1")
        svc.handle_request("ka", 1, "alice", "pw-a", a)
        svc.handle_request("kb", 1, "bob", "pw-b", b)
        for step in range(2, 6):
            svc.handle_request("ka", step, "alice", "pw-a", a)
            svc.handle_request("kb", step, "bob", "pw-b", b)
        assert svc.observe("post1") == {"upvote": 1, "post": 1}


def test_colludes_follows_the_lists():
    assert not mk_social().colludes and mk_social(ghosts=["spook"]).colludes
    assert not mk_voting().colludes and mk_voting(coerced=["u2"]).colludes


class TestGhostAccounts:
    def test_ghost_confirms_without_public_effect(self):
        svc = mk_social(ghosts=["spook"])
        action = ServiceAction("upvote", "post1")
        out = drive_pipeline(svc, "k1", "spook", "pw-s", action)
        assert out == {"status": "confirmed", "step": 5, "effect": "none"}
        assert svc.observe("post1") == {}
        assert svc.performed("spook", action) and not svc.public_effect("spook", action)

    def test_colluding_view_still_sees_ghost_activity(self):
        svc = mk_social(ghosts=["spook"])
        drive_pipeline(svc, "k1", "spook", "pw-s", ServiceAction("upvote", "post1"))
        drive_pipeline(svc, "k2", "alice", "pw-a", ServiceAction("upvote", "post1"))
        assert svc.exposed_accounts("post1") == {"spook", "alice"}
        assert svc.exposed_accounts("nowhere") == set()


class TestRevert:
    def test_revert_removes_public_effect(self):
        svc = mk_social()
        action = ServiceAction("upvote", "post1")
        drive_pipeline(svc, "k1", "alice", "pw-a", action)
        svc.revert("alice", "post1", "upvote")
        assert svc.observe("post1") == {"upvote": 0}
        assert not svc.public_effect("alice", action)
        assert svc.performed("alice", action)  # it happened, and was undone

    def test_revert_without_action(self):
        svc = mk_social()
        with pytest.raises(services.NothingToRevert):
            svc.revert("alice", "post1", "upvote")

    def test_revert_all_undoes_every_action_of_the_account(self):
        svc = mk_social()
        svc.items["post0"] = services.ItemState("post0")
        for n, (user, pw, item_id) in enumerate([("alice", "pw-a", "post1"),
                                                 ("bob", "pw-b", "post1"),
                                                 ("alice", "pw-a", "post0")]):
            drive_pipeline(svc, f"k{n}", user, pw, ServiceAction("upvote", item_id))
        assert svc.revert_all("alice", "pw-a") == [("post0", "upvote"), ("post1", "upvote")]
        assert svc.actions_of("alice", "pw-a") == []
        assert (svc.observe("post0"), svc.observe("post1")) == ({"upvote": 0}, {"upvote": 1})
        with pytest.raises(services.AuthFailed):
            svc.revert_all("bob", "wrong")

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
    def test_agrees_with_a_reference_set(self, ops):
        """``public_effect``, ``performed`` and ``actions_of`` against sets the
        test keeps itself: an action is public from a non-ghost confirmation
        until its revert, and performed from any confirmation on."""
        svc = mk_social(ghosts=["spook"])
        svc.items["post2"] = services.ItemState("post2")
        public: dict[tuple[str, str, str], None] = {}  # in the order applied
        confirmed = set()
        for n, (op, user, item_id, kind) in enumerate(ops):
            key = (user, item_id, kind)
            if op == "apply":
                out = drive_pipeline(svc, f"k{n}", user, _PASSWORDS[user],
                                     ServiceAction(kind, item_id))
                if out["status"] == "confirmed":
                    confirmed.add(key)
                    if user != "spook":
                        public[key] = None
            else:
                try:
                    svc.revert(user, item_id, kind)
                except services.NothingToRevert:
                    assert key not in public
                else:
                    del public[key]
            for probe_user in _USERS:
                for probe_item in ("post1", "post2", "nowhere"):
                    for probe_kind in ("upvote", "post"):
                        probe = ServiceAction(probe_kind, probe_item)
                        probe_key = (probe_user, probe_item, probe_kind)
                        assert svc.public_effect(probe_user, probe) is (
                            probe_key in public), (n, ops[:n + 1])
                        assert svc.performed(probe_user, probe) is (probe_key in confirmed)
                mine = [(i, k) for u, i, k in public if u == probe_user]
                assert svc.actions_of(probe_user, _PASSWORDS[probe_user]) == sorted(
                    mine, key=lambda pair: pair[0])


class TestVoting:
    def test_first_counts_rejects_revote(self):
        svc = mk_voting()
        assert cast(svc, "u1", "red")["status"] == "confirmed"
        out = cast(svc, "u1", "blue")
        assert out["error"] == "AlreadyVoted"
        assert svc.tallies() == {"blue": 0, "red": 1}

    def test_last_counts_overrides(self):
        svc = mk_voting(policy="last_counts")
        cast(svc, "u1", "red")
        out = cast(svc, "u1", "blue")
        assert out["status"] == "confirmed"
        assert svc.tallies() == {"blue": 1, "red": 0}

    def test_ground_truth_reads_the_candidate(self):
        """A refused second ballot is neither performed nor counted for its
        candidate; the first stays both."""
        svc = mk_voting()
        cast(svc, "u1", "red")
        assert cast(svc, "u1", "blue")["error"] == "AlreadyVoted"
        red, blue = ServiceAction("vote", "red"), ServiceAction("vote", "blue")
        assert svc.performed("u1", red) and svc.public_effect("u1", red)
        assert not svc.performed("u1", blue) and not svc.public_effect("u1", blue)

    def test_last_counts_effect_moves_to_the_later_candidate(self):
        svc = mk_voting(policy="last_counts")
        cast(svc, "u1", "red")
        cast(svc, "u1", "blue")
        red, blue = ServiceAction("vote", "red"), ServiceAction("vote", "blue")
        assert not svc.public_effect("u1", red) and svc.public_effect("u1", blue)
        # the replaced ballot was confirmed all the same
        assert svc.performed("u1", red) and svc.performed("u1", blue)

    def test_coerced_ballots_stay_performed_and_never_count(self):
        svc = mk_voting(coerced=["u1"])
        cast(svc, "u1", "red")
        cast(svc, "u1", "blue")
        red, blue = ServiceAction("vote", "red"), ServiceAction("vote", "blue")
        assert svc.performed("u1", red) and svc.performed("u1", blue)
        assert not svc.public_effect("u1", red) and not svc.public_effect("u1", blue)
        assert svc.verify_my_vote("u1", "pw-u1") == "blue"

    def test_a_ballot_cannot_be_reverted(self):
        svc = mk_voting()
        cast(svc, "u1", "red")
        assert svc.revert_all("u1", "pw-u1") == []
        assert svc.tallies() == {"blue": 0, "red": 1}

    def test_unknown_candidate(self):
        svc = mk_voting()
        assert cast(svc, "u1", "green")["error"] == "NotFound"
        assert not svc.performed("u1", ServiceAction("vote", "green"))

    def test_verify_my_vote_requires_credentials(self):
        svc = mk_voting()
        cast(svc, "u1", "red")
        assert svc.verify_my_vote("u1", "pw-u1") == "red"
        with pytest.raises(services.AuthFailed):
            svc.verify_my_vote("u1", "stolen-guess")

    def test_observer_view_is_unlinkable_metamorphic(self):
        """Permuting which voter chose which candidate leaves every observer
        visible artifact identical: tallies only, no identities."""

        def observer_view(assignment):
            svc = mk_voting()
            for user, cand in assignment:
                cast(svc, user, cand)
            return (svc.tallies(), svc.exposed_accounts("poll"))

        a = observer_view([("u1", "red"), ("u2", "blue"), ("u3", "red")])
        b = observer_view([("u3", "red"), ("u1", "blue"), ("u2", "red")])
        assert a == b
        assert a == ({"blue": 1, "red": 2}, set())


class TestCoercedCredentials:
    def test_shadow_vote_confirms_but_never_counts(self):
        svc = mk_voting(coerced=["u2"])
        out = cast(svc, "u2", "red")
        assert out["status"] == "confirmed"  # indistinguishable from a real cast
        assert svc.tallies() == {"blue": 0, "red": 0}
        action = ServiceAction("vote", "red")
        assert svc.performed("u2", action) and not svc.public_effect("u2", action)

    def test_verification_repeats_the_lie(self):
        svc = mk_voting(coerced=["u2"])
        cast(svc, "u2", "red")
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
