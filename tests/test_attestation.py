"""Attestation mesh: measurement gating, enlistment, key escrow rules."""
from __future__ import annotations

from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from leasim import attestation as att
from leasim import simnet
from leasim.ledger import BlockHeader

GOOD = att.Measurement("m-good")
EVIL = att.Measurement("m-evil")


def identity(enclave_id, kind="service", measurement=GOOD):
    return att.EnclaveIdentity(enclave_id, kind, measurement, f"pk:{enclave_id}")


class Sink:
    def __init__(self, actor_id):
        self.actor_id = actor_id

    def receive(self, msg, sim):
        pass


def mk_world(actors=("iface", "svc", "pay")):
    sim = simnet.Simulation(seed=7)
    for name in actors:
        sim.register(name, Sink(name))
    return sim, att.AttestationMesh(genuine={GOOD})


class TestAttest:
    def test_matching_measurement_logs_a_session(self):
        sim, mesh = mk_world()
        mesh.attest(sim, "iface", GOOD, identity("svc"))
        mesh.attest(sim, "svc", GOOD, identity("iface"))
        assert list(sim.log.lines) == [
            "t=0.000000 actor=iface kind=attested target=svc session=sess1",
            "t=0.000000 actor=svc kind=attested target=iface session=sess2",
        ]

    def test_mismatch_refused_before_any_secret_flows(self):
        sim, mesh = mk_world()
        with pytest.raises(att.MeasurementMismatch):
            mesh.attest(sim, "iface", GOOD, identity("svc", measurement=EVIL))
        assert "attest_mismatch" in sim.log.text()

    def test_killed_target_unreachable(self):
        sim, mesh = mk_world()
        sim.net.kill_enclave("svc", at_time=0.0)
        sim.run()
        with pytest.raises(att.Unreachable):
            mesh.attest(sim, "iface", GOOD, identity("svc"))


class TestEnlist:
    def test_enlist_records_key(self):
        sim, mesh = mk_world()
        rec = mesh.enlist(sim, identity("iface", "interface"), identity("pay", "payment"))
        assert rec.public_key == "pk:pay"
        assert mesh.is_enlisted("iface", "pay")

    def test_enlist_idempotent(self):
        sim, mesh = mk_world()
        iface, pay = identity("iface", "interface"), identity("pay", "payment")
        assert mesh.enlist(sim, iface, pay) is mesh.enlist(sim, iface, pay)

    def test_unknown_measurement_cannot_enlist(self):
        sim, mesh = mk_world()
        with pytest.raises(att.MeasurementMismatch):
            mesh.enlist(sim, identity("iface", "interface"),
                        identity("pay", "payment", measurement=EVIL))
        assert not mesh.is_enlisted("iface", "pay")


class TestEscrow:
    def setup_escrow(self):
        sim, mesh = mk_world()
        iface, pay = identity("iface", "interface"), identity("pay", "payment")
        mesh.enlist(sim, iface, pay)
        receipt = mesh.backup_keys(sim, pay, iface, key_handle="addr:share1")
        return sim, mesh, receipt

    def test_backup_requires_enlistment(self):
        sim, mesh = mk_world()
        with pytest.raises(att.NotEnlisted):
            mesh.backup_keys(sim, identity("pay", "payment"),
                             identity("iface", "interface"), "addr:x")

    def test_recovery_refused_while_alive(self):
        sim, mesh, _ = self.setup_escrow()
        with pytest.raises(att.RecoveryRefused):
            mesh.authorize_recovery(sim, "iface", "addr:share1")

    def test_recovery_after_crash_single_use(self):
        sim, mesh, receipt = self.setup_escrow()
        sim.net.kill_enclave("pay", at_time=1.0)
        sim.run()
        out = mesh.authorize_recovery(sim, "iface", "addr:share1")
        assert out.key_handle == "addr:share1" and out.used
        with pytest.raises(att.RecoveryRefused):
            mesh.authorize_recovery(sim, "iface", "addr:share1")

    def test_each_share_of_one_enclave_recovers_once(self):
        sim, mesh, _ = self.setup_escrow()
        iface, pay = identity("iface", "interface"), identity("pay", "payment")
        mesh.backup_keys(sim, pay, iface, key_handle="addr:share2")
        sim.net.kill_enclave("pay", at_time=1.0)
        sim.run()
        first = mesh.authorize_recovery(sim, "iface", "addr:share1")
        second = mesh.authorize_recovery(sim, "iface", "addr:share2")
        assert (first.key_handle, second.key_handle) == ("addr:share1", "addr:share2")
        with pytest.raises(att.RecoveryRefused):
            mesh.authorize_recovery(sim, "iface", "addr:share2")

    def test_recovery_only_by_the_escrowing_interface(self):
        sim, mesh, _ = self.setup_escrow()
        sim.net.kill_enclave("pay", at_time=1.0)
        sim.run()
        with pytest.raises(att.NotEnlisted):
            mesh.authorize_recovery(sim, "iface2", "addr:share1")

    def test_recovery_without_escrow(self):
        sim, mesh = mk_world()
        with pytest.raises(att.NotEnlisted):
            mesh.authorize_recovery(sim, "iface", "addr:share1")


def reference_contains_secret(obj) -> bool:
    """``contains_secret`` as a plain recursive walk, the oracle for its fast path."""
    if isinstance(obj, att.Secret):
        return True
    if isinstance(obj, dict):
        return any(reference_contains_secret(v) for v in obj.values())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return any(reference_contains_secret(v) for v in obj)
    return False


class SubSecret(att.Secret):
    pass


class SubDict(dict):
    pass


class SubList(list):
    pass


@dataclass(frozen=True)
class Holder:
    """An object that holds a Secret but is not a container."""

    inner: object


HEADER = BlockHeader(1, b"\0" * 32, b"\1" * 32, 7, b"\2" * 32)
_TEXT = st.text(max_size=3)
_SECRETS = st.one_of(st.builds(att.Secret, _TEXT, _TEXT), st.builds(SubSecret, _TEXT, _TEXT))
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), _TEXT, _SECRETS,
    st.just(HEADER), st.builds(Holder, _SECRETS),
)
HASHABLE = st.recursive(LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=3).map(tuple), st.frozensets(inner, max_size=3)), max_leaves=8)
VALUES = st.recursive(HASHABLE, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.lists(inner, max_size=4).map(SubList),
    st.dictionaries(_TEXT, inner, max_size=4),
    st.dictionaries(_TEXT, inner, max_size=4).map(SubDict),
    st.sets(HASHABLE, max_size=3),
    st.frozensets(HASHABLE, max_size=3),
), max_leaves=20)


class TestSecretTaint:
    def test_secret_repr_hides_material(self):
        s = att.Secret("owner1:password", "hunter2")
        assert "hunter2" not in repr(s)

    def test_contains_secret_scans_nested(self):
        s = att.Secret("cred", "x")
        assert att.contains_secret({"a": [1, {"b": (s,)}]})
        assert not att.contains_secret({"a": [1, {"b": "just strings"}]})

    def test_objects_are_not_looked_into(self):
        s = att.Secret("cred", "x")
        assert not att.contains_secret(Holder(s))
        assert not att.contains_secret(HEADER)
        assert not att.contains_secret({"h": HEADER, "w": [Holder(s), (Holder(s),)]})

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(LEAVES, HASHABLE, VALUES))
    def test_matches_the_recursive_walk(self, value):
        assert att.contains_secret(value) == reference_contains_secret(value)

