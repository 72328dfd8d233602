"""Mock attestation and enlistment mesh.

Attestation is digest equality against the mesh's genuine measurement set
(the runner passes its one build, ``GENUINE``). ``attest`` logs the id of
each session it opens, and raises instead when the target is dead or not
genuine. The kinds sent between attested peers are simnet's
``SEALED_KINDS``, whose payloads the host cannot read (it may still drop or
delay the packets).
Payment enclaves escrow a backup spend key with the interface enclave, one
escrow per share they hold; an escrow is usable only once its enclave has been
observed dead, and a swept share is marked so a resurrected enclave can never
race the recovery.

Secrets (credentials, keys) are taint-tagged with the Secret wrapper (defined
in simnet, which checks the wire, and re-exported here). The invariant that no
secret crosses a non-attested channel is ``verify``'s ``no_unsessioned_secrets``:
the simulation checks each message of a cleartext kind as it is delivered or
dropped.
"""
from __future__ import annotations

from dataclasses import dataclass

from leasim.simnet import Secret, Simulation, contains_secret


class AttestationError(Exception):
    pass


class MeasurementMismatch(AttestationError):
    pass


class Unreachable(AttestationError):
    pass


class NotEnlisted(AttestationError):
    pass


class RecoveryRefused(AttestationError):
    pass


@dataclass(frozen=True)
class Measurement:
    digest: str  # equal digests <=> identical enclave code


@dataclass(frozen=True)
class EnclaveIdentity:
    enclave_id: str
    kind: str  # interface | service | payment
    measurement: Measurement
    public_key: str


@dataclass
class EscrowReceipt:
    payment_id: str
    interface_id: str
    key_handle: str  # address whose notes the escrowed key can spend
    used: bool = False


class AttestationMesh:
    """Registry of genuine measurements, enlistments and key escrows."""

    def __init__(self, genuine: set[Measurement]):
        self.genuine = set(genuine)
        self._session_seq = 0
        # interface id -> enclave id -> the enlisted enclave's identity
        self.enlisted: dict[str, dict[str, EnclaveIdentity]] = {}
        self.escrows: dict[str, EscrowReceipt] = {}  # share address -> receipt

    # -- attestation -------------------------------------------------------

    def attest(self, sim: Simulation, caller_id: str, expected: Measurement,
               target: EnclaveIdentity) -> None:
        """Measurement-gated session setup; a killed target is unreachable."""
        if sim.net.is_killed(target.enclave_id):
            sim.log.emit(sim.now, caller_id, "attest_unreachable", target=target.enclave_id)
            raise Unreachable(target.enclave_id)
        if target.measurement != expected:
            # no session, no secrets sent
            sim.log.emit(sim.now, caller_id, "attest_mismatch", target=target.enclave_id)
            raise MeasurementMismatch(target.enclave_id)
        self._session_seq += 1
        sim.log.emit(
            sim.now, caller_id, "attested", target=target.enclave_id,
            session=f"sess{self._session_seq}"
        )

    # -- enlistment --------------------------------------------------------

    def enlist(self, sim: Simulation, interface: EnclaveIdentity,
               other: EnclaveIdentity) -> EnclaveIdentity:
        """Mutual attestation, then key exchange; idempotent per enclave_id."""
        registry = self.enlisted.setdefault(interface.enclave_id, {})
        if other.enclave_id in registry:
            return registry[other.enclave_id]
        for side in (other, interface):
            if side.measurement not in self.genuine:
                sim.log.emit(
                    sim.now, interface.enclave_id, "attest_mismatch", target=side.enclave_id
                )
                raise MeasurementMismatch(side.enclave_id)
        self.attest(sim, interface.enclave_id, other.measurement, other)
        self.attest(sim, other.enclave_id, interface.measurement, interface)
        registry[other.enclave_id] = other
        sim.log.emit(sim.now, interface.enclave_id, "enlisted", enclave=other.enclave_id)
        return other

    def is_enlisted(self, interface_id: str, enclave_id: str) -> bool:
        return enclave_id in self.enlisted.get(interface_id, {})

    # -- key escrow / crash recovery --------------------------------------

    def backup_keys(self, sim: Simulation, payment: EnclaveIdentity,
                    interface: EnclaveIdentity, key_handle: str) -> EscrowReceipt:
        if not self.is_enlisted(interface.enclave_id, payment.enclave_id):
            raise NotEnlisted(payment.enclave_id)
        receipt = EscrowReceipt(
            payment_id=payment.enclave_id,
            interface_id=interface.enclave_id,
            key_handle=key_handle,
        )
        self.escrows[key_handle] = receipt
        sim.log.emit(
            sim.now, interface.enclave_id, "keys_escrowed", payment=payment.enclave_id
        )
        return receipt

    def authorize_recovery(self, sim: Simulation, interface_id: str,
                           key_handle: str) -> EscrowReceipt:
        """Release one share's escrowed key, only once its enclave is observed dead."""
        receipt = self.escrows.get(key_handle)
        if receipt is None or receipt.interface_id != interface_id:
            raise NotEnlisted(key_handle)
        payment_id = receipt.payment_id
        if not sim.net.is_killed(payment_id):
            raise RecoveryRefused(f"{payment_id} is alive")
        if receipt.used:
            raise RecoveryRefused(f"escrow for {key_handle} already swept")
        receipt.used = True
        sim.log.emit(sim.now, interface_id, "recovery_authorized", payment=payment_id)
        return receipt
