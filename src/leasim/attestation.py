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


@dataclass
class EscrowReceipt:
    payment_id: str
    interface_id: str
    key_handle: str  # address whose notes the escrowed key can spend
    used: bool = False


class AttestationMesh:
    """Registry of genuine measurements, each actor's measurement, enlistments
    and key escrows. Actors are named by id throughout."""

    def __init__(self, genuine: set[Measurement]):
        self.genuine = set(genuine)
        self.measurements: dict[str, Measurement] = {}  # actor id -> its code's digest
        self._session_seq = 0
        self.enlisted: dict[str, set[str]] = {}  # interface id -> enlisted enclave ids
        self.escrows: dict[str, EscrowReceipt] = {}  # share address -> receipt

    def launch(self, actor_id: str, measurement: Measurement) -> None:
        """Record the measurement of the code ``actor_id`` runs."""
        self.measurements[actor_id] = measurement

    # -- attestation -------------------------------------------------------

    def attest(self, sim: Simulation, caller_id: str, expected: Measurement,
               target_id: str) -> None:
        """Measurement-gated session setup; a killed target is unreachable."""
        if sim.net.is_killed(target_id):
            sim.log.emit(sim.now, caller_id, "attest_unreachable", target=target_id)
            raise Unreachable(target_id)
        if self.measurements.get(target_id) != expected:
            # no session, no secrets sent
            sim.log.emit(sim.now, caller_id, "attest_mismatch", target=target_id)
            raise MeasurementMismatch(target_id)
        self._session_seq += 1
        sim.log.emit(
            sim.now, caller_id, "attested", target=target_id,
            session=f"sess{self._session_seq}"
        )

    # -- enlistment --------------------------------------------------------

    def enlist(self, sim: Simulation, interface_id: str, other_id: str) -> None:
        """Mutual attestation, then key exchange; idempotent per enclave id."""
        registry = self.enlisted.setdefault(interface_id, set())
        if other_id in registry:
            return
        for side in (other_id, interface_id):
            if self.measurements.get(side) not in self.genuine:
                sim.log.emit(sim.now, interface_id, "attest_mismatch", target=side)
                raise MeasurementMismatch(side)
        self.attest(sim, interface_id, self.measurements[other_id], other_id)
        self.attest(sim, other_id, self.measurements[interface_id], interface_id)
        registry.add(other_id)
        sim.log.emit(sim.now, interface_id, "enlisted", enclave=other_id)

    def is_enlisted(self, interface_id: str, enclave_id: str) -> bool:
        return enclave_id in self.enlisted.get(interface_id, ())

    # -- key escrow / crash recovery --------------------------------------

    def backup_keys(self, sim: Simulation, payment_id: str, interface_id: str,
                    key_handle: str) -> EscrowReceipt:
        if not self.is_enlisted(interface_id, payment_id):
            raise NotEnlisted(payment_id)
        receipt = EscrowReceipt(payment_id=payment_id, interface_id=interface_id,
                                key_handle=key_handle)
        self.escrows[key_handle] = receipt
        sim.log.emit(sim.now, interface_id, "keys_escrowed", payment=payment_id)
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
