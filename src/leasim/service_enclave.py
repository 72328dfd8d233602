"""Service enclave: runs action slots through owners' devices.

Each slot goes through: the consistency gate (one ``chain_query`` to the
owner's device, which answers with a ``chain_view`` of its owner's headers at
the renter view's heights, checked against that view), the service's
multi-request pipeline relayed by the device, an optional revert window, and
external verification when the slot's service has public effects (its actor
is in the ``observable`` set the world builder passes in, from each service
kind's ``OBSERVABLE``); an unobservable service's confirmation is final. Each
``batch`` message carries one slot, and an enclave's slots execute
sequentially in virtual time; the per-exchange latency draws are the only
place campaign time is spent, which is what makes the phase arithmetic exact
under zero-variance latencies.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import ledger
from .attestation import EnclaveIdentity, Secret
from .simnet import Message, Simulation

GATE_TIMEOUT = 2.0


@dataclass
class LatencyModel:
    """Per-exchange and proof latencies; `fixed` draws the mean every time."""

    step_means: tuple[float, ...] = (1.202, 0.402, 0.769, 1.560, 0.355)
    step_stds: tuple[float, ...] = (0.249, 0.128, 0.197, 0.298, 0.329)
    snark_mean: float = 4.935
    snark_std: float = 0.1141
    model: str = "fixed"  # fixed | normal

    @property
    def mean_action(self) -> float:
        return sum(self.step_means)

    def draw_step(self, rng, step: int) -> float:
        if self.model == "fixed":
            return self.step_means[step - 1]
        return max(0.001, rng.gauss(self.step_means[step - 1], self.step_stds[step - 1]))

    def draw_snark(self, rng) -> float:
        if self.model == "fixed":
            return self.snark_mean
        return max(0.001, rng.gauss(self.snark_mean, self.snark_std))


@dataclass
class SlotRun:
    slot_id: str
    campaign_id: str
    owner_id: str
    proxy_id: str
    username: str
    password: Secret
    service_actor: str
    action_kind: str
    action_target: str
    renter_headers: list[ledger.BlockHeader]
    revert_window: float
    reply_to: str
    status: str = "pending"
    step: int = 0
    epoch: int = 0
    performed: bool = False


class ServiceEnclave:
    def __init__(self, actor_id: str, identity: EnclaveIdentity, *,
                 difficulty_bits: int, latency: LatencyModel,
                 observable: frozenset[str]):
        self.actor_id = actor_id
        self.identity = identity
        self.difficulty_bits = difficulty_bits
        self.latency = latency
        self.observable = observable  # actor ids of the services with public effects
        self.queue: list[SlotRun] = []
        self.active: SlotRun | None = None
        self.cancelled: set[str] = set()
        self._by_slot: dict[str, SlotRun] = {}

    # ------------------------------------------------------------------

    def receive(self, msg: Message, sim: Simulation) -> None:
        p = msg.payload
        if msg.kind == "batch":
            run = SlotRun(**p)  # the payload is one slot's SlotRun fields
            self.queue.append(run)
            self._by_slot[run.slot_id] = run
            self._pump(sim)
        elif msg.kind == "cancel_campaign":
            self.cancelled.add(p["campaign_id"])
            self.queue = [r for r in self.queue if r.campaign_id != p["campaign_id"]]
            for run in self._by_slot.values():
                if run.campaign_id == p["campaign_id"]:
                    run.epoch += 1  # orphan all pending timers and window waits
            if self.active is not None and self.active.campaign_id == p["campaign_id"]:
                self.active = None
                self._pump(sim)
        elif msg.kind == "chain_view":
            self._on_chain_view(p, sim)
        elif msg.kind in ("svc_response", "svc_confirm"):
            self._on_pipeline_reply(p, sim)
        elif msg.kind == "svc_verify_resp":
            self._on_verify_reply(p, sim)

    # ------------------------------------------------------------------
    # slot lifecycle

    def _pump(self, sim: Simulation) -> None:
        if self.active is not None or not self.queue:
            return
        run = self.queue.pop(0)
        if run.campaign_id in self.cancelled:
            self._pump(sim)
            return
        self.active = run
        run.status = "gating"
        # the interface verified the renter view, so its heights run first to last
        heights = (run.renter_headers[0].height, run.renter_headers[-1].height)
        sim.send(
            self.actor_id, run.proxy_id, "chain_query",
            {"reply_to": self.actor_id, "heights": heights, "slot_id": run.slot_id},
            campaign_id=run.campaign_id, owner_id=run.owner_id,
        )
        self._arm_timeout(sim, run, GATE_TIMEOUT, "skipped_unreachable",
                          "no chain view from proxy")

    def _arm_timeout(self, sim: Simulation, run: SlotRun, after: float,
                     status: str, detail: str) -> None:
        epoch = run.epoch

        def fire() -> None:
            if run.epoch == epoch and run.status not in ("resolved",):
                self._resolve(sim, run, status, detail)

        sim.schedule_for(self.actor_id, after, fire)

    def _on_chain_view(self, p: dict, sim: Simulation) -> None:
        run = self.active
        if run is None or run.status != "gating" or p["slot_id"] != run.slot_id:
            return  # no slot gating, or a stale reply from an earlier slot
        run.epoch += 1
        try:
            consistent = ledger.check_consistency(
                p["headers"], run.renter_headers, self.difficulty_bits
            )
        except ledger.MalformedChain as exc:
            self._resolve(sim, run, "skipped_inconsistent", f"malformed view: {exc}")
            return
        if not consistent:
            self._resolve(sim, run, "skipped_inconsistent", "owner view diverges")
            return
        run.status = "performing"
        self._send_step(sim, run, 1)

    def _send_step(self, sim: Simulation, run: SlotRun, step: int) -> None:
        run.step = step
        latency = self.latency.draw_step(sim.rng, step)
        sim.send(
            self.actor_id, run.proxy_id, "svc_request",
            {"state_key": run.slot_id, "step": step, "username": run.username,
             "password": run.password.value, "action_kind": run.action_kind,
             "action_target": run.action_target, "slot_id": run.slot_id,
             "reply_to": self.actor_id, "dst_service": run.service_actor},
            latency=latency,
            campaign_id=run.campaign_id, owner_id=run.owner_id, step=step,
        )
        self._arm_timeout(sim, run, 3 * self.latency.mean_action, "timeout",
                          f"no response at step {step}")

    def _on_pipeline_reply(self, p: dict, sim: Simulation) -> None:
        run = self.active
        if run is None or run.status != "performing" or p.get("slot_id") != run.slot_id:
            return
        if p.get("step") != run.step:
            return
        run.epoch += 1
        if p["status"] == "error":
            self._resolve(sim, run, "failed", p["error"])
            return
        if p["status"] == "ok":
            self._send_step(sim, run, run.step + 1)
            return
        # confirmed: final pipeline exchange answered
        run.performed = True
        run.status = "windowing"
        if run.revert_window > 0:
            epoch = run.epoch
            self.active = None  # window wait does not block the batch

            def end_of_window() -> None:
                if run.epoch == epoch:
                    self._verify(sim, run)

            sim.schedule_for(self.actor_id, run.revert_window, end_of_window)
            self._pump(sim)
        else:
            self._verify(sim, run)

    def _verify(self, sim: Simulation, run: SlotRun) -> None:
        if run.service_actor not in self.observable:
            # nothing to check externally; the service's word is final
            self._resolve(sim, run, "confirmed", "unobservable; confirmation final")
            return
        run.status = "verifying"
        run.epoch += 1
        sim.send(
            self.actor_id, run.service_actor, "svc_verify",
            {"username": run.username, "item_id": run.action_target,
             "action_kind": run.action_kind, "slot_id": run.slot_id},
            campaign_id=run.campaign_id, owner_id=run.owner_id,
        )
        self._arm_timeout(sim, run, 3 * self.latency.mean_action, "timeout",
                          "verification unanswered")

    def _on_verify_reply(self, p: dict, sim: Simulation) -> None:
        run = self._by_slot.get(p.get("slot_id", ""))
        if run is None or run.status != "verifying":
            return
        run.epoch += 1
        if p.get("visible"):
            self._resolve(sim, run, "confirmed", "externally verified")
        elif run.revert_window > 0:
            self._resolve(sim, run, "reverted", "effect gone at window end")
        else:
            self._resolve(sim, run, "failed", "confirmation not externally visible")

    def _resolve(self, sim: Simulation, run: SlotRun, status: str, detail: str) -> None:
        run.epoch += 1
        run.status = "resolved"
        sim.log.emit(sim.now, self.actor_id, "slot_resolved", slot=run.slot_id,
                     status=status, owner=run.owner_id)
        sim.send(
            self.actor_id, run.reply_to, "slot_result",
            {"campaign_id": run.campaign_id, "slot_id": run.slot_id, "status": status,
             "performed": run.performed, "detail": detail},
            campaign_id=run.campaign_id, owner_id=run.owner_id,
        )
        if self.active is run:
            self.active = None
        self._pump(sim)
