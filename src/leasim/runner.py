"""World construction and the run loop.

Builds every actor a scenario describes, wires the host's adversarial script
into the network layer, and runs the event queue until all campaigns reach a
terminal outcome (or the horizon cuts the run off, which is itself a valid
outcome under suppression scripts). Everything observable afterwards hangs
off the returned World.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from . import ledger
from .attestation import AttestationMesh, EnclaveIdentity, Measurement, Secret
from .gossip import (
    CpuIdentity,
    GossipState,
    NoCompliantNodes,
    P2PRegistry,
    Topology,
    gossip_round,
    p2p_broadcast_campaign,
)
from .interface_enclave import InterfaceEnclave, Policy
from .parties import CampaignIntent, OwnerActor, ProxyActor, RenterActor
from .payment_enclave import PaymentEnclave
from .scenario import ScenarioSpec
from .service_enclave import LatencyModel, ServiceEnclave
from .services import SERVICE_KINDS, Service, ServiceAction, ServiceActorAdapter
from .simnet import Simulation

POLL_AT = 0.25
CAMPAIGNS_AT = 1.0

GENUINE = Measurement("genuine-v1")


class ChainNodeActor:
    """The (untrusted) chain node: mempool plus a fixed mining cadence.

    Mines every block_interval. Once done_check holds (every campaign
    settled; it never turns false again) it mines grace_blocks more, counted
    from the first block after it holds, so late transactions confirm; then
    it stops, which lets the event queue drain. Transactions still pending
    after a block wait on an input no chain holds (``Mempool.assemble`` runs
    to a fixpoint), so they do not hold mining; each is logged
    ``tx_orphaned`` at the stop.
    """

    def __init__(self, node_id: str, chain: ledger.Chain, *,
                 block_interval: float, grace_blocks: int,
                 done_check: Callable[[], bool]):
        self.node_id = node_id
        self.chain = chain
        self.pool = ledger.Mempool()
        self.block_interval = block_interval
        self.done_check = done_check
        self._grace_left = grace_blocks
        self.stopped = False
        self.orphaned: list[str] = []  # tx ids still pending at the stop

    def receive(self, msg, sim: Simulation) -> None:
        if msg.kind == "tx_broadcast":
            self.pool.submit(msg.payload["tx"], self.chain)

    def start(self, sim: Simulation) -> None:
        sim.schedule(self.block_interval, lambda: self._tick(sim))

    def _tick(self, sim: Simulation) -> None:
        self.chain, included = self.pool.assemble(self.chain)
        sim.log.emit(sim.now, self.node_id, "block_mined",
                     height=self.chain.height, txs=len(included))
        if self.done_check():
            self._grace_left -= 1
            if self._grace_left <= 0:
                self.stopped = True
                self.orphaned = list(self.pool.pending)
                for tx_id in self.orphaned:
                    sim.log.emit(sim.now, self.node_id, "tx_orphaned", tx=tx_id)
                sim.log.emit(sim.now, self.node_id, "mining_stopped",
                             height=self.chain.height)
                return
        sim.schedule(self.block_interval, lambda: self._tick(sim))


@dataclass
class InterfaceGroup:
    name: str
    enclave: InterfaceEnclave
    service_encs: list[ServiceEnclave]
    payment_encs: list[PaymentEnclave]


@dataclass
class World:
    spec: ScenarioSpec
    sim: Simulation
    node: ChainNodeActor
    mesh: AttestationMesh
    services: dict[str, Service]
    service_actors: dict[str, ServiceActorAdapter]
    groups: dict[str, InterfaceGroup]
    owners: dict[str, OwnerActor]
    renters: dict[str, RenterActor]
    expected_campaign_ids: list[str]
    p2p: dict = field(default_factory=dict)

    @property
    def ifaces(self) -> dict[str, InterfaceEnclave]:
        return {g.enclave.actor_id: g.enclave for g in self.groups.values()}

    def all_campaigns(self) -> list:
        return [c for iface in self.ifaces.values()
                for c in iface.campaigns.values()]

    def find_campaign(self, campaign_id: str):
        for iface in self.ifaces.values():
            if campaign_id in iface.campaigns:
                return iface.campaigns[campaign_id]
        return None


def _identity(actor_id: str, kind: str) -> EnclaveIdentity:
    return EnclaveIdentity(
        enclave_id=actor_id, kind=kind, measurement=GENUINE,
        public_key=f"pk:{actor_id}",
    )


def build_world(spec: ScenarioSpec) -> World:
    sim = Simulation(spec.seed)
    issuance = {f"renter:{r.renter_id}": r.balance for r in spec.renters}
    chain = ledger.Chain.genesis(
        issuance or {"nobody": 1}, difficulty_bits=spec.chain.difficulty_bits,
        seed_tag=spec.name,
    )
    node = ChainNodeActor(
        "node:main", chain, block_interval=spec.chain.block_interval,
        grace_blocks=spec.chain.confirmation_depth + 1,
        # world is bound below, before the first block is mined
        done_check=lambda: _campaigns_settled(world),
    )
    sim.register(node.node_id, node)
    node.start(sim)

    services: dict[str, Service] = {}
    service_actors: dict[str, ServiceActorAdapter] = {}
    for svc in spec.services:
        kind = SERVICE_KINDS[svc.kind]
        backend = kind(svc.service_id, **{name: getattr(svc, name) for name in kind.FIELDS})
        services[svc.service_id] = backend
        adapter = ServiceActorAdapter(f"svc:{svc.service_id}", backend)
        service_actors[svc.service_id] = adapter
        sim.register(adapter.actor_id, adapter)
    observable = frozenset(adapter.actor_id for adapter in service_actors.values()
                           if adapter.service.OBSERVABLE)

    # owner accounts exist server-side before anything runs
    for owner in spec.owners:
        for entry in owner.services:
            services[entry.service_id].add_account(entry.username, entry.password)

    mesh = AttestationMesh(genuine={GENUINE})
    latency = LatencyModel(model=spec.latency.model)

    group_names = spec.topology.interfaces or ["0"]
    groups: dict[str, InterfaceGroup] = {}
    for name in group_names:
        iface_id = f"iface:{name}"
        service_encs = []
        for i in range(spec.topology.service_enclaves):
            enc_id = f"svcenc:{name}:{i}"
            enc = ServiceEnclave(enc_id, _identity(enc_id, "service"),
                                 difficulty_bits=spec.chain.difficulty_bits,
                                 latency=latency, observable=observable)
            sim.register(enc_id, enc)
            service_encs.append(enc)
        payment_encs = []
        for i in range(spec.topology.payment_enclaves):
            enc_id = f"payenc:{name}:{i}"
            enc = PaymentEnclave(enc_id, _identity(enc_id, "payment"),
                                 latency=latency,
                                 liveness_window=spec.timing.liveness_window,
                                 node_id=node.node_id)
            sim.register(enc_id, enc)
            payment_encs.append(enc)
        identity = _identity(iface_id, "interface")
        iface = InterfaceEnclave(
            iface_id, identity, mesh,
            difficulty_bits=spec.chain.difficulty_bits,
            confirmation_depth=spec.chain.confirmation_depth,
            deposit_rate=spec.economics.deposit_rate,
            fee_rate=spec.economics.fee_rate,
            poll_interval=spec.timing.poll_interval,
            liveness_window=spec.timing.liveness_window,
            maintainer_address=spec.maintainer_address,
            service_enclaves=[e.actor_id for e in service_encs],
            payment_enclaves=[e.actor_id for e in payment_encs],
            node_id=node.node_id,
        )
        sim.register(iface_id, iface)
        for enc in service_encs:
            mesh.enlist(sim, identity, enc.identity)
        for enc in payment_encs:
            mesh.enlist(sim, identity, enc.identity)
        groups[name] = InterfaceGroup(name, iface, service_encs, payment_encs)

    primary = groups[group_names[0]]
    primary_iface = primary.enclave.actor_id

    owners: dict[str, OwnerActor] = {}
    for ospec in spec.owners:
        backing = {e.service_id: services[e.service_id] for e in ospec.services}
        creds = {e.service_id: (e.username, e.password) for e in ospec.services}
        owner = OwnerActor(
            ospec.owner_id, ospec.profile, node.node_id,
            chain_supplier=lambda: node.chain,
            service_backends=backing, credentials=creds,
            revert_delay=ospec.revert_delay,
        )
        proxy = ProxyActor(owner)
        sim.register(proxy.actor_id, proxy)
        sim.register(owner.actor_id, owner)
        owners[ospec.owner_id] = owner

    renters: dict[str, RenterActor] = {}
    for rspec in spec.renters:
        intents = [
            CampaignIntent(c.service_id, c.action_kind, c.action_target,
                           c.count, c.revert_window)
            for c in rspec.campaigns
        ]
        mesh.attest(sim, f"renter:{rspec.renter_id}", GENUINE, primary.enclave.identity)
        renter = RenterActor(
            rspec.renter_id, node.node_id,
            chain_supplier=lambda: node.chain,
            interface_id=primary_iface, intents=intents,
            view_mode=rspec.view,
            poll_interval=max(spec.chain.block_interval / 2, 1.0),
        )
        sim.register(renter.actor_id, renter)
        renters[rspec.renter_id] = renter

    expected_ids = []
    seq = 0
    for rspec in spec.renters:
        for _ in rspec.campaigns:
            seq += 1
            expected_ids.append(f"{primary_iface}:c{seq}")

    world = World(
        spec=spec, sim=sim, node=node, mesh=mesh, services=services,
        service_actors=service_actors, groups=groups, owners=owners,
        renters=renters, expected_campaign_ids=expected_ids,
    )

    if spec.topology.mode == "p2p":
        _setup_p2p(world)
    else:
        _enroll_and_schedule(world)
        _install_host_script(world)
    return world


# ----------------------------------------------------------------------


def _policy(entry) -> Policy:
    """An owner's policy for one service: a whitelist of None permits any
    target, an empty one none."""
    return Policy(entry.service_id, frozenset(entry.allowed), entry.price,
                  entry.accepts_revert_window,
                  None if entry.whitelist is None else frozenset(entry.whitelist))


def _enroll_and_schedule(world: World) -> None:
    spec, sim = world.spec, world.sim
    pollers = []
    # an owner with no home interface enrolls at the first
    first = next(iter(world.groups.values()))
    for ospec in spec.owners:
        owner = world.owners[ospec.owner_id]
        group = world.groups.get(ospec.home_interface, first)
        iface_id = group.enclave.actor_id
        world.mesh.attest(sim, owner.actor_id, GENUINE, group.enclave.identity)
        payload_services = {}
        for entry in ospec.services:
            payload_services[entry.service_id] = {
                "username": entry.username,
                "password": Secret(f"{ospec.owner_id}:{entry.service_id}",
                                   entry.password),
                "policy": _policy(entry),
                "service_actor": world.service_actors[entry.service_id].actor_id,
            }
        sim.send(
            owner.actor_id, iface_id, "enroll",
            {"owner_id": ospec.owner_id, "payout_address": owner.payout_address,
             "proxy_id": owner.proxy_id, "services": payload_services},
        )
        if ospec.polls:
            pollers.append((owner.actor_id, iface_id, {"owner_id": ospec.owner_id}))

    if pollers:
        _schedule_polls(world, pollers)
    for renter in world.renters.values():
        sim.schedule(CAMPAIGNS_AT, lambda r=renter: r.start(sim))

    if spec.topology.mode == "distributed" and spec.topology.edges:
        _schedule_gossip(world)


def _schedule_polls(world: World, pollers: list[tuple[str, str, dict]]) -> None:
    """One liveness sweep per world: from POLL_AT and every poll_interval / 2,
    each polling owner sends ``poll`` to its home interface, in enrollment
    order. Polls get no reply. The sweep stops after the first round at which
    mining has stopped or slot selection is over (``_selection_open``): after
    that no interface reads ``last_poll`` again.

    Later rounds skip owners the host has killed; the first round does not,
    so a killed owner's first poll is logged as blocked.
    """
    sim = world.sim
    interval = world.spec.timing.poll_interval / 2
    killed = sim.net.killed

    def sweep(skip_killed: bool = True) -> None:
        for actor_id, iface_id, payload in pollers:
            if not (skip_killed and actor_id in killed):
                sim.send(actor_id, iface_id, "poll", payload)
        if not world.node.stopped and _selection_open(world):
            sim.schedule(interval, sweep)

    sim.schedule(POLL_AT, lambda: sweep(skip_killed=False))


def _schedule_gossip(world: World) -> None:
    """One ``gossip_round`` over the interface edges every gossip_interval.
    Each batch goes on the wire as a ``gossip_batch``, merged on delivery.

    Like the poll sweep, it stops after the first tick at which mining has
    stopped or slot selection is over: the records and ``last_poll`` marks it
    carries are read only while selection is open.
    """
    sim, spec, ifaces = world.sim, world.spec, world.ifaces
    topology = Topology.build(
        ifaces, [(f"iface:{a}", f"iface:{b}") for a, b in spec.topology.edges])
    state = GossipState({i: iface.owners for i, iface in ifaces.items()},
                        {i: iface.changed for i, iface in ifaces.items()})

    def tick() -> None:
        gossip_round(topology, state,
                     send=lambda src, dst, batch: ifaces[src].send_gossip(sim, dst, batch))
        if not world.node.stopped and _selection_open(world):
            sim.schedule(spec.topology.gossip_interval, tick)

    sim.schedule(spec.topology.gossip_interval, tick)


def _install_host_script(world: World) -> None:
    spec, sim = world.spec, world.sim
    for cut in spec.host.cuts:
        campaign_id = (None if cut.campaign_index is None
                       else world.expected_campaign_ids[cut.campaign_index])
        sim.net.set_cut(
            cut.cut_point, owner=cut.rule_owner, kind=cut.kind, src=cut.src,
            dst=cut.dst, campaign_id=campaign_id, owner_id=cut.owner_id,
            step=cut.step, from_time=cut.from_time, until_time=cut.until_time,
        )
    for delay in spec.host.delays:
        sim.net.add_delay(delay.extra, owner=delay.rule_owner,
                          cut_point=delay.cut_point, kind=delay.kind,
                          dst=delay.dst)
    for kill in spec.host.kills:
        sim.net.kill_enclave(kill.actor, kill.at)
    for ecl in spec.host.eclipse:
        sim.net.set_eclipse(ecl.owner_id, _eclipse_feed(world, ecl))


def _eclipse_feed(world: World, ecl):
    if ecl.source == "renter_fork":
        renter = world.renters[ecl.renter_id]

        def fork_feed(lo: int, hi: int):
            return (renter.forged_fork or world.node.chain).headers_from(lo, hi)

        return fork_feed

    def stale_feed(lo: int, hi: int):
        return world.node.chain.headers_from(lo, min(hi, ecl.height))

    return stale_feed


def _campaigns_settled(world: World) -> bool:
    """True once every renter intent has an outcome: a failure recorded or
    its campaign terminated. A p2p world runs all its slots inside
    ``_setup_p2p``, so it is settled as soon as ``build_world`` returns."""
    if world.spec.topology.mode == "p2p":
        return True
    outcomes = 0
    expected = sum(len(r.intents) for r in world.renters.values())
    for renter in world.renters.values():
        for res in renter.results:
            kind = res["kind"]
            if kind in ("quote_failed", "underfunded", "start_failed"):
                outcomes += 1
            elif kind == "campaign_started":
                campaign = world.find_campaign(res.get("campaign_id", ""))
                if campaign is not None and campaign.status == "terminated":
                    outcomes += 1
    return outcomes >= expected


def _selection_open(world: World) -> bool:
    """True while an interface may still call ``compliant_accounts``.

    An interface picks owners at quote time and at launch, and never again:
    substitutes come from ``campaign.spares``, fixed at launch. So selection
    is open while a campaign is ``created``, or while some renter intent
    has neither a launched campaign (``running``, ``stopping`` or
    ``terminated``) nor a recorded failure. The second half covers a
    ``quote_request`` still in flight, before its campaign exists.
    """
    reached = 0
    for campaign in world.all_campaigns():
        if campaign.status == "created":
            return True
        reached += 1
    expected = 0
    for renter in world.renters.values():
        expected += len(renter.intents)
        # a launched campaign is counted above, and an underfunded or failed
        # start leaves its campaign "created"; only a refused quote is new here
        reached += sum(1 for res in renter.results if res["kind"] == "quote_failed")
    return reached < expected


# ----------------------------------------------------------------------
# P2P mode: no interface enclaves, owner devices fulfill locally


def _setup_p2p(world: World) -> None:
    spec, sim = world.spec, world.sim
    topo = Topology.build(
        [f"iface:{n}" for n in spec.topology.interfaces],
        [(f"iface:{a}", f"iface:{b}") for a, b in spec.topology.edges])
    registry = P2PRegistry(topo)
    registrations = []
    for i, ospec in enumerate(spec.owners):
        node_id = f"iface:{ospec.home_interface or spec.topology.interfaces[0]}"
        accepted = registry.register(node_id, ospec.owner_id,
                                     CpuIdentity(ospec.cpu), now=float(i))
        registrations.append(
            {"owner_id": ospec.owner_id, "node": node_id, "cpu": ospec.cpu,
             "accepted_locally": accepted}
        )
        sim.log.emit(sim.now, node_id, "p2p_register", owner=ospec.owner_id,
                     cpu=ospec.cpu, ok=accepted)
    registry.converge()

    campaigns = []
    for rspec in spec.renters:
        for intent in rspec.campaigns:
            entry = f"iface:{spec.topology.interfaces[0]}"
            compliant = _p2p_compliance(world, registry, topo, intent)
            try:
                flood = p2p_broadcast_campaign(topo, entry, intent.count, compliant)
            except NoCompliantNodes:
                campaigns.append({"renter": rspec.renter_id,
                                  "service": intent.service_id,
                                  "error": "NoCompliantNodes"})
                continue
            executed = []
            for node_id in flood["fulfilled"]:
                owner_id = _p2p_owner_at(world, registry, node_id, intent)
                result = _p2p_execute(world, node_id, owner_id, intent)
                executed.append(result)
                sim.log.emit(sim.now, node_id, "p2p_slot", owner=owner_id,
                             status=result["status"])
            campaigns.append({
                "renter": rspec.renter_id, "service": intent.service_id,
                "count": intent.count, "fulfilled": flood["fulfilled"],
                "remainder_refund": flood["remainder"], "slots": executed,
            })
    world.p2p = {
        "topology": topo, "registry": registry,
        "registrations": registrations, "campaigns": campaigns,
    }


def _p2p_compliance(world: World, registry: P2PRegistry, topo: Topology,
                    intent) -> dict[str, bool]:
    compliant = {}
    for node_id in topo.nodes:
        compliant[node_id] = _p2p_owner_at(world, registry, node_id, intent) is not None
    return compliant


def _p2p_owner_at(world: World, registry: P2PRegistry, node_id: str, intent):
    for ospec in world.spec.owners:
        home = f"iface:{ospec.home_interface or world.spec.topology.interfaces[0]}"
        if home != node_id:
            continue
        if registry.bound_owner(node_id, ospec.cpu) != ospec.owner_id:
            continue
        for entry in ospec.services:
            if entry.service_id != intent.service_id:
                continue
            if _policy(entry).permits(intent.action_kind, intent.action_target,
                                      intent.revert_window):
                return ospec.owner_id
    return None


def _p2p_execute(world: World, node_id: str, owner_id: str, intent) -> dict:
    """Direct-device pipeline drive: no proxy hop, the node is the device."""
    backend = world.services[intent.service_id]
    ospec = next(o for o in world.spec.owners if o.owner_id == owner_id)
    entry = next(e for e in ospec.services if e.service_id == intent.service_id)
    action = ServiceAction(intent.action_kind, intent.action_target)
    result: dict = {}
    for step in range(1, backend.PIPELINE_LENGTH + 1):
        result = backend.handle_request(
            f"p2p:{owner_id}:{intent.service_id}", step, entry.username,
            entry.password, action)
        if result["status"] == "error":
            break
    status = "confirmed" if result.get("status") == "confirmed" else "failed"
    return {"owner_id": owner_id, "node": node_id, "status": status,
            "detail": result.get("error", "")}


# ----------------------------------------------------------------------


def run_scenario(spec: ScenarioSpec) -> World:
    world = build_world(spec)
    world.sim.run(until=spec.timing.horizon)
    return world


def estimate_schedule(spec: ScenarioSpec) -> dict:
    """Closed-form phase timing for the fixed-latency model."""
    latency = LatencyModel(model="fixed")
    count = sum(c.count for r in spec.renters for c in r.campaigns)
    per_service_enc = -(-count // spec.topology.service_enclaves)  # ceil
    per_payment_enc = -(-count // spec.topology.payment_enclaves)
    block = spec.chain.block_interval
    k = spec.chain.confirmation_depth
    funding_wait = k * block  # funding lands in block 1; k confirmations
    kinds = {svc.service_id: SERVICE_KINDS[svc.kind] for svc in spec.services}
    pipeline_len = 0.0
    for rspec in spec.renters:
        for c in rspec.campaigns:
            steps = kinds[c.service_id].PIPELINE_LENGTH
            pipeline_len = max(
                pipeline_len, sum(latency.step_means[:steps])
            )
    action_phase = per_service_enc * pipeline_len
    payment_phase = per_payment_enc * latency.snark_mean
    return {
        "slots": count,
        "funding_wait": funding_wait,
        "action_phase": action_phase,
        "payment_phase": payment_phase,
        "total": CAMPAIGNS_AT + funding_wait + action_phase + payment_phase,
    }
