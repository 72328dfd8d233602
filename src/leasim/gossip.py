"""Multi-enclave topologies: record gossip and P2P owner registration.

One engine: ``gossip_round`` sends each node's changed records to its
neighbours in batches, and ``merge`` applies a batch under a per-mode
preference. A pure round merges at once, so convergence can be checked
against graph-distance oracles; the distributed-mode runner sends each batch
over the simulated network instead.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

GOSSIP_BATCH = 64  # records per gossip message
MAX_ROUNDS = 1000  # rounds_until_quiet gives up after this many


class TopologyError(Exception):
    pass


class NoCompliantNodes(Exception):
    pass


@dataclass
class Topology:
    nodes: tuple[str, ...]  # sorted node ids
    edges: frozenset[frozenset[str]]

    def __post_init__(self) -> None:
        for edge in self.edges:
            if len(edge) != 2 or not edge <= set(self.nodes):
                raise TopologyError(f"bad edge {sorted(edge)}")

    @classmethod
    def build(cls, nodes: Iterable[str], edges: list[tuple[str, str]]) -> Topology:
        return cls(tuple(sorted(nodes)),
                   frozenset(frozenset(pair) for pair in edges))

    def neighbors(self, node: str) -> list[str]:
        return sorted(
            other for edge in self.edges if node in edge
            for other in edge if other != node
        )


@dataclass
class GossipState:
    """Per-node known records; ``fresh`` holds, per node and in order, the ids
    of records it took or changed since its last round."""

    known: dict[str, dict[str, object]] = field(default_factory=dict)
    fresh: dict[str, dict[str, None]] = field(default_factory=dict)

    def node(self, node_id: str) -> dict[str, object]:
        self.fresh.setdefault(node_id, {})
        return self.known.setdefault(node_id, {})

    def enroll(self, node_id: str, record_id: str, record: object) -> None:
        merge(self.node(node_id), self.fresh[node_id], {record_id: record})

    def knows(self, node_id: str, record_id: str) -> bool:
        return record_id in self.known.get(node_id, {})


def first_wins(new: object, current: object) -> bool:
    """The preference of pure rounds: a known record is never replaced."""
    return False


def merge(store: dict[str, object], fresh: dict[str, None],
          batch: dict[str, object], prefer=first_wins) -> list[str]:
    """Take each record ``store`` lacks or ``prefer(new, current)`` favours,
    and mark it in ``fresh`` to pass on next round; returns the ids taken."""
    taken = []
    for record_id, record in batch.items():
        current = store.get(record_id)
        if current is None or prefer(record, current):
            store[record_id] = record
            fresh[record_id] = None
            taken.append(record_id)
    return taken


def gossip_round(topology: Topology, state: GossipState, prefer=first_wins,
                 send=None) -> list[tuple[str, str, dict[str, object]]]:
    """One synchronous round; returns the (src, dst, batch) messages sent.

    Every node sends its ``fresh`` records, id -> record, to each
    neighbour in batches, and its ``fresh`` set empties. Then each
    batch is merged at its destination with ``prefer``, or, given ``send``,
    handed to ``send(src, dst, batch)`` for the destination to merge.
    """
    sends = []
    for node in sorted(state.fresh):
        ids = list(state.fresh[node])
        state.fresh[node].clear()
        if not ids:
            continue
        store = state.known[node]
        batches = [{record_id: store[record_id] for record_id in ids[i:i + GOSSIP_BATCH]}
                   for i in range(0, len(ids), GOSSIP_BATCH)]
        for neighbor in topology.neighbors(node):
            sends += [(node, neighbor, batch) for batch in batches]
    for src, dst, batch in sends:
        if send is None:
            merge(state.node(dst), state.fresh[dst], batch, prefer)
        else:
            send(src, dst, batch)
    return sends


def rounds_until_quiet(topology: Topology, state: GossipState,
                       prefer=first_wins) -> int:
    """Run rounds until no messages flow; returns the number of active rounds."""
    for done in range(MAX_ROUNDS):
        if not gossip_round(topology, state, prefer=prefer):
            return done
    raise TopologyError("gossip did not converge")


# ----------------------------------------------------------------------
# P2P mode: one owner per CPU, campaign flooding


@dataclass(frozen=True)
class CpuIdentity:
    cpu_id: str


@dataclass(frozen=True)
class CpuBinding:
    cpu_id: str
    owner_id: str
    node_id: str
    time: float

    def precedes(self, other: CpuBinding) -> bool:
        return (self.time, self.node_id, self.owner_id) < \
            (other.time, other.node_id, other.owner_id)


class P2PRegistry:
    """Network-wide owner-per-CPU bindings, converged by gossiping claims.

    Conflicting claims for one CPU resolve deterministically to the earliest
    (time, node, owner) triple, so flooding ghosts from one CPU wins exactly
    one registration no matter where the claims enter.
    """

    def __init__(self, topology: Topology):
        self.topology = topology
        self.state = GossipState()
        for node in topology.nodes:
            self.state.node(node)

    def register(self, node_id: str, owner_id: str, cpu: CpuIdentity,
                 now: float) -> bool:
        claim = CpuBinding(cpu.cpu_id, owner_id, node_id, now)
        store = self.state.node(node_id)
        existing = store.get(cpu.cpu_id)
        if existing is not None and (existing.owner_id, existing.node_id) == (owner_id, node_id):
            return True  # idempotent re-registration
        # an earlier claim in this node's view keeps the CPU (CpuAlreadyBound)
        return bool(merge(store, self.state.fresh[node_id], {cpu.cpu_id: claim},
                          CpuBinding.precedes))

    def converge(self) -> None:
        """Gossip claims to a fixpoint, merging conflicts to the earliest."""
        rounds_until_quiet(self.topology, self.state, CpuBinding.precedes)

    def bound_owner(self, node_id: str, cpu_id: str) -> str | None:
        claim = self.state.known.get(node_id, {}).get(cpu_id)
        return claim.owner_id if claim else None

    def accepted_count(self, cpu_id: str) -> int:
        owners = {
            claim.owner_id
            for store in self.state.known.values()
            for cid, claim in store.items() if cid == cpu_id
        }
        return len(owners)


def p2p_broadcast_campaign(topology: Topology, entry_node: str,
                           count: int, compliant: dict[str, bool]) -> dict:
    """Flood a campaign from the entry node; compliant nodes fulfill locally.

    Returns fulfillment in flood (breadth-first) order plus the unmet
    remainder that goes back to the renter. Duplicate floods are deduped by
    construction of the visit set.
    """
    if not any(compliant.get(n) for n in topology.nodes):
        raise NoCompliantNodes("no node holds a compliant delegated credential")
    visited = [entry_node]
    seen = {entry_node}
    i = 0
    while i < len(visited):
        for neighbor in topology.neighbors(visited[i]):
            if neighbor not in seen:
                seen.add(neighbor)
                visited.append(neighbor)
        i += 1
    fulfilled = [n for n in visited if compliant.get(n)][:count]
    return {
        "fulfilled": fulfilled,
        "remainder": count - len(fulfilled),
        "reached": visited,
    }
