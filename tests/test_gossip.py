"""Gossip convergence against networkx distance oracles; P2P CPU bindings."""
import random

import networkx as nx
import pytest

from leasim.gossip import (
    CpuIdentity,
    GossipState,
    NoCompliantNodes,
    P2PRegistry,
    Topology,
    TopologyError,
    first_wins,
    gossip_round,
    p2p_broadcast_campaign,
    rounds_until_quiet,
)


def mesh(graph: nx.Graph) -> Topology:
    return Topology.build([f"n{v}" for v in graph.nodes],
                          [(f"n{u}", f"n{v}") for u, v in graph.edges])


def random_connected(rng: random.Random, n: int) -> nx.Graph:
    while True:
        g = nx.gnp_random_graph(n, min(1.0, 2.5 / max(n - 1, 1)), seed=rng.randrange(2**31))
        if n <= 1 or nx.is_connected(g):
            return g


class TestTopology:
    def test_edge_outside_node_set_rejected(self):
        with pytest.raises(TopologyError):
            Topology.build(["a"], [("a", "b")])

    def test_neighbors_sorted(self):
        topo = Topology.build(["a", "b", "c"], [("b", "a"), ("b", "c")])
        assert topo.neighbors("b") == ["a", "c"]


class TestGossipRound:
    def test_one_hop_per_round(self):
        g = nx.path_graph(4)
        topo = mesh(g)
        state = GossipState()
        for node in topo.nodes:
            state.node(node)
        state.enroll("n0", "rec", {"v": 1})
        for distance in range(1, 4):
            gossip_round(topo, state)
            for v in g.nodes:
                assert state.knows(f"n{v}", "rec") == (v <= distance)

    def test_knowledge_only_grows(self):
        rng = random.Random(5)
        topo = mesh(random_connected(rng, 8))
        state = GossipState()
        for i, node in enumerate(sorted(topo.nodes)):
            state.enroll(node, f"rec{i}", i)
        snapshots = []
        for _ in range(6):
            snapshots.append({n: set(state.node(n)) for n in topo.nodes})
            gossip_round(topo, state)
        snapshots.append({n: set(state.node(n)) for n in topo.nodes})
        for before, after in zip(snapshots, snapshots[1:]):
            for node in topo.nodes:
                assert before[node] <= after[node]

    def test_batches_chunk_but_do_not_defer(self):
        topo = mesh(nx.path_graph(2))
        state = GossipState()
        state.node("n1")
        for i in range(150):
            state.enroll("n0", f"rec{i:03d}", i)
        sends = gossip_round(topo, state)
        to_n1 = [batch for src, dst, batch in sends if dst == "n1"]
        assert [len(b) for b in to_n1] == [64, 64, 22]
        assert all(state.knows("n1", f"rec{i:03d}") for i in range(150))

    def test_preference_replaces_known_records(self):
        topo = mesh(nx.path_graph(3))
        for prefer, want in ((first_wins, [1, 1, 5]), (lambda new, cur: new > cur, [5, 5, 5])):
            state = GossipState()
            state.enroll("n0", "rec", 1)
            state.enroll("n2", "rec", 5)
            rounds_until_quiet(topo, state, prefer)
            assert [state.node(f"n{v}")["rec"] for v in range(3)] == want

    def test_convergence_within_eccentricity(self):
        rng = random.Random(11)
        for _ in range(20):
            g = random_connected(rng, rng.randrange(2, 13))
            topo = mesh(g)
            state = GossipState()
            for node in topo.nodes:
                state.node(node)
            source = rng.randrange(g.number_of_nodes())
            state.enroll(f"n{source}", "rec", "x")
            ecc = nx.eccentricity(g, source)
            for _ in range(ecc):
                gossip_round(topo, state)
            assert all(state.knows(f"n{v}", "rec") for v in g.nodes)

    def test_partition_blocks_records(self):
        g = nx.Graph()
        g.add_edges_from([(0, 1), (1, 2), (3, 4)])
        topo = mesh(g)
        state = GossipState()
        for node in topo.nodes:
            state.node(node)
        state.enroll("n0", "left", "a")
        state.enroll("n3", "right", "b")
        rounds_until_quiet(topo, state)
        left = {v for v in g.nodes if state.knows(f"n{v}", "left")}
        right = {v for v in g.nodes if state.knows(f"n{v}", "right")}
        components = [set(c) for c in nx.connected_components(g)]
        assert left in components and 0 in left
        assert right in components and 3 in right
        assert not left & right


class TestP2PRegistry:
    def topo(self, n=5):
        return mesh(nx.cycle_graph(n))

    def test_flooded_ghost_wins_single_binding(self):
        topo = self.topo()
        reg = P2PRegistry(topo)
        cpu = CpuIdentity("cpu-1")
        results = []
        for i in range(100):
            node = f"n{i % 5}"
            results.append(reg.register(node, f"ghost{i}", cpu, now=float(i)))
        reg.converge()
        assert reg.accepted_count("cpu-1") == 1
        assert reg.bound_owner("n3", "cpu-1") == "ghost0"
        # only the first claim ever saw an acceptance at its entry node
        assert results[0] is True
        assert sum(results) <= 5  # at most one optimistic accept per entry node

    def test_reregistration_is_idempotent(self):
        reg = P2PRegistry(self.topo())
        cpu = CpuIdentity("cpu-2")
        assert reg.register("n0", "alice", cpu, now=1.0)
        assert reg.register("n0", "alice", cpu, now=9.0)
        reg.converge()
        assert reg.accepted_count("cpu-2") == 1

    def test_conflict_resolves_to_earliest_everywhere(self):
        reg = P2PRegistry(self.topo())
        cpu = CpuIdentity("cpu-3")
        reg.register("n2", "bob", cpu, now=2.0)
        reg.register("n4", "carol", cpu, now=1.0)
        reg.converge()
        for node in ("n0", "n1", "n2", "n3", "n4"):
            assert reg.bound_owner(node, "cpu-3") == "carol"

    def test_distinct_cpus_do_not_conflict(self):
        reg = P2PRegistry(self.topo())
        assert reg.register("n0", "alice", CpuIdentity("cpu-a"), now=1.0)
        assert reg.register("n1", "bob", CpuIdentity("cpu-b"), now=1.0)
        reg.converge()
        assert reg.accepted_count("cpu-a") == 1
        assert reg.accepted_count("cpu-b") == 1


class TestP2PBroadcast:
    def test_flood_fulfills_in_bfs_order(self):
        topo = mesh(nx.path_graph(5))
        result = p2p_broadcast_campaign(
            topo, "n2", count=2,
            compliant={"n0": True, "n1": False, "n2": False, "n3": True, "n4": True},
        )
        # BFS from n2 visits n2, n1, n3, n0, n4; compliant in that order: n3, n0, n4
        assert result["fulfilled"] == ["n3", "n0"]
        assert result["remainder"] == 0

    def test_partial_fulfillment_reports_remainder(self):
        topo = mesh(nx.path_graph(3))
        result = p2p_broadcast_campaign(
            topo, "n0", count=5, compliant={"n0": False, "n1": True, "n2": False}
        )
        assert result["fulfilled"] == ["n1"]
        assert result["remainder"] == 4

    def test_no_compliant_nodes_raises(self):
        topo = mesh(nx.path_graph(3))
        with pytest.raises(NoCompliantNodes):
            p2p_broadcast_campaign(topo, "n0", count=1, compliant={})

    def test_flood_reaches_component_once_each(self):
        rng = random.Random(23)
        g = random_connected(rng, 12)
        topo = mesh(g)
        result = p2p_broadcast_campaign(
            topo, "n0", count=0, compliant={"n0": True}
        )
        assert sorted(result["reached"]) == sorted(topo.nodes)
        assert len(result["reached"]) == len(set(result["reached"]))
