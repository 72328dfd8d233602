"""Acceptance gate: one test per published criterion, one verdict line each.

Run with `pytest -v tests/test_acceptance.py` (add -s to see the lines on
success). Every criterion states its tolerance inline; anything tighter
than float noise is compared exactly.
"""
from __future__ import annotations

import random
import time
from dataclasses import replace
from importlib import resources

import networkx as nx
import pytest

from leasim import ledger
from leasim.coins import rate_floor
from leasim.gossip import (CpuIdentity, GossipState, P2PRegistry, Topology,
                           gossip_round)
from leasim.report import build_report, report_digest
from leasim.runner import run_scenario
from leasim.scenario import load_scenario

from tests.conftest import extend, mk_chain


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"{criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def _run(name: str, seed: int | None = None):
    path = resources.files("leasim") / "scenarios" / f"{name}.yaml"
    return run_scenario(load_scenario(str(path), seed_override=seed))


# ---------------------------------------------------------------- C1


def test_c1_full_load_timing_replication():
    """40 slots, one enclave of each kind: virtual phases exact to 1e-9 and
    within 10% of the reference wall-clock means (160s action, 200s payment);
    the whole simulated run must finish in under 10s of real time."""
    t0 = time.perf_counter()
    world = _run("replay")
    wall = time.perf_counter() - t0
    campaign = world.all_campaigns()[0]
    marks = campaign.phase_marks
    action = marks["service_end"] - marks["service_start"]
    payment = marks["payment_end"] - marks["payment_start"]
    exact = (abs(action - 171.52) < 1e-9 and abs(payment - 197.4) < 1e-9)
    close = (abs(action - 160.0) / 160.0 <= 0.10
             and abs(payment - 200.0) / 200.0 <= 0.10)
    _verdict(
        "C1 timing replication", exact and close and wall < 10.0,
        f"action={action:.3f} payment={payment:.3f} wall={wall:.2f}s",
    )


# ---------------------------------------------------------------- C2

CUT_MATRIX = {
    # scenario -> (slot statuses, owner verdicts of interest, renter, maintainer)
    "cut1_forged_view": (
        ["skipped_inconsistent", "skipped_inconsistent", "confirmed"],
        {"o1": "fair", "o2": "fair", "o3": "harmed"}, "advantaged", "harmed"),
    "cut2_owner_skip": (
        ["skipped_unreachable", "confirmed", "confirmed", "confirmed"],
        {"o1": "fair", "o2": "fair", "o3": "fair", "o4": "fair"},
        "fair", "fair"),
    "cut3_response": (
        ["confirmed", "timeout", "confirmed"],
        {"o1": "fair", "o2": "fair", "o3": "fair"}, "harmed", "fair"),
    "cut45_all": (
        ["confirmed", "confirmed", "confirmed"],
        {"o1": "harmed", "o2": "harmed", "o3": "harmed"}, "harmed", "harmed"),
    "cut45_single_path": (
        ["confirmed", "confirmed", "confirmed"],
        {"o1": "fair", "o2": "fair", "o3": "fair"}, "fair", "fair"),
}


def test_c2_cut_matrix_exact_outcomes():
    """Every message-cut scenario lands exactly the statuses and verdicts
    in the table above; no tolerance."""
    mismatches = []
    for name, (statuses, owners, renter, maintainer) in CUT_MATRIX.items():
        report = build_report(_run(name))
        campaign = report["campaigns"][0]
        got_statuses = [s["status"] for s in campaign["slots"]]
        if got_statuses != statuses:
            mismatches.append(f"{name}: statuses {got_statuses}")
        for owner_id, want in owners.items():
            got = report["verdicts"]["owners"][owner_id]["verdict"]
            if got != want:
                mismatches.append(f"{name}: owner {owner_id} {got}!={want}")
        if report["verdicts"]["renters"]["r1"]["verdict"] != renter:
            mismatches.append(f"{name}: renter")
        if report["verdicts"]["maintainer"]["verdict"] != maintainer:
            mismatches.append(f"{name}: maintainer")
    _verdict("C2 cut matrix", not mismatches,
             "; ".join(mismatches) or f"{len(CUT_MATRIX)} scenarios exact")


# ---------------------------------------------------------------- C3


def test_c3_deposit_closure_fuzz():
    """1000 seeded random economies: for any execution subset and any
    settled/burned split, per-slot floor shares never exceed the quoted
    deposit and the ledger identity closes bit-exact (integers, no
    tolerance)."""
    from fractions import Fraction

    failures = 0
    for seed in range(1000):
        rng = random.Random(seed)
        prices = [rng.randrange(1, 10_000_000)
                  for _ in range(rng.randrange(1, 30))]
        count = rng.randrange(1, len(prices) + 1)
        rate = Fraction(rng.randrange(1, 50), 100)
        fee_rate = Fraction(rng.randrange(1, 20), 100)
        quoted_funds = sum(sorted(prices, reverse=True)[:count])
        quoted_deposit = rate_floor(rate, quoted_funds)
        fee_allowance = rate_floor(fee_rate, quoted_funds)
        executed = rng.sample(prices, k=rng.randrange(0, count + 1))
        shares = [rate_floor(rate, p) for p in executed]
        fees = [rate_floor(fee_rate, p) for p in executed]
        returned = burned = 0
        for share in shares:
            if rng.random() < 0.3:
                burned += share
            else:
                returned += share
        residue = quoted_deposit - returned - burned
        if residue < 0 or sum(shares) > quoted_deposit \
                or sum(fees) > fee_allowance \
                or quoted_deposit != returned + burned + residue:
            failures += 1
    _verdict("C3 deposit closure fuzz", failures == 0,
             f"1000 seeds, {failures} violations")


# ---------------------------------------------------------------- C4


def test_c4_fork_detection_within_window():
    """Forks diverging at every depth inside the confirmation window
    (1..6 blocks back) are rejected by the view-consistency oracle;
    agreeing prefixes still pass. Exact booleans."""
    snapshots = [mk_chain(difficulty_bits=8)]
    for _ in range(8):
        snapshots.append(snapshots[-1].append_block([]))
    base = snapshots[-1]
    note = base.unspent_notes("renter:r1")[0]
    problems = []
    for depth in range(1, 7):
        root = snapshots[base.height - depth]
        # diverge with different block content so every later digest changes
        divergent = ledger.make_transaction(
            [note.note_id], [("someone:else", note.value, "change")],
            {"renter:r1"}, memo=f"fork:{depth}",
        )
        fork = root.append_block([divergent])
        while fork.height < base.height:
            fork = fork.append_block([])
        if ledger.check_consistency(base.headers(), fork.headers(), base.difficulty_bits):
            problems.append(f"depth {depth} fork accepted")
        if not ledger.check_consistency(base.headers(), root.headers(), base.difficulty_bits):
            problems.append(f"depth {depth} honest prefix rejected")
    _verdict("C4 fork-at-k detection", not problems,
             "; ".join(problems) or "depths 1..6 all detected")


# ---------------------------------------------------------------- C5


def test_c5_collusion_asymmetry():
    """Observable service: ghost slots fail unpaid and the acting accounts
    are exposed. Secret-ballot service: coerced slot is paid and only the
    report flag records the uncounted ballot. Exact outcomes."""
    social = _run("collusion_social")
    social_report = build_report(social)
    ghosts_failed = all(
        s["status"] == "failed" and not s["settlement"]["landed"]
        for s in social_report["campaigns"][0]["slots"]
        if s["owner_id"] in ("og1", "og2")
    )
    exposed = social.services["social"].exposed_accounts("item1")
    ghosts_exposed = {"gh1", "gh2"} <= exposed
    voting = _run("collusion_voting")
    voting_report = build_report(voting)
    coerced = voting_report["campaigns"][0]["slots"][0]
    paid_and_flagged = (
        coerced["settlement"]["landed"]
        and voting_report["campaigns"][0]["flags"]["claim_mismatches"]
        == [coerced["slot_id"]]
        and voting.services["ballots"].tallies() == {"north": 2, "south": 0}
    )
    ok = ghosts_failed and ghosts_exposed and paid_and_flagged
    _verdict("C5 collusion asymmetry", ok,
             f"ghosts_failed={ghosts_failed} exposed={ghosts_exposed} "
             f"ballot_paid_flagged={paid_and_flagged}")


# ---------------------------------------------------------------- C6


def test_c6_gossip_diameter_bound():
    """100 random connected graphs (3..20 nodes): every record reaches every
    node within diameter(G) synchronous rounds. Exact bound, no slack."""
    slow = []
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randrange(3, 21)
        graph = nx.random_labeled_tree(n, seed=seed)
        for _ in range(rng.randrange(0, n)):
            a, b = rng.sample(range(n), 2)
            graph.add_edge(a, b)
        topo = Topology.build([f"n{i}" for i in graph.nodes],
                              [(f"n{a}", f"n{b}") for a, b in graph.edges])
        state = GossipState()
        for i in graph.nodes:
            state.enroll(f"n{i}", f"rec{i}", {"origin": i})
        bound = nx.diameter(graph)
        rounds = 0
        while rounds <= bound:
            if all(state.knows(f"n{i}", f"rec{j}")
                   for i in graph.nodes for j in graph.nodes):
                break
            gossip_round(topo, state)
            rounds += 1
        complete = all(state.knows(f"n{i}", f"rec{j}")
                       for i in graph.nodes for j in graph.nodes)
        if not complete or rounds > bound:
            slow.append(f"seed {seed}: {rounds} rounds > diameter {bound}")
    _verdict("C6 gossip convergence", not slow,
             "; ".join(slow[:3]) or "100 graphs within diameter bound")


# ---------------------------------------------------------------- C7


def test_c7_cpu_binding_collapses_flood():
    """100 enrollments presenting one CPU identity across a random topology
    collapse to exactly one accepted binding after convergence."""
    rng = random.Random(2024)
    names = [f"n{i}" for i in range(12)]
    edges = [(f"n{i}", f"n{(i + 1) % 12}") for i in range(12)]
    edges += [("n0", "n6"), ("n3", "n9")]
    topo = Topology.build(names, edges)
    registry = P2PRegistry(topo)
    cpu = CpuIdentity("cpu:flood")
    for i in range(100):
        node = f"n{rng.randrange(12)}"
        registry.register(node, f"ghost{i}", cpu, now=float(i))
    registry.converge()
    count = registry.accepted_count("cpu:flood")
    _verdict("C7 cpu binding", count == 1,
             f"100 registrations -> {count} accepted binding")


# ---------------------------------------------------------------- C8


def test_c8_header_mutation_always_detected():
    """Any single-field mutation of any header in a valid chain makes
    header verification fail. Exhaustive over fields and positions."""
    chain = extend(mk_chain(difficulty_bits=8), 5)
    headers = chain.headers()
    assert ledger.verify_headers_detail(headers, chain.difficulty_bits)[0]
    missed = []
    for i, header in enumerate(headers):
        mutants = {
            "height": replace(header, height=header.height + 1),
            "prev_digest": replace(
                header, prev_digest=bytes([header.prev_digest[0] ^ 1])
                + header.prev_digest[1:]),
            "payload_digest": replace(
                header, payload_digest=bytes([header.payload_digest[0] ^ 1])
                + header.payload_digest[1:]),
            "pow_nonce": replace(header, pow_nonce=header.pow_nonce + 1),
            "own_digest": replace(
                header, own_digest=bytes([header.own_digest[0] ^ 1])
                + header.own_digest[1:]),
        }
        for field_name, mutant in mutants.items():
            tampered = list(headers)
            tampered[i] = mutant
            if ledger.verify_headers_detail(tampered, chain.difficulty_bits)[0]:
                missed.append(f"{field_name}@{i}")
    _verdict("C8 header mutation", not missed,
             "; ".join(missed) or f"{len(headers) * 5} mutations all rejected")


# ---------------------------------------------------------------- C9

DETERMINISM_RUNS: list[tuple[str, int | None]] = [
    ("baseline", None), ("replay", None), ("cut1_forged_view", None),
    ("cut2_owner_skip", None), ("cut3_response", None), ("cut45_all", None),
    ("cut45_single_path", None), ("collusion_social", None),
    ("collusion_voting", None), ("eclipse", None), ("revert", None),
    ("crash_payment", None), ("distributed", None), ("p2p", None),
    ("baseline", 1001), ("cut3_response", 1002), ("collusion_social", 1003),
    ("cut45_all", 1004), ("revert", 1005), ("crash_payment", 1006),
]


def test_c9_determinism_twenty_scenarios():
    """20 scenario/seed combinations, each run twice: event log digest and
    canonical report digest must be identical byte for byte."""
    diverged = []
    for name, seed in DETERMINISM_RUNS:
        digests = []
        for _ in range(2):
            world = _run(name, seed)
            digests.append((world.sim.log.digest(),
                            report_digest(build_report(world))))
        if digests[0] != digests[1]:
            diverged.append(f"{name}/{seed}")
    _verdict("C9 determinism", not diverged,
             "; ".join(diverged) or "20 scenario runs bit-identical twice")
