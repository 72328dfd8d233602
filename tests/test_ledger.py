"""Ledger: conservation, double-spend, consistency, header verification.

The derived expectations each get an independent oracle implemented here:
a brute-force spent-set replay for double spends, a plain prefix comparator
for consistency, and hashlib recomputation for header mutations.
"""
from __future__ import annotations

import dataclasses
import hashlib
from collections import Counter
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from leasim import ledger, powcore, runner, scenario
from leasim.coins import coins
from leasim.simnet import Simulation
from tests.conftest import extend, mk_chain

DIFF = 8  # test-scale difficulty


def replay_oracle(chain: ledger.Chain) -> bool:
    """Brute-force double-spend oracle: replay every block against a fresh spent set."""
    spent: set[str] = set()
    for block in chain.blocks:
        for tx in block.txs:
            for note_id in tx.inputs:
                if note_id in spent:
                    return False
                spent.add(note_id)
    return True


def prefix_oracle(a: ledger.Chain, b: ledger.Chain) -> bool:
    """Brute-force prefix comparator over full header lists."""
    ha = [h.own_digest for h in a.headers()]
    hb = [h.own_digest for h in b.headers()]
    n = min(len(ha), len(hb))
    return ha[:n] == hb[:n]


def spend(chain: ledger.Chain, address: str, outputs, signer=None):
    note = chain.unspent_notes(address)[0]
    return ledger.make_transaction([note.note_id], outputs, {signer or address})


class TestAppendBlock:
    def test_empty_block_on_genesis_only_chain(self):
        chain = mk_chain(DIFF)
        chain = chain.append_block([])
        assert chain.height == 1

    def test_value_conserving_split_accepted(self):
        chain = mk_chain(DIFF, {"a": 100})
        tx = spend(chain, "a", [("b", 60, "change"), ("c", 40, "change")])
        chain = chain.append_block([tx])
        assert chain.balance("b") == 60 and chain.balance("c") == 40
        assert replay_oracle(chain)

    def test_double_spend_rejected(self):
        chain = mk_chain(DIFF, {"a": 100})
        tx1 = spend(chain, "a", [("b", 100, "change")])
        tx2 = spend(chain, "a", [("c", 100, "change")])
        with pytest.raises(ledger.InvalidTransaction, match="double spend"):
            chain.append_block([tx1, tx2])
        # the accepted ordering still satisfies the replay oracle
        assert replay_oracle(chain.append_block([tx1]))

    def test_imbalanced_tx_rejected(self):
        chain = mk_chain(DIFF, {"a": 100})
        tx = spend(chain, "a", [("b", 99, "change")])
        with pytest.raises(ledger.InvalidTransaction, match="imbalance"):
            chain.append_block([tx])

    def test_intra_block_chaining_allowed(self):
        chain = mk_chain(DIFF, {"a": 100})
        tx1 = spend(chain, "a", [("b", 100, "change")])
        child_note = tx1.outputs[0][0]
        tx2 = ledger.make_transaction([child_note.note_id], [("c", 100, "change")], {"b"})
        chain = chain.append_block([tx1, tx2])
        assert chain.balance("c") == 100

    def test_burn_output_unspendable(self):
        chain = mk_chain(DIFF, {"a": 100})
        tx = spend(chain, "a", [(ledger.BURN_ADDRESS, 100, "burn")])
        chain = chain.append_block([tx])
        burned_note = tx.outputs[0][0]
        steal = ledger.make_transaction(
            [burned_note.note_id], [("thief", 100, "change")], {ledger.BURN_ADDRESS, "thief"}
        )
        with pytest.raises(ledger.InvalidTransaction, match="burn"):
            chain.append_block([steal])
        assert chain.balance(ledger.BURN_ADDRESS) == 100

    def test_repeat_and_late_issuance_rejected(self):
        chain = mk_chain(DIFF, {"a": 100})
        tx = spend(chain, "a", [("b", 100, "change")])
        chain = chain.append_block([tx])
        with pytest.raises(ledger.InvalidTransaction, match="already included"):
            chain.append_block([tx])
        minted = ledger.make_transaction([], [("b", 5, "funding")], set(), memo="mint")
        with pytest.raises(ledger.InvalidTransaction, match="issuance outside genesis"):
            chain.append_block([minted])

    def test_missing_signer_rejected(self):
        chain = mk_chain(DIFF, {"a": 100})
        note = chain.unspent_notes("a")[0]
        tx = ledger.make_transaction([note.note_id], [("b", 100, "change")], {"someone_else"})
        with pytest.raises(ledger.InvalidTransaction, match="signer"):
            chain.append_block([tx])


class TestConservation:
    def test_full_scan_balances_issuance(self):
        chain = mk_chain(DIFF, {"a": 70, "b": 30})
        tx = spend(chain, "a", [("c", 50, "change"), (ledger.BURN_ADDRESS, 20, "burn")])
        chain = extend(chain.append_block([tx]), 3)
        ok, diag = chain.verify_full()
        assert ok, diag
        total = sum(chain.balance(addr) for addr in ("a", "b", "c", ledger.BURN_ADDRESS))
        assert total == chain.issuance == 100

    def test_balances_match_per_address_balance(self):
        chain = mk_chain(DIFF, {"a": 70, "b": 30})
        tx1 = spend(chain, "a", [("c", 50, "change"), ("a", 15, "change"),
                                 (ledger.BURN_ADDRESS, 5, "burn")])
        chain = chain.append_block([tx1])
        tx2 = spend(chain, "c", [("b", 50, "change")])
        chain = chain.append_block([tx2])
        held = chain.balances()
        assert held == {"a": 15, "b": 80, ledger.BURN_ADDRESS: 5}
        assert held == {addr: chain.balance(addr)
                        for addr in ("a", "b", ledger.BURN_ADDRESS)}
        assert chain.balance("c") == 0 and "c" not in held


class TestConfirmations:
    def test_tip_block_has_one_confirmation(self, base_chain):
        chain = base_chain.append_block([])
        tx = spend(chain, "renter:r1", [("x", coins(100), "change")], signer="renter:r1")
        chain = chain.append_block([tx])
        assert chain.confirmations(tx.tx_id) == 1

    def test_depth_arithmetic(self, base_chain):
        tx = spend(base_chain, "renter:r1", [("x", coins(100), "change")], signer="renter:r1")
        chain = extend(base_chain.append_block([tx]), 5)
        assert chain.confirmations(tx.tx_id) == 6

    def test_absent_tx_zero(self, base_chain):
        assert base_chain.confirmations("f" * 64) == 0


class TestConsistency:
    def test_identical_chains(self):
        chain = extend(mk_chain(DIFF), 1)
        assert ledger.check_consistency(chain.headers(), chain.headers(), DIFF) is True

    def test_extension_is_consistent(self):
        base = extend(mk_chain(DIFF), 1)
        longer = extend(base, 1)
        assert ledger.check_consistency(longer.headers(), base.headers(), DIFF) is True
        assert ledger.check_consistency(base.headers(), longer.headers(), DIFF) is True  # symmetric

    def test_fork_is_inconsistent(self):
        base = extend(mk_chain(DIFF), 1)
        fork_a = base.append_block([])
        tx = spend(base, "renter:r1", [("x", coins(100), "change")], signer="renter:r1")
        fork_b = base.append_block([tx])
        assert fork_a.tip.own_digest != fork_b.tip.own_digest
        assert ledger.check_consistency(fork_a.headers(), fork_b.headers(), DIFF) is False

    def test_malformed_input_raises(self):
        chain = extend(mk_chain(DIFF), 1)
        headers = chain.headers()
        bad = headers[:-1] + [
            ledger.BlockHeader(
                headers[-1].height, headers[-1].prev_digest,
                headers[-1].payload_digest, headers[-1].pow_nonce + 1,
                headers[-1].own_digest,
            )
        ]
        with pytest.raises(ledger.MalformedChain):
            ledger.check_consistency(bad, headers, DIFF)

    def test_overlapping_suffixes(self):
        chain = extend(mk_chain(DIFF), 5)
        longer = extend(chain, 2)
        a = chain.headers_from(2)  # heights 2..5
        b = longer.headers_from(4)  # heights 4..7
        assert ledger.check_consistency(a, b, DIFF) is True

    def test_disjoint_windows_cannot_be_attested(self):
        chain = extend(mk_chain(DIFF), 8)
        early = chain.headers()[1:3]
        late = chain.headers()[6:]
        assert ledger.check_consistency(early, late, DIFF) is False

    def test_exhaustive_fork_at_k_matches_prefix_oracle(self):
        """Every fork point k and every pair of prefix lengths vs the oracle."""
        trunk = extend(mk_chain(DIFF), 5)  # heights 0..5
        trunks = [ledger.Chain.from_blocks(DIFF, trunk.blocks[: i + 1]) for i in range(6)]
        marker = spend(trunk, "renter:r1", [("fork", coins(1), "change"),
                                            ("renter:r1", coins(99), "change")],
                       signer="renter:r1")
        for k in range(1, 6):  # fork after k blocks (shared prefix length k)
            branch = trunks[k - 1].append_block([marker])
            branches = [branch]
            while branch.height < 5:
                branch = branch.append_block([])
                branches.append(branch)
            for a in trunks:
                for b in branches:
                    expect = prefix_oracle(a, b)
                    assert ledger.check_consistency(a.headers(), b.headers(), DIFF) is expect
                    assert ledger.check_consistency(b.headers(), a.headers(), DIFF) is expect
                    # fork point beyond the shorter tip <=> consistent
                    assert expect is (k >= min(a.height, b.height) + 1 or b.height < k)


class TestVerifyHeaders:
    def test_honest_sequence_accepted(self):
        chain = extend(mk_chain(DIFF), 9)  # 10 headers total
        assert ledger.verify_headers_detail(chain.headers(), DIFF)[0]

    def test_broken_prev_link_rejected(self):
        headers = extend(mk_chain(DIFF), 3).headers()
        h = headers[2]
        headers[2] = ledger.BlockHeader(
            h.height, b"\x99" * 32, h.payload_digest, h.pow_nonce, h.own_digest
        )
        assert not ledger.verify_headers_detail(headers, DIFF)[0]

    def test_zeroed_nonce_rejected_by_digest_oracle(self):
        headers = extend(mk_chain(DIFF), 3).headers()
        h = headers[1]
        forged = ledger.BlockHeader(h.height, h.prev_digest, h.payload_digest, 0, h.own_digest)
        # independent recomputation shows the stored digest no longer matches
        assert forged.recompute_digest() != forged.own_digest
        headers[1] = forged
        assert not ledger.verify_headers_detail(headers, DIFF)[0]


    @staticmethod
    def chain_headers(kind: str, tag: str) -> list[ledger.BlockHeader]:
        """Four headers of one chain: built directly ("plain"), or posted and
        not read yet, each but the first holding its unread parent instead of
        its prev_digest ("posted")."""
        headers = extend(mk_chain(DIFF, seed_tag=tag), 3).headers()
        if kind == "plain":
            return [oracle_header(h.height, h.prev_digest, h.payload_digest, DIFF)
                    for h in headers]
        assert all(unread(h) and "prev_digest" not in vars(h) for h in headers[1:])
        return headers

    @pytest.mark.parametrize("kind", ["plain", "posted"])
    def test_each_refusal(self, kind):
        payload = hashlib.sha256(b"refusal").digest()
        headers = self.chain_headers(kind, f"refusals-{kind}")
        if kind == "plain":
            negative = ledger.BlockHeader(-1, headers[0].own_digest, payload, 0, bytes(32))
            genesis = oracle_header(0, headers[2].own_digest, payload, DIFF)
        else:
            negative = ledger.BlockHeader.posted(-1, headers[1], payload, 0)
            genesis = ledger.BlockHeader.posted(0, headers[2], payload, DIFF)
            assert "prev_digest" not in vars(negative) and "prev_digest" not in vars(genesis)
        assert ledger.verify_headers_detail([negative], DIFF) == (False, "negative height -1")
        assert ledger.verify_headers_detail([headers[0], headers[2]], DIFF) == (
            False, "height gap 0 -> 2")
        assert ledger.verify_headers_detail([genesis], DIFF) == (
            False, "genesis prev digest not zero")
        missed = next(h.height for h in headers if not powcore.meets_target(h.own_digest, 2 * DIFF))
        assert ledger.verify_headers_detail(headers, 2 * DIFF) == (
            False, f"pow target missed at height {missed}")
        assert genesis.prev_digest == headers[2].own_digest
        assert ledger.verify_headers_detail(headers, DIFF) == (True, "ok")


def _flip(digest: bytes) -> bytes:
    return bytes([digest[0] ^ 1]) + digest[1:]


class TestHeaderCheckCache:
    """Each header object is hashed once; copies and tampering are not fooled."""

    def test_copies_of_a_checked_header_fail_with_the_same_diagnostic(self):
        chain = extend(mk_chain(DIFF), 4)
        headers = chain.headers()
        assert ledger.verify_headers_detail(headers, DIFF) == (True, "ok")
        for i, h in enumerate(headers):
            mutants = {
                "height": (dataclasses.replace(h, height=h.height + 1), h.height + 1),
                "prev_digest": (dataclasses.replace(h, prev_digest=_flip(h.prev_digest)),
                                h.height),
                "payload_digest": (
                    dataclasses.replace(h, payload_digest=_flip(h.payload_digest)), h.height),
                "pow_nonce": (dataclasses.replace(h, pow_nonce=h.pow_nonce + 1), h.height),
                "own_digest": (dataclasses.replace(h, own_digest=_flip(h.own_digest)),
                               h.height),
            }
            for name, (mutant, at) in mutants.items():
                tampered = headers[:i] + [mutant] + headers[i + 1:]
                assert ledger.verify_headers_detail(tampered, DIFF) == (
                    False, f"digest mismatch at height {at}"), f"{name}@{i}"
            assert h.digest_ok  # the original is still valid

    def test_remined_copy_fails_on_its_link(self):
        headers = extend(mk_chain(DIFF), 3).headers()
        assert ledger.verify_headers_detail(headers, DIFF)[0]
        h = headers[1]
        payload = _flip(h.payload_digest)
        nonce, digest = powcore.mine_nonce(h.height, h.prev_digest, payload, DIFF)
        remined = dataclasses.replace(h, payload_digest=payload, pow_nonce=nonce,
                                      own_digest=digest)
        assert ledger.verify_headers_detail(headers[:1] + [remined] + headers[2:], DIFF) == (
            False, "broken prev link at height 2")

    def test_checking_twice_gives_the_same_answer(self):
        headers = extend(mk_chain(DIFF), 3).headers()
        tampered = headers[:2] + [dataclasses.replace(headers[2], pow_nonce=0)]
        for view in (headers, tampered):
            first = ledger.verify_headers_detail(view, DIFF)
            assert ledger.verify_headers_detail(view, DIFF) == first
        assert ledger.verify_headers_detail(headers, DIFF) == (True, "ok")
        assert ledger.verify_headers_detail(tampered, DIFF) == (
            False, "digest mismatch at height 2")

    def test_run_hashes_each_distinct_header_at_most_once(self, monkeypatch):
        hashed: Counter = Counter()
        digest = powcore.header_digest

        def counting(*fields):
            hashed[fields] += 1
            return digest(*fields)

        monkeypatch.setattr(powcore, "header_digest", counting)
        checks = Counter()
        check = ledger.check_consistency

        def counting_check(*args):
            checks["calls"] += 1
            return check(*args)

        monkeypatch.setattr(ledger, "check_consistency", counting_check)
        path = resources.files("leasim") / "scenarios" / "baseline.yaml"
        world = runner.run_scenario(scenario.load_scenario(str(path)))
        assert checks["calls"] >= 3  # every slot's consistency gate ran
        assert hashed and max(hashed.values()) == 1
        ok, diag = world.node.chain.verify_full()
        assert ok, diag
        assert max(hashed.values()) == 1


def oracle_header(height: int, prev: bytes, payload: bytes, bits: int) -> ledger.BlockHeader:
    """A header built directly, its nonce found by trying each from 0."""
    nonce = 0
    while True:
        digest = hashlib.sha256(height.to_bytes(8, "big") + prev + payload
                                + nonce.to_bytes(8, "big")).digest()
        if int.from_bytes(digest, "big") >> (256 - bits) == 0:
            return ledger.BlockHeader(height, prev, payload, nonce, digest)
        nonce += 1


def unread(header: ledger.BlockHeader) -> bool:
    return "pow_nonce" not in vars(header) and "own_digest" not in vars(header)


class TestPostedHeader:
    """A header mined in the background, read first through any one of its
    uses, agrees field for field with one built directly."""

    USES = {
        "pow_nonce": lambda h: h.pow_nonce,
        "own_digest": lambda h: h.own_digest,
        "digest_ok": lambda h: h.digest_ok,
        "eq": lambda h: h == oracle_header(h.height, h.prev_digest, h.payload_digest, DIFF),
        "hash": hash,
        "repr": repr,
        "replace": lambda h: dataclasses.replace(h, height=h.height),
    }

    @pytest.mark.parametrize("use", sorted(USES))
    def test_first_read_agrees_with_a_direct_header(self, use):
        tip = extend(mk_chain(DIFF, seed_tag=f"posted-{use}"), 2).tip
        assert unread(tip)
        direct = oracle_header(tip.height, tip.prev_digest, tip.payload_digest, DIFF)
        assert self.USES[use](tip) == self.USES[use](direct)
        assert vars(tip) == vars(direct)  # plain attributes from now on
        assert (tip.pow_nonce, tip.own_digest) == (direct.pow_nonce, direct.own_digest)

    def test_chain_of_posted_blocks_rebuilds_and_verifies(self):
        chain = extend(mk_chain(DIFF, seed_tag="posted-chain"), 4)
        assert unread(chain.tip)
        assert ledger.Chain.from_blocks(DIFF, chain.blocks).height == 4
        assert chain.verify_full() == (True, "ok")
        for header in chain.headers():
            assert header == oracle_header(header.height, header.prev_digest,
                                           header.payload_digest, DIFF)

    def test_a_copy_made_before_the_first_read_is_complete(self):
        tip = extend(mk_chain(DIFF, seed_tag="posted-copy"), 1).tip
        copy = dataclasses.replace(tip, pow_nonce=0)
        assert not unread(copy) and copy.pow_nonce == 0
        assert copy.own_digest == tip.own_digest and not copy.digest_ok


class TestPostedChains:
    """Blocks queued behind unread parents, forks on older blocks and a
    second genesis, read in any order, each agree with a header built
    directly."""

    def test_forks_and_a_new_genesis_read_as_direct_headers(self):
        base = extend(mk_chain(DIFF, seed_tag="posted-fork"), 1)
        main = extend(base, 3)
        fork = extend(base, 2)  # on block 1: not the block posted last
        other = mk_chain(DIFF, seed_tag="posted-other")
        main = extend(main, 1)  # on main's tip: not the block posted last
        assert unread(main.tip) and unread(fork.tip) and unread(other.tip)
        for chain in (fork, other, main):
            assert chain.verify_full() == (True, "ok")
            for header in reversed(chain.headers()):
                assert header == oracle_header(header.height, header.prev_digest,
                                               header.payload_digest, DIFF)
        assert fork.blocks[1] is main.blocks[1]

    def test_reading_the_tip_reads_every_unread_ancestor_once(self, monkeypatch):
        reads = []
        mine_nonce = powcore.mine_nonce

        def reading(*job):
            reads.append(job[0])
            return mine_nonce(*job)

        chain = extend(mk_chain(DIFF, seed_tag="posted-order"), 5)
        monkeypatch.setattr(powcore, "mine_nonce", reading)
        assert chain.tip.prev_digest  # resolves the ancestors, not the tip
        assert reads == [0, 1, 2, 3, 4] and unread(chain.tip)
        assert chain.tip.own_digest
        assert reads == [0, 1, 2, 3, 4, 5]
        assert all(not unread(h) and "_parent" not in vars(h) for h in chain.headers())


class TestHeadersFrom:
    def test_equals_the_height_filter(self):
        chain = extend(mk_chain(DIFF), 5)
        for lo in range(-2, 8):
            assert chain.headers_from(lo) == [h for h in chain.headers() if h.height >= lo]
            for hi in range(-2, 8):
                assert chain.headers_from(lo, hi) == [
                    h for h in chain.headers() if lo <= h.height <= hi]


class TestSubmitAndMempool:
    def test_valid_tx_included_next_block(self, base_chain):
        pool = ledger.Mempool()
        tx = spend(base_chain, "renter:r1", [("x", coins(100), "change")], signer="renter:r1")
        pool.submit(tx, base_chain)
        chain, included = pool.assemble(base_chain)
        assert tx.tx_id in included and chain.has_tx(tx.tx_id)

    def test_duplicate_delivery_included_once(self, base_chain):
        pool = ledger.Mempool()
        tx = spend(base_chain, "renter:r1", [("x", coins(100), "change")], signer="renter:r1")
        pool.submit(tx, base_chain)
        pool.submit(tx, base_chain)  # second delivery path
        chain, included = pool.assemble(base_chain)
        assert included.count(tx.tx_id) == 1
        pool.submit(tx, chain)  # after inclusion: accepted no-op
        chain2, included2 = pool.assemble(chain)
        assert included2 == []

    def test_out_of_order_parent_then_child_land_together(self, base_chain):
        pool = ledger.Mempool()
        tx1 = spend(base_chain, "renter:r1", [("mid", coins(100), "change")], signer="renter:r1")
        tx2 = ledger.make_transaction(
            [tx1.outputs[0][0].note_id], [("far", coins(100), "change")], {"mid"}
        )
        pool.submit(tx2, base_chain)  # child first: stays pending
        chain, included = pool.assemble(base_chain)
        assert included == []
        pool.submit(tx1, chain)
        chain, included = pool.assemble(chain)
        assert set(included) == {tx1.tx_id, tx2.tx_id}

    def test_conflicting_spend_rejected_permanently(self, base_chain):
        pool = ledger.Mempool()
        tx1 = spend(base_chain, "renter:r1", [("x", coins(100), "change")], signer="renter:r1")
        tx2 = spend(base_chain, "renter:r1", [("y", coins(100), "change")], signer="renter:r1")
        pool.submit(tx1, base_chain)
        pool.submit(tx2, base_chain)
        chain, included = pool.assemble(base_chain)
        assert included == [tx1.tx_id]
        assert not pool.pending  # dropped, not kept for a later block
        with pytest.raises(ledger.InvalidTransaction, match="double spend"):
            chain.append_block([tx2])

    def test_orphan_child_stays_pending_while_double_spend_is_rejected(self):
        chain = mk_chain(DIFF, {"a": 100})
        landed = spend(chain, "a", [("b", 100, "change")])
        chain = chain.append_block([landed])
        rival = ledger.make_transaction(list(landed.inputs), [("c", 100, "change")], {"a"})
        parent = spend(chain, "b", [("mid", 100, "change")])  # not submitted yet
        child = ledger.make_transaction(
            [parent.outputs[0][0].note_id], [("far", 100, "change")], {"mid"}
        )
        with pytest.raises(ledger.UnknownInput):
            chain.append_block([child])
        pool = ledger.Mempool()
        pool.submit(child, chain)
        pool.submit(rival, chain)
        chain, included = pool.assemble(chain)
        assert included == []
        assert list(pool.pending) == [child.tx_id]
        with pytest.raises(ledger.InvalidTransaction) as rejected:
            chain.append_block([rival])  # why the pool dropped it
        assert type(rejected.value) is ledger.InvalidTransaction
        assert rejected.value.cause == f"double spend of {landed.inputs[0]}"
        pool.submit(parent, chain)
        chain, included = pool.assemble(chain)
        assert included == [parent.tx_id, child.tx_id] and not pool.pending


class TestChainNodeStop:
    """The node's grace countdown ignores transactions waiting on a missing
    input; it stops grace_blocks blocks after the done check first holds."""

    INTERVAL, GRACE = 10.0, 3

    def run_node(self, chain, arrivals):
        """Mine with a done check that always holds; ``arrivals`` are
        (time, tx) broadcasts to the node. Returns the node and its log."""
        sim = Simulation(0)
        node = runner.ChainNodeActor("node:main", chain, block_interval=self.INTERVAL,
                                     grace_blocks=self.GRACE, done_check=lambda: True)
        sim.register(node.node_id, node)
        node.start(sim)
        for at, tx in arrivals:
            sim.schedule_at(at, lambda tx=tx: sim.send("renter:a", node.node_id,
                                                       "tx_broadcast", {"tx": tx}))
        sim.run(until=1000.0)
        return node, [line.split(" ", 1)[1] for line in sim.log.lines
                      if " actor=node:main " in line]

    @staticmethod
    def parent_and_child(chain):
        parent = spend(chain, "a", [("mid", 100, "change")])
        child = ledger.make_transaction(
            [parent.outputs[0][0].note_id], [("far", 100, "change")], {"mid"})
        return parent, child

    def test_child_lands_with_parent_that_arrives_during_grace(self):
        chain = mk_chain(DIFF, {"a": 100})
        parent, child = self.parent_and_child(chain)
        node, log = self.run_node(chain, [(0.0, child), (15.0, parent)])
        assert node.stopped and node.chain.height == self.GRACE
        assert node.chain.blocks[2].txs == (parent, child)
        assert not node.pool.pending
        assert [line for line in log if "kind=recv:" not in line] == [
            "actor=node:main kind=block_mined height=1 txs=0",
            "actor=node:main kind=block_mined height=2 txs=2",
            "actor=node:main kind=block_mined height=3 txs=0",
            "actor=node:main kind=mining_stopped height=3",
        ]

    def test_child_without_parent_is_orphaned_once(self):
        chain = mk_chain(DIFF, {"a": 100})
        _parent, child = self.parent_and_child(chain)
        node, log = self.run_node(chain, [(0.0, child)])
        assert node.stopped and node.chain.height == self.GRACE
        assert not node.chain.has_tx(child.tx_id)
        assert list(node.pool.pending) == [child.tx_id]
        assert log[-2:] == [f"actor=node:main kind=tx_orphaned tx={child.tx_id}",
                            "actor=node:main kind=mining_stopped height=3"]
        assert sum("kind=tx_orphaned" in line for line in log) == 1


def _included_by_append_block(chain, offered):
    """Reference for ``Mempool.assemble`` through the public path: passes
    over ``offered`` in order, keeping each tx that ``append_block`` takes
    after the ones kept so far, until a pass keeps nothing. Returns the kept
    txs and those still waiting on an unknown input."""
    kept: list[ledger.Transaction] = []
    left = list(offered)
    progress = True
    while progress:
        progress = False
        for tx in list(left):
            try:
                chain.append_block(kept + [tx])
            except ledger.UnknownInput:
                continue
            except ledger.InvalidTransaction:
                left.remove(tx)
                continue
            kept.append(tx)
            left.remove(tx)
            progress = True
    return kept, left


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.data())
def test_assemble_matches_append_block(data):
    """``Mempool.assemble`` mines the block ``Chain.append_block`` mines from
    the txs the reference keeps, and leaves the same txs pending. Mempools
    mix valid spends, conflicting spends (txs sharing a note), children
    submitted a block before their parent, and txs that fail for a missing
    signer, an imbalance or a spent burn output."""
    addresses = ("a", "b", "c")
    chain = mk_chain(4, {addr: 10 for addr in addresses})
    notes = [note for note, _ in chain.blocks[0].txs[0].outputs]
    rounds: list[list[ledger.Transaction]] = [[], [], []]
    for i in range(data.draw(st.integers(1, 10))):
        # newest first, so children of earlier draws are common
        inputs = data.draw(st.lists(st.sampled_from(notes[::-1]), min_size=1, max_size=2,
                                    unique=True))
        value = sum(note.value for note in inputs)
        fault = data.draw(st.sampled_from(("none", "signer", "imbalance", "burn")))
        to = data.draw(st.sampled_from(addresses))
        outputs = [(to, value + (fault == "imbalance"), "change")]
        if fault == "burn":  # valid, but a later spend of its output is not
            outputs = [(ledger.BURN_ADDRESS, value, "burn")]
        signers = {"nobody"} if fault == "signer" else {note.owner_address for note in inputs}
        tx = ledger.make_transaction(
            [note.note_id for note in inputs], outputs, signers, memo=f"t{i}")
        notes.append(tx.outputs[0][0])
        rounds[data.draw(st.integers(0, 2))].append(tx)

    pool = ledger.Mempool()
    for batch in rounds:
        for tx in batch:
            pool.submit(tx, chain)
        kept, left = _included_by_append_block(chain, list(pool.pending.values()))
        new_chain, included = pool.assemble(chain)
        reference = chain.append_block(kept)
        assert included == [tx.tx_id for tx in kept]
        assert list(pool.pending) == [tx.tx_id for tx in left]
        assert new_chain.blocks == reference.blocks
        assert ([h.own_digest for h in new_chain.headers()]
                == [h.own_digest for h in reference.headers()])
        chain = new_chain

    rebuilt = ledger.Chain.from_blocks(chain.difficulty_bits, chain.blocks)
    assert rebuilt.balances() == chain.balances()
    drawn = [tx.tx_id for batch in rounds for tx in batch]
    assert ([rebuilt.inclusion_height(tx_id) for tx_id in drawn]
            == [chain.inclusion_height(tx_id) for tx_id in drawn])


class TestObserver:
    def test_non_party_sees_existence_and_output_count_only(self, base_chain):
        tx = spend(base_chain, "renter:r1",
                   [("x", coins(60), "change"), ("y", coins(40), "change")], signer="renter:r1")
        chain = base_chain.append_block([tx])
        view = chain.observe_tx(tx.tx_id)
        assert view == {
            "tx_id": tx.tx_id, "exists": True, "output_count": 2, "confirmations": 1
        }

    def test_party_sees_own_outputs(self, base_chain):
        tx = spend(base_chain, "renter:r1",
                   [("x", coins(60), "change"), ("y", coins(40), "change")], signer="renter:r1")
        chain = base_chain.append_block([tx])
        view = chain.observe_tx(tx.tx_id, viewer="x")
        assert [o["value"] for o in view["own_outputs"]] == [coins(60)]
        assert view["own_spent_inputs"] == []

    def test_absent_tx_is_none(self, base_chain):
        assert base_chain.observe_tx("0" * 64) is None


@settings(max_examples=40, deadline=None)
@given(
    split=st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=4),
    burn=st.integers(min_value=0, max_value=30),
)
def test_conservation_property(split, burn):
    """Any sequence of conserving txs keeps total unspent equal to issuance."""
    total = sum(split) + burn
    chain = mk_chain(6, {"src": total})
    outputs = [(f"w{i}", v, "change") for i, v in enumerate(split)]
    if burn:
        outputs.append((ledger.BURN_ADDRESS, burn, "burn"))
    note = chain.unspent_notes("src")[0]
    chain = chain.append_block(
        [ledger.make_transaction([note.note_id], outputs, {"src"})]
    )
    ok, diag = chain.verify_full()
    assert ok, diag
    assert chain.balance(ledger.BURN_ADDRESS) == burn
    assert replay_oracle(chain)
