"""Ledger: conservation, double-spend, consistency, header verification.

The derived expectations each get an independent oracle implemented here:
a brute-force spent-set replay for double spends, a plain prefix comparator
for consistency, and hashlib recomputation for header mutations.
"""
from __future__ import annotations

import dataclasses
from collections import Counter
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from leasim import ledger, powcore, runner, scenario
from leasim.coins import coins
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
        assert chain.burned_total() == 100

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
        assert ledger.check_consistency(chain, chain, DIFF) is True

    def test_extension_is_consistent(self):
        base = extend(mk_chain(DIFF), 1)
        longer = extend(base, 1)
        assert ledger.check_consistency(longer, base, DIFF) is True
        assert ledger.check_consistency(base, longer, DIFF) is True  # symmetric

    def test_fork_is_inconsistent(self):
        base = extend(mk_chain(DIFF), 1)
        fork_a = base.append_block([])
        tx = spend(base, "renter:r1", [("x", coins(100), "change")], signer="renter:r1")
        fork_b = base.append_block([tx])
        assert fork_a.tip.own_digest != fork_b.tip.own_digest
        assert ledger.check_consistency(fork_a, fork_b, DIFF) is False

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
        a = chain.header_suffix(4)  # heights 2..5
        b = longer.header_suffix(4)  # heights 4..7
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
                    assert ledger.check_consistency(a, b, DIFF) is expect
                    assert ledger.check_consistency(b, a, DIFF) is expect
                    # fork point beyond the shorter tip <=> consistent
                    assert expect is (k >= min(a.height, b.height) + 1 or b.height < k)


class TestVerifyHeaders:
    def test_honest_sequence_accepted(self):
        chain = extend(mk_chain(DIFF), 9)  # 10 headers total
        assert ledger.verify_headers(chain.headers(), DIFF)

    def test_broken_prev_link_rejected(self):
        headers = extend(mk_chain(DIFF), 3).headers()
        h = headers[2]
        headers[2] = ledger.BlockHeader(
            h.height, b"\x99" * 32, h.payload_digest, h.pow_nonce, h.own_digest
        )
        assert not ledger.verify_headers(headers, DIFF)

    def test_zeroed_nonce_rejected_by_digest_oracle(self):
        headers = extend(mk_chain(DIFF), 3).headers()
        h = headers[1]
        forged = ledger.BlockHeader(h.height, h.prev_digest, h.payload_digest, 0, h.own_digest)
        # independent recomputation shows the stored digest no longer matches
        assert forged.recompute_digest() != forged.own_digest
        headers[1] = forged
        assert not ledger.verify_headers(headers, DIFF)


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
        assert ledger.verify_headers(headers, DIFF)
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
        assert [r[0] for r in pool.rejected] == [tx2.tx_id]

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
        assert pool.rejected == [(rival.tx_id, f"double spend of {landed.inputs[0]}")]
        pool.submit(parent, chain)
        chain, included = pool.assemble(chain)
        assert included == [parent.tx_id, child.tx_id] and not pool.pending


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


class TestDumpRestore:
    def test_round_trip(self):
        chain = mk_chain(DIFF, {"a": 100, "b": 7})
        tx = spend(chain, "a", [("c", 30, "reward"), ("a", 70, "change")])
        chain = extend(chain.append_block([tx]), 2)
        text = ledger.dump_chain(chain)
        restored = ledger.restore_chain(text)
        assert restored.tip.own_digest == chain.tip.own_digest
        assert restored.balance("c") == 30
        assert ledger.dump_chain(restored) == text

    def test_tampered_dump_rejected(self):
        chain = extend(mk_chain(DIFF), 1)
        text = ledger.dump_chain(chain).replace("nonce=", "nonce=9", 1)
        with pytest.raises(ledger.MalformedChain):
            ledger.restore_chain(text)


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
    assert chain.burned_total() == burn
    assert replay_oracle(chain)
