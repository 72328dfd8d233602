"""Simulated anonymous ledger.

Proof-of-work header chain over note-based transactions. What the simulation
relies on:

- block headers: own_digest = H(height, prev_digest, payload_digest, nonce),
  interpreted as an integer below the difficulty target; prev links continuous
- value conservation: every non-genesis transaction spends exactly what it
  creates; the only issuance is the genesis block
- no double spend: inclusion-time validation against the spent-note set
- burn outputs pay an address with no key and can never be spent
- anonymity as an observer rule: non-parties see that a transaction exists and
  its output count, nothing else; parties see their own notes
- consistency of two header sequences: both individually valid and equal on
  the overlap of their height ranges (for genesis-rooted chains this is the
  prefix-by-digests relation)

One state transition: ``_State.apply(tx, height)`` is the only place a
transaction is validated and recorded in a chain's state (note index, spent
set, inclusion heights, issuance). ``Chain.genesis``, ``append_block``,
``from_blocks`` and ``Mempool.assemble`` all go through it. It raises before
changing anything, so a rejected transaction leaves the state as it was.

One state copy per block: a new block copies its parent's state once and
applies its transactions to the copy, then mines. Chains are immutable
snapshots, so any actor can hold a view without copy hazards. The mempool
validates each pending transaction against the copy it is building and mines
its block from that copy; it keeps transactions with unknown inputs pending
(settlement copies may land before their parent) and drops conflicting spends
permanently. What stays pending after ``assemble`` waits on an input no chain
holds, so it does not keep the chain node mining: once every campaign is
settled the node stops after its grace blocks and logs each such transaction
as ``tx_orphaned``.

A block is posted when it is assembled and resolved on first read: the
header ``Chain._mine`` builds hands its nonce search to ``powcore.post``
and leaves ``pow_nonce`` and ``own_digest`` unset. The first read of either
calls ``powcore.mine_nonce``, which joins the search, and sets both; after
that they are plain attributes. The next block's ``prev_digest`` is usually
that first read, so the search runs on the helper's CPU while the event
loop runs the block interval's events. A header built directly, or copied with
``dataclasses.replace``, holds both fields from the start. Either way the
values, ``==``, ``hash`` and ``repr`` are the same.

Each header object is hashed at most once: whether its recomputed digest
equals its ``own_digest`` is cached on the header itself
(``BlockHeader.digest_ok``) and lives exactly as long as that object. The
cache is per object, not per value, so a copy made with
``dataclasses.replace`` is hashed afresh, and nothing carries over from one
run to the next. The other header checks (target, heights, prev links) run
on every call.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import cached_property

from leasim import powcore

ZERO_DIGEST = b"\x00" * 32
BURN_ADDRESS = "burn"  # no key exists for this address, by construction

OUTPUT_KINDS = ("funding", "reward", "deposit_return", "fee", "refund", "change", "burn")

DEFAULT_DIFFICULTY_BITS = 12


class LedgerError(Exception):
    pass


class InvalidTransaction(LedgerError):
    def __init__(self, tx_id: str, cause: str):
        super().__init__(f"invalid tx {tx_id}: {cause}")
        self.tx_id = tx_id
        self.cause = cause


class UnknownInput(InvalidTransaction):
    """A spent note is not on the chain yet; its parent may still land."""


class MalformedChain(LedgerError):
    pass


@dataclass(frozen=True)
class BlockHeader:
    height: int
    prev_digest: bytes
    payload_digest: bytes
    pow_nonce: int
    own_digest: bytes

    @classmethod
    def posted(cls, height: int, prev_digest: bytes, payload_digest: bytes,
               difficulty_bits: int) -> BlockHeader:
        """A header whose nonce search is posted now and joined on the first
        read of ``pow_nonce`` or ``own_digest``."""
        header = cls.__new__(cls)
        header.__dict__.update(height=height, prev_digest=prev_digest,
                               payload_digest=payload_digest, _bits=difficulty_bits)
        powcore.post(height, prev_digest, payload_digest, difficulty_bits)
        return header

    def __getattr__(self, name: str):
        # Reached only for an attribute that is not set: a posted header's
        # nonce and digest before the first read.
        fields = self.__dict__
        if name not in ("pow_nonce", "own_digest") or "_bits" not in fields:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        nonce, digest = powcore.mine_nonce(self.height, self.prev_digest,
                                           self.payload_digest, fields["_bits"])
        del fields["_bits"]
        fields.update(pow_nonce=nonce, own_digest=digest)
        return fields[name]

    def recompute_digest(self) -> bytes:
        return powcore.header_digest(
            self.height, self.prev_digest, self.payload_digest, self.pow_nonce
        )

    @cached_property
    def digest_ok(self) -> bool:
        """Whether ``own_digest`` is this header's digest, hashed once per
        object. The fields are frozen, so the answer cannot go stale."""
        return self.recompute_digest() == self.own_digest


@dataclass(frozen=True)
class Note:
    note_id: str
    owner_address: str
    value: int  # base units, >= 0


@dataclass(frozen=True)
class Transaction:
    tx_id: str
    inputs: tuple[str, ...]  # note_ids
    outputs: tuple[tuple[Note, str], ...]  # (note, output_kind)
    signers: frozenset[str]  # addresses authorizing the inputs
    memo: str = ""

    @property
    def is_issuance(self) -> bool:
        return not self.inputs

    def output_value(self) -> int:
        return sum(note.value for note, _ in self.outputs)

    def outputs_for(self, address: str) -> list[tuple[Note, str]]:
        return [(note, kind) for note, kind in self.outputs if note.owner_address == address]


def make_transaction(
    inputs: list[str],
    outputs: list[tuple[str, int, str]],
    signers: set[str] | frozenset[str],
    memo: str = "",
) -> Transaction:
    """Build a transaction with a content-derived id and derived note ids.

    `outputs` are (address, value, kind) triples; kinds from OUTPUT_KINDS.
    Identical content yields the same tx_id, which is what lets the ledger
    deduplicate settlement copies arriving over different delivery paths.
    """
    for _, value, kind in outputs:
        if kind not in OUTPUT_KINDS:
            raise ValueError(f"unknown output kind {kind!r}")
        if value < 0:
            raise ValueError("output value must be >= 0")
    canon = "tx|in:%s|out:%s|sig:%s|memo:%s" % (
        ",".join(inputs),
        ",".join(f"{addr}:{value}:{kind}" for addr, value, kind in outputs),
        ",".join(sorted(signers)),
        memo,
    )
    tx_id = hashlib.sha256(canon.encode()).hexdigest()
    notes = tuple(
        (Note(note_id=f"{tx_id[:24]}:{idx}", owner_address=addr, value=value), kind)
        for idx, (addr, value, kind) in enumerate(outputs)
    )
    return Transaction(
        tx_id=tx_id,
        inputs=tuple(inputs),
        outputs=notes,
        signers=frozenset(signers),
        memo=memo,
    )


def payload_digest_for(txs) -> bytes:
    """Block payload commitment from transactions or bare tx_id strings."""
    h = hashlib.sha256()
    for tx in txs:
        h.update(bytes.fromhex(tx if isinstance(tx, str) else tx.tx_id))
    return h.digest()


@dataclass(frozen=True)
class Block:
    header: BlockHeader
    txs: tuple[Transaction, ...]


@dataclass
class _State:
    """A chain's note, spent and inclusion indexes and its issuance total."""

    notes: dict[str, tuple[Note, int]] = field(default_factory=dict)  # id -> (note, height)
    spent: dict[str, str] = field(default_factory=dict)  # note_id -> spending tx_id
    tx_heights: dict[str, int] = field(default_factory=dict)  # tx_id -> inclusion height
    issuance: int = 0

    def copy(self) -> _State:
        return _State(dict(self.notes), dict(self.spent), dict(self.tx_heights), self.issuance)

    def apply(self, tx: Transaction, height: int) -> None:
        """The state transition: validate ``tx`` against this state, then
        record it at ``height``. Raises InvalidTransaction (UnknownInput for
        a note not created yet) before changing anything."""
        if tx.tx_id in self.tx_heights:
            raise InvalidTransaction(tx.tx_id, "already included")
        if tx.is_issuance:
            if height != 0:
                raise InvalidTransaction(tx.tx_id, "issuance outside genesis")
            self.issuance += tx.output_value()
        else:
            in_value = 0
            for note_id in tx.inputs:
                if note_id not in self.notes:
                    raise UnknownInput(tx.tx_id, f"unknown input {note_id}")
                if note_id in self.spent:
                    raise InvalidTransaction(tx.tx_id, f"double spend of {note_id}")
                note, _ = self.notes[note_id]
                if note.owner_address == BURN_ADDRESS:
                    raise InvalidTransaction(tx.tx_id, "attempt to spend a burn output")
                if note.owner_address not in tx.signers:
                    raise InvalidTransaction(tx.tx_id, f"missing signer for {note.owner_address}")
                in_value += note.value
            if in_value != tx.output_value():
                raise InvalidTransaction(
                    tx.tx_id, f"imbalance: in {in_value} != out {tx.output_value()}"
                )
            for note_id in tx.inputs:
                self.spent[note_id] = tx.tx_id
        for note, _ in tx.outputs:
            self.notes[note.note_id] = (note, height)
        self.tx_heights[tx.tx_id] = height


class Chain:
    """Immutable chain snapshot; append_block mines and returns a new Chain."""

    def __init__(self, difficulty_bits: int, blocks: tuple[Block, ...], state: _State):
        self.difficulty_bits = difficulty_bits
        self.blocks = blocks
        self._state = state

    # -- construction ------------------------------------------------------

    @classmethod
    def genesis(
        cls,
        issuance: dict[str, int],
        difficulty_bits: int = DEFAULT_DIFFICULTY_BITS,
        seed_tag: str = "",
    ) -> Chain:
        """Mine the genesis block carrying the scenario's initial balances."""
        outputs = [(addr, value, "funding") for addr, value in sorted(issuance.items())]
        tx = make_transaction([], outputs, signers=set(), memo=f"genesis:{seed_tag}")
        state = _State()
        state.apply(tx, 0)
        return cls._mine(difficulty_bits, (), state, (tx,))

    def append_block(self, txs: list[Transaction] | tuple[Transaction, ...]) -> Chain:
        """Validate txs in order, mine a block on the tip, return the new chain."""
        state = self._state.copy()
        height = self.height + 1
        for tx in txs:
            state.apply(tx, height)
        return self._mine(self.difficulty_bits, self.blocks, state, txs)

    @classmethod
    def _mine(cls, difficulty_bits: int, blocks: tuple[Block, ...], state: _State,
              txs: list[Transaction] | tuple[Transaction, ...]) -> Chain:
        """Mine a block of ``txs``, already applied to ``state``, on
        ``blocks``: the search is posted here and joined on first read."""
        height = len(blocks)
        prev_digest = blocks[-1].header.own_digest if blocks else ZERO_DIGEST
        header = BlockHeader.posted(height, prev_digest, payload_digest_for(txs), difficulty_bits)
        return cls(difficulty_bits, blocks + (Block(header, tuple(txs)),), state)

    @classmethod
    def from_blocks(cls, difficulty_bits: int, blocks: list[Block] | tuple[Block, ...]) -> Chain:
        """Rebuild a chain from existing blocks, re-validating everything."""
        if not blocks:
            raise MalformedChain("empty chain")
        headers = [b.header for b in blocks]
        ok, diag = verify_headers_detail(headers, difficulty_bits)
        if not ok:
            raise MalformedChain(diag)
        if headers[0].height != 0 or headers[0].prev_digest != ZERO_DIGEST:
            raise MalformedChain("chain must start at a genesis block")
        state = _State()
        for block in blocks:
            if block.header.payload_digest != payload_digest_for(block.txs):
                raise MalformedChain(f"payload digest mismatch at height {block.header.height}")
            for tx in block.txs:
                state.apply(tx, block.header.height)
        return cls(difficulty_bits, tuple(blocks), state)

    # -- queries -----------------------------------------------------------

    @property
    def tip(self) -> BlockHeader:
        return self.blocks[-1].header

    @property
    def height(self) -> int:
        return self.tip.height

    @property
    def issuance(self) -> int:
        return self._state.issuance

    def headers(self) -> list[BlockHeader]:
        return [b.header for b in self.blocks]

    def headers_from(self, height: int, until: int | None = None) -> list[BlockHeader]:
        """Headers at ``height`` through ``until`` (default: the tip). A
        block's index in ``blocks`` is its height, so this slices."""
        stop = None if until is None else max(until + 1, 0)
        return [b.header for b in self.blocks[max(height, 0):stop]]

    def confirmations(self, tx_id: str) -> int:
        if tx_id not in self._state.tx_heights:
            return 0
        return 1 + (self.tip.height - self._state.tx_heights[tx_id])

    def inclusion_height(self, tx_id: str) -> int | None:
        return self._state.tx_heights.get(tx_id)

    def has_tx(self, tx_id: str) -> bool:
        return tx_id in self._state.tx_heights

    def get_tx(self, tx_id: str) -> Transaction | None:
        height = self._state.tx_heights.get(tx_id)
        if height is None:
            return None
        for tx in self.blocks[height].txs:
            if tx.tx_id == tx_id:
                return tx
        return None

    def unspent_notes(self, address: str) -> list[Note]:
        """Unspent notes for an address, in creation order (deterministic)."""
        return [
            note
            for note_id, (note, _) in self._state.notes.items()
            if note.owner_address == address and note_id not in self._state.spent
        ]

    def spent_notes(self, address: str) -> list[Note]:
        """Spent notes for an address, in spending order."""
        notes = self._state.notes
        return [notes[note_id][0] for note_id in self._state.spent
                if notes[note_id][0].owner_address == address]

    def balance(self, address: str) -> int:
        return sum(note.value for note in self.unspent_notes(address))

    def balances(self) -> dict[str, int]:
        """Every address's ``balance``, from one pass over the unspent notes."""
        out: dict[str, int] = {}
        for note_id, (note, _) in self._state.notes.items():
            if note_id not in self._state.spent:
                out[note.owner_address] = out.get(note.owner_address, 0) + note.value
        return out

    def observe_tx(self, tx_id: str, viewer: str | None = None) -> dict | None:
        """Anonymity rule: non-parties learn existence and output count only."""
        tx = self.get_tx(tx_id)
        if tx is None:
            return None
        view: dict = {
            "tx_id": tx_id,
            "exists": True,
            "output_count": len(tx.outputs),
            "confirmations": self.confirmations(tx_id),
        }
        if viewer is not None:
            view["own_outputs"] = [
                {"note_id": note.note_id, "value": note.value, "kind": kind}
                for note, kind in tx.outputs_for(viewer)
            ]
            view["own_spent_inputs"] = [
                note_id
                for note_id in tx.inputs
                if (entry := self._state.notes.get(note_id)) and entry[0].owner_address == viewer
            ]
        return view

    # -- whole-chain verification -----------------------------------------

    def verify_full(self) -> tuple[bool, str]:
        """Replay the whole chain (headers, payloads, spends, conservation)."""
        try:
            Chain.from_blocks(self.difficulty_bits, self.blocks)
        except LedgerError as exc:
            return False, str(exc)
        unspent_total = sum(self.balances().values())
        if unspent_total != self.issuance:
            return False, f"conservation broken: unspent {unspent_total} != issuance {self.issuance}"
        return True, "ok"


# -- header verification and consistency ----------------------------------


def verify_headers_detail(
    headers: list[BlockHeader] | tuple[BlockHeader, ...], difficulty_bits: int
) -> tuple[bool, str]:
    """True iff every header's PoW holds and prev-links/heights are continuous."""
    if not headers:
        return True, "empty sequence"
    prev: BlockHeader | None = None
    for header in headers:
        if header.height < 0:
            return False, f"negative height {header.height}"
        if not header.digest_ok:
            return False, f"digest mismatch at height {header.height}"
        if not powcore.meets_target(header.own_digest, difficulty_bits):
            return False, f"pow target missed at height {header.height}"
        if prev is not None:
            if header.height != prev.height + 1:
                return False, f"height gap {prev.height} -> {header.height}"
            if header.prev_digest != prev.own_digest:
                return False, f"broken prev link at height {header.height}"
        elif header.height == 0 and header.prev_digest != ZERO_DIGEST:
            return False, "genesis prev digest not zero"
        prev = header
    return True, "ok"


def check_consistency(a, b, difficulty_bits: int) -> bool:
    """True iff the two views agree wherever their height ranges overlap.

    Takes two header sequences (a whole chain's or a suffix). Both sides must
    be individually valid (MalformedChain otherwise). For genesis-rooted chains
    this is exactly "one is a prefix of the other by header digests"; disjoint
    windows cannot be attested and yield False. Symmetric in its arguments.
    """
    ha, hb = list(a), list(b)
    for name, headers in (("a", ha), ("b", hb)):
        ok, diag = verify_headers_detail(headers, difficulty_bits)
        if not ok:
            raise MalformedChain(f"side {name}: {diag}")
    if not ha or not hb:
        raise MalformedChain("empty header sequence")
    lo = max(ha[0].height, hb[0].height)
    hi = min(ha[-1].height, hb[-1].height)
    if lo > hi:
        return False  # no overlap: consistency cannot be attested
    off_a = lo - ha[0].height
    off_b = lo - hb[0].height
    for i in range(hi - lo + 1):
        if ha[off_a + i].own_digest != hb[off_b + i].own_digest:
            return False
    return True


# -- mempool ---------------------------------------------------------------


@dataclass
class Mempool:
    """Pending transactions awaiting inclusion.

    Inclusion validates against the chain at block-assembly time: conflicting
    spends are rejected permanently, transactions with unknown inputs stay
    pending (their parent may still arrive via another delivery path). They
    stay pending only while the chain node mines; they do not hold it, and
    it logs each one still pending as ``tx_orphaned`` when it stops.
    """

    pending: dict[str, Transaction] = field(default_factory=dict)

    def submit(self, tx: Transaction, chain: Chain) -> str:
        """Queue a transaction; duplicates of known txs are accepted no-ops."""
        if chain.has_tx(tx.tx_id) or tx.tx_id in self.pending:
            return tx.tx_id
        if tx.is_issuance:
            raise InvalidTransaction(tx.tx_id, "issuance outside genesis")
        self.pending[tx.tx_id] = tx
        return tx.tx_id

    def assemble(self, chain: Chain) -> tuple[Chain, list[str]]:
        """Mine the next block with every pending tx that validates (fixpoint)."""
        state = chain._state.copy()
        height = chain.height + 1
        included: list[Transaction] = []
        progress = True
        while progress:
            progress = False
            for tx_id in list(self.pending):
                try:
                    state.apply(self.pending[tx_id], height)
                except UnknownInput:
                    continue  # parent not landed yet; keep pending
                except InvalidTransaction:
                    del self.pending[tx_id]
                    continue
                included.append(self.pending.pop(tx_id))
                progress = True
        new_chain = Chain._mine(chain.difficulty_bits, chain.blocks, state, included)
        return new_chain, [tx.tx_id for tx in included]
