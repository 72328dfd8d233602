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

Chains are immutable snapshots: append returns a new chain, so any actor can
hold a view without copy hazards. The mempool keeps transactions with unknown
inputs pending (settlement copies may land before their parent) and rejects
conflicting spends permanently.

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
HEADER_WINDOW = 10  # headers carried in a light chain view


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


class Chain:
    """Immutable chain snapshot; append_block mines and returns a new Chain."""

    def __init__(
        self,
        difficulty_bits: int,
        blocks: tuple[Block, ...],
        note_index: dict[str, tuple[Note, int]],
        spent: dict[str, str],
        tx_heights: dict[str, int],
        issuance: int,
    ):
        self.difficulty_bits = difficulty_bits
        self.blocks = blocks
        self._note_index = note_index  # note_id -> (note, creation height)
        self._spent = spent  # note_id -> spending tx_id
        self._tx_heights = tx_heights
        self.issuance = issuance

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
        payload = payload_digest_for([tx])
        nonce, digest = powcore.mine_nonce(0, ZERO_DIGEST, payload, difficulty_bits)
        header = BlockHeader(0, ZERO_DIGEST, payload, nonce, digest)
        block = Block(header, (tx,))
        note_index = {note.note_id: (note, 0) for note, _ in tx.outputs}
        return cls(
            difficulty_bits,
            (block,),
            note_index,
            {},
            {tx.tx_id: 0},
            tx.output_value(),
        )

    def append_block(self, txs: list[Transaction] | tuple[Transaction, ...]) -> Chain:
        """Validate txs in order, mine a block on the tip, return the new chain."""
        note_index = dict(self._note_index)
        spent = dict(self._spent)
        tx_heights = dict(self._tx_heights)
        height = self.tip.height + 1
        for tx in txs:
            self._validate_tx_static(tx, note_index, spent, tx_heights)
            for note, _ in tx.outputs:
                note_index[note.note_id] = (note, height)
            for note_id in tx.inputs:
                spent[note_id] = tx.tx_id
            tx_heights[tx.tx_id] = height
        payload = payload_digest_for(txs)
        nonce, digest = powcore.mine_nonce(
            height, self.tip.own_digest, payload, self.difficulty_bits
        )
        header = BlockHeader(height, self.tip.own_digest, payload, nonce, digest)
        block = Block(header, tuple(txs))
        return Chain(
            self.difficulty_bits, self.blocks + (block,), note_index, spent, tx_heights, self.issuance
        )

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
        note_index: dict[str, tuple[Note, int]] = {}
        spent: dict[str, str] = {}
        tx_heights: dict[str, int] = {}
        issuance = 0
        for block in blocks:
            if block.header.payload_digest != payload_digest_for(block.txs):
                raise MalformedChain(f"payload digest mismatch at height {block.header.height}")
            for tx in block.txs:
                if tx.is_issuance:
                    if block.header.height != 0:
                        raise InvalidTransaction(tx.tx_id, "issuance outside genesis")
                    issuance += tx.output_value()
                else:
                    cls._validate_tx_static(tx, note_index, spent, tx_heights)
                for note, _ in tx.outputs:
                    note_index[note.note_id] = (note, block.header.height)
                for note_id in tx.inputs:
                    spent[note_id] = tx.tx_id
                tx_heights[tx.tx_id] = block.header.height
        return cls(difficulty_bits, tuple(blocks), note_index, spent, tx_heights, issuance)

    @staticmethod
    def _validate_tx_static(tx: Transaction, note_index, spent, tx_heights) -> None:
        if tx.tx_id in tx_heights:
            raise InvalidTransaction(tx.tx_id, "already included")
        if tx.is_issuance:
            raise InvalidTransaction(tx.tx_id, "issuance outside genesis")
        in_value = 0
        for note_id in tx.inputs:
            if note_id not in note_index:
                raise UnknownInput(tx.tx_id, f"unknown input {note_id}")
            if note_id in spent:
                raise InvalidTransaction(tx.tx_id, f"double spend of {note_id}")
            note, _ = note_index[note_id]
            if note.owner_address == BURN_ADDRESS:
                raise InvalidTransaction(tx.tx_id, "attempt to spend a burn output")
            if note.owner_address not in tx.signers:
                raise InvalidTransaction(tx.tx_id, f"missing signer for {note.owner_address}")
            in_value += note.value
        if in_value != tx.output_value():
            raise InvalidTransaction(
                tx.tx_id, f"imbalance: in {in_value} != out {tx.output_value()}"
            )

    # -- queries -----------------------------------------------------------

    @property
    def tip(self) -> BlockHeader:
        return self.blocks[-1].header

    @property
    def height(self) -> int:
        return self.tip.height

    def headers(self) -> list[BlockHeader]:
        return [b.header for b in self.blocks]

    def headers_from(self, height: int, until: int | None = None) -> list[BlockHeader]:
        """Headers at ``height`` through ``until`` (default: the tip). A
        block's index in ``blocks`` is its height, so this slices."""
        stop = None if until is None else max(until + 1, 0)
        return [b.header for b in self.blocks[max(height, 0):stop]]

    def header_suffix(self, window: int = HEADER_WINDOW) -> list[BlockHeader]:
        return [b.header for b in self.blocks[-window:]]

    def confirmations(self, tx_id: str) -> int:
        if tx_id not in self._tx_heights:
            return 0
        return 1 + (self.tip.height - self._tx_heights[tx_id])

    def inclusion_height(self, tx_id: str) -> int | None:
        return self._tx_heights.get(tx_id)

    def has_tx(self, tx_id: str) -> bool:
        return tx_id in self._tx_heights

    def get_tx(self, tx_id: str) -> Transaction | None:
        height = self._tx_heights.get(tx_id)
        if height is None:
            return None
        for tx in self.blocks[height].txs:
            if tx.tx_id == tx_id:
                return tx
        return None

    def note(self, note_id: str) -> Note | None:
        entry = self._note_index.get(note_id)
        return entry[0] if entry else None

    def is_unspent(self, note_id: str) -> bool:
        return note_id in self._note_index and note_id not in self._spent

    def unspent_notes(self, address: str) -> list[Note]:
        """Unspent notes for an address, in creation order (deterministic)."""
        return [
            note
            for note_id, (note, _) in self._note_index.items()
            if note.owner_address == address and note_id not in self._spent
        ]

    def balance(self, address: str) -> int:
        return sum(note.value for note in self.unspent_notes(address))

    def balances(self) -> dict[str, int]:
        """Every address's ``balance``, from one pass over the unspent notes."""
        out: dict[str, int] = {}
        for note_id, (note, _) in self._note_index.items():
            if note_id not in self._spent:
                out[note.owner_address] = out.get(note.owner_address, 0) + note.value
        return out

    def burned_total(self) -> int:
        return self.balance(BURN_ADDRESS)

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
                if (entry := self._note_index.get(note_id)) and entry[0].owner_address == viewer
            ]
        return view

    # -- whole-chain verification -----------------------------------------

    def verify_full(self) -> tuple[bool, str]:
        """Replay the whole chain (headers, payloads, spends, conservation)."""
        try:
            Chain.from_blocks(self.difficulty_bits, self.blocks)
        except LedgerError as exc:
            return False, str(exc)
        unspent_total = sum(
            note.value
            for note_id, (note, _) in self._note_index.items()
            if note_id not in self._spent
        )
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


def verify_headers(headers, difficulty_bits: int) -> bool:
    ok, _ = verify_headers_detail(headers, difficulty_bits)
    return ok


def _coerce_headers(view) -> list[BlockHeader]:
    if isinstance(view, Chain):
        return view.headers()
    return list(view)


def check_consistency(a, b, difficulty_bits: int) -> bool:
    """True iff the two views agree wherever their height ranges overlap.

    Accepts chains or header suffixes. Both sides must be individually valid
    (MalformedChain otherwise). For genesis-rooted chains this is exactly
    "one is a prefix of the other by header digests"; disjoint windows cannot
    be attested and yield False. Symmetric in its arguments.
    """
    ha, hb = _coerce_headers(a), _coerce_headers(b)
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
    pending (their parent may still arrive via another delivery path).
    """

    pending: dict[str, Transaction] = field(default_factory=dict)
    rejected: list[tuple[str, str]] = field(default_factory=list)

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
        note_index = dict(chain._note_index)
        spent = dict(chain._spent)
        tx_heights = dict(chain._tx_heights)
        included: list[Transaction] = []
        progress = True
        while progress:
            progress = False
            for tx_id in list(self.pending):
                tx = self.pending[tx_id]
                try:
                    Chain._validate_tx_static(tx, note_index, spent, tx_heights)
                except UnknownInput:
                    continue  # parent not landed yet; keep pending
                except InvalidTransaction as exc:
                    del self.pending[tx_id]
                    self.rejected.append((tx_id, exc.cause))
                    continue
                for note, _ in tx.outputs:
                    note_index[note.note_id] = (note, chain.height + 1)
                for note_id in tx.inputs:
                    spent[note_id] = tx.tx_id
                tx_heights[tx.tx_id] = chain.height + 1
                included.append(tx)
                del self.pending[tx_id]
                progress = True
        new_chain = chain.append_block(included)
        return new_chain, [tx.tx_id for tx in included]


# -- dump / restore --------------------------------------------------------


def dump_chain(chain: Chain) -> str:
    """Line-oriented text dump; field order is the restore contract."""
    lines = [f"chain v1 difficulty={chain.difficulty_bits}"]
    for block in chain.blocks:
        h = block.header
        lines.append(
            "block h=%d prev=%s payload=%s nonce=%d digest=%s txs=%d"
            % (
                h.height,
                h.prev_digest.hex(),
                h.payload_digest.hex(),
                h.pow_nonce,
                h.own_digest.hex(),
                len(block.txs),
            )
        )
        for tx in block.txs:
            lines.append(
                "tx id=%s inputs=%s outputs=%s signers=%s memo=%s"
                % (
                    tx.tx_id,
                    ",".join(tx.inputs) if tx.inputs else "-",
                    ",".join(
                        f"{note.owner_address}:{note.value}:{kind}" for note, kind in tx.outputs
                    )
                    or "-",
                    "|".join(sorted(tx.signers)) if tx.signers else "-",
                    tx.memo,
                )
            )
    return "\n".join(lines) + "\n"


def restore_chain(text: str) -> Chain:
    """Parse and fully re-validate a chain dump."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or not lines[0].startswith("chain v1 "):
        raise MalformedChain("missing chain header line")
    difficulty_bits = int(lines[0].split("difficulty=")[1])
    blocks: list[Block] = []
    i = 1
    while i < len(lines):
        if not lines[i].startswith("block "):
            raise MalformedChain(f"expected block line, got: {lines[i][:40]}")
        fields = dict(part.split("=", 1) for part in lines[i].split()[1:])
        ntx = int(fields["txs"])
        txs = []
        for j in range(ntx):
            txs.append(_parse_tx_line(lines[i + 1 + j]))
        header = BlockHeader(
            height=int(fields["h"]),
            prev_digest=bytes.fromhex(fields["prev"]),
            payload_digest=bytes.fromhex(fields["payload"]),
            pow_nonce=int(fields["nonce"]),
            own_digest=bytes.fromhex(fields["digest"]),
        )
        blocks.append(Block(header, tuple(txs)))
        i += 1 + ntx
    return Chain.from_blocks(difficulty_bits, blocks)


def _parse_tx_line(line: str) -> Transaction:
    if not line.startswith("tx "):
        raise MalformedChain(f"expected tx line, got: {line[:40]}")
    fields = dict(part.split("=", 1) for part in line.split(" ")[1:5])
    memo = line.split(" memo=", 1)[1] if " memo=" in line else ""
    inputs = [] if fields["inputs"] == "-" else fields["inputs"].split(",")
    outputs = []
    if fields["outputs"] != "-":
        for chunk in fields["outputs"].split(","):
            addr, value, kind = chunk.rsplit(":", 2)
            outputs.append((addr, int(value), kind))
    signers = set() if fields["signers"] == "-" else set(fields["signers"].split("|"))
    tx = make_transaction(inputs, outputs, signers, memo=memo)
    if tx.tx_id != fields["id"]:
        raise MalformedChain(f"tx id mismatch: {fields['id'][:16]}")
    return tx
