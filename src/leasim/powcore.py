"""PoW hash kernel: the block header digest and the nonce search.

Preimage layout (80 bytes):

    offset  size  field
         0     8  height, big-endian
         8    32  prev_digest
        40    32  payload_digest
        72     8  pow_nonce, big-endian

The digest is SHA-256 of the preimage. A digest clears ``difficulty_bits``
when its first ``difficulty_bits`` bits are zero. As a big-endian integer
that is ``digest < 2**(256 - bits)``, and since equal-length bytes compare
lexicographically, the kernel compares the digest with that bound as 32
bytes instead of converting it to an int.

The nonce search hashes the fixed 72-byte prefix once per block, the
midstate, and a second midstate per value of the nonce's high 7 bytes. Each
attempt copies that second midstate and feeds it one tail byte, so it runs
one SHA-256 compression instead of two. Nonces are still tried in order
from 0, so the smallest clearing nonce is found.
"""
from __future__ import annotations

import hashlib

BACKEND = "pure"

_TAILS = tuple(bytes((low,)) for low in range(256))


def _bound(difficulty_bits: int) -> bytes:
    """Digests strictly below these 32 bytes clear difficulty_bits >= 1."""
    return (1 << (256 - difficulty_bits)).to_bytes(32, "big")


def header_digest(height: int, prev_digest: bytes, payload_digest: bytes, nonce: int) -> bytes:
    preimage = (
        height.to_bytes(8, "big")
        + prev_digest
        + payload_digest
        + nonce.to_bytes(8, "big")
    )
    return hashlib.sha256(preimage).digest()


def meets_target(digest: bytes, difficulty_bits: int) -> bool:
    if difficulty_bits <= 0:
        return True
    return digest < _bound(difficulty_bits)


def mine_nonce(height: int, prev_digest: bytes, payload_digest: bytes, difficulty_bits: int) -> tuple[int, bytes]:
    """Smallest nonce whose header digest clears the difficulty target."""
    if difficulty_bits <= 0:
        return 0, header_digest(height, prev_digest, payload_digest, 0)
    bound = _bound(difficulty_bits)
    prefix = hashlib.sha256(height.to_bytes(8, "big") + prev_digest + payload_digest)
    high = 0
    while True:
        outer = prefix.copy()
        outer.update(high.to_bytes(7, "big"))
        copy = outer.copy
        for tail in _TAILS:
            attempt = copy()
            attempt.update(tail)
            if attempt.digest() < bound:
                return high << 8 | tail[0], attempt.digest()
        high += 1
