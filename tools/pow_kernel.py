"""Check and time the nonce search on each SHA-256 constructor, stdlib only.

Usage (from the repository root): ``python tools/pow_kernel.py``

The constructors are ``hashlib.sha256`` (OpenSSL) and, where they import,
CPython's built-in ``_sha256.sha256`` (3.11 and before) and ``_sha2.sha256``
(3.12 and later). ``powcore._MIDSTATE`` is the one the search runs on.

First, with each constructor in turn as ``powcore._MIDSTATE``, the single
searcher (``powcore._search`` from high 0) mines the first blocks of the
test suite's ``KNOWN_CHAIN`` at 12 and 16 bits and must give its nonces and
digests. Then it times ``_search`` over the same fixed run of highs that
hold no hit, once per constructor per round, the order alternating from
round to round, and prints each constructor's speed against hashlib's
(hashlib's time over its time in the same round): the median and quartiles
over the rounds. ``powcore.hashes_per_s`` cannot show this: it times two
processes' claim loop on one short chain.

Exit status: 0 when every constructor gives the known answers, 1 otherwise.
"""
from __future__ import annotations

import hashlib
import importlib
import itertools
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from leasim import powcore  # noqa: E402

# The first (nonce, digest) answers of KNOWN_CHAIN in tests/test_powcore.py:
# prev starts at H("kat-genesis"), block h carries payload H("kat-payload-<h>")
# and links to the digest before it.
KNOWN = {
    12: [
        (8141, "0003190b4ca8139e3ec6ead983c422cca784a63eab7f6d6bf9f0c380238f0b8b"),
        (2084, "000c14031def0d79157b5d2400368f6fe583af41cc31489606c38e80bdffea52"),
        (1479, "00048440d67b3ef9924516a61f7d9da17322ba55b71127280383f93d5485f158"),
    ],
    16: [
        (262374, "0000ce7b9fcf913aae2ab14d0c7794084c4e0bbcd9900cb99a84c0f8186edca5"),
        (4528, "00004032e4a6c8158aacd1742ec842af060220b725d685f5febbdcc4812ba719"),
        (19248, "00007ce44cf283ed9d843f685e0ed341845c9b7b30caf4fd7da9fe49f993e119"),
    ],
}
ROUNDS = 40
HIGHS = range(64)  # 16,384 attempts per timed search
NO_HIT_BITS = 64  # no digest of the timed header clears it within HIGHS


def constructors() -> dict:
    found = {"hashlib.sha256": hashlib.sha256}
    for module in ("_sha256", "_sha2"):
        try:
            found[module + ".sha256"] = importlib.import_module(module).sha256
        except ImportError:
            pass
    return found


def known_answers(midstate) -> bool:
    powcore._MIDSTATE = midstate
    for bits, answers in KNOWN.items():
        prev = hashlib.sha256(b"kat-genesis").digest()
        for height, answer in enumerate(answers):
            payload = hashlib.sha256(b"kat-payload-%d" % height).digest()
            prefix = powcore._prefix(height, prev, payload)
            found = powcore._search(prefix, powcore._BOUNDS[bits], itertools.count())
            if found is None or (found[0], found[1].hex()) != answer:
                print(f"  {bits} bits, height {height}: got {found}, want {answer}")
                return False
            prev = found[1]
    return True


def timed_search(midstate) -> float:
    powcore._MIDSTATE = midstate
    prefix = powcore._prefix(0, bytes(32), bytes(32))
    started = time.perf_counter()
    found = powcore._search(prefix, powcore._BOUNDS[NO_HIT_BITS], HIGHS)
    spent = time.perf_counter() - started
    if found is not None:
        raise AssertionError(f"the timed run of highs holds a hit: {found}")
    return spent


def main() -> int:
    kernel = powcore._MIDSTATE
    found = constructors()
    names = {ctor: name for name, ctor in found.items()}
    print(f"Python {sys.version.split()[0]}: the search runs on {names.get(kernel, kernel)}")
    try:
        ok = True
        for name, ctor in found.items():
            right = known_answers(ctor)
            print(f"{name}: known answers {'ok' if right else 'WRONG'}")
            ok = ok and right
        if not ok:
            return 1
        times: dict[str, list[float]] = {name: [] for name in found}
        order = list(found)
        for _ in range(ROUNDS):
            for name in order:
                times[name].append(timed_search(found[name]))
            order.reverse()
    finally:
        powcore._MIDSTATE = kernel
    attempts = len(HIGHS) * 256
    base = times["hashlib.sha256"]
    for name, spent in times.items():
        rate = attempts / statistics.median(spent)
        line = f"{name}: {rate / 1e6:.2f}M attempts/s (median of {ROUNDS})"
        if name != "hashlib.sha256":
            q1, median, q3 = statistics.quantiles([b / t for b, t in zip(base, spent)], n=4)
            line += f", speed vs hashlib {median:.2f}x (quartiles {q1:.2f}-{q3:.2f})"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
