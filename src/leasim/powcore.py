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
midstate, and a second midstate per value of the nonce's high 7 bytes (a
"high"). Each attempt copies that second midstate and feeds it one tail
byte, so it runs one SHA-256 compression instead of two. Within a high the
tails are tried in order from 0, so the first hit in a high is that high's
smallest clearing nonce.

Two searchers, one answer. ``mine_nonce`` splits the highs between the
calling process and one forked helper process. Each searcher's walk is a
generator of highs, and the one ``_search`` loop tries the highs that a
walk yields. The caller walks every high upward from 0 and publishes each
as its position before it takes it. The helper walks the odd highs upward
and claims each as its front before it searches it; when the caller has
passed it, it jumps to the first odd high at or above the caller's
position. The caller skips an odd high that the helper has claimed, and
searches every other high itself. Each stops at its first hit or past the
other's, and the caller returns the smaller.

That is the smallest clearing nonce: every high below it was searched by
one of the two. The helper claims odd highs in increasing order and
finishes each before the next, so every high the caller skipped below the
helper's front is done. The helper may still be on the last high the
caller skipped; the caller gives it as long as the caller took per high,
then searches that high itself. The helper only ever jumps over highs the
caller has already passed, and the caller only skips a high it has seen
claimed, so no high is left out. A high may be searched by both, which
costs time but not correctness. Each searcher hands over its digest with
its nonce, so nothing is hashed twice.

So the caller never waits on the helper for long. A helper that starts
late joins ahead of the caller, one that loses its CPU is overtaken, and
one that never runs leaves the caller to search every high in order, as
one searcher would. The helper runs at the lowest scheduling priority, so
it takes only a CPU that nothing else wants.

The two share a small array (an anonymous ``mmap``). Each searcher writes
only its own words: the job it is on, the high of its hit, its position or
front, and for the helper its hit's nonce and digest. It resets them
before it publishes the job, and publishes its hit after the nonce and
digest. A searcher reads the other's words only while both are on the
same job, so a search left running by an interrupted call cannot bound a
later one, and a helper that sees the caller on a newer job abandons its
stale search. A read may come late, but within a job each word moves one
way only, so a late read costs a repeated high at most. Jobs reach the
helper over a pipe, tagged with a sequence number.

The helper's lifecycle. It is forked on the first ``mine_nonce`` call and
reused after that; a process has at most one. It closes the caller's end
of the job pipe, so it exits on end-of-file when the caller dies, and it
ignores SIGINT, which the caller handles. The caller writes jobs without
blocking and drops a job that finds the pipe full. An ``atexit`` hook
closes the job pipe and reaps the helper, so no zombie outlives the
caller. A process forked from the caller drops the inherited pipe end and
forks its own helper; it never writes to its parent's. If the helper dies,
the next job finds the pipe broken: that call reaps it and searches alone,
and the call after forks a new helper. Where the split cannot run, the
caller searches every high itself with the same ``_search``: with fewer
than two usable CPUs, without ``os.fork`` or ``os.sched_getaffinity``, on
a CPU other than x86-64, or while the process has other threads, which a
fork would not copy and which could interleave on the pipe.
"""
from __future__ import annotations

import atexit
import hashlib
import itertools
import mmap
import os
import signal
import struct
import threading
import time

BACKEND = "pure"

_TAILS = tuple(bytes((low,)) for low in range(256))


# Digests strictly below _BOUNDS[bits] clear ``bits`` (1..256); index 0 is
# unused, because zero difficulty clears every digest.
_BOUNDS = (b"",) + tuple((1 << (256 - bits)).to_bytes(32, "big") for bits in range(1, 257))

# Past every 7-byte high: a searcher with no hit yet.
_NO_HIT = 1 << 56
# Caller to helper: sequence number, height, prev_digest, payload_digest,
# difficulty bits. It is shorter than PIPE_BUF, so it is written and read
# whole.
_JOB = struct.Struct(">qq32s32sq")
# The shared array's words (8 bytes each). The caller writes the first
# three, the helper the rest.
_CALLER_JOB, _CALLER_HIT, _CALLER_POS = 0, 1, 2
_HELPER_JOB, _HELPER_HIT, _HELPER_FRONT, _HELPER_NONCE = 3, 4, 5, 6
_HELPER_DIGEST = slice(7, 11)
_WORDS = 11
# The shared array relies on aligned 8-byte stores becoming visible in
# program order, which x86-64 guarantees and weaker memory models do not.
_CAN_SPLIT = (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
              and os.uname().machine == "x86_64")


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
    return digest < _BOUNDS[difficulty_bits]


def _prefix(height: int, prev_digest: bytes, payload_digest: bytes):
    return hashlib.sha256(height.to_bytes(8, "big") + prev_digest + payload_digest)


def _search(prefix, bound: bytes, highs) -> tuple[int, bytes] | None:
    """The first hit in the highs that ``highs`` yields: (nonce, digest), or
    None once it yields no more."""
    for high in highs:
        outer = prefix.copy()
        outer.update(high.to_bytes(7, "big"))
        copy = outer.copy
        for tail in _TAILS:
            attempt = copy()
            attempt.update(tail)
            if attempt.digest() < bound:
                return high << 8 | tail[0], attempt.digest()
    return None


def _helpers_hit(words, seq: int) -> tuple[int, bytes] | None:
    """The helper's hit in job ``seq`` as (nonce, digest), if it has one."""
    if words[_HELPER_JOB] != seq or words[_HELPER_HIT] == _NO_HIT:
        return None
    return words[_HELPER_NONCE], words[_HELPER_DIGEST].tobytes()


def _lead_walk(words, seq: int, skipped: list[int]):
    """The caller's walk: every high upward but the odd ones the helper has
    claimed, which go into ``skipped``. It stops past the helper's hit."""
    high = 0
    while True:
        words[_CALLER_POS] = high
        if words[_HELPER_JOB] == seq:
            if high > words[_HELPER_HIT]:
                return
            if high & 1 and high <= words[_HELPER_FRONT]:
                skipped.append(high)
                high += 1
                continue
        yield high
        high += 1


def _lead(words, seq: int, prefix, bound: bytes) -> tuple[int, bytes]:
    """The caller's part of job ``seq``, which it has already published."""
    skipped: list[int] = []
    started = time.perf_counter()
    best = _search(prefix, bound, _lead_walk(words, seq, skipped))
    if best is None:  # stopped past the helper's hit, which is the smallest
        return _helpers_hit(words, seq)
    high = best[0] >> 8
    words[_CALLER_HIT] = high
    if skipped:
        # The helper has searched every high it claimed below its front. It
        # may still be on the last one the caller skipped: give it as long
        # as the caller took per high, then search that high here too.
        last = skipped[-1]
        deadline = time.perf_counter() + (time.perf_counter() - started) / (high + 1 - len(skipped))
        while (words[_HELPER_FRONT] == last and words[_HELPER_HIT] == _NO_HIT
               and time.perf_counter() < deadline):
            pass
        if words[_HELPER_FRONT] == last and words[_HELPER_HIT] == _NO_HIT:
            best = _search(prefix, bound, (last,)) or best
    theirs = _helpers_hit(words, seq)
    return theirs if theirs is not None and theirs[0] < best[0] else best


def _follow(words, seq: int):
    """The helper's walk: the odd highs upward, each claimed as its front
    before it is searched. It jumps ahead of the caller when the caller has
    passed it, and stops past the caller's hit or once the caller is on a
    newer job."""
    high = 1
    while True:
        passed = words[_CALLER_POS]
        if high < passed:
            high = passed | 1
        words[_HELPER_FRONT] = high
        if words[_CALLER_JOB] != seq or high > words[_CALLER_HIT]:
            return
        yield high
        high += 2


def _serve(job_r: int, words) -> None:
    """The helper's loop: search the odd highs of each job until the job
    pipe closes. A hit goes into ``words``, nonce and digest first."""
    while job := os.read(job_r, _JOB.size):
        seq, height, prev_digest, payload_digest, bits = _JOB.unpack(job)
        words[_HELPER_HIT] = _NO_HIT
        words[_HELPER_FRONT] = -1
        words[_HELPER_JOB] = seq
        found = _search(_prefix(height, prev_digest, payload_digest), _BOUNDS[bits], _follow(words, seq))
        if found is not None:
            words[_HELPER_NONCE] = found[0]
            words[_HELPER_DIGEST] = memoryview(found[1]).cast("q")
            words[_HELPER_HIT] = found[0] >> 8


class _Helper:
    """The forked process that searches the odd highs, seen from the caller."""

    def __init__(self) -> None:
        self.owner = os.getpid()
        self.seq = 0
        self.words = memoryview(mmap.mmap(-1, _WORDS * 8)).cast("q")
        job_r, self.job_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                os.close(self.job_w)
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                _serve(job_r, self.words)
            finally:
                os._exit(0)
        # Set here, not in the child, so it holds before the first job is sent.
        os.setpriority(os.PRIO_PROCESS, self.pid, 19)
        os.close(job_r)
        os.set_blocking(self.job_w, False)

    def mine(self, height: int, prev_digest: bytes, payload_digest: bytes,
             difficulty_bits: int, prefix, bound: bytes) -> tuple[int, bytes]:
        """Publish the job, hand it to the helper and lead the search.

        Raises BrokenPipeError if the helper is gone.
        """
        self.seq += 1
        seq, words = self.seq, self.words
        words[_CALLER_HIT] = _NO_HIT
        words[_CALLER_POS] = 0
        words[_CALLER_JOB] = seq
        try:
            os.write(self.job_w, _JOB.pack(seq, height, prev_digest, payload_digest, difficulty_bits))
        except BlockingIOError:
            pass  # the helper is a pipeful of jobs behind: search alone
        return _lead(words, seq, prefix, bound)

    def close(self) -> None:
        """Stop the helper and reap it. A search it is still running sees
        the caller on a newer job and stops at its next high."""
        self.words[_CALLER_JOB] = self.seq + 1
        os.close(self.job_w)
        try:
            os.waitpid(self.pid, 0)
        except ChildProcessError:  # already reaped elsewhere
            pass


_helper: _Helper | None = None


def _helper_here() -> _Helper | None:
    """This process's helper, forked on first use; None when the caller
    must search alone."""
    global _helper
    if _helper is not None and _helper.owner != os.getpid():
        # Inherited through a fork: the parent's helper, not this process's.
        os.close(_helper.job_w)
        _helper = None
    if not _CAN_SPLIT or len(os.sched_getaffinity(0)) < 2 or threading.active_count() > 1:
        return None
    if _helper is None:
        _helper = _Helper()
    return _helper


@atexit.register
def _stop_helper() -> None:
    """Close this process's helper, if it has one, and reap it."""
    global _helper
    helper, _helper = _helper, None
    if helper is not None and helper.owner == os.getpid():
        helper.close()


def mine_nonce(height: int, prev_digest: bytes, payload_digest: bytes, difficulty_bits: int) -> tuple[int, bytes]:
    """Smallest nonce whose header digest clears the difficulty target, with that digest."""
    if difficulty_bits <= 0:
        return 0, header_digest(height, prev_digest, payload_digest, 0)
    bound = _BOUNDS[difficulty_bits]
    prefix = _prefix(height, prev_digest, payload_digest)
    helper = _helper_here()
    if helper is not None:
        try:
            return helper.mine(height, prev_digest, payload_digest, difficulty_bits, prefix, bound)
        except BrokenPipeError:
            _stop_helper()  # reaps the dead helper; the next call forks a new one
    return _search(prefix, bound, itertools.count())
