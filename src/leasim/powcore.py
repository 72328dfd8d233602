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

A search in the background, joined on demand. ``post`` hands a header's
search to one forked helper process and returns at once, so the helper
hashes on a second CPU while the caller gets on with other work.
``mine_nonce`` is the only call that returns a header's ``(nonce,
digest)``: it joins the posted search where the helper stands, or posts
and joins at once when nothing was posted for that header. A process has
at most one posted job, and a new post supersedes the old one: the helper
abandons it, and a read of the old header posts it again. Each searcher's
walk is a generator of highs, and the one ``_search`` loop tries the highs
that a walk yields.

The helper's walk. While the caller is absent, the helper walks every high
upward from 0, claiming each as its front before it searches it, and stops
at its first hit, which is then the smallest clearing nonce. When it sees
the caller joined, it records the next high as its split point before it
claims anything at or above it, and from there walks only the odd highs,
jumping to the first odd high at or above the caller's position when the
caller has passed it. It stops past the caller's hit or once the caller is
on a newer job.

The caller's walk. It walks every high upward from 0 and publishes each as
its position before it takes it; its first published position is its
join. It skips a high ``h`` at or below the helper's front when ``h`` is
odd or below the split point, and searches every other high itself. It
reads the front before the split point: the helper writes the split point
before its front reaches it, so a front read at or past the split point
comes with that split point, and a front read before the split shows a
high the helper claimed in its walk over every high. Each searcher stops
at its first hit or past the other's, and the caller returns the smaller.

That is the smallest clearing nonce: every high below it was searched by
one of the two. The helper claims highs in increasing order and finishes
each before the next, so every high below its front that it claimed is
done: each one below the split point, and each odd one after it. The
helper may still be on the last high the caller skipped; the caller gives
it as long as the caller took per high, then searches that high itself.
The helper only ever jumps over highs the caller has already passed, and
the caller only skips a high it has seen claimed, so no high is left out.
A high may be searched by both, which costs time but not correctness.
Each searcher hands over its digest with its nonce, so nothing is hashed
twice, and a search the helper finished alone costs the caller no hash.

So the caller never waits on the helper for long. A helper that starts
late joins ahead of the caller, one that loses its CPU is overtaken, and
one that never runs leaves the caller to search every high in order, as
one searcher would. The helper runs at the lowest scheduling priority, so
it takes only a CPU that nothing else wants.

The two share a small array (an anonymous ``mmap``). Each searcher writes
only its own words: the job it is on, the high of its hit, its position or
front, and for the helper its split point and its hit's nonce and digest.
It resets them before it publishes the job, and publishes its hit after
the nonce and digest. A searcher reads the other's words only while both
are on the same job, so a search left running by an interrupted call
cannot bound a later one, and a helper that sees the caller on a newer job
abandons its stale search. A read may come late, but within a job each
word moves one way only, so a late read costs a repeated high at most.
Jobs reach the helper over a pipe, tagged with a sequence number.

The helper's lifecycle. It is forked on the first post and reused after
that; a process has at most one. It closes the caller's end of the job
pipe, so it exits on end-of-file when the caller dies, and it ignores
SIGINT, which the caller handles. The caller writes jobs without blocking
and drops a job that finds the pipe full. An ``atexit`` hook closes the
job pipe and reaps the helper, so no zombie outlives the caller. A process
forked from the caller drops the inherited pipe end and forks its own
helper; it never writes to its parent's. If the helper dies, the next post
finds the pipe broken, or the next join finds it exited: that call reaps
it and searches alone, and the next post forks a new helper. Where the
split cannot run, ``post`` does nothing and the caller searches every high
itself with the same ``_search``: with fewer than two usable CPUs, without
``os.fork`` or ``os.sched_getaffinity``, on a CPU other than x86-64, or
while the process has other threads, which a fork would not copy and which
could interleave on the pipe.
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
_HELPER_JOB, _HELPER_HIT, _HELPER_FRONT, _HELPER_SPLIT, _HELPER_NONCE = 3, 4, 5, 6, 7
_HELPER_DIGEST = slice(8, 12)
_WORDS = 12
# The caller's position while it has posted a job and not joined it.
_ABSENT = -1
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
    """The caller's walk: every high upward but the ones the helper has
    claimed, which go into ``skipped``. It stops past the helper's hit."""
    high = 0
    while True:
        words[_CALLER_POS] = high
        if words[_HELPER_JOB] == seq:
            if high > words[_HELPER_HIT]:
                return
            # The front is read before the split point (see the module docstring).
            if high <= words[_HELPER_FRONT] and (high & 1 or high < words[_HELPER_SPLIT]):
                skipped.append(high)
                high += 1
                continue
        yield high
        high += 1


def _lead(words, seq: int, prefix, bound: bytes) -> tuple[int, bytes]:
    """The caller's part of job ``seq``, which it has posted: its first
    published position joins the helper."""
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
    """The helper's walk, each high claimed as its front before it is
    searched: every high upward while the caller is absent, then, from the
    split point, the odd highs. It jumps ahead of the caller when the caller
    has passed it, and stops past the caller's hit or once the caller is on
    a newer job."""
    high = 0
    while words[_CALLER_POS] == _ABSENT:
        words[_HELPER_FRONT] = high
        if words[_CALLER_JOB] != seq:
            return
        yield high
        high += 1
    words[_HELPER_SPLIT] = high
    high |= 1
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
    """The helper's loop: search each job until the job pipe closes. A hit
    goes into ``words``, nonce and digest first."""
    while job := os.read(job_r, _JOB.size):
        seq, height, prev_digest, payload_digest, bits = _JOB.unpack(job)
        words[_HELPER_HIT] = _NO_HIT
        words[_HELPER_FRONT] = -1
        words[_HELPER_SPLIT] = _NO_HIT
        words[_HELPER_JOB] = seq
        found = _search(_prefix(height, prev_digest, payload_digest), _BOUNDS[bits], _follow(words, seq))
        if found is not None:
            words[_HELPER_NONCE] = found[0]
            words[_HELPER_DIGEST] = memoryview(found[1]).cast("q")
            words[_HELPER_HIT] = found[0] >> 8


class _Helper:
    """The forked process that searches in the background, seen from the caller."""

    def __init__(self) -> None:
        self.owner = os.getpid()
        self.seq = 0
        # The job of post ``seq``, (height, prev_digest, payload_digest,
        # difficulty_bits), until the caller joins it.
        self.posted: tuple[int, bytes, bytes, int] | None = None
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

    def post(self, job: tuple[int, bytes, bytes, int]) -> None:
        """Publish ``job`` with the caller absent and hand it to the helper.

        Raises BrokenPipeError if the helper is gone.
        """
        self.seq += 1
        self.posted = job
        words = self.words
        words[_CALLER_HIT] = _NO_HIT
        words[_CALLER_POS] = _ABSENT
        words[_CALLER_JOB] = self.seq
        try:
            os.write(self.job_w, _JOB.pack(self.seq, *job))
        except BlockingIOError:
            pass  # the helper is a pipeful of jobs behind: the caller searches alone

    def exited(self) -> bool:
        """Whether the helper has exited; reaps it if so."""
        try:
            return os.waitpid(self.pid, os.WNOHANG)[0] != 0
        except ChildProcessError:  # already reaped elsewhere
            return True

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
    """This process's helper, forked on first use; None when the split
    cannot run."""
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


def _post(helper: _Helper, job: tuple[int, bytes, bytes, int]) -> _Helper | None:
    """Post ``job`` to ``helper``; None if the helper was gone."""
    try:
        helper.post(job)
    except BrokenPipeError:
        _stop_helper()  # reaps the dead helper; the next post forks a new one
        return None
    return helper


def post(height: int, prev_digest: bytes, payload_digest: bytes, difficulty_bits: int) -> None:
    """Start the nonce search for this header in the background and return
    at once; ``mine_nonce`` with the same arguments joins it. Does nothing
    where the split cannot run."""
    if difficulty_bits > 0 and (helper := _helper_here()) is not None:
        _post(helper, (height, prev_digest, payload_digest, difficulty_bits))


def mine_nonce(height: int, prev_digest: bytes, payload_digest: bytes, difficulty_bits: int) -> tuple[int, bytes]:
    """Smallest nonce whose header digest clears the difficulty target, with
    that digest. Joins the search ``post`` started for this header, or
    posts it first when it is not the one posted."""
    if difficulty_bits <= 0:
        return 0, header_digest(height, prev_digest, payload_digest, 0)
    job = (height, prev_digest, payload_digest, difficulty_bits)
    helper = _helper_here()
    if helper is not None:
        if helper.posted != job:  # never posted, or superseded by a later post
            helper = _post(helper, job)
        elif helper.exited():  # died since the post: reap it and search alone
            _stop_helper()
            helper = None
    prefix, bound = _prefix(height, prev_digest, payload_digest), _BOUNDS[difficulty_bits]
    if helper is None:
        return _search(prefix, bound, itertools.count())
    helper.posted = None
    return _lead(helper.words, helper.seq, prefix, bound)
