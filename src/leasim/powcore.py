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

Searches in the background, queued in posting order. ``post`` hands a
header's search to one forked helper process and returns at once, so the
helper hashes on a second CPU while the caller gets on with other work. A
post names the header's parent: its digest, or the job ``post`` returned
for a parent whose digest is not known yet. A job on the last posted job is
*chained*: the helper starts it when the job before it ends, with the digest
that job found, so the blocks of a chain are searched one after another and
the caller reads none of them to post the next. Any other post *supersedes*
the queue: the helper drops every earlier job, so the searches of a chain
nobody extends (a discarded world's genesis, the old branch of a fork) never
sit in front of the live one. A job on a superseded parent whose digest is
not known is not posted at all; its search runs when it is read.

``mine_nonce`` is the only call that returns a header's ``(nonce,
digest)``. The caller reads a queue's jobs in posting order, as resolving
a header's unread ancestors oldest first does. A read of the oldest unread
job takes the helper's result when the helper found it alone, and otherwise
joins the search where the helper stands. A read of anything else, or of a
job whose join was cut short, posts it afresh, which supersedes the queue,
and joins it at once. Each searcher's walk is a generator of highs, and the
one ``_search`` loop tries the highs that a walk yields.

The helper's walk. While the caller is not on the job, the helper walks
every high upward from 0, claiming each as its front before it searches
it, and stops at its first hit, which is then the smallest clearing nonce.
When it sees the caller joined, it records the next high as its split point
before it claims anything at or above it, and from there walks only the odd
highs, jumping to the first odd high at or above the caller's position when
the caller has passed it. It stops past the caller's hit, once the caller
is on a later job, or once the job is superseded.

The caller's walk. It publishes itself on the job, at position 0, and then
walks every high upward from 0, publishing each as its position before it
takes it. It skips a high ``h`` at or below the helper's front when ``h`` is
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

Handing results over. The helper writes each hit into its job's result
slot, one of ``_SLOTS`` taken in turn by sequence number, and the caller
takes the results it finds there at every post and read, so a slot is
usually free again long before its turn comes round. The helper starts no
job whose slot still holds a result the caller has not taken: it waits for
the caller's next post or read. A chained job needs its parent's digest:
the helper's own, when it found the parent's smallest nonce alone, or the
one the caller sends down the job pipe after each read. A chained job whose
parent's digest never arrives (its record or the answer found the pipe
full, or the caller's join was cut short) waits until the caller reads on,
posts a superseding job or exits, and is searched at its read.

The shared array (an anonymous ``mmap``). Each searcher writes only its
own words: the caller the first job of the live queue, the last job whose
result it holds, the job it is on, the high of its hit and its position;
the helper the job it is on, the high of its hit, its front, its split point
and the result slots. It resets them before it publishes the job, and
publishes a hit after the nonce and digest. A slot's sequence number is
invalidated before the slot is rewritten and written last, and is read
before and after the nonce and digest, so a read never mixes two jobs'
results. A searcher reads the other's position, front, split point and hit
only while both are on the same job, so a search left running by an
interrupted call cannot bound a later one. A read may come late, but within
a job each word moves one way only, so a late read costs a repeated high at
most. Jobs and the caller's answers reach the helper over a pipe, tagged
with a sequence number.

The helper's lifecycle. It is forked on the first post and reused after
that; a process has at most one. It closes the caller's end of the job
pipe, so it exits on end-of-file when the caller dies, and it ignores
SIGINT, which the caller handles. The caller writes records without
blocking and drops one that finds the pipe full. An ``atexit`` hook closes
the job pipe and reaps the helper, so no zombie outlives the caller. A
process forked from the caller drops the inherited pipe end and forks its
own helper; it never writes to its parent's. If the helper dies, the next
post or read finds the pipe broken, or the next join finds it exited: that
call reaps it and searches alone, and the next post forks a new helper.
Where the split cannot run, ``post`` does nothing and the caller searches
every high itself with the same ``_search``: with fewer than two usable
CPUs, without ``os.fork`` or ``os.sched_getaffinity``, on a CPU other than
x86-64, or while the process has other threads, which a fork would not copy
and which could interleave on the pipe.
"""
from __future__ import annotations

import atexit
import collections
import hashlib
import itertools
import mmap
import os
import signal
import struct
import threading
import time
import traceback

BACKEND = "pure"

_TAILS = tuple(bytes((low,)) for low in range(256))


# Digests strictly below _BOUNDS[bits] clear ``bits`` (1..256); index 0 is
# unused, because zero difficulty clears every digest.
_BOUNDS = (b"",) + tuple((1 << (256 - bits)).to_bytes(32, "big") for bits in range(1, 257))

# Past every 7-byte high: a searcher with no hit yet.
_NO_HIT = 1 << 56
# Caller to helper: sequence number, kind, height, digest, payload_digest,
# difficulty bits. It is shorter than PIPE_BUF, so it is written and read
# whole. A _PLAIN job carries its prev_digest and supersedes every earlier
# job; a _CHAINED job's prev_digest is the digest of job seq - 1; an
# _ANSWER carries the digest of job seq as the caller read it.
_RECORD = struct.Struct(">qqq32s32sq")
_PLAIN, _CHAINED, _ANSWER = 0, 1, 2
_ZERO = bytes(32)
# The shared array's words (8 bytes each). The caller writes the first
# five, the helper the rest.
_CALLER_LIVE, _CALLER_DONE, _CALLER_JOB, _CALLER_HIT, _CALLER_POS = 0, 1, 2, 3, 4
_HELPER_JOB, _HELPER_HIT, _HELPER_FRONT, _HELPER_SPLIT = 5, 6, 7, 8
# The helper's hit in job seq: slot seq % _SLOTS, as (seq, nonce, digest).
_SLOTS = 16
_FIRST_SLOT, _SLOT_WORDS = 9, 6
_WORDS = _FIRST_SLOT + _SLOTS * _SLOT_WORDS
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


def _slot(seq: int) -> int:
    return _FIRST_SLOT + seq % _SLOTS * _SLOT_WORDS


def _helpers_hit(words, seq: int) -> tuple[int, bytes] | None:
    """The helper's hit in job ``seq`` as (nonce, digest), if its slot holds one."""
    at = _slot(seq)
    if words[at] != seq:
        return None
    found = words[at + 1], words[at + 2:at + _SLOT_WORDS].tobytes()
    return found if words[at] == seq else None


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


def _still_on(words, seq: int, high: int) -> bool:
    """Whether the helper is on ``high`` of job ``seq`` without a hit."""
    return (words[_HELPER_JOB] == seq and words[_HELPER_FRONT] == high
            and words[_HELPER_HIT] == _NO_HIT)


def _lead(words, seq: int, prefix, bound: bytes) -> tuple[int, bytes]:
    """The caller's part of job ``seq``: it joins the helper there, wherever
    the helper stands, and returns the job's smallest clearing nonce."""
    words[_CALLER_HIT] = _NO_HIT
    words[_CALLER_POS] = 0
    words[_CALLER_JOB] = seq
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
        while _still_on(words, seq, last) and time.perf_counter() < deadline:
            pass
        if _still_on(words, seq, last):
            best = _search(prefix, bound, (last,)) or best
    theirs = _helpers_hit(words, seq)
    return theirs if theirs is not None and theirs[0] < best[0] else best


def _follow(words, seq: int):
    """The helper's walk, each high claimed as its front before it is
    searched: every high upward while the caller is not on the job, then,
    from the split point, the odd highs. It jumps ahead of the caller when
    the caller has passed it, and stops past the caller's hit, once the
    caller is on a later job or once the job is superseded."""
    high = 0
    while words[_CALLER_JOB] < seq:
        words[_HELPER_FRONT] = high
        if words[_CALLER_LIVE] > seq:
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
        if (words[_CALLER_JOB] != seq or high > words[_CALLER_HIT]
                or words[_CALLER_LIVE] > seq):
            return
        yield high
        high += 2


def _run(words, seq: int, height: int, prev_digest: bytes, payload_digest: bytes,
         bits: int) -> bytes | None:
    """The helper's search of job ``seq``. Its hit goes into the job's slot,
    nonce and digest first; returns the digest when the helper found the
    smallest clearing nonce alone."""
    words[_HELPER_HIT] = _NO_HIT
    words[_HELPER_FRONT] = -1
    words[_HELPER_SPLIT] = _NO_HIT
    words[_HELPER_JOB] = seq
    found = _search(_prefix(height, prev_digest, payload_digest), _BOUNDS[bits], _follow(words, seq))
    if found is None:
        return None
    at = _slot(seq)
    words[at] = -1
    words[at + 1] = found[0]
    words[at + 2:at + _SLOT_WORDS] = memoryview(found[1]).cast("q")
    words[at] = seq
    words[_HELPER_HIT] = found[0] >> 8
    return found[1] if words[_HELPER_SPLIT] == _NO_HIT else None


def _serve(job_r: int, words) -> None:
    """The helper's loop: run the posted jobs in posting order until the job
    pipe closes, reading the pipe whenever no job can start."""
    waiting: collections.deque = collections.deque()  # jobs read, not yet run
    known, known_digest = 0, _ZERO  # the latest job whose digest the helper has
    while True:
        # Jobs up to ``taken`` are superseded or the caller holds their
        # results: their slots are free.
        taken = max(words[_CALLER_DONE], words[_CALLER_LIVE] - 1)
        while waiting and waiting[0][0] <= max(taken, known):
            waiting.popleft()
        if waiting and waiting[0][0] <= taken + _SLOTS and (
                waiting[0][1] == _PLAIN or waiting[0][0] == known + 1):
            seq, kind, height, prev_digest, payload_digest, bits = waiting.popleft()
            digest = _run(words, seq, height, prev_digest if kind == _PLAIN else known_digest,
                          payload_digest, bits)
            if digest is not None:
                known, known_digest = seq, digest
            continue
        data = os.read(job_r, _RECORD.size)
        if not data:
            return
        record = _RECORD.unpack(data)
        if record[1] != _ANSWER:
            waiting.append(record)  # a _PLAIN one has moved the live queue past the others
        elif record[0] > known:
            known, known_digest = record[0], record[3]


class _Job:
    """A posted search as the caller sees it. ``post`` returns it, and a
    block on it passes it as its parent until its digest is known."""

    __slots__ = ("seq", "height", "prev_digest", "payload_digest", "bits", "result", "joined")

    def __init__(self, height: int, prev_digest: bytes | None, payload_digest: bytes,
                 bits: int) -> None:
        self.seq = 0
        self.height, self.payload_digest, self.bits = height, payload_digest, bits
        self.prev_digest = prev_digest  # None until the parent's result is known
        self.result: tuple[int, bytes] | None = None
        self.joined = False  # the caller has started its part of the search

    def is_for(self, job: tuple[int, bytes, bytes, int]) -> bool:
        return (self.height, self.prev_digest, self.payload_digest, self.bits) == job


class _Helper:
    """The forked process that searches in the background, seen from the caller."""

    def __init__(self) -> None:
        self.owner = os.getpid()
        self.seq = 0
        self.last: _Job | None = None  # the last job posted: a post on it chains
        # The live queue's jobs not yet read, and those without a result,
        # oldest first. A job leaves ``running`` before it leaves ``unread``.
        self.unread: collections.deque[_Job] = collections.deque()
        self.running: collections.deque[_Job] = collections.deque()
        self.words = memoryview(mmap.mmap(-1, _WORDS * 8)).cast("q")
        job_r, self.job_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            status = 1
            try:
                os.close(self.job_w)
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                _serve(job_r, self.words)
                status = 0  # the job pipe closed
            except Exception:
                # Straight to fd 2: the exit below flushes no Python buffer.
                os.write(2, ("leasim PoW helper failed:\n" + traceback.format_exc()).encode())
            finally:
                os._exit(status)
        # Set here, not in the child, so it holds before the first job is sent.
        os.setpriority(os.PRIO_PROCESS, self.pid, 19)
        os.close(job_r)
        os.set_blocking(self.job_w, False)

    def send(self, seq: int, kind: int, height: int, digest: bytes, payload_digest: bytes,
             bits: int) -> None:
        """Write one record to the helper.

        Raises BrokenPipeError if the helper is gone.
        """
        try:
            os.write(self.job_w, _RECORD.pack(seq, kind, height, digest, payload_digest, bits))
        except BlockingIOError:
            pass  # the helper is a pipeful of records behind: the caller searches alone

    def post(self, job: _Job, chained: bool) -> None:
        """Queue ``job`` behind the last posted job, or in place of the whole
        queue, and hand it to the helper.

        Raises BrokenPipeError if the helper is gone.
        """
        self.seq += 1
        job.seq = self.seq
        if chained and self.last.result is not None:
            job.prev_digest = self.last.result[1]
        elif not chained:
            self.unread.clear()
            self.running.clear()
            self.words[_CALLER_LIVE] = job.seq
        self.last = job
        self.unread.append(job)
        self.running.append(job)
        self.send(job.seq, _CHAINED if chained else _PLAIN, job.height,
                  job.prev_digest or _ZERO, job.payload_digest, job.bits)

    def settle(self, result: tuple[int, bytes]) -> None:
        """Record ``result`` as the oldest running job's."""
        job = self.running.popleft()
        job.result = result
        self.words[_CALLER_DONE] = job.seq
        if self.running:  # chained on this job
            self.running[0].prev_digest = result[1]

    def collect(self) -> None:
        """Take the results the helper found alone off their slots, oldest
        first. A job the caller joined is the caller's to settle."""
        running, words = self.running, self.words
        while running and not running[0].joined and (
                found := _helpers_hit(words, running[0].seq)) is not None:
            self.settle(found)

    def exited(self) -> bool:
        """Whether the helper has exited; reaps it if so."""
        try:
            return os.waitpid(self.pid, os.WNOHANG)[0] != 0
        except ChildProcessError:  # already reaped elsewhere
            return True

    def close(self) -> None:
        """Stop the helper and reap it. A search it is still running sees
        the queue superseded and stops at its next high."""
        self.words[_CALLER_LIVE] = self.words[_CALLER_JOB] = self.seq + 1
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


def _post(helper: _Helper, job: _Job, chained: bool) -> _Job | None:
    """Post ``job`` to ``helper``; None if the helper was gone."""
    try:
        helper.post(job, chained)
    except BrokenPipeError:
        _stop_helper()  # reaps the dead helper; the next post forks a new one
        return None
    return job


def post(height: int, prev: bytes | _Job | None, payload_digest: bytes,
         difficulty_bits: int) -> _Job | None:
    """Start the nonce search for this header in the background and return
    at once. ``prev`` is the parent's digest, or, while that is not known,
    the job ``post`` returned for the parent. Returns this header's job, or
    None when nothing was posted: where the split cannot run, or when the
    parent's search was superseded before its digest was known.
    ``mine_nonce`` with the header's fields joins the search."""
    if difficulty_bits <= 0 or prev is None or (helper := _helper_here()) is None:
        return None
    helper.collect()
    if isinstance(prev, _Job):
        if prev is helper.last:
            return _post(helper, _Job(height, None, payload_digest, difficulty_bits), True)
        if prev.result is None:
            return None
        prev = prev.result[1]
    return _post(helper, _Job(height, prev, payload_digest, difficulty_bits), False)


def mine_nonce(height: int, prev_digest: bytes, payload_digest: bytes, difficulty_bits: int) -> tuple[int, bytes]:
    """Smallest nonce whose header digest clears the difficulty target, with
    that digest. Takes or joins the search of the queue's oldest unread job
    when this header is that job, and otherwise posts it first."""
    if difficulty_bits <= 0:
        return 0, header_digest(height, prev_digest, payload_digest, 0)
    prefix, bound = _prefix(height, prev_digest, payload_digest), _BOUNDS[difficulty_bits]
    helper = _helper_here()
    if helper is None:
        return _search(prefix, bound, itertools.count())
    helper.collect()
    job = helper.unread[0] if helper.unread else None
    if job is None or not job.is_for((height, prev_digest, payload_digest, difficulty_bits)) or (
            job.joined and job.result is None):  # not queued next, or a join cut short
        job = _post(helper, _Job(height, prev_digest, payload_digest, difficulty_bits), False)
        if job is None:
            return _search(prefix, bound, itertools.count())
    if job.result is None:
        if helper.exited():  # died since the post: reap it and search alone
            _stop_helper()
            return _search(prefix, bound, itertools.count())
        job.joined = True
        helper.settle(_lead(helper.words, job.seq, prefix, bound))
    helper.unread.popleft()
    try:
        # A chained job may need this digest, and a helper waiting for a
        # free slot wakes on it.
        helper.send(job.seq, _ANSWER, 0, job.result[1], _ZERO, 0)
    except BrokenPipeError:
        _stop_helper()
    return job.result
