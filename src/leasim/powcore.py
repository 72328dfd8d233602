"""PoW hash kernel: the block header digest and the nonce search.

A header's digest is SHA-256 of an 80-byte preimage: height (8 bytes,
big-endian), prev_digest (32), payload_digest (32) and pow_nonce (8,
big-endian). It clears ``difficulty_bits`` when that many leading bits are
zero: below ``2**(256 - bits)``, compared as 32 bytes. The search hashes the
72-byte prefix once per block and a second midstate per value of the
nonce's high 7 bytes (a "high"); each attempt feeds a copy of that one tail
byte, so it runs one SHA-256 compression. A high's tails are tried from 0,
so its first hit is its smallest clearing nonce.

The search builds its midstates with ``_MIDSTATE``, chosen once at import:
CPython's built-in ``_sha256.sha256`` where that module imports (3.11 and
before), else ``hashlib.sha256``. An attempt hashes a single block, and the
built-in type's ``copy`` and ``digest`` cost less than the OpenSSL context
copy ``hashlib`` makes on each, so it searches 1.05 to 1.2 times as fast,
with the same digests. From 3.12 on ``_sha256`` is gone, and its HACL*
successor ``_sha2`` searches at about ``hashlib``'s speed or slower, so the
search stays on ``hashlib`` there (``tools/pow_kernel.py`` times each
constructor). Every other digest, ``header_digest`` included, stays on
``hashlib``: OpenSSL hashes bulk data 5 to 7 times as fast as the built-in
type.

Searches in the background. ``post`` queues a header's search for one
forked helper process and returns at once. A job on the last posted job,
passed as the parent while its digest is unknown, is *chained*: the helper
starts it with the digest it found for the job before. Any other post
*supersedes* the queue; a job on a superseded parent with no digest yet is
not posted. ``mine_nonce`` alone returns a header's ``(nonce, digest)``. A
read of the oldest unread job takes the helper's result or joins its search;
a chained job matches only once the caller has read its parent, so a fork
with the same height and payload never does. Any other read posts afresh.

One claim loop. A record holds the job being searched: its sequence number
and prev digest, the next unclaimed high, the best hit and each searcher's
high in flight. Caller and helper run the same ``_join``: claim the next
high and search it, record a hit that beats the best, stop once the next
high is past the best, then wait for the other's in-flight high below the
best as long as this searcher takes per high, and search it too if it is
still in flight. So every high below the best is searched, the best is the
smallest clearing nonce, and a helper that lags or never runs leaves the
caller to claim every high, as one searcher would. A search cut short leaves
its high in flight for the next read. The record is a memory file, and a
POSIX record lock on it (``fcntl.lockf``), which the kernel releases if its
holder dies, guards every access but a waiting searcher's look. The helper
sends each job it finishes down a result pipe as ``(seq, nonce, digest)``;
the caller empties the pipe at every post and read.

The helper is forked on the first post, runs at the lowest priority and
ignores SIGINT. It exits when the job pipe ends or the result pipe closes,
as when its caller dies or an ``atexit`` hook closes them and reaps it. A
job that finds the job pipe full is searched at its read, and a forked child
forks its own helper. If the helper dies, the next post or read reaps it and
searches alone. With fewer than two usable CPUs, without ``os.fork``,
``os.sched_getaffinity`` or ``os.memfd_create``, or while other threads run,
``post`` does nothing and ``mine_nonce`` runs the same ``_search`` alone.
"""
from __future__ import annotations

import atexit
import collections
import contextlib
import dataclasses
import fcntl
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

try:
    from _sha256 import sha256 as _MIDSTATE
except ImportError:  # CPython 3.12 and later
    _MIDSTATE = hashlib.sha256

_TAILS = tuple(bytes((low,)) for low in range(256))
# Digests strictly below _BOUNDS[bits] clear ``bits`` (1..256).
_BOUNDS = (b"",) + tuple((1 << (256 - bits)).to_bytes(32, "big") for bits in range(1, 257))
# Past every 7-byte high: no hit yet, or no high in flight.
_NO_HIT = 1 << 56
# A job (seq, height, payload_digest, bits) and a result (seq, nonce, digest)
# are shorter than PIPE_BUF, so each is written and read whole.
_JOB = struct.Struct(">qq32sq")
_RESULT = struct.Struct(">qq32s")
# The record's words: the job, its next unclaimed high, the high, nonce and
# digest of its best hit, each searcher's high in flight, its prev digest.
_SEQ, _NEXT, _BEST, _NONCE, _DIGEST, _CALLER, _HELPER, _PREV = 0, 1, 2, 3, 4, 8, 9, 10
_WORDS = 14
_CAN_FORK = all(hasattr(os, name) for name in ("fork", "sched_getaffinity", "memfd_create"))


def header_digest(height: int, prev_digest: bytes, payload_digest: bytes, nonce: int) -> bytes:
    preimage = height.to_bytes(8, "big") + prev_digest + payload_digest + nonce.to_bytes(8, "big")
    return hashlib.sha256(preimage).digest()


def meets_target(digest: bytes, difficulty_bits: int) -> bool:
    return difficulty_bits <= 0 or digest < _BOUNDS[difficulty_bits]


def _prefix(height: int, prev_digest: bytes, payload_digest: bytes):
    return _MIDSTATE(height.to_bytes(8, "big") + prev_digest + payload_digest)


def _search(prefix, bound: bytes, highs) -> tuple[int, bytes] | None:
    """The first hit in the highs ``highs`` yields, as (nonce, digest); None if none."""
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


class _Record:
    """A memory file both searchers map; ``with`` holds its POSIX record lock."""

    def __init__(self) -> None:
        self.fd = os.memfd_create("leasim-pow", os.MFD_CLOEXEC)
        os.ftruncate(self.fd, _WORDS * 8)
        self.words = memoryview(mmap.mmap(self.fd, _WORDS * 8)).cast("q")

    def __enter__(self):
        fcntl.lockf(self.fd, fcntl.LOCK_EX)
        return self.words

    def __exit__(self, *_exc) -> None:
        fcntl.lockf(self.fd, fcntl.LOCK_UN)


def _start(words, seq: int, prev_digest: bytes) -> None:
    """Put job ``seq`` on the record: nothing claimed, no hit, no high in flight."""
    words[_SEQ], words[_NEXT], words[_BEST] = seq, 0, _NO_HIT
    words[_CALLER] = words[_HELPER] = _NO_HIT
    words[_PREV:_PREV + 4] = memoryview(prev_digest).cast("q")


def _claims(record: _Record, seq: int, prev_digest: bytes, mine: int):
    """The highs searcher ``mine`` takes in job ``seq``, each in flight while
    it is searched; it starts the job unless the record is on it or past it."""
    theirs = _CALLER + _HELPER - mine
    started, taken, waited = time.perf_counter(), 0, None
    with record as words:
        if words[_SEQ] < seq:
            _start(words, seq, prev_digest)
        high = words[mine] if words[_SEQ] == seq else _NO_HIT  # left by a search cut short
    while True:
        if high < _NO_HIT:
            taken += 1
            yield high
        with record as words:
            if words[_SEQ] != seq:
                return
            high = words[_NEXT]
            if high < words[_BEST]:
                words[_NEXT], words[mine] = high + 1, high
                continue
            words[mine], high = _NO_HIT, words[theirs]
            if high >= words[_BEST]:
                return
            if high == waited:  # still in flight after the wait: take it over
                words[theirs], words[mine] = _NO_HIT, high
                continue
        deadline = time.perf_counter() + (time.perf_counter() - started) / max(taken, 1)
        while record.words[theirs] == high and time.perf_counter() < deadline:
            pass  # a look without the lock, which only decides when to take it
        waited, high = high, _NO_HIT


def _join(record: _Record, seq: int, mine: int, height: int, prev_digest: bytes,
          payload_digest: bytes, bits: int) -> tuple[int, bytes] | None:
    """Search job ``seq`` as searcher ``mine``, beside the other: its
    smallest clearing nonce and digest, or None once it is off the record."""
    prefix, claims = _prefix(height, prev_digest, payload_digest), _claims(record, seq, prev_digest, mine)
    while (found := _search(prefix, _BOUNDS[bits], claims)) is not None:
        with record as words:
            if words[_SEQ] == seq and found[0] >> 8 < words[_BEST]:
                words[_BEST], words[_NONCE] = found[0] >> 8, found[0]
                words[_DIGEST:_DIGEST + 4] = memoryview(found[1]).cast("q")
    with record as words:
        if words[_SEQ] == seq:
            return words[_NONCE], words[_DIGEST:_DIGEST + 4].tobytes()
    return None


def _serve(job_r: int, result_w: int, record: _Record) -> None:
    """The helper's loop: search the posted jobs in order and send each result."""
    waiting: collections.deque = collections.deque()  # jobs read, not yet searched
    done, done_digest = 0, b""  # the last job the helper finished, and its digest
    while True:
        prev = None
        with record as words:
            while waiting and waiting[0][0] < words[_SEQ]:
                waiting.popleft()  # read or superseded by the caller
            if waiting and waiting[0][0] == words[_SEQ]:
                prev = words[_PREV:_PREV + 4].tobytes()
            elif waiting and waiting[0][0] == done + 1:
                prev = done_digest  # chained on the job it finished last
        if prev is None:
            if not (data := os.read(job_r, _JOB.size)):
                return
            waiting.append(_JOB.unpack(data))
            continue
        seq, height, payload_digest, bits = waiting.popleft()
        if (found := _join(record, seq, _HELPER, height, prev, payload_digest, bits)) is not None:
            try:
                os.write(result_w, _RESULT.pack(seq, *found))
            except BrokenPipeError:
                return  # the caller has closed the pipe or died
            done, done_digest = seq, found[1]


@dataclasses.dataclass(eq=False, slots=True)
class _Job:
    """A posted search as the caller sees it, and a block's parent until read."""
    seq: int
    header: list  # height, prev_digest (None until the parent is read), payload_digest, bits
    result: tuple[int, bytes] | None = None


class _Helper:
    """The forked process that searches in the background, seen from the caller."""

    def __init__(self) -> None:
        self.owner, self.seq = os.getpid(), 0
        self.last: _Job | None = None  # the last job posted: a post on it chains
        self.unread: collections.deque[_Job] = collections.deque()  # the live queue's, in order
        self.record = _Record()
        job_r, self.job_w = os.pipe()
        self.result_r, result_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:
            try:
                os.close(self.job_w)
                os.close(self.result_r)
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                _serve(job_r, result_w, self.record)
            except Exception:
                # Straight to fd 2: the exit flushes no Python buffer.
                os.write(2, ("leasim PoW helper failed:\n" + traceback.format_exc()).encode())
                os._exit(1)
            finally:
                os._exit(0)
        os.setpriority(os.PRIO_PROCESS, self.pid, 19)  # here: it holds before the first job
        os.close(job_r)
        os.close(result_w)
        os.set_blocking(self.job_w, False)
        os.set_blocking(self.result_r, False)

    def post(self, header: list, chained: bool) -> _Job:
        """Queue a job behind the last posted one, or in place of the queue."""
        self.seq += 1
        job = _Job(self.seq, header)
        if chained and self.last.result is not None:
            header[1] = self.last.result[1]
        elif not chained:
            self.unread.clear()
            with self.record as words:
                _start(words, job.seq, header[1])
        self.last = job
        self.unread.append(job)
        try:
            os.write(self.job_w, _JOB.pack(job.seq, header[0], header[2], header[3]))
        except BlockingIOError:
            pass  # the helper is a pipeful of jobs behind: this one is searched at its read
        return job

    def take_results(self) -> None:
        """Give each unread job its result from the pipe; BrokenPipeError once none come."""
        while True:
            try:
                data = os.read(self.result_r, _RESULT.size << 10)
            except BlockingIOError:
                return
            if not data:
                raise BrokenPipeError("the PoW helper has exited")
            first = self.unread[0].seq if self.unread else 0
            for seq, nonce, digest in _RESULT.iter_unpack(data):
                if first <= seq < first + len(self.unread):
                    self.unread[seq - first].result = nonce, digest


_helper: _Helper | None = None


def _helper_here() -> _Helper | None:
    """This process's helper, forked on first use; None where none can run."""
    global _helper
    if _helper is not None and _helper.owner != os.getpid():
        _stop_helper()  # inherited through a fork: the parent's helper
    if not _CAN_FORK or len(os.sched_getaffinity(0)) < 2 or threading.active_count() > 1:
        return None
    if _helper is None:
        _helper = _Helper()
    return _helper


@atexit.register
def _stop_helper() -> None:
    """Stop this process's helper and reap it, or drop one inherited through a fork."""
    global _helper
    helper, _helper = _helper, None
    if helper is None:
        return
    if own := helper.owner == os.getpid():
        with helper.record as words:  # also lets go of a lock that a cut-short call kept
            words[_SEQ] = helper.seq + 1
    for fd in (helper.job_w, helper.result_r, helper.record.fd):
        os.close(fd)
    if own:
        with contextlib.suppress(ChildProcessError):  # already reaped elsewhere
            os.waitpid(helper.pid, 0)


def post(height: int, prev: bytes | _Job | None, payload_digest: bytes, difficulty_bits: int) -> _Job | None:
    """Start the nonce search for this header in the background. ``prev`` is
    the parent's digest, or the job ``post`` returned for the parent while
    that is unknown. Returns this header's job, or None if nothing was posted:
    where no helper can run, or on a superseded parent with no digest yet."""
    if difficulty_bits <= 0 or prev is None or (helper := _helper_here()) is None:
        return None
    try:
        helper.take_results()
        if isinstance(prev, _Job):
            if prev is helper.last:
                return helper.post([height, None, payload_digest, difficulty_bits], True)
            if prev.result is None:
                return None
            prev = prev.result[1]
        return helper.post([height, prev, payload_digest, difficulty_bits], False)
    except BrokenPipeError:
        _stop_helper()  # reaps the dead helper; the next post forks a new one
        return None


def mine_nonce(height: int, prev_digest: bytes, payload_digest: bytes, difficulty_bits: int) -> tuple[int, bytes]:
    """Smallest nonce whose header digest clears the difficulty target, with
    that digest: the search of the oldest unread job if it is this header's."""
    if difficulty_bits <= 0:
        return 0, header_digest(height, prev_digest, payload_digest, 0)
    header = [height, prev_digest, payload_digest, difficulty_bits]
    if (helper := _helper_here()) is not None:
        try:
            helper.take_results()
            job = helper.unread[0] if helper.unread and helper.unread[0].header == header else None
            job = job or helper.post(header, False)
            job.result = job.result or _join(helper.record, job.seq, _CALLER, *header)
            if job.result is None:  # the helper finished it and moved on, its result sent
                helper.take_results()
            helper.unread.popleft()
            if helper.unread:  # chained on this job
                helper.unread[0].header[1] = job.result[1]
            return job.result
        except BrokenPipeError:
            _stop_helper()  # reaps the dead helper; the next post forks a new one
    return _search(_prefix(height, prev_digest, payload_digest), _BOUNDS[difficulty_bits], itertools.count())
