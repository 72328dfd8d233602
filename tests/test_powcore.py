"""Hash kernel: known answers, brute-force search and an independent digest oracle."""
from __future__ import annotations

import collections
import fcntl
import hashlib
import itertools
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import leasim
from leasim import powcore


def oracle_digest(height: int, prev: bytes, payload: bytes, nonce: int) -> bytes:
    """Independent recomputation of the documented 80-byte preimage layout."""
    preimage = height.to_bytes(8, "big") + prev + payload + nonce.to_bytes(8, "big")
    return hashlib.sha256(preimage).digest()


def oracle_clears(digest: bytes, bits: int) -> bool:
    """The target as an integer: the first `bits` bits of the digest are zero."""
    return bits <= 0 or int.from_bytes(digest, "big") >> (256 - bits) == 0


def test_header_digest_matches_oracle():
    prev, payload = b"\x01" * 32, b"\x02" * 32
    for height, nonce in [(0, 0), (1, 7), (1000, 2**40 + 3)]:
        assert powcore.header_digest(height, prev, payload, nonce) == oracle_digest(
            height, prev, payload, nonce
        )


# (nonce, digest) of a 6-block chain: prev starts at H("kat-genesis"), block h
# carries payload H("kat-payload-<h>") and links to the digest before it.
KNOWN_CHAIN = {
    12: [
        (8141, "0003190b4ca8139e3ec6ead983c422cca784a63eab7f6d6bf9f0c380238f0b8b"),
        (2084, "000c14031def0d79157b5d2400368f6fe583af41cc31489606c38e80bdffea52"),
        (1479, "00048440d67b3ef9924516a61f7d9da17322ba55b71127280383f93d5485f158"),
        (1644, "0006f89670f6b32fdcc13a11ed54bd1eb150b9264f2ee8ce946c3c38f1fab6b5"),
        (816, "00080410169fcb90c27e131d7b3def9df7ba34346d2c164eab184b99572393e9"),
        (4626, "000c9f1e42da8600bda62d066146b41a016b7e2dca32c3f01408f5acc34a75f3"),
    ],
    16: [
        (262374, "0000ce7b9fcf913aae2ab14d0c7794084c4e0bbcd9900cb99a84c0f8186edca5"),
        (4528, "00004032e4a6c8158aacd1742ec842af060220b725d685f5febbdcc4812ba719"),
        (19248, "00007ce44cf283ed9d843f685e0ed341845c9b7b30caf4fd7da9fe49f993e119"),
        (2761, "0000b758e479ef9955b9c1ffbef7ff322fc2cde947a18279a6d3ad7450912621"),
        (174366, "000027523aca724c1bbd85d34110a67f76f537e1d308479b58799a5630d1056e"),
        (2380, "00000010d528369f2843cbe05bcfadf2177f3b05e3c96de8cbf54de9794eb18a"),
    ],
}


@pytest.mark.parametrize("bits", sorted(KNOWN_CHAIN))
def test_known_answer_chain(bits):
    prev = hashlib.sha256(b"kat-genesis").digest()
    got = []
    for height in range(len(KNOWN_CHAIN[bits])):
        payload = hashlib.sha256(b"kat-payload-%d" % height).digest()
        nonce, prev = powcore.mine_nonce(height, prev, payload, bits)
        got.append((nonce, prev.hex()))
    assert got == KNOWN_CHAIN[bits]


def oracle_mine(height: int, prev: bytes, payload: bytes, bits: int) -> tuple[int, bytes]:
    """The first nonce the oracle accepts, tried one by one from 0."""
    nonce = 0
    while not oracle_clears(oracle_digest(height, prev, payload, nonce), bits):
        nonce += 1
    return nonce, oracle_digest(height, prev, payload, nonce)


# (height, bits) beyond the grid below whose answers sit at tail 0 of a high:
# nonce 1536 (high 6, the caller's) and nonce 1280 (high 5, the helper's).
_BOUNDARY_CASES = ((200, 9), (75, 12))


def test_mined_nonce_matches_brute_force():
    """The kernel's answer is the first nonce the oracle accepts, at bit counts
    on both sides of a byte boundary and answers on both sides of 256: in high
    0, in odd highs (the helper's half of the split search), and on the first
    tail of a high of each parity."""
    cases = [(height, bits) for bits in (1, 7, 8, 9, 12) for height in range(6)]
    answers = []
    for height, bits in cases + list(_BOUNDARY_CASES):
        prev, payload = bytes([height]) * 32, b"\x5a" * 32
        answer = oracle_mine(height, prev, payload, bits)
        assert powcore.mine_nonce(height, prev, payload, bits) == answer
        answers.append(answer[0])
    highs = [nonce >> 8 for nonce in answers]
    assert min(answers) == 0 and max(answers) >= 256
    assert 0 in highs and any(high % 2 for high in highs)
    assert {high % 2 for nonce, high in zip(answers, highs) if high and nonce & 0xFF == 0} == {0, 1}


@settings(max_examples=40, deadline=None)
@given(height=st.integers(0, 2**40), prev=st.binary(min_size=32, max_size=32),
       payload=st.binary(min_size=32, max_size=32), bits=st.integers(1, 12))
def test_mined_nonce_matches_brute_force_on_random_headers(height, prev, payload, bits):
    assert powcore.mine_nonce(height, prev, payload, bits) == oracle_mine(height, prev, payload, bits)


def test_mined_nonce_is_smallest():
    nonce, digest = powcore.mine_nonce(3, b"\x07" * 32, b"\x08" * 32, 8)
    assert powcore.meets_target(digest, 8)
    for earlier in range(nonce):
        assert not powcore.meets_target(
            powcore.header_digest(3, b"\x07" * 32, b"\x08" * 32, earlier), 8
        )


def test_meets_target_is_leading_zero_bits():
    digest = bytes.fromhex("000016d2" + "00" * 28)
    # 0x000016d2... has 19 leading zero bits
    for bits, expect in [(0, True), (12, True), (19, True), (20, False), (32, False)]:
        assert powcore.meets_target(digest, bits) is expect


_bits = st.shared(st.integers(0, 32), key="bits")
# Random digests with 0-40 leading zero bits, so both outcomes are common,
# and the two digests on either side of the drawn target's bound.
_digests = st.one_of(
    st.builds(lambda value, zeros: (value >> zeros).to_bytes(32, "big"),
              st.integers(0, 2**256 - 1), st.integers(0, 40)),
    st.builds(lambda bits, below: ((1 << (256 - max(bits, 1))) - below).to_bytes(32, "big"),
              _bits, st.integers(0, 1)),
)


@given(digest=_digests, bits=_bits)
def test_meets_target_matches_integer_shift(digest, bits):
    assert powcore.meets_target(digest, bits) is oracle_clears(digest, bits)


def test_zero_difficulty_accepts_nonce_zero():
    nonce, _ = powcore.mine_nonce(1, b"\x00" * 32, b"\x00" * 32, 0)
    assert nonce == 0


# -- the split search's helper process ----------------------------------------

SRC = str(Path(leasim.__file__).resolve().parent.parent)
needs_two_cpus = pytest.mark.skipif(
    not powcore._CAN_SPLIT or len(os.sched_getaffinity(0)) < 2,
    reason="the split search needs two usable CPUs on x86-64 Linux")

# Headers mined by the helper tests, and the oracle's answers for them.
_HEADERS = [(height, hashlib.sha256(b"life-prev-%d" % height).digest(),
             hashlib.sha256(b"life-payload-%d" % height).digest(), 10) for height in range(4)]


@pytest.fixture(scope="module")
def header_answers():
    return [oracle_mine(*header) for header in _HEADERS]


def mine_in_subprocess(before: str = "", after: str = "") -> tuple[subprocess.CompletedProcess, dict]:
    """Mine _HEADERS in a fresh interpreter. ``before`` runs first; after the
    answers and the helper's pid (or None) are printed as one JSON line,
    ``after`` runs."""
    script = (
        "import json, os, signal\n" + before
        + "from leasim import powcore\n"
        f"answers = [[n, d.hex()] for n, d in (powcore.mine_nonce(*h) for h in {_HEADERS!r})]\n"
        "helper = powcore._helper.pid if powcore._helper else None\n"
        "print(json.dumps({'answers': answers, 'helper': helper}), flush=True)\n" + after
    )
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120, check=False)
    return done, json.loads(done.stdout) if done.stdout else {}


def process_state(pid: int) -> str | None:
    """The state letter of a process (``Z`` for a zombie), None once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


def as_json(answers):
    return [[nonce, digest.hex()] for nonce, digest in answers]


@needs_two_cpus
def test_helper_is_reaped_when_its_caller_exits(header_answers):
    done, out = mine_in_subprocess()
    assert done.returncode == 0, done.stderr
    assert out["answers"] == as_json(header_answers)
    assert out["helper"] is not None
    assert process_state(out["helper"]) is None  # neither running nor a zombie


@needs_two_cpus
def test_helper_exits_when_its_caller_is_killed():
    done, out = mine_in_subprocess(after="os.kill(os.getpid(), signal.SIGKILL)\n")
    assert done.returncode == -signal.SIGKILL
    pid = out["helper"]
    deadline = time.monotonic() + 30
    try:
        while process_state(pid) not in (None, "Z") and time.monotonic() < deadline:
            time.sleep(0.05)
        assert process_state(pid) in (None, "Z"), "the helper outlived its killed caller"
    finally:
        if process_state(pid) not in (None, "Z"):
            os.kill(pid, signal.SIGKILL)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
def test_one_cpu_searches_alone_with_the_same_nonces(header_answers):
    done, out = mine_in_subprocess(before="os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n")
    assert done.returncode == 0, done.stderr
    assert out == {"answers": as_json(header_answers), "helper": None}


def wait_for_exit(pid: int, timeout_s: float = 60) -> int | None:
    """Reap a child of this process; its exit status, or None on timeout."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        reaped, status = os.waitpid(pid, os.WNOHANG)
        if reaped:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    return None


@needs_two_cpus
def test_forked_child_mines_through_its_own_helper(header_answers):
    powcore.mine_nonce(*_HEADERS[0])
    parent_helper = powcore._helper.pid
    child = os.fork()
    if child == 0:
        ok = False
        try:
            ok = ([powcore.mine_nonce(*h) for h in _HEADERS] == header_answers
                  and powcore._helper.owner == os.getpid()
                  and powcore._helper.pid != parent_helper)
            powcore._stop_helper()
        finally:
            os._exit(0 if ok else 1)
    assert wait_for_exit(child) == 0
    assert [powcore.mine_nonce(*h) for h in _HEADERS] == header_answers
    assert powcore._helper.pid == parent_helper


class _Interrupted(Exception):
    pass


@needs_two_cpus
def test_interrupted_search_leaves_no_stale_state(header_answers):
    """A search cut short by a raising signal handler leaves the helper on
    the old job; the next calls ignore what it wrote there."""
    powcore.mine_nonce(*_HEADERS[0])
    helper = powcore._helper.pid

    def interrupt(_signum, frame):
        # Raise only inside the kernel: a raise inside a tracer's callback
        # (tools/linecov.py's, say) would switch the tracer off.
        if frame.f_globals.get("__name__") == powcore.__name__:
            raise _Interrupted
        signal.setitimer(signal.ITIMER_REAL, 0.001)

    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.02)
        with pytest.raises(_Interrupted):
            powcore.mine_nonce(1, b"\x11" * 32, b"\x22" * 32, 32)  # ~2**32 attempts
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert [powcore.mine_nonce(*h) for h in _HEADERS] == header_answers
    assert powcore._helper.pid == helper  # the same helper answered


@needs_two_cpus
def test_a_join_cut_short_is_posted_afresh_when_read_again():
    """The header whose join was interrupted is read again: its job is
    posted afresh, never joined a second time, and the answer is the
    oracle's."""
    header = (4, hashlib.sha256(b"mid-prev-4").digest(), hashlib.sha256(b"mid-payload-4").digest(), 16)
    answer = single_searcher(*header)
    assert answer[0] == 98783  # about 390 highs: the interrupt lands mid-search
    powcore.mine_nonce(*_HEADERS[0])

    def interrupt(_signum, frame):
        if frame.f_globals.get("__name__") == powcore.__name__:
            raise _Interrupted
        signal.setitimer(signal.ITIMER_REAL, 0.001)

    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.002)
        with pytest.raises(_Interrupted):
            powcore.mine_nonce(*header)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    posted = powcore._helper.seq
    assert powcore._helper.unread[0].joined
    assert powcore.mine_nonce(*header) == answer
    assert powcore._helper.seq == posted + 1 and not powcore._helper.unread


@needs_two_cpus
def test_dead_helper_is_reaped_and_replaced(header_answers):
    powcore.mine_nonce(*_HEADERS[0])
    dead = powcore._helper.pid
    os.kill(dead, signal.SIGKILL)
    deadline = time.monotonic() + 30
    while process_state(dead) != "Z" and time.monotonic() < deadline:
        time.sleep(0.01)
    assert powcore.mine_nonce(*_HEADERS[1]) == header_answers[1]  # searched alone
    assert process_state(dead) is None
    assert powcore.mine_nonce(*_HEADERS[2]) == header_answers[2]
    fresh = powcore._helper.pid
    assert fresh != dead
    powcore._stop_helper()
    assert powcore._helper is None and process_state(fresh) is None


@needs_two_cpus
def test_helper_killed_mid_search_leaves_the_answer_right(header_answers):
    header = (4, hashlib.sha256(b"mid-prev-4").digest(), hashlib.sha256(b"mid-payload-4").digest(), 16)
    answer = oracle_mine(*header)
    assert answer[0] == 98783  # about 390 highs: the kill lands mid-search
    powcore.mine_nonce(*_HEADERS[0])
    dead = powcore._helper.pid

    def kill_helper(_signum, frame):
        if frame.f_globals.get("__name__") == powcore.__name__:
            os.kill(dead, signal.SIGKILL)
        else:
            signal.setitimer(signal.ITIMER_REAL, 0.001)

    previous = signal.signal(signal.SIGALRM, kill_helper)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.001)
        assert powcore.mine_nonce(*header) == answer
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    # A killed helper that waits for a busy CPU dies only once it runs.
    deadline = time.monotonic() + 30
    while process_state(dead) not in (None, "Z") and time.monotonic() < deadline:
        time.sleep(0.01)
    # The next job finds the pipe broken: that call reaps the dead helper.
    assert powcore.mine_nonce(*_HEADERS[1]) == header_answers[1]
    assert process_state(dead) is None
    assert powcore.mine_nonce(*_HEADERS[2]) == header_answers[2]
    assert powcore._helper.pid != dead


class _Stuck(Exception):
    pass


@needs_two_cpus
def test_stopped_helper_never_holds_up_the_caller(header_answers):
    """With its helper stopped before the job, the caller searches every
    high itself, in order, as one searcher would, and gives the same answers."""
    powcore.mine_nonce(*_HEADERS[0])
    helper = powcore._helper.pid
    words = powcore._helper.words
    assert os.getpriority(os.PRIO_PROCESS, helper) == 19  # only an idle CPU

    def stuck(_signum, _frame):
        raise _Stuck

    previous = signal.signal(signal.SIGALRM, stuck)
    os.kill(helper, signal.SIGSTOP)
    try:
        signal.alarm(60)
        for header, answer in zip(_HEADERS, header_answers):
            assert powcore.mine_nonce(*header) == answer
            assert words[powcore._HELPER_JOB] < words[powcore._CALLER_JOB]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        os.kill(helper, signal.SIGCONT)
    assert [powcore.mine_nonce(*h) for h in _HEADERS] == header_answers
    assert powcore._helper.pid == helper


def smallest_odd_high_hit(height, prev, payload, bits, high=1):
    """The first hit in the odd highs from ``high`` (odd) upward."""
    while True:
        for nonce in range(high << 8, (high + 1) << 8):
            digest = oracle_digest(height, prev, payload, nonce)
            if oracle_clears(digest, bits):
                return nonce, digest
        high += 2


def shared_words():
    return memoryview(bytearray(powcore._WORDS * 8)).cast("q")


def caller_on(words, seq, hit=powcore._NO_HIT, pos=0):
    """Publish the caller's words as a caller joined on job ``seq``, the
    first job of the live queue, at ``pos`` with a hit in high ``hit``."""
    words[powcore._CALLER_LIVE] = seq
    words[powcore._CALLER_HIT], words[powcore._CALLER_POS] = hit, pos
    words[powcore._CALLER_JOB] = seq


def caller_before(words, seq, done=0):
    """Publish the caller's words as a caller that posted job ``seq`` as the
    first of the live queue, holds every result up to job ``done`` and is
    not on any job of this queue yet."""
    words[powcore._CALLER_LIVE], words[powcore._CALLER_DONE] = seq, done
    words[powcore._CALLER_JOB] = 0


def in_slot(words, seq, found):
    """Put ``found``, a (nonce, digest), in job ``seq``'s result slot."""
    at = powcore._slot(seq)
    words[at + 1] = found[0]
    words[at + 2:at + powcore._SLOT_WORDS] = memoryview(found[1]).cast("q")
    words[at] = seq


def helper_on(words, seq, front, hit=powcore._NO_HIT, split=powcore._NO_HIT, found=None):
    """Put the helper's words where a helper on job ``seq`` can stand:
    ``found`` is the (nonce, digest) of its hit, when ``hit`` is one."""
    words[powcore._HELPER_HIT], words[powcore._HELPER_FRONT] = hit, front
    words[powcore._HELPER_SPLIT] = split
    if found is not None:
        in_slot(words, seq, found)
    words[powcore._HELPER_JOB] = seq


# Headers whose answers lie in high 0, in odd highs 1, 5 and 7 and in even
# highs 2, 4, 6 and 14, at 10 bits.
_LEAD_HEADERS = [(height, bytes([height]) * 32, b"\x5a" * 32, 10)
                 for height in (0, 1, 2, 3, 5, 6, 17, 20)]


def background_states(seq, header, answer):
    """Every state a helper that was posted ``header`` as job ``seq`` can be
    in when the caller reads its words, as ``helper_on`` arguments."""
    answer_high = answer[0] >> 8
    # Not on the job yet: its words are an older job's, which bound nothing.
    states = [dict(seq=seq - 1, front=answer_high + 9, hit=0, found=(5, bytes(32)))]
    # Alone, on every high in turn: on any of them up to its first hit,
    # which is the answer, or holding that hit.
    states += [dict(seq=seq, front=front) for front in range(answer_high + 1)]
    states.append(dict(seq=seq, front=answer_high, hit=answer_high, found=answer))
    # Switched at a split point: every high below it done and none a hit.
    # Then it is before its first odd claim, on an odd high up to its first
    # odd hit from there, or holding that hit.
    for split in range(answer_high + 1):
        odd = smallest_odd_high_hit(*header, high=split | 1)
        odd_high = odd[0] >> 8
        states.append(dict(seq=seq, front=split - 1, split=split))
        states += [dict(seq=seq, front=front, split=split)
                   for front in range(split | 1, odd_high + 1, 2)]
        states.append(dict(seq=seq, front=odd_high, hit=odd_high, split=split, found=odd))
    return states


def test_lead_meets_the_helper_where_it_stands():
    """The caller's part of a job, against every state a helper can be in
    when the caller joins: not on the job yet, alone on any high up to its
    first hit, holding that hit, or switched to the odd highs at any split
    point, on any odd front up to its first hit there or holding that hit.
    A helper that had the caller from the start is the split at 0. Last,
    a helper that found the answer alone and moved on to the next queued
    job, whose words bound nothing here. The answer is the oracle's in each."""
    seq = 5
    highs = set()
    for header in _LEAD_HEADERS:
        answer = oracle_mine(*header)
        highs.add(answer[0] >> 8)
        prefix, bound = powcore._prefix(*header[:3]), powcore._BOUNDS[header[3]]
        for state in background_states(seq, header, answer):
            words = shared_words()
            helper_on(words, **state)
            caller_before(words, seq)
            assert powcore._lead(words, seq, prefix, bound) == answer, (header[0], state)
            assert words[powcore._CALLER_JOB] == seq  # it joined the job
        words = shared_words()
        in_slot(words, seq, answer)
        helper_on(words, seq + 1, front=(answer[0] >> 8) + 9, hit=1, found=(7, bytes(32)))
        caller_before(words, seq)
        assert powcore._lead(words, seq, prefix, bound) == answer, (header[0], "moved on")
    assert highs == {0, 1, 2, 4, 5, 6, 7, 14}


def serve(words, *records):
    """Run the helper's loop here on ``records``, up to the pipe's end."""
    job_r, job_w = os.pipe()
    try:
        for record in records:
            os.write(job_w, powcore._RECORD.pack(*record))
        os.close(job_w)
        powcore._serve(job_r, words)
    finally:
        os.close(job_r)


def plain(seq, header):
    """The record of a job that carries its prev_digest."""
    return (seq, powcore._PLAIN, *header)


def chained(seq, header):
    """The record of a job on the digest of job ``seq - 1``."""
    height, _prev, payload, bits = header
    return (seq, powcore._CHAINED, height, bytes(32), payload, bits)


def answer_of(seq, digest):
    """The record of the caller's answer for job ``seq``."""
    return (seq, powcore._ANSWER, 0, digest, bytes(32), 0)


def test_serve_loop_in_process():
    """The helper's loop over a pipe, one job at a time, with the test as
    the caller."""
    height, prev, payload, bits = _HEADERS[0]
    odd_nonce, odd_digest = smallest_odd_high_hit(*_HEADERS[0])
    odd_high = odd_nonce >> 8
    assert odd_high > 1

    def helper_words(words):
        return (words[powcore._HELPER_JOB], words[powcore._HELPER_HIT],
                words[powcore._HELPER_FRONT])

    # The caller is not on the job: the helper searches every high in order
    # and stops at the smallest clearing nonce, with no split.
    words = shared_words()
    caller_before(words, 7)
    serve(words, plain(7, _HEADERS[0]))
    answer = oracle_mine(*_HEADERS[0])
    assert helper_words(words) == (7, answer[0] >> 8, answer[0] >> 8)
    assert words[powcore._HELPER_SPLIT] == powcore._NO_HIT
    assert powcore._helpers_hit(words, 7) == answer
    # A newer job supersedes this one: it is never started.
    caller_before(words, 9)
    serve(words, plain(8, _HEADERS[0]))
    assert helper_words(words) == (7, answer[0] >> 8, answer[0] >> 8)
    # The caller is on this job without a hit: the helper's first odd-high hit.
    caller_on(words, 11)
    serve(words, plain(11, _HEADERS[0]))
    assert helper_words(words) == (11, odd_high, odd_high)
    assert powcore._helpers_hit(words, 11) == (odd_nonce, odd_digest)
    # The caller hit in high 0: nothing odd can be smaller.
    caller_on(words, 12, hit=0)
    serve(words, plain(12, _HEADERS[0]))
    assert helper_words(words) == (12, powcore._NO_HIT, 1)
    assert powcore._helpers_hit(words, 12) is None
    # The caller has passed the helper's first hit: the helper jumps ahead
    # of the caller and finds the next odd-high hit.
    caller_on(words, 13, pos=odd_high + 1)
    serve(words, plain(13, _HEADERS[0]))
    later_nonce, later_digest = smallest_odd_high_hit(*_HEADERS[0], high=odd_high + 2)
    assert helper_words(words) == (13, later_nonce >> 8, later_nonce >> 8)
    assert powcore._helpers_hit(words, 13) == (later_nonce, later_digest)
    # The caller is on the helper's hit high: the helper claims that high
    # too, for the caller may have seen it claimed and skipped it.
    caller_on(words, 14, pos=odd_high)
    serve(words, plain(14, _HEADERS[0]))
    assert helper_words(words) == (14, odd_high, odd_high)
    # Of two queued jobs, the one the later supersedes is never started.
    caller_on(words, 16)
    serve(words, plain(15, _HEADERS[1]), plain(16, _HEADERS[0]))
    assert helper_words(words) == (16, odd_high, odd_high)
    assert powcore._helpers_hit(words, 15) is None


def single_searcher(height, prev, payload, bits):
    """The oracle: one searcher trying every high from 0 in order."""
    return powcore._search(powcore._prefix(height, prev, payload), powcore._BOUNDS[bits],
                           itertools.count())


# Links of a chain, (height, payload_digest, difficulty_bits), and the
# digest its first link is on.
_CHAIN_PREV = hashlib.sha256(b"pipe-genesis").digest()


def chain_links(n, bits, tag=b"pipe"):
    return [(height, hashlib.sha256(b"%s-payload-%d" % (tag, height)).digest(), bits)
            for height in range(n)]


def chain_headers(links, prev=_CHAIN_PREV):
    """Each link's header, (height, prev_digest, payload_digest, bits), on
    the single searcher's digest of the link before it."""
    headers = []
    for height, payload, bits in links:
        headers.append((height, prev, payload, bits))
        prev = single_searcher(*headers[-1])[1]
    return headers


def test_serve_runs_a_queue_in_posting_order():
    """Chained jobs start when the job before them ends, on the digest that
    job found or on the caller's answer for it, and never overwrite a slot
    the caller has not taken."""
    headers = chain_headers(chain_links(_SLOTS_PLUS := powcore._SLOTS + 1, 6))
    answers = [single_searcher(*header) for header in headers]
    # Alone on the whole queue: each job on the digest of the one before.
    words = shared_words()
    caller_before(words, 21)
    serve(words, plain(21, headers[0]), *(chained(21 + i, h) for i, h in enumerate(headers[1:4], 1)))
    assert [powcore._helpers_hit(words, 21 + i) for i in range(4)] == answers[:4]
    assert words[powcore._HELPER_SPLIT] == powcore._NO_HIT
    # The caller joined job 31: job 32 starts on the caller's answer for it.
    caller_on(words, 31)
    serve(words, plain(31, headers[0]), chained(32, headers[1]), answer_of(31, answers[0][1]))
    assert powcore._helpers_hit(words, 32) == answers[1]
    # Without that answer, job 42 never starts.
    caller_on(words, 41)
    serve(words, plain(41, headers[0]), chained(42, headers[1]))
    assert words[powcore._HELPER_JOB] == 41 and powcore._helpers_hit(words, 42) is None
    # Jobs whose results the caller holds are skipped, and the next starts
    # on the caller's answer.
    caller_before(words, 51, done=52)
    serve(words, plain(51, headers[0]), chained(52, headers[1]), chained(53, headers[2]),
          answer_of(52, answers[1][1]))
    assert powcore._helpers_hit(words, 51) is None and powcore._helpers_hit(words, 52) is None
    assert powcore._helpers_hit(words, 53) == answers[2]
    # With no result taken, the helper stops one slot short of reusing the
    # first job's: every result it found is still there to take.
    caller_before(words, 61)
    serve(words, plain(61, headers[0]),
          *(chained(61 + i, h) for i, h in enumerate(headers[1:], 1)))
    assert words[powcore._HELPER_JOB] == 61 + powcore._SLOTS - 1
    assert [powcore._helpers_hit(words, 61 + i) for i in range(powcore._SLOTS)] == answers[:-1]
    assert powcore._helpers_hit(words, 61 + _SLOTS_PLUS - 1) is None


def test_helper_records_the_split_before_it_claims_past_it():
    """The helper's walk takes every high while the caller is not on the
    job. Once the caller joins, the split point is written before the front
    reaches it, and only odd highs follow. A superseded job stops in either
    walk."""
    words = shared_words()
    helper_on(words, 1, front=-1)  # as _run resets them for a job
    caller_before(words, 1)
    walk = powcore._follow(words, 1)
    assert [next(walk) for _ in range(4)] == [0, 1, 2, 3]
    assert words[powcore._HELPER_SPLIT] == powcore._NO_HIT
    caller_on(words, 1, pos=0)  # the caller joins while the helper is on high 3
    assert next(walk) == 5
    assert (words[powcore._HELPER_SPLIT], words[powcore._HELPER_FRONT]) == (4, 5)
    assert [next(walk) for _ in range(2)] == [7, 9]
    caller_on(words, 1, pos=20)  # the caller has passed the helper: it jumps
    assert next(walk) == 21
    caller_on(words, 1, hit=21, pos=22)
    assert list(walk) == []  # past the caller's hit
    for joined in (False, True):
        helper_on(words, 2, front=-1)
        if joined:
            caller_on(words, 2)
        else:
            caller_before(words, 2)
        walk = powcore._follow(words, 2)
        first = next(walk)
        words[powcore._CALLER_LIVE] = 3  # a later post supersedes job 2
        assert next(walk, None) is None
        assert words[powcore._HELPER_FRONT] == first + 1 + joined


@needs_two_cpus
def test_a_job_the_helper_finished_alone_costs_the_caller_no_hash(monkeypatch, header_answers):
    powcore.post(*_HEADERS[1])
    words, seq = powcore._helper.words, powcore._helper.seq
    deadline = time.monotonic() + 60
    while not (words[powcore._HELPER_JOB] == seq and words[powcore._HELPER_HIT] != powcore._NO_HIT):
        assert time.monotonic() < deadline, "the helper never finished the posted job"
        time.sleep(0.001)
    searched = count_searched_highs(monkeypatch)
    assert powcore.mine_nonce(*_HEADERS[1]) == header_answers[1]
    assert searched == []
    assert powcore._helper.seq == seq  # taken from its slot, not posted again


def count_searched_highs(monkeypatch) -> list[int]:
    """Record every high ``_search`` tries from now on."""
    searched = []
    search = powcore._search

    def counting(prefix, bound, highs):
        def counted():
            for high in highs:
                searched.append(high)
                yield high
        return search(prefix, bound, counted())

    monkeypatch.setattr(powcore, "_search", counting)
    return searched


@needs_two_cpus
def test_a_superseded_post_is_posted_again_when_read(header_answers):
    """Chain A's tip is posted, then chain B's supersedes it. Reading A's
    tip posts it again and joins it; reading B's tip does the same."""
    chain_a, chain_b = _HEADERS[2], _HEADERS[3]
    powcore.post(*chain_a)
    first = powcore._helper.seq
    job_b = powcore.post(*chain_b)
    assert list(powcore._helper.unread) == [job_b]
    assert powcore.mine_nonce(*chain_a) == header_answers[2]
    assert powcore.mine_nonce(*chain_b) == header_answers[3]
    assert powcore._helper.seq == first + 3 and not powcore._helper.unread


def post_chain(headers):
    """Post ``headers`` as one chain: the first on its prev_digest, each
    next one on the job ``post`` returned for the one before it."""
    jobs = []
    for height, prev, payload, bits in headers:
        jobs.append(powcore.post(height, jobs[-1] if jobs else prev, payload, bits))
    return jobs


def read_chain(headers):
    """Read each header in chain order, as resolving a header's unread
    ancestors oldest first does."""
    return [powcore.mine_nonce(*header) for header in headers]


def wait_for_result(job, timeout_s: float = 60) -> None:
    """Wait until the helper has found ``job``'s nonce."""
    words = powcore._helper.words
    deadline = time.monotonic() + timeout_s
    while powcore._helpers_hit(words, job.seq) is None:
        assert time.monotonic() < deadline, "the helper never finished the job"
        time.sleep(0.001)


def count_joins(monkeypatch) -> list[int]:
    """Record the job of every search the caller joins from now on."""
    joined = []
    lead = powcore._lead

    def counting(words, seq, prefix, bound):
        joined.append(seq)
        return lead(words, seq, prefix, bound)

    monkeypatch.setattr(powcore, "_lead", counting)
    return joined


@needs_two_cpus
def test_helper_runs_a_posted_chain_before_any_read(monkeypatch):
    headers = chain_headers(chain_links(6, 12))
    answers = [single_searcher(*header) for header in headers]
    jobs = post_chain(headers)
    assert all(job is not None for job in jobs)
    assert powcore._helper.last is jobs[-1] and list(powcore._helper.unread) == jobs
    wait_for_result(jobs[-1])
    searched = count_searched_highs(monkeypatch)
    assert read_chain(headers) == answers
    assert searched == []  # every result was the helper's, found alone
    assert not powcore._helper.unread


@needs_two_cpus
def test_first_read_mid_chain_joins_the_queue_in_order(monkeypatch):
    headers = chain_headers(chain_links(6, 14, b"mid"))
    joined = count_joins(monkeypatch)
    jobs = post_chain(headers)
    assert read_chain(headers) == [single_searcher(*header) for header in headers]
    assert joined and set(joined) <= {job.seq for job in jobs}  # no job posted again
    assert joined == sorted(joined)


@needs_two_cpus
def test_a_job_chained_on_a_joined_one_starts_on_the_callers_answer():
    """The caller joins the first job at once, so only its answer gives the
    helper the digest the next job is on."""
    headers = chain_headers(chain_links(2, 14, b"answer"))
    answers = [single_searcher(*header) for header in headers]
    assert answers[0][0] >> 8 > 0  # the helper cannot find it in its first high alone
    assert powcore.mine_nonce(*headers[0]) == answers[0]  # posted and joined at once
    height, _prev, payload, bits = headers[1]
    job = powcore.post(height, powcore._helper.last, payload, bits)
    wait_for_result(job, timeout_s=30)
    assert powcore.mine_nonce(*headers[1]) == answers[1]


def test_collect_leaves_a_joined_job_to_the_caller():
    """A hit the helper wrote for a job the caller joined may be an odd
    high's, not the smallest: only the caller settles that job."""
    helper = powcore._Helper.__new__(powcore._Helper)  # the caller's side only
    helper.words, helper.running = shared_words(), collections.deque()
    joined = powcore._Job(1, bytes(32), b"\x5a" * 32, 10)
    alone = powcore._Job(2, None, b"\x5a" * 32, 10)  # chained on ``joined``
    joined.seq, joined.joined, alone.seq = 3, True, 4
    helper.running.extend((joined, alone))
    odd_hit, next_hit = (300, b"\x01" * 32), (400, b"\x02" * 32)
    in_slot(helper.words, 3, odd_hit)
    in_slot(helper.words, 4, next_hit)
    helper.collect()
    assert list(helper.running) == [joined, alone] and joined.result is None
    joined.joined = False  # as if the helper had found it alone
    helper.collect()
    assert not helper.running and (joined.result, alone.result) == (odd_hit, next_hit)
    assert alone.prev_digest == odd_hit[1] and helper.words[powcore._CALLER_DONE] == 4


@needs_two_cpus
def test_helper_killed_with_jobs_queued(header_answers):
    headers = chain_headers(chain_links(5, 14, b"killed"))
    powcore.mine_nonce(*_HEADERS[0])
    dead = powcore._helper.pid
    post_chain(headers)
    os.kill(dead, signal.SIGKILL)
    deadline = time.monotonic() + 30
    while process_state(dead) != "Z" and time.monotonic() < deadline:
        time.sleep(0.01)
    assert read_chain(headers) == [single_searcher(*header) for header in headers]
    assert process_state(dead) is None and powcore._helper.pid != dead


@needs_two_cpus
def test_more_unread_jobs_than_result_slots(monkeypatch):
    """Posted while the helper is stopped, no result is taken before the
    helper runs. It finds one slot's worth, stops short of the first reused
    slot and goes on once the reads take results."""
    headers = chain_headers(chain_links(powcore._SLOTS + 4, 8, b"slots"))
    powcore.mine_nonce(*_HEADERS[0])
    helper = powcore._helper
    os.kill(helper.pid, signal.SIGSTOP)
    try:
        jobs = post_chain(headers)
    finally:
        os.kill(helper.pid, signal.SIGCONT)
    full = jobs[powcore._SLOTS - 1]
    wait_for_result(full)
    time.sleep(0.05)
    assert helper.words[powcore._HELPER_JOB] == full.seq  # stopped short
    assert read_chain(headers) == [single_searcher(*header) for header in headers]


@needs_two_cpus
def test_a_post_that_does_not_extend_the_last_supersedes_the_queue(monkeypatch):
    """A new genesis and a fork on an older block each supersede the queue,
    and every superseded header still resolves to the oracle's answer."""
    headers = chain_headers(chain_links(4, 12, b"old"))
    answers = [single_searcher(*header) for header in headers]
    jobs = post_chain(headers)
    genesis = (0, hashlib.sha256(b"new-genesis").digest(), headers[0][2], 12)
    new = powcore.post(*genesis)
    assert list(powcore._helper.unread) == [new]
    assert read_chain(headers) == answers
    assert powcore.mine_nonce(*genesis) == single_searcher(*genesis)
    # A fork on block 1 once its result is known: a post on its digest.
    jobs = post_chain(headers)
    wait_for_result(jobs[-1])
    fork = (2, answers[1][1], hashlib.sha256(b"fork").digest(), 12)
    forked = powcore.post(fork[0], jobs[1], fork[2], fork[3])
    assert list(powcore._helper.unread) == [forked] and forked.prev_digest == answers[1][1]
    assert read_chain(headers) == answers
    assert powcore.mine_nonce(*fork) == single_searcher(*fork)
    # A fork on block 1 before its result is known is not posted at all.
    helper = powcore._helper
    os.kill(helper.pid, signal.SIGSTOP)
    try:
        jobs = post_chain(headers)
        assert powcore.post(fork[0], jobs[1], fork[2], fork[3]) is None
        assert list(helper.unread) == jobs
    finally:
        os.kill(helper.pid, signal.SIGCONT)
    assert read_chain(headers[:2]) + [powcore.mine_nonce(*fork)] == answers[:2] + [
        single_searcher(*fork)]
    assert read_chain(headers) == answers


@needs_two_cpus
def test_a_dropped_chained_job_resolves_alone(monkeypatch):
    """With the helper stopped, chained posts fill the job pipe and the
    later ones are dropped. The helper never sees those jobs; each is
    searched at its read, and every answer is the oracle's."""
    powcore.mine_nonce(*_HEADERS[0])
    helper = powcore._helper
    capacity = fcntl.fcntl(helper.job_w, fcntl.F_GETPIPE_SZ)
    headers = chain_headers(chain_links(2 * capacity // powcore._RECORD.size, 4, b"full"))
    os.kill(helper.pid, signal.SIGSTOP)
    try:
        jobs = post_chain(headers)
    finally:
        os.kill(helper.pid, signal.SIGCONT)
    assert read_chain(headers) == [single_searcher(*header) for header in headers]
    assert helper.words[powcore._HELPER_JOB] < jobs[-1].seq  # never reached it
    assert powcore._helper is helper


@needs_two_cpus
def test_a_child_forked_after_a_post_reads_through_its_own_helper(header_answers):
    powcore.post(*_HEADERS[1])
    parent_helper = powcore._helper.pid
    child = os.fork()
    if child == 0:
        ok = False
        try:
            ok = (powcore.mine_nonce(*_HEADERS[1]) == header_answers[1]
                  and powcore._helper.owner == os.getpid()
                  and powcore._helper.pid != parent_helper)
            powcore._stop_helper()
        finally:
            os._exit(0 if ok else 1)
    assert wait_for_exit(child) == 0
    assert powcore.mine_nonce(*_HEADERS[1]) == header_answers[1]
    assert powcore._helper.pid == parent_helper


@needs_two_cpus
def test_a_helper_owned_by_another_process_is_dropped(header_answers):
    """What a fork leaves the child: a helper with a posted job that belongs
    to another process. The next read closes that pipe end without writing
    to it and resolves the header through a helper of its own."""
    powcore.post(*_HEADERS[1])
    inherited = powcore._helper
    inherited.owner = os.getppid()  # as seen from a child of this process
    try:
        assert powcore.mine_nonce(*_HEADERS[1]) == header_answers[1]
        assert powcore._helper is not inherited and powcore._helper.owner == os.getpid()
    finally:
        # Its pipe end is closed, so it exits; as this process's child it
        # is reaped here.
        assert wait_for_exit(inherited.pid) == 0


@needs_two_cpus
def test_helper_killed_between_post_and_read(header_answers):
    """The read finds the helper exited: it reaps it and searches alone,
    and the next post forks a new helper."""
    powcore.mine_nonce(*_HEADERS[0])
    dead = powcore._helper.pid
    powcore.post(*_HEADERS[1])
    os.kill(dead, signal.SIGKILL)
    deadline = time.monotonic() + 30
    while process_state(dead) != "Z" and time.monotonic() < deadline:
        time.sleep(0.01)
    assert powcore.mine_nonce(*_HEADERS[1]) == header_answers[1]
    assert process_state(dead) is None and powcore._helper is None
    powcore.post(*_HEADERS[2])
    assert powcore._helper.pid != dead
    assert powcore.mine_nonce(*_HEADERS[2]) == header_answers[2]


def test_other_threads_make_the_caller_search_alone():
    release = threading.Event()
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        jobs = powcore._helper.seq if powcore._helper else None
        assert powcore.mine_nonce(*_HEADERS[1]) == oracle_mine(*_HEADERS[1])
        assert (powcore._helper.seq if powcore._helper else None) == jobs
    finally:
        release.set()
        waiting.join(timeout=30)
    assert not waiting.is_alive()
