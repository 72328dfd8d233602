"""Hash kernel: known answers, brute-force search and an independent digest oracle."""
from __future__ import annotations

import contextlib
import fcntl
import hashlib
import itertools
import json
import os
import select
import signal
import struct
import subprocess
import sys
import termios
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


# -- the background search's helper process ------------------------------------

SRC = str(Path(leasim.__file__).resolve().parent.parent)
needs_two_cpus = pytest.mark.skipif(
    not powcore._CAN_FORK or len(os.sched_getaffinity(0)) < 2,
    reason="the background search needs two usable CPUs, os.fork and os.memfd_create")

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


@needs_two_cpus
def test_helper_of_a_caller_killed_mid_join_ends_quietly():
    """The caller is SIGKILLed while it joins a long search, with a high in
    flight. The helper finishes the job, taking that high over once it has
    waited, finds the result pipe closed, and exits without a word: the
    caller's stderr, which it shares, stays empty."""
    long = (7, hashlib.sha256(b"quiet-prev-2").digest(), hashlib.sha256(b"quiet-payload").digest(), 20)
    script = (
        "import os, signal\n"
        "from leasim import powcore\n"
        f"powcore.mine_nonce(*{_HEADERS[0]!r})\n"
        "print(powcore._helper.pid, flush=True)\n"
        "signal.signal(signal.SIGALRM, lambda *_: os.kill(os.getpid(), signal.SIGKILL))\n"
        "signal.setitimer(signal.ITIMER_REAL, 0.05)\n"
        f"powcore.mine_nonce(*{long!r})\n"  # about 3000 highs: far from done at the kill
    )
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode == -signal.SIGKILL
    assert done.stderr == ""  # the helper held it open until it exited
    pid = int(done.stdout)
    deadline = time.monotonic() + 30
    while process_state(pid) not in (None, "Z") and time.monotonic() < deadline:
        time.sleep(0.05)
    assert process_state(pid) in (None, "Z"), "the helper outlived its killed caller"


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
def test_a_join_cut_short_resumes_when_read_again(monkeypatch):
    """The header whose join was interrupted mid-high is read again, with
    the helper stopped: the read joins the same job, not a fresh post, first
    searches the high the interrupt left in flight, and returns the
    oracle's answer."""
    header = (4, hashlib.sha256(b"mid-prev-4").digest(), hashlib.sha256(b"mid-payload-4").digest(), 16)
    answer = single_searcher(*header)
    assert answer[0] == 98783  # about 390 highs: the interrupt lands mid-search
    powcore.mine_nonce(*_HEADERS[0])

    def interrupt(_signum, frame):
        if frame.f_code is powcore._search.__code__:  # mid-high
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
    helper = powcore._helper
    stop_outside_the_lock(helper)
    try:
        posted, left = helper.seq, helper.record.words[powcore._CALLER]
        searched = count_searched_highs(monkeypatch)
        assert powcore.mine_nonce(*header) == answer
    finally:
        os.kill(helper.pid, signal.SIGCONT)
    assert helper.seq == posted and not helper.unread
    assert left == powcore._NO_HIT or searched[0] == left  # unless the helper took it over


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
def test_helper_that_fails_says_why_and_exits_non_zero(capfd, header_answers):
    powcore.mine_nonce(*_HEADERS[0])
    dead = powcore._helper.pid
    powcore.post(-1, bytes(32), bytes(32), 8)  # a height _prefix cannot encode
    deadline = time.monotonic() + 30
    while process_state(dead) != "Z" and time.monotonic() < deadline:
        time.sleep(0.01)
    err = capfd.readouterr().err
    assert "leasim PoW helper failed" in err and "OverflowError" in err
    assert os.waitstatus_to_exitcode(os.waitpid(dead, 0)[1]) == 1
    assert powcore.mine_nonce(*_HEADERS[1]) == header_answers[1]  # searched alone
    assert powcore.mine_nonce(*_HEADERS[2]) == header_answers[2]
    assert powcore._helper.pid != dead


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


def stop_outside_the_lock(helper) -> None:
    """SIGSTOP the helper while this process holds the record lock, so the
    helper never stops holding it."""
    with helper.record:
        os.kill(helper.pid, signal.SIGSTOP)
        deadline = time.monotonic() + 30
        while process_state(helper.pid) != "T":
            assert time.monotonic() < deadline, "the helper never stopped"
            time.sleep(0.001)


class _Stuck(Exception):
    pass


def raise_stuck(_signum, _frame):
    raise _Stuck


@needs_two_cpus
def test_stopped_helper_never_holds_up_the_caller(header_answers):
    """With its helper stopped before the job, the caller searches every
    high itself, in order, as one searcher would, and gives the same answers."""
    powcore.mine_nonce(*_HEADERS[0])
    helper = powcore._helper
    assert os.getpriority(os.PRIO_PROCESS, helper.pid) == 19  # only an idle CPU

    previous = signal.signal(signal.SIGALRM, raise_stuck)
    stop_outside_the_lock(helper)
    try:
        signal.alarm(60)
        for header, answer in zip(_HEADERS, header_answers):
            assert powcore.mine_nonce(*header) == answer
            assert helper.record.words[powcore._HELPER] == powcore._NO_HIT  # never on it
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        os.kill(helper.pid, signal.SIGCONT)
    assert [powcore.mine_nonce(*h) for h in _HEADERS] == header_answers
    assert powcore._helper is helper


@needs_two_cpus
def test_caller_takes_over_the_high_of_a_helper_stopped_mid_high(monkeypatch):
    """The helper is stopped with a high in flight. The caller claims the
    highs after it, waits for that high as long as it takes per high, then
    searches it itself, and returns the oracle's nonce with no hang."""
    header = (4, hashlib.sha256(b"mid-prev-4").digest(), hashlib.sha256(b"mid-payload-4").digest(), 16)
    answer = single_searcher(*header)
    powcore.mine_nonce(*_HEADERS[0])
    helper = powcore._helper
    job = powcore.post(*header)
    words = helper.record.words
    deadline = time.monotonic() + 60
    while not (words[powcore._SEQ] == job.seq and 0 < words[powcore._HELPER] < powcore._NO_HIT):
        assert time.monotonic() < deadline, "the helper never started the job"
        time.sleep(0.0005)
    stop_outside_the_lock(helper)
    try:
        stuck = words[powcore._HELPER]
        assert stuck < answer[0] >> 8
        searched = count_searched_highs(monkeypatch)
        previous = signal.signal(signal.SIGALRM, raise_stuck)
        signal.alarm(60)
        try:
            assert powcore.mine_nonce(*header) == answer
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert searched[-1] == stuck and words[powcore._HELPER] == powcore._NO_HIT
    finally:
        os.kill(helper.pid, signal.SIGCONT)
    assert [powcore.mine_nonce(*h) for h in _HEADERS[1:]] == [single_searcher(*h) for h in _HEADERS[1:]]


def test_the_kernel_releases_the_lock_of_a_killed_holder():
    record = powcore._Record()
    child = os.fork()
    if child == 0:
        try:
            with record:
                os.kill(os.getpid(), signal.SIGKILL)
        finally:
            os._exit(1)
    assert wait_for_exit(child) == -signal.SIGKILL
    previous = signal.signal(signal.SIGALRM, raise_stuck)
    signal.alarm(30)
    try:
        with record as words:
            words[powcore._SEQ] = 1
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    os.close(record.fd)


# Headers whose answers lie in highs 0, 1, 2, 4, 5, 6 and 7, at 10 bits.
_CLAIM_HEADERS = [(height, bytes([height]) * 32, b"\x5a" * 32, 10) for height in (0, 2, 3, 5, 6, 17, 20)]


def record_states(answer_high, hit, later_high):
    """Every state the record of a job can be in when the caller joins it,
    with nobody running beside it: as (next unclaimed high, the other's
    high in flight, the caller's high in flight, best high, best hit).
    Every claimed high that is not in flight has been searched.
    ``later_high`` is the first high past the answer's with a hit."""
    none = powcore._NO_HIT
    states = [(0, none, none, none, None)]  # nothing claimed
    for claimed in range(1, answer_high + 2):
        if claimed <= answer_high:  # the other searched them all, no hit
            states.append((claimed, none, none, none, None))
        # The other, or a caller's search cut short, holds one of them.
        for flight in range(claimed):
            if flight == answer_high or claimed <= answer_high:
                states.append((claimed, flight, none, none, None))
                states.append((claimed, none, flight, none, None))
    # The other found it, with a later hit of the caller's cut short.
    states.append((answer_high + 1, none, none, answer_high, hit))
    states.append((later_high + 1, none, later_high, answer_high, hit))
    return states


def test_claim_loop_meets_the_record_where_it_stands():
    """The caller's ``_join`` against every state the record of a job can
    be in: nothing claimed, a run of highs searched by the other, one of
    them still in flight (the other's, which the caller takes over once it
    has waited, or its own, left by a search cut short), or the answer
    found, perhaps with a worse hit of the caller's still to come. The
    answer is the oracle's in each, and the caller leaves no high in flight."""
    highs = set()
    record = powcore._Record()
    try:
        for header in _CLAIM_HEADERS:
            answer = single_searcher(*header)
            highs.add(answer[0] >> 8)
            later = powcore._search(powcore._prefix(*header[:3]), powcore._BOUNDS[header[3]],
                                    itertools.count((answer[0] >> 8) + 1))
            for claimed, theirs, mine, best, hit in record_states(answer[0] >> 8, answer, later[0] >> 8):
                with record as words:
                    powcore._start(words, 5, header[1])
                    words[powcore._NEXT], words[powcore._HELPER] = claimed, theirs
                    words[powcore._CALLER], words[powcore._BEST] = mine, best
                    if hit is not None:
                        words[powcore._NONCE] = hit[0]
                        words[powcore._DIGEST:powcore._DIGEST + 4] = memoryview(hit[1]).cast("q")
                state = (header[0], claimed, theirs, mine, best)
                assert powcore._join(record, 5, powcore._CALLER, *header) == answer, state
                assert record.words[powcore._CALLER] == powcore._NO_HIT, state
            # A record on a later job: this one is off it.
            assert powcore._join(record, 4, powcore._CALLER, *header) is None
    finally:
        os.close(record.fd)
    assert highs == {0, 1, 2, 4, 5, 6, 7}


def test_a_superseded_join_stops_at_its_next_claim():
    """Once another job is put on the record, a searcher on the old one
    claims nothing more and returns None."""
    record = powcore._Record()
    header = (4, hashlib.sha256(b"mid-prev-4").digest(), hashlib.sha256(b"mid-payload-4").digest(), 16)
    try:
        claims = powcore._claims(record, 1, header[1], powcore._HELPER)
        assert [next(claims) for _ in range(3)] == [0, 1, 2]
        with record as words:
            powcore._start(words, 2, header[1])
        assert next(claims, None) is None
        assert record.words[powcore._NEXT] == 0  # it claimed nothing of job 2
    finally:
        os.close(record.fd)


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


def serve(record, *jobs, results_open=True):
    """Run the helper's loop here on ``jobs``, each (seq, height, payload,
    bits), up to the job pipe's end; the results it sent, as the caller's
    pipe end would read them."""
    job_r, job_w = os.pipe()
    result_r, result_w = os.pipe()
    try:
        for job in jobs:
            os.write(job_w, powcore._JOB.pack(*job))
        os.close(job_w)
        if not results_open:
            os.close(result_r)
        powcore._serve(job_r, result_w, record)
        os.close(result_w)
        if not results_open:
            return []
        data = b""
        while chunk := os.read(result_r, 1 << 16):
            data += chunk
        return [(seq, (nonce, digest)) for seq, nonce, digest in powcore._RESULT.iter_unpack(data)]
    finally:
        os.close(job_r)
        for fd in (result_r, result_w):
            with contextlib.suppress(OSError):
                os.close(fd)


def job(seq, header):
    height, _prev, payload, bits = header
    return seq, height, payload, bits


def posted(record, seq, prev):
    """Put job ``seq`` on the record, as a plain post does."""
    with record as words:
        powcore._start(words, seq, prev)


def test_serve_runs_a_queue_in_posting_order(monkeypatch):
    """The helper's loop over a pipe, with the test as the caller: chained
    jobs start on the digest found for the job before, jobs the record has
    passed are skipped, a job on the record is joined on the record's prev
    digest, and a chained job whose parent it never searched waits."""
    headers = chain_headers(chain_links(5, 6))
    answers = [single_searcher(*header) for header in headers]
    record = powcore._Record()
    try:
        # Alone on a queue: each chained job on the digest of the one before.
        posted(record, 21, headers[0][1])
        assert serve(record, *(job(21 + i, h) for i, h in enumerate(headers))) == [
            (21 + i, answer) for i, answer in enumerate(answers)]
        # The caller read past jobs 31 and 32 and put job 33 on the record:
        # the helper skips to it and joins it on the record's prev digest.
        posted(record, 33, headers[2][1])
        assert serve(record, *(job(31 + i, h) for i, h in enumerate(headers))) == [
            (33 + i, answer) for i, answer in enumerate(answers[2:])]
        # A job the caller finished on the record costs the helper no hash.
        posted(record, 41, headers[0][1])
        with record as words:
            words[powcore._NEXT] = (answers[0][0] >> 8) + 1
            words[powcore._BEST], words[powcore._NONCE] = answers[0][0] >> 8, answers[0][0]
            words[powcore._DIGEST:powcore._DIGEST + 4] = memoryview(answers[0][1]).cast("q")
        searched = count_searched_highs(monkeypatch)
        assert serve(record, job(41, headers[0])) == [(41, answers[0])] and searched == []
        monkeypatch.undo()
        # Job 52's record never came: job 53, chained on it, never starts.
        posted(record, 51, headers[0][1])
        assert serve(record, job(51, headers[0]), job(53, headers[2])) == [(51, answers[0])]
        # A superseded job is never started.
        posted(record, 62, headers[1][1])
        assert serve(record, job(61, headers[0]), job(62, headers[1])) == [(62, answers[1])]
    finally:
        os.close(record.fd)


def test_serve_ends_quietly_when_the_result_pipe_closes(capfd):
    """A caller that has gone closed its end of the result pipe: the
    helper's loop returns at its first result, without a traceback."""
    record = powcore._Record()
    header = _HEADERS[0]
    try:
        posted(record, 1, header[1])
        assert serve(record, job(1, header), job(2, header), results_open=False) == []
        assert record.words[powcore._SEQ] == 1  # it never went on to job 2
    finally:
        os.close(record.fd)
    assert capfd.readouterr().err == ""


@needs_two_cpus
def test_a_job_the_helper_finished_alone_costs_the_caller_no_hash(monkeypatch, header_answers):
    job = powcore.post(*_HEADERS[1])
    seq = powcore._helper.seq
    wait_for_result(job)
    searched = count_searched_highs(monkeypatch)
    assert powcore.mine_nonce(*_HEADERS[1]) == header_answers[1]
    assert searched == []
    assert powcore._helper.seq == seq  # taken from the result pipe, not posted again


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
    """Wait on the result pipe until the helper has sent ``job``'s result."""
    helper = powcore._helper
    deadline = time.monotonic() + timeout_s
    while helper.take_results() or job.result is None:
        left = deadline - time.monotonic()
        assert left > 0, "the helper never finished the job"
        select.select([helper.result_r], [], [], left)


def count_joins(monkeypatch) -> list[int]:
    """Record the job of every search the caller joins from now on."""
    joined = []
    join = powcore._join

    def counting(record, seq, mine, *header):
        if mine == powcore._CALLER:
            joined.append(seq)
        return join(record, seq, mine, *header)

    monkeypatch.setattr(powcore, "_join", counting)
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
def test_no_stall_after_the_last_post(monkeypatch):
    """A 40-block chain is posted and the caller reads nothing until the
    helper has sent every result: it searches the whole queue, not stopping
    after a fixed number of unread results, so the reads hash nothing."""
    headers = chain_headers(chain_links(40, 8, b"tail"))
    answers = [single_searcher(*header) for header in headers]
    jobs = post_chain(headers)
    assert all(job is not None for job in jobs)
    wait_for_result(jobs[-1])
    assert all(job.result is not None for job in jobs)
    searched = count_searched_highs(monkeypatch)
    assert read_chain(headers) == answers
    assert searched == []


@needs_two_cpus
def test_searches_under_cpu_contention_give_the_oracles_nonces():
    """Busy processes, one per CPU, preempt caller and helper at any point
    of the claim loop. Chains of five are posted and read at once, so most
    reads join a running search; every read returns the oracle's nonce, in
    bounded time."""
    headers = chain_headers(chain_links(60, 12, b"busy"))
    answers = [single_searcher(*header) for header in headers]
    busy = [subprocess.Popen([sys.executable, "-c", "print(flush=True)\nwhile True: pass"],
                             stdout=subprocess.PIPE) for _ in os.sched_getaffinity(0)]
    for process in busy:
        process.stdout.readline()  # spinning from here on
    previous = signal.signal(signal.SIGALRM, raise_stuck)
    signal.alarm(120)
    try:
        got = []
        for start in range(0, len(headers), 5):
            post_chain(headers[start:start + 5])
            got += read_chain(headers[start:start + 5])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        for process in busy:
            process.kill()
            process.wait(timeout=30)
            process.stdout.close()
    assert got == answers


@needs_two_cpus
def test_first_read_mid_chain_joins_the_queue_in_order(monkeypatch):
    headers = chain_headers(chain_links(6, 14, b"mid"))
    joined = count_joins(monkeypatch)
    jobs = post_chain(headers)
    assert read_chain(headers) == [single_searcher(*header) for header in headers]
    assert joined and set(joined) <= {job.seq for job in jobs}  # no job posted again
    assert joined == sorted(joined)


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
    assert list(powcore._helper.unread) == [forked] and forked.header[1] == answers[1][1]
    assert read_chain(headers) == answers
    assert powcore.mine_nonce(*fork) == single_searcher(*fork)
    # A fork on block 1 before its result is known is not posted at all.
    helper = powcore._helper
    stop_outside_the_lock(helper)
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
def test_a_fork_with_the_same_height_and_payload_is_not_the_queued_job():
    """The queued job is chained on a block the caller has read; a read of
    a header with the same height and payload on another parent is posted
    afresh and gets that header's own nonce."""
    headers = chain_headers(chain_links(2, 12, b"twin"))
    jobs = post_chain(headers)
    assert powcore.mine_nonce(*headers[0]) == single_searcher(*headers[0])
    twin = (headers[1][0], hashlib.sha256(b"other-parent").digest(), headers[1][2], headers[1][3])
    seq = powcore._helper.seq
    assert powcore.mine_nonce(*twin) == single_searcher(*twin)
    assert powcore._helper.seq == seq + 1  # posted afresh, not taken as the queued job
    assert not powcore._helper.unread or powcore._helper.unread[0] is not jobs[1]


@needs_two_cpus
def test_a_dropped_chained_job_resolves_alone(monkeypatch):
    """With the helper stopped, chained posts fill the job pipe and the
    later ones are dropped. The helper never sees those jobs; each is
    searched at its read, and every answer is the oracle's."""
    powcore.mine_nonce(*_HEADERS[0])
    helper = powcore._helper
    capacity = fcntl.fcntl(helper.job_w, fcntl.F_GETPIPE_SZ)
    headers = chain_headers(chain_links(2 * capacity // powcore._JOB.size, 4, b"full"))
    stop_outside_the_lock(helper)
    try:
        post_chain(headers)
        queued = struct.unpack("i", fcntl.ioctl(helper.job_w, termios.FIONREAD, b"\0" * 4))[0]
        assert queued // powcore._JOB.size < len(headers)  # the later posts found it full
    finally:
        os.kill(helper.pid, signal.SIGCONT)
    assert read_chain(headers) == [single_searcher(*header) for header in headers]
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


@needs_two_cpus
def test_a_post_that_finds_the_helper_dead_reaps_it(header_answers):
    """The post finds the result pipe at its end: it reaps the helper and
    posts nothing, and the header is searched at its read."""
    powcore.mine_nonce(*_HEADERS[0])
    dead = powcore._helper.pid
    os.kill(dead, signal.SIGKILL)
    deadline = time.monotonic() + 30
    while process_state(dead) != "Z" and time.monotonic() < deadline:
        time.sleep(0.01)
    assert powcore.post(*_HEADERS[1]) is None
    assert process_state(dead) is None and powcore._helper is None
    powcore._stop_helper()  # with no helper, nothing to do
    assert powcore.mine_nonce(*_HEADERS[1]) == header_answers[1]
    assert powcore._helper.pid != dead


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
