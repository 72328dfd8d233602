"""Hash kernel: known answers, brute-force search and an independent digest oracle."""
from __future__ import annotations

import hashlib
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
    """Publish the caller's words for job ``seq``, as ``_Helper.mine`` does."""
    words[powcore._CALLER_HIT], words[powcore._CALLER_POS] = hit, pos
    words[powcore._CALLER_JOB] = seq


# Headers whose answers lie in high 0, in odd highs 1, 5 and 7 and in even
# highs 2, 4, 6 and 14, at 10 bits.
_LEAD_HEADERS = [(height, bytes([height]) * 32, b"\x5a" * 32, 10)
                 for height in (0, 1, 2, 3, 5, 6, 17, 20)]


def test_lead_meets_the_helper_where_it_stands():
    """The caller's part of a job, against every state a helper that starts
    with the job can stop in: not on the job yet, stuck on any odd high up to
    its first hit, or holding that hit. The answer is the oracle's in each."""
    seq = 5
    highs = set()
    for height, prev, payload, bits in _LEAD_HEADERS:
        answer = oracle_mine(height, prev, payload, bits)
        highs.add(answer[0] >> 8)
        odd_nonce, odd_digest = smallest_odd_high_hit(height, prev, payload, bits)
        odd_high = odd_nonce >> 8
        prefix, bound = powcore._prefix(height, prev, payload), powcore._BOUNDS[bits]
        helper_states = [(seq - 1, powcore._NO_HIT, 1)]  # still on an older job
        helper_states += [(seq, powcore._NO_HIT, front) for front in range(1, odd_high + 1, 2)]
        helper_states.append((seq, odd_high, odd_high))
        for job, hit, front in helper_states:
            words = shared_words()
            words[powcore._HELPER_HIT], words[powcore._HELPER_FRONT] = hit, front
            words[powcore._HELPER_NONCE] = odd_nonce
            words[powcore._HELPER_DIGEST] = memoryview(odd_digest).cast("q")
            words[powcore._HELPER_JOB] = job
            caller_on(words, seq)
            assert powcore._lead(words, seq, prefix, bound) == answer, (height, job, hit, front)
    assert highs == {0, 1, 2, 4, 5, 6, 7, 14}


def serve(words, *jobs):
    """Run the helper's loop here on ``jobs``, up to the pipe's end."""
    job_r, job_w = os.pipe()
    try:
        for job in jobs:
            os.write(job_w, powcore._JOB.pack(*job))
        os.close(job_w)
        powcore._serve(job_r, words)
    finally:
        os.close(job_r)


def test_serve_loop_in_process():
    """The helper's loop over a pipe, with the test as the caller."""
    height, prev, payload, bits = _HEADERS[0]
    odd_nonce, odd_digest = smallest_odd_high_hit(*_HEADERS[0])
    odd_high = odd_nonce >> 8
    assert odd_high > 1

    def helper_words(words):
        return (words[powcore._HELPER_JOB], words[powcore._HELPER_HIT],
                words[powcore._HELPER_FRONT])

    # The caller is on this job without a hit: the helper's first odd-high hit.
    words = shared_words()
    caller_on(words, 1)
    serve(words, (1, height, prev, payload, bits))
    assert helper_words(words) == (1, odd_high, odd_high)
    assert powcore._helpers_hit(words, 1) == (odd_nonce, odd_digest)
    # The caller hit in high 0: nothing odd can be smaller.
    caller_on(words, 2, hit=0)
    serve(words, (2, height, prev, payload, bits))
    assert helper_words(words) == (2, powcore._NO_HIT, 1)
    # The caller has passed the helper's first hit: the helper jumps ahead
    # of the caller and finds the next odd-high hit.
    caller_on(words, 3, pos=odd_high + 1)
    serve(words, (3, height, prev, payload, bits))
    later_nonce, later_digest = smallest_odd_high_hit(*_HEADERS[0], high=odd_high + 2)
    assert helper_words(words) == (3, later_nonce >> 8, later_nonce >> 8)
    assert powcore._helpers_hit(words, 3) == (later_nonce, later_digest)
    # The caller is on the helper's hit high: the helper claims that high
    # too, for the caller may have seen it claimed and skipped it.
    caller_on(words, 4, pos=odd_high)
    serve(words, (4, height, prev, payload, bits))
    assert helper_words(words) == (4, odd_high, odd_high)
    # The caller is on a newer job: this one is stale, and only the latest
    # of two queued jobs is searched.
    caller_on(words, 6)
    serve(words, (5, height, prev, payload, bits), (6, height, prev, payload, bits))
    assert helper_words(words) == (6, odd_high, odd_high)


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
