"""Host speed sampled during a pass, to report times in host-normalised seconds.

The benchmark runs on shared hosts whose speed drifts: on a 2-vCPU Xeon VM a
fixed pure-Python loop ran anywhere from 1.0x to 2.1x its fastest time within
minutes, and leasim's own timings drift with it. A ``SpeedMeter``
samples it while a pass runs. Every ``INTERVAL_S`` an interval timer
(SIGALRM) runs ``reference_chunk``, a fixed piece of work that does not use
leasim, and records how long it took. The chunk mixes the two kinds of work
leasim does: a heap-and-dict event loop that formats log lines, and a SHA-256
nonce search like the pure PoW kernel's. No change to leasim moves it.

``SpeedMeter.clock`` is ``perf_counter`` minus the time spent in the chunks,
so phase timings leave the sampling out. The host's speed flips within
fractions of a second, so one figure per pass does not describe it. Instead
``SpeedMeter.normalised`` divides each stretch of a timed interval by the
slowdown sampled there: the median of the five chunk times around it, over
``REFERENCE_S``. The result is in host-normalised seconds: on a host where
the chunk takes ``REFERENCE_S``, they equal measured seconds.
"""
from __future__ import annotations

import hashlib
import heapq
import signal
from bisect import bisect_right
from statistics import median
from time import perf_counter

INTERVAL_S = 0.02
# About the chunk's fastest time on the 2-vCPU Xeon VM the bounds were set
# on, so that normalised seconds read close to that host's unloaded seconds.
REFERENCE_S = 0.0006
_EVENTS = 100
_NONCES = 200


def reference_chunk() -> int:
    """A fixed slice of event-loop and hashing work; returns a check value."""
    queue: list = []
    for i in range(_EVENTS):
        heapq.heappush(queue, ((i * 7919) % 1000, i, {"owner": f"o{i % 97:04d}", "slot": i}))
    seen: dict[str, int] = {}
    lines = []
    while queue:
        at, seq, data = heapq.heappop(queue)
        owner = data["owner"]
        seen[owner] = seen.get(owner, 0) + 1
        lines.append(f"{at * 0.5:.3f} {owner} poll:{seq}")
    prefix = hashlib.sha256("\n".join(lines).encode()).digest() * 2 + bytes(8)
    hits = 0
    for nonce in range(_NONCES):
        digest = hashlib.sha256(prefix + nonce.to_bytes(8, "big")).digest()
        hits += int.from_bytes(digest, "big") >> 248 == 0
    return len(seen) + hits


class SpeedMeter:
    """Samples the reference chunk every INTERVAL_S while entered.

    Signal handlers run in the main thread between bytecodes, so the meter
    must be entered from the main thread. Leaving it stops the timer and puts
    the previous SIGALRM handler back.
    """

    def __init__(self) -> None:
        self.at: list[float] = []  # clock() when each sample ran
        self.took: list[float] = []  # the chunk's duration in that sample
        self.spent = 0.0
        self._slowdowns: list[float] = []

    def _sample(self, _signum=None, _frame=None) -> None:
        start = perf_counter()
        reference_chunk()
        self.at.append(start - self.spent)
        self.took.append(perf_counter() - start)
        self.spent += perf_counter() - start

    def clock(self) -> float:
        """Seconds on perf_counter's clock, less the time spent sampling."""
        return perf_counter() - self.spent

    def normalised(self, start: float, end: float) -> float:
        """Host-normalised seconds between two clock() readings.

        Each stretch from one sample to the next counts its length divided
        by the slowdown there. Call it after leaving the meter.
        """
        if len(self._slowdowns) != len(self.took):
            self._slowdowns = [median(self.took[max(0, i - 2):i + 3]) / REFERENCE_S
                               for i in range(len(self.took))]
        i = max(bisect_right(self.at, start) - 1, 0)
        total, t = 0.0, start
        while t < end:
            stop = min(self.at[i + 1], end) if i + 1 < len(self.at) else end
            total += (stop - t) / self._slowdowns[i]
            t, i = stop, i + 1
        return total

    def __enter__(self) -> SpeedMeter:
        self._sample()  # so that every timed interval starts after a sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
