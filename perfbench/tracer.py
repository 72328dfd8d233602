"""Self-time spans around leasim's public entry points, installed from outside.

The tracer replaces module functions and class methods with wrappers that
time each call on one shared span stack, so a span's self time is its
duration minus the time of the spans it called. Nothing inside ``src/``
records anything: ``install`` patches, ``restore`` puts every original back,
and the benchmark restores before any untraced (timed) pass.

Timer callbacks handed to ``Simulation.schedule`` / ``schedule_for`` are
wrapped too and charged to the module that defined them, so
``simnet.loop_s`` keeps only the event loop's own heap and dispatch work.
"""
from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter

# (module, class or None, attribute, span name). Spans sharing a name add up.
SPANS = (
    ("powcore", None, "mine_nonce", "powcore.mine"),
    ("simnet", "Simulation", "run", "simnet.loop"),
    ("simnet", "Simulation", "send", "simnet.send"),
    ("simnet", "Simulation", "_deliver", "simnet.deliver"),
    ("simnet", "EventLog", "emit", "simnet.emit"),
    ("simnet", "EventLog", "digest", "report.digest"),
    ("ledger", "Mempool", "assemble", "ledger.assemble"),
    ("ledger", None, "check_consistency", "ledger.consistency"),
    ("ledger", "Chain", "verify_full", "ledger.verify_full"),
    ("scenario", None, "load_scenario", "scenario.load"),
    ("runner", None, "build_world", "runner.build_world"),
    ("runner", "ChainNodeActor", "receive", "runner.receive"),
    ("interface_enclave", "InterfaceEnclave", "receive", "interface_enclave.receive"),
    ("service_enclave", "ServiceEnclave", "receive", "service_enclave.receive"),
    ("payment_enclave", "PaymentEnclave", "receive", "payment_enclave.receive"),
    ("parties", "OwnerActor", "receive", "parties.receive"),
    ("parties", "ProxyActor", "receive", "parties.receive"),
    ("parties", "RenterActor", "receive", "parties.receive"),
    ("services", "ServiceActorAdapter", "receive", "services.receive"),
    ("report", None, "build_report", "report.build"),
    ("report", None, "render_report", "report.build"),
    ("report", None, "verify_world", "report.verify"),
    ("report", None, "report_digest", "report.digest"),
)


def _headers_in(view) -> int:
    height = getattr(view, "height", None)
    return height + 1 if height is not None else len(view)


# Work counted at a span, from its arguments and result.
_COUNTS = {
    "mine_nonce": lambda args, result: result[0] + 1,  # hash attempts
    "check_consistency": lambda args, result: _headers_in(args[0]) + _headers_in(args[1]),
}


class Tracer:
    """Collects calls, self time and counts per span name while installed."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self._stack: list[list[float]] = [[0.0]]
        self._saved: list[tuple[object, str, object]] = []
        self._timer_spans: dict[object, str] = {}

    # -- spans -------------------------------------------------------------

    def wrap(self, name: str, fn, count=None):
        """Return fn wrapped in a span; count(args, result) adds to counts."""
        stack, calls, self_s, counts = self._stack, self.calls, self.self_s, self.counts

        def spanned(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter() - start
                stack.pop()
                stack[-1][0] += took
                self_s[name] += took - frame[0]
                calls[name] += 1
            if count is not None:
                counts[name] += count(args, result)
            return result

        return spanned

    def wrap_leaf(self, name: str, fn):
        """Cheaper span for a function that calls no other span."""
        stack, calls, self_s = self._stack, self.calls, self.self_s

        def spanned(*args):
            start = perf_counter()
            result = fn(*args)
            took = perf_counter() - start
            stack[-1][0] += took
            self_s[name] += took
            calls[name] += 1
            return result

        return spanned

    def _timer(self, fn):
        code = getattr(fn, "__code__", None) or fn.__func__.__code__
        name = self._timer_spans.get(code)
        if name is None:
            module = code.co_filename.rsplit("/", 1)[-1].removesuffix(".py")
            name = "" if module == "simnet" else f"{module}.timer"
            self._timer_spans[code] = name
        return self.wrap(name, fn) if name else fn

    # -- install / restore -------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"leasim.{m}") for m, *_ in SPANS}
        for module, cls, attr, name in SPANS:
            owner = getattr(mods[module], cls) if cls else mods[module]
            self._patch(owner, attr, self.wrap(name, owner.__dict__[attr], _COUNTS.get(attr)))
        drop_rule = mods["simnet"].DropRule
        self._patch(drop_rule, "matches", self.wrap_leaf("simnet.rule", drop_rule.matches))
        sim_cls = mods["simnet"].Simulation
        schedule, schedule_for = sim_cls.schedule, sim_cls.schedule_for
        timer = self._timer
        self._patch(sim_cls, "schedule",
                    lambda sim, delay, fn: schedule(sim, delay, timer(fn)))
        self._patch(sim_cls, "schedule_for",
                    lambda sim, actor_id, delay, fn:
                    schedule_for(sim, actor_id, delay, timer(fn)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
