"""Line coverage of ``src/leasim`` under the tier-1 tests, stdlib only.

Usage (from the repository root): ``python tools/linecov.py``

Runs the tier-1 suite (``pytest -q --continue-on-collection-errors``)
in this process under a ``sys.settrace`` line collector, then prints, for
each function in ``src/leasim`` that has unreached lines, those lines. A
function whose body is never entered is marked ``NEVER ENTERED``. Module
and class bodies are not counted: they run on import. A comprehension's or
lambda's lines count toward the function that holds it.

Exit status: 0 when the suite passes and every function is entered, 1 when
some function is never entered or the collector stopped tracing before the
suite ended, otherwise pytest's own non-zero status. CPython removes a trace
function that raises (a signal handler that raises while the collector's
callback runs does this), and every line after that would go unseen; the run
then prints one line saying so instead of a report.

Tracing makes the suite several times slower. Lines run only in a child
process (the cross-process determinism test) are not seen.
"""
from __future__ import annotations

import dis
import inspect
import os
import sys
import threading
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "leasim") + os.sep

# Code objects whose lines are folded into the function that holds them.
_FOLDED = ("<listcomp>", "<genexpr>", "<setcomp>", "<dictcomp>", "<lambda>")


class Collector:
    """Records the lines run and the functions entered in ``src/leasim``."""

    def __init__(self) -> None:
        self._paths: dict[str, str | None] = {}  # co_filename -> absolute path, or None
        self.lines: set[tuple[str, int]] = set()  # (co_filename, line)
        self.entered: set[tuple[str, int, str]] = set()  # (co_filename, firstlineno, name)

    def path(self, filename: str) -> str | None:
        """The absolute path of a file in the package, None for any other."""
        path = self._paths.get(filename, "")
        if path == "":
            absolute = os.path.abspath(filename)
            path = self._paths[filename] = absolute if absolute.startswith(PACKAGE) else None
        return path

    def trace(self, frame, event, arg):
        code = frame.f_code
        if self.path(code.co_filename) is None:
            return None
        self.entered.add((code.co_filename, code.co_firstlineno, code.co_name))
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line


@dataclass
class Function:
    path: str
    qualname: str
    firstlineno: int
    name: str
    lines: set[int] = field(default_factory=set)


def _functions(path: str) -> list[Function]:
    """Every function in one source file, with the lines where a line event
    can fire (the ``def`` line itself never fires one)."""
    with open(path, encoding="utf-8") as fh:
        module = compile(fh.read(), path, "exec")
    out: dict[str, Function] = {}

    def walk(code, owner: Function | None) -> None:
        is_function = bool(code.co_flags & inspect.CO_NEWLOCALS)
        qualname = getattr(code, "co_qualname", code.co_name)
        if is_function and code.co_name not in _FOLDED:
            owner = out.setdefault(
                f"{qualname}@{code.co_firstlineno}",
                Function(path, qualname, code.co_firstlineno, code.co_name),
            )
        elif not is_function:
            owner = None  # module or class body
        if owner is not None:
            owner.lines.update(
                line for _, line in dis.findlinestarts(code)
                if line is not None and line != code.co_firstlineno
            )
        for const in code.co_consts:
            if hasattr(const, "co_code"):
                walk(const, owner)

    walk(module, None)
    return sorted(out.values(), key=lambda f: f.firstlineno)


def _ranges(lines: list[int]) -> str:
    parts: list[str] = []
    start = prev = lines[0]
    for line in lines[1:] + [None]:
        if line is not None and line == prev + 1:
            prev = line
            continue
        parts.append(str(start) if start == prev else f"{start}-{prev}")
        if line is not None:
            start = prev = line
    return ", ".join(parts)


def report(collector: Collector) -> int:
    hit_lines: dict[str, set[int]] = {}
    for filename, line in collector.lines:
        hit_lines.setdefault(collector.path(filename), set()).add(line)
    entered = {(collector.path(fn), first, name) for fn, first, name in collector.entered}
    never_entered = unreached_total = total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        hits = hit_lines.get(path, set())
        for fn in _functions(path):
            total += len(fn.lines)
            missed = sorted(fn.lines - hits)
            is_entered = (path, fn.firstlineno, fn.name) in entered
            if is_entered and not missed:
                continue
            unreached_total += len(missed)
            where = f"{os.path.relpath(path, ROOT)}:{fn.firstlineno} {fn.qualname}"
            if not is_entered:
                never_entered += 1
                print(f"{where}: NEVER ENTERED ({len(missed)} lines)")
            else:
                print(f"{where}: {_ranges(missed)}")
    print(f"{unreached_total} of {total} in-function lines unreached; "
          f"{never_entered} functions never entered")
    return never_entered


def traced(run, collector: Collector) -> tuple[int, str | None]:
    """Call ``run()`` under the collector and return its status, with one
    line naming the cause if the collector was no longer this thread's trace
    function when ``run`` returned (else None). The trace functions in place
    before are restored afterwards."""
    outer, outer_threads = sys.gettrace(), threading.gettrace()
    threading.settrace(collector.trace)
    sys.settrace(collector.trace)
    try:
        status = run()
        current = sys.gettrace()
    finally:
        sys.settrace(outer)
        threading.settrace(outer_threads)
    if current == collector.trace:
        return status, None
    how = "switched off" if current is None else f"replaced by {current!r}"
    return status, (f"linecov: the line collector was {how} before the suite ended, "
                    f"so later lines went unseen; no report")


def main() -> int:
    os.chdir(ROOT)
    sys.path[:0] = [SRC, ROOT]  # as ``PYTHONPATH=src python -m pytest`` from the root
    import pytest

    collector = Collector()
    status, lost = traced(
        lambda: pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]),
        collector,
    )
    if lost:
        print(lost, file=sys.stderr)
        return 1
    never_entered = report(collector)
    if status != 0:
        return int(status)
    return 1 if never_entered else 0


if __name__ == "__main__":
    sys.exit(main())
