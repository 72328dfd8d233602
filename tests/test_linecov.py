"""tools/linecov.py notices when its line collector stops tracing."""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "linecov.py"
_SPEC = importlib.util.spec_from_file_location("linecov", _PATH)
linecov = sys.modules["linecov"] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(linecov)


def _other_tracer(frame, event, arg):
    return None


class TestTraced:
    def test_collector_switched_off_is_named(self):
        status, lost = linecov.traced(lambda: sys.settrace(None) or 0, linecov.Collector())
        assert status == 0
        assert lost == ("linecov: the line collector was switched off before the suite "
                        "ended, so later lines went unseen; no report")

    def test_collector_replaced_is_named(self):
        status, lost = linecov.traced(lambda: sys.settrace(_other_tracer) or 3,
                                      linecov.Collector())
        assert status == 3
        assert lost.startswith("linecov: the line collector was replaced by <function "
                               "_other_tracer")
        assert "\n" not in lost

    def test_collector_in_place_passes_and_the_outer_tracer_is_restored(self):
        outer = sys.gettrace()
        collector = linecov.Collector()
        seen = []
        status, lost = linecov.traced(lambda: seen.append(sys.gettrace()) or 0, collector)
        assert (status, lost) == (0, None)
        assert seen == [collector.trace]
        assert sys.gettrace() == outer
