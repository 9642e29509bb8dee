"""Live run telemetry: a single self-overwriting stderr progress line.

During parallel runs the engine feeds one :class:`LiveProgress` instance
from its completion callbacks (cache hits, per-job commits, resilience
failures).  The reporter renders at most one line -- rewritten in place
with ``\\r``/erase-to-EOL -- so a long Table-3 sweep shows jobs done /
cached / retried / failed and the live cache hit rate without scrolling
the report output away.

The reporter is deliberately dumb about *when* it is appropriate:
:func:`live_progress_enabled` centralizes the policy (an interactive
stderr, or ``REPRO_LIVE=1`` to force it for tests and log capture;
``REPRO_LIVE=0`` always wins) and the runner decides.  Updates are
throttled to ``min_interval`` seconds except for the first and final
renders, so thousands of fast cache hits do not spend their savings on
terminal writes.
"""

from __future__ import annotations

import os
import sys
import time


def live_progress_enabled(stream=None, environ=None) -> bool:
    """Whether the progress line should render (policy, not mechanism)."""
    env = os.environ if environ is None else environ
    forced = env.get("REPRO_LIVE")
    if forced is not None:
        return forced not in ("", "0")
    stream = sys.stderr if stream is None else stream
    return bool(getattr(stream, "isatty", lambda: False)())


class LiveProgress:
    """One-line, in-place progress rendering for parallel batches."""

    def __init__(self, stream=None, min_interval: float = 0.2) -> None:
        self.stream = sys.stderr if stream is None else stream
        self.min_interval = min_interval
        self.total = 0
        self.done = 0
        self.cached = 0
        self.retried = 0
        self.failed = 0
        self.degraded = 0
        self._last_render = float("-inf")  # never rendered
        self._dirty = False

    # -- feed ---------------------------------------------------------------

    def start_batch(self, jobs: int) -> None:
        """Announce ``jobs`` more units of work (batches accumulate)."""
        self.total += jobs
        self._render()

    def job_cached(self) -> None:
        self.done += 1
        self.cached += 1
        self._render()

    def job_done(self) -> None:
        self.done += 1
        self._render()

    def job_failed(self, kind: str, resolution: str) -> None:
        """One abnormal event from the resilience layer (not terminal:
        a retried or degraded job still completes and counts as done)."""
        self.failed += 1
        if resolution == "retry":
            self.retried += 1
        else:
            self.degraded += 1
        self._render()

    # -- render -------------------------------------------------------------

    def _line(self) -> str:
        lookups = self.done
        hit_rate = self.cached / lookups if lookups else 0.0
        parts = [
            f"jobs {self.done}/{self.total}",
            f"cached {self.cached} ({hit_rate:.0%})",
        ]
        if self.retried:
            parts.append(f"retried {self.retried}")
        if self.degraded:
            parts.append(f"degraded {self.degraded}")
        if self.failed:
            parts.append(f"faults {self.failed}")
        return "[run] " + " | ".join(parts)

    def _render(self, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last_render < self.min_interval:
            self._dirty = True
            return
        self._last_render = now
        self._dirty = False
        try:
            self.stream.write("\r\x1b[K" + self._line())
            self.stream.flush()
        except (OSError, ValueError):  # pragma: no cover - closed stream
            pass

    def clear(self) -> None:
        """Erase the line so unrelated output starts at column zero."""
        try:
            self.stream.write("\r\x1b[K")
            self.stream.flush()
        except (OSError, ValueError):  # pragma: no cover - closed stream
            pass

    def finish(self) -> None:
        """Final render plus the newline that releases the line."""
        self._render(force=True)
        try:
            self.stream.write("\n")
            self.stream.flush()
        except (OSError, ValueError):  # pragma: no cover - closed stream
            pass
