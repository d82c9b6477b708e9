"""Open-loop update schedule on a clock that can be paused.

Update ``i`` is due at ``i / rate`` seconds after :meth:`OpenLoop.start`,
whether or not earlier updates have finished.  Latency is measured from
the due time to the return of the call, so a stall delays every update
queued behind it, and that wait is counted (no coordinated omission).

The benchmark's own bookkeeping (checking answers against the reference,
keeping the reference in step) runs inside :meth:`OpenLoop.paused`; the
schedule clock stops there, so that work neither delays updates nor
counts in any timed window.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Iterator, List


class OpenLoop:
    """Fixed-rate schedule; records latency, lateness and backlog."""

    def __init__(self, rate: float,
                 clock: Callable[[], float] = time.perf_counter):
        """``rate`` updates per second; 0 keeps only the pausable clock."""
        if rate < 0:
            raise ValueError("update rate must not be negative")
        self.interval = 1.0 / rate if rate else 0.0
        self.clock = clock
        self.issued = 0
        self.latencies: List[float] = []   # due -> return, seconds
        self.moments: List[float] = []     # clock reading at each return
        self.lateness: List[float] = []    # due -> call start, seconds
        self.service = 0.0                 # seconds spent inside the calls
        self.backlog_max = 0
        self._origin = 0.0
        self._paused = 0.0

    def start(self) -> None:
        self._origin = self.clock()
        self._paused = 0.0

    def now(self) -> float:
        """Seconds since start, not counting paused time."""
        return self.clock() - self._origin - self._paused

    @contextmanager
    def paused(self) -> Iterator[None]:
        began = self.clock()
        try:
            yield
        finally:
            self._paused += self.clock() - began

    def due_count(self) -> int:
        """Updates due by now and not yet issued."""
        if not self.interval:
            return 0
        return max(0, int(self.now() / self.interval) + 1 - self.issued)

    def run_due(self, apply: Callable[[int], None]) -> int:
        """Issue every due update; returns how many.

        ``apply(index)`` performs update ``index``; it may use
        :meth:`paused` for its bookkeeping.
        """
        done = 0
        while True:
            backlog = self.due_count()
            if not backlog:
                break
            self.backlog_max = max(self.backlog_max, backlog)
            due = self.issued * self.interval
            started = self.now()
            apply(self.issued)
            finished = self.now()
            self.moments.append(self.clock())
            self.lateness.append(started - due)
            self.latencies.append(finished - due)
            self.service += finished - started
            self.issued += 1
            done += 1
        return done

    def run_back_to_back(self, apply: Callable[[int], None],
                         between: Callable[[], None]) -> None:
        """Closed loop instead: each update is issued when the previous
        one returns, so its latency is its own service time.  ``between``
        runs after each update, off the clock."""
        while True:
            started = self.now()
            apply(self.issued)
            finished = self.now()
            self.moments.append(self.clock())
            self.latencies.append(finished - started)
            self.service += finished - started
            self.issued += 1
            if not between():
                return
