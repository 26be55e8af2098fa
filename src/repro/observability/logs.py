"""Publication lifecycle events: one leveled, trace-keyed ring per member.

Publication lifecycles cross threads, asyncio tasks and -- in the
federation -- process boundaries.  Each server-side component owns one
:class:`LogRecorder`, a bounded ring of compact events.  Clients mint a
trace id (:func:`new_trace_id`) and attach it to wire frames as the
optional ``trace`` body field.  Every layer emits events named in one
dotted vocabulary (``op``, ``queue.wait``, ``runtime.publish``,
``shard.settle``, ``verdict.push``, ``verdict.record``, ``verdict.flip``,
...), each with a severity level, a wall-clock timestamp, the trace id
when the request carried one, and attributes; a duration is the ``ms``
attribute.

One ring answers both operator questions.  A *trace* is the export of
the events that carry a trace id (optionally one id's): how one
publication went through the op loop, the shards, the pod's verdict push
and the directory.  *Logs* are the export at or above a level floor:
what went wrong, traced or not.  An event is kept when the recorder is
enabled and it either carries a trace id or meets the level floor, so
tracing works under any log level.  The ``trace`` and ``logs`` wire ops
export a member's ring; ``Federation.trace``/``logs`` and the CLI merge
rings across members by timestamp -- on one host the wall clocks are
directly comparable, which is the loopback federation's deployment model.

Recording sits on the publication hot path (the op loop and the shard
workers both emit), so it is built to be cheap: a dropped event returns
before any work, and a kept one is one tuple build plus one
``deque.append`` -- atomic under the GIL, so no lock is taken; event
dicts are only materialized at export time.  Ring entries are *flat
tuples of atomic values* (strings, numbers, bools, None) on purpose:
CPython untracks such tuples at the first gen-0 pass, so the ring's
constant churn never feeds the cyclic GC's older generations -- with
dict-shaped events, recording measurably increased full-collection
frequency under load.

An optional :attr:`LogRecorder.sink` (any writable text stream) mirrors
every kept event as one JSON line -- what makes a member greppable when
it runs under a supervisor that captures stderr.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from itertools import chain
from typing import IO, Optional

__all__ = ["LEVELS", "LogRecorder", "new_trace_id"]

#: Default bound of a recorder's event ring.
DEFAULT_LOG_CAPACITY = 4096

#: Severity levels, least to most severe (the syslog-ish subset we need).
LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}


def new_trace_id() -> str:
    """A fresh 16-hex-char trace id (random, collision-safe per session).

    ``os.urandom`` instead of ``uuid.uuid4`` -- same 64 bits of
    randomness, ~6x cheaper, and the load generator mints one per
    publication when tracing a whole run.
    """
    return os.urandom(8).hex()


def _level_number(level: str) -> int:
    number = LEVELS.get(level)
    if number is None:
        raise ValueError(f"unknown log level {level!r}: expected one of {sorted(LEVELS)}")
    return number


class LogRecorder:
    """A bounded in-memory ring of leveled events, safe from any thread.

    Events are stored as flat ``(trace_id, level, name, ts, key, value,
    ...)`` tuples -- atomics only, so the GC untracks them -- and only
    expanded to dicts by :meth:`export`; the recorder's ``component`` is
    stamped at export time (it is fixed before traffic starts, so every
    retained event belongs to it).  ``level`` is the floor for untraced
    events: those below it are dropped before any tuple is built.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_LOG_CAPACITY,
        enabled: bool = True,
        component: str = "service",
        level: str = "debug",
        sink: Optional[IO[str]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("the event ring needs at least one slot")
        self.capacity = capacity
        self.enabled = enabled
        self.component = component
        self._threshold = _level_number(level)
        self._level = level
        #: Optional JSON-lines mirror (e.g. ``sys.stderr``); every
        #: kept event is written as one line at record time.
        self.sink = sink
        # deque.append/list(deque) are GIL-atomic: no lock on the hot path.
        self._events: deque[tuple] = deque(maxlen=capacity)

    @property
    def level(self) -> str:
        return self._level

    @level.setter
    def level(self, level: str) -> None:
        self._threshold = _level_number(level)
        self._level = level

    def log_flat(self, level: str, name: str, trace_id: Optional[str], *pairs) -> None:
        """Emit one event, attrs as flat positional pairs (the hot path).

        ``log_flat("info", "op", tid, "op", op, "ms", 0.4)`` skips the
        kwargs-dict build -- one tuple concat and one append.  The event
        is kept when the recorder is enabled and it carries a trace id or
        meets the level floor.
        """
        if not self.enabled or (not trace_id and LEVELS.get(level, 0) < self._threshold):
            return
        flat = (trace_id or None, level, name, time.time()) + pairs
        self._events.append(flat)
        if self.sink is not None:
            self._emit(flat)

    def log(self, level: str, name: str, trace_id: Optional[str] = None, **attrs) -> None:
        """:meth:`log_flat` with attrs as keywords (off the hot path)."""
        self.log_flat(level, name, trace_id, *chain.from_iterable(attrs.items()))

    def debug(self, name: str, trace_id: Optional[str] = None, **attrs) -> None:
        self.log("debug", name, trace_id, **attrs)

    def info(self, name: str, trace_id: Optional[str] = None, **attrs) -> None:
        self.log("info", name, trace_id, **attrs)

    def warning(self, name: str, trace_id: Optional[str] = None, **attrs) -> None:
        self.log("warning", name, trace_id, **attrs)

    def error(self, name: str, trace_id: Optional[str] = None, **attrs) -> None:
        self.log("error", name, trace_id, **attrs)

    def _emit(self, flat: tuple) -> None:
        """Mirror one event to the sink as a JSON line (never raises)."""
        try:
            self.sink.write(json.dumps(self._expand(flat), default=str) + "\n")
        except (OSError, ValueError):  # a closed or broken sink never fails an op
            pass

    def _expand(self, flat: tuple) -> dict:
        trace_id, level, name, ts = flat[:4]
        event = {"level": level, "name": name, "component": self.component, "ts": ts}
        if trace_id is not None:
            event["trace"] = trace_id
        for index in range(4, len(flat), 2):
            event[flat[index]] = flat[index + 1]
        return event

    def export(
        self,
        trace_id: Optional[str] = None,
        limit: Optional[int] = None,
        level: Optional[str] = None,
        traced: bool = False,
    ) -> list[dict]:
        """The retained events, oldest first.

        ``traced`` keeps the events that carry a trace id, ``trace_id``
        one trace's, ``level`` those at or above a severity floor;
        ``limit`` keeps the last that many.
        """
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be a non-negative integer, not {limit}")
        events = list(self._events)
        if trace_id is not None:
            events = [event for event in events if event[0] == trace_id]
        elif traced:
            events = [event for event in events if event[0] is not None]
        if level is not None:
            floor = _level_number(level)
            events = [event for event in events if LEVELS.get(event[1], 0) >= floor]
        if limit is not None:
            events = events[-limit:] if limit else []
        return [self._expand(flat) for flat in events]

    def __len__(self) -> int:
        return len(self._events)
