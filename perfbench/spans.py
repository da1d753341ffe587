"""Wrap the program's public functions from outside; record spans in memory.

:class:`Patches` swaps attributes on modules and classes and restores the
originals.  :class:`Tracer` builds on it: every call of a wrapped function
becomes a span ``(id, parent, name, start, end, thread)``.  Spans stay in
memory until the run ends and are then written out in one go.  A span's
*self time* is its duration minus the time covered by its child spans,
which are the wrapped calls made from inside it on the same thread, so a
layer's self time excludes the layers it calls into.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: Spans kept per thread for :meth:`Tracer.write`; totals cover every call.
KEEP_SPANS = 200_000


class Patches:
    """Attribute swaps on modules and classes, undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[tuple] = []

    def wrap(self, owner: Any, attr: str,
             make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(original)``."""
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original back."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class _ThreadState:
    """One thread's open-span stack, totals, counters and finished spans."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.stack: List[list] = []
        self.totals: Dict[str, list] = {}   # name -> [calls, total_s, self_s, errors]
        self.counts: Dict[str, float] = {}
        self.spans: List[tuple] = []


class Tracer:
    """Span recorder for wrapped calls, with per-name self-time totals.

    State is kept per thread (no lock on the hot path) and merged when
    read.  At most :data:`KEEP_SPANS` spans per thread are kept for
    :meth:`write`; totals always cover every call.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.patches = Patches()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._states_lock = threading.Lock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._states_lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
        return state

    # -- recording ----------------------------------------------------------

    def traced(self, name: str, fn: Callable,
               on_return: Optional[Callable[..., None]] = None) -> Callable:
        """``fn`` wrapped so each call records a span called ``name``.

        ``on_return(result, args, kwargs)`` runs after the span closes, for
        counters that need the call's result.  A call that raises is
        counted in the name's ``errors`` total and re-raised.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            failed = True
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = tracer.clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                total = state.totals.get(name)
                if total is None:
                    total = state.totals[name] = [0, 0.0, 0.0, 0]
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[1]
                total[3] += failed
                if len(state.spans) < KEEP_SPANS:
                    state.spans.append(
                        (span_id, parent, name, start, end, state.index)
                    )
            if on_return is not None:
                on_return(result, args, kwargs)
            return result

        return wrapper

    def wrap(self, owner: Any, attr: str, name: str,
             on_return: Optional[Callable[..., None]] = None) -> None:
        """Trace ``owner.attr`` under ``name`` until :meth:`uninstall`."""
        self.patches.wrap(owner, attr,
                          lambda fn: self.traced(name, fn, on_return))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (totals and spans are kept)."""
        self.patches.restore()

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to the calling thread's counter ``name``."""
        counts = self._state().counts
        counts[name] = counts.get(name, 0) + n

    # -- reading ------------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per-name ``{"calls", "s", "self_s", "errors"}`` over every thread."""
        merged: Dict[str, Dict[str, float]] = {}
        for state in list(self._states):
            for name, (calls, total, own, errors) in list(state.totals.items()):
                row = merged.setdefault(
                    name, {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0}
                )
                row["calls"] += calls
                row["s"] += total
                row["self_s"] += own
                row["errors"] += errors
        return merged

    def counts(self) -> Dict[str, float]:
        """Counters summed over every thread."""
        merged: Dict[str, float] = {}
        for state in list(self._states):
            for name, n in list(state.counts.items()):
                merged[name] = merged.get(name, 0) + n
        return merged

    def write(self, path: Path) -> int:
        """Write the kept spans as JSON lines, in start order; returns count."""
        spans = sorted(
            (span for state in self._states for span in state.spans),
            key=lambda span: span[3],
        )
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "parent", "name", "start", "end",
                                 "thread"]) + "\n")
            for span in spans:
                fh.write(json.dumps(span) + "\n")
        return len(spans)
