"""MWTask — the abstraction of one unit of work (paper §3.1).

"MWTask stores the data describing the task and the results computed by the
workers."  A task's lifecycle is ``PENDING -> RUNNING -> DONE`` (or back to
``PENDING`` on worker error, until the retry budget runs out, then
``FAILED``).
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Optional

_task_ids = itertools.count(1)


class TaskState(enum.Enum):
    """Lifecycle states of an :class:`MWTask`."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"


class MWTask:
    """Work payload plus result slot and scheduling metadata.

    Parameters
    ----------
    work:
        Codec-serializable payload describing the computation.
    affinity:
        Preferred worker rank (the paper binds each simplex vertex to a
        dedicated worker); ``None`` lets the driver pick any worker with
        a free slot.  Affinity is *soft*: if the preferred rank is busier
        than another eligible worker, or dead, the driver falls back to
        that worker (and counts a fallback off a dead rank).
    constraints:
        Capability constraint vector — an iterable of capability names
        (e.g. ``("md",)``).  The driver dispatches the task only to
        workers whose declared capability set is a superset of these
        constraints.  Constraints are *hard*: a task with no eligible
        live worker waits (dynamic transports may still grow one) or
        fails rather than running on a mismatched worker.
    n_evals:
        How many function evaluations this task represents (a batched
        ``--eval-batch`` frame carries ``q``; default 1).  Pure
        accounting weight: the driver's inflight gauges and utilization
        rows count evaluations, not frames, so ``watch --cells`` stays
        honest under batching.
    """

    __slots__ = ("task_id", "work", "affinity", "constraints", "state",
                 "result", "error", "worker", "attempts", "n_evals")

    def __init__(self, work: Any, affinity: Optional[int] = None,
                 n_evals: int = 1, constraints: Any = ()) -> None:
        if n_evals < 1:
            raise ValueError(f"n_evals must be >= 1, got {n_evals}")
        self.task_id = next(_task_ids)
        self.work = work
        self.affinity = affinity
        self.constraints = frozenset(str(c) for c in (constraints or ()))
        self.n_evals = int(n_evals)
        self.state = TaskState.PENDING
        self.result: Any = None
        self.error: Optional[str] = None
        self.worker: Optional[int] = None
        self.attempts = 0

    @property
    def done(self) -> bool:
        """Whether the task completed successfully."""
        return self.state is TaskState.DONE

    @property
    def failed(self) -> bool:
        """Whether the task exhausted its retry budget."""
        return self.state is TaskState.FAILED

    def mark_running(self, worker: int) -> None:
        """Record dispatch to ``worker`` (counts as one attempt)."""
        self.state = TaskState.RUNNING
        self.worker = worker
        self.attempts += 1

    def mark_done(self, result: Any) -> None:
        """Record successful completion with ``result``."""
        self.state = TaskState.DONE
        self.result = result

    def mark_retry(self, error: str) -> None:
        """Return the task to the queue after a worker error or crash."""
        self.state = TaskState.PENDING
        self.error = error
        self.worker = None

    def mark_failed(self, error: str) -> None:
        """Give up on the task (retry budget spent)."""
        self.state = TaskState.FAILED
        self.error = error

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MWTask {self.task_id} {self.state.value} worker={self.worker}>"
