"""MWWorker — executes tasks, reports results, waits for more (paper §3.1).

A worker is a thin loop around a user *executor*: a callable
``executor(work, context) -> result`` where ``context`` carries the worker's
rank and its private RNG stream (spawned from the driver seed so parallel
noise is reproducible and independent across workers, the standard
``SeedSequence`` discipline for parallel sampling).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, FrozenSet, Iterable, Optional

import numpy as np

from repro.mw.messages import (
    MSG_ERROR,
    MSG_RESULT,
    MSG_SHUTDOWN,
    MSG_TASK,
    Message,
)


@dataclass
class WorkerContext:
    """Per-worker execution context handed to the executor.

    ``caps`` is the worker's declared capability set (e.g.
    ``frozenset({"md", "fast"})``) — the same vector the master matched
    against the task's constraints, so executors can stamp placement
    evidence (audit logs, records) with where they actually ran.

    ``rng`` is this rank's private stream, seeded from
    ``MWDriver(seed=...)`` through the transport's per-rank seed
    sequences.  It exists for user executors only: no executor in this
    package reads it, because campaign and fleet workers return the
    deterministic ``f(theta)`` and the master draws all noise at merge.
    """

    rank: int
    rng: np.random.Generator
    caps: FrozenSet[str] = field(default_factory=frozenset)


Executor = Callable[[Any, WorkerContext], Any]


class MWWorker:
    """One worker: executes task payloads and reports to the master.

    Parameters
    ----------
    rank:
        Worker rank (>= 1; rank 0 is the master).
    executor:
        ``executor(work, context) -> result``.
    seed_seq:
        ``numpy.random.SeedSequence`` for this worker's private RNG stream.
    caps:
        Capability names this worker advertises (``None`` → none).
    """

    def __init__(
        self,
        rank: int,
        executor: Executor,
        seed_seq: Optional[np.random.SeedSequence] = None,
        caps: Optional[Iterable[str]] = None,
    ) -> None:
        if rank < 1:
            raise ValueError(f"worker rank must be >= 1, got {rank}")
        self.rank = rank
        self.executor = executor
        self.context = WorkerContext(
            rank=rank,
            rng=np.random.default_rng(seed_seq),
            caps=frozenset(str(c) for c in (caps or ())),
        )
        self.n_executed = 0
        self.n_errors = 0

    def stats(self) -> dict:
        """Execution counters for monitoring: tasks executed and errors."""
        return {"rank": self.rank, "executed": self.n_executed, "errors": self.n_errors}

    # -- synchronous execution (inproc backend drives this directly) --------

    def execute(self, task_id: int, work: Any) -> Message:
        """Run one task; always returns a result or error message."""
        try:
            result = self.executor(work, self.context)
        except Exception as exc:  # noqa: BLE001 - worker must never crash the run
            self.n_errors += 1
            return Message(
                tag=MSG_ERROR,
                sender=self.rank,
                payload={"task_id": task_id, "error": f"{type(exc).__name__}: {exc}"},
            )
        self.n_executed += 1
        return Message(
            tag=MSG_RESULT,
            sender=self.rank,
            payload={"task_id": task_id, "result": result},
        )

    # -- message loop (threaded backend runs this in a thread) ----------------

    def run_loop(self, inbox, outbox) -> None:
        """Blocking receive loop: execute ``task`` messages until ``shutdown``.

        ``inbox`` / ``outbox`` expose ``get()`` / ``put(item)`` (queue.Queue
        compatible); items are :class:`Message` objects.
        """
        while True:
            message = inbox.get()
            if message.tag == MSG_SHUTDOWN:
                return
            if message.tag != MSG_TASK:
                continue  # tolerate stray traffic
            payload = message.payload
            reply = self.execute(payload["task_id"], payload["work"])
            outbox.put(reply)
