"""MWDriver — the master: manages workers, dispatches tasks (paper §3.1).

The driver schedules :class:`~repro.mw.task.MWTask` objects onto a pool of
worker ranks reached through a :class:`~repro.mw.transport.Transport` — the
MWRMComm seam of the original MW library.  Design points taken from the
paper's MW usage:

* tasks and workers do not communicate with one another directly — results
  come back to the master only;
* each simplex vertex prefers a dedicated worker (*affinity*), and "when a
  worker is restarted by the master, it is restarted on the same processors";
* worker errors (and worker deaths) requeue the task (up to ``max_retries``)
  rather than aborting the optimization.

Transports (``backend=``):

``inproc``
    No concurrency; ``wait_all`` executes tasks synchronously in deterministic
    round-robin order.  Used by unit tests and the virtual-cluster simulator.
``threaded``
    One Python thread per worker, ``queue.Queue`` channels.  Real overlap
    for I/O-bound executors.
``process``
    One forked OS process per worker, each on one end of a socketpair
    (:mod:`repro.mw.tcp`).  Real parallelism; the executor is inherited
    through fork.
``tcp://host:port``
    Cross-host sockets (:mod:`repro.mw.tcp`): the master listens, standalone
    ``python -m repro mw-worker`` processes connect — before or after the
    master starts waiting.

Both multi-process transports read every worker through one selector on
the driver's thread, and a dead worker (a dropped connection or
heartbeat silence) feeds the requeue path.

Every live rank of an asynchronous transport (threaded, process, tcp)
holds :data:`TASK_SLOTS` tasks at once: the next task already waits in
the worker's channel while it runs the current one, so the master's
turnaround — reply decode, harvest, store write, claim, submit —
overlaps execution instead of idling the worker.  A task goes to the
eligible rank with the fewest tasks in flight, so work spreads across
idle workers before any queues.  A straggler — a rank whose mean task
time is over :data:`STRAGGLER_FACTOR` times the fastest rank's — keeps
one slot, so no task waits out its run.  The synchronous inproc
transport runs each task inside ``send`` and keeps one slot per rank,
which is what makes its round-robin order deterministic.

The campaign engine builds its distributed backend on this driver: each
:class:`~repro.campaign.spec.Job` becomes one task
(``python -m repro campaign run <dir> --backend mw``), so campaign sweeps
inherit the crash-requeue and affinity semantics above.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from repro.mw.messages import MSG_RESULT, MSG_TASK, Message
from repro.mw.task import MWTask, TaskState
from repro.mw.transport import (
    EVENT_DIED,
    EVENT_JOINED,
    Transport,
    make_transport,
)
from repro.mw.worker import Executor
from repro.telemetry import Telemetry

_log = logging.getLogger(__name__)

#: Tasks a live rank of an asynchronous transport holds at once: one
#: running and one queued behind it in the worker's channel.
TASK_SLOTS = 2

#: A rank whose mean task time is more than this many times the fastest
#: rank's holds one task, not :data:`TASK_SLOTS`: a task queued behind a
#: straggler's would sit out its whole run while faster ranks free up.
STRAGGLER_FACTOR = 2.0


class MWDriver:
    """Master process of the MW framework.

    Parameters
    ----------
    executor:
        ``executor(work, context) -> result`` run on workers.  Must be
        importable by wire spec (``module:attr``) for TCP workers not
        launched with their own ``--executor``; any callable works on
        the other transports.
    n_workers:
        Number of worker ranks (the paper uses ``d + 3`` for a d-dim
        simplex).  On TCP this is the number of slots remote workers can
        occupy.
    backend:
        ``"inproc"`` (default), ``"threaded"``, ``"process"``, or a
        ``"tcp://host:port"`` listen URL.
    max_retries:
        How many times a task is requeued after worker errors or deaths
        before being marked failed.
    seed:
        Root seed; each worker rank receives an independent spawned RNG
        stream (on every transport, including reconnecting TCP workers).
    transport:
        Pre-built :class:`~repro.mw.transport.Transport` instance,
        overriding ``backend`` (advanced; the driver still owns its
        lifecycle and will ``start``/``close`` it).
    transport_options:
        Extra keyword options for :func:`~repro.mw.transport.make_transport`
        (e.g. TCP heartbeat tuning).
    telemetry:
        The :class:`~repro.telemetry.Telemetry` context dispatches,
        replies, requeues, and dead-worker events are counted in;
        defaults to :meth:`Telemetry.from_env`.  It is handed to the
        transport before ``start()`` so transport-level series (TCP
        frame counts, heartbeat gaps) land in the same registry.
    """

    def __init__(
        self,
        executor: Executor,
        n_workers: int = 2,
        backend: str = "inproc",
        max_retries: int = 2,
        seed: Optional[int] = None,
        transport: Optional[Transport] = None,
        transport_options: Optional[dict] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.backend = backend
        self.n_workers = n_workers
        self.max_retries = int(max_retries)
        self.tasks: Dict[int, MWTask] = {}
        self.n_submitted = 0  # tasks ever submitted (released ones too)
        self._pending: deque[MWTask] = deque()
        self._running: Dict[int, MWTask] = {}
        self._shutdown = False
        self.telemetry = telemetry if telemetry is not None else Telemetry.from_env()
        # Per-rank utilization bookkeeping (always on — a few dict writes
        # per task): dispatch time, task tally, accumulated busy seconds,
        # and each rank's last reply (a queued task's busy time starts there).
        self._t0 = time.monotonic()
        self._rank_tasks: Dict[int, int] = {}
        self._rank_evals: Dict[int, int] = {}
        self._rank_busy: Dict[int, float] = {}
        self._last_reply: Dict[int, float] = {}
        self._dispatch_t: Dict[int, float] = {}
        seqs = np.random.SeedSequence(seed).spawn(n_workers)
        if transport is None:
            transport = make_transport(
                backend,
                executor=executor,
                n_workers=n_workers,
                seed_seqs=seqs,
                **(transport_options or {}),
            )
        self.transport = transport
        self.transport.telemetry = self.telemetry
        self.transport.start()
        live = self.transport.initially_live()
        ranks = range(1, n_workers + 1)
        self._alive = {rank: rank in live for rank in ranks}
        self._inflight: Dict[int, int] = dict.fromkeys(ranks, 0)
        # Every rank, in the order a slot of it last freed (join or reply):
        # the first-come tie-break of _pick_worker.
        self._order: List[int] = sorted(ranks, key=lambda r: not self._alive[r])

    @property
    def _procs(self):
        """Worker processes of the ``process`` transport (tests/diagnostics)."""
        return self.transport.procs

    # -- context manager --------------------------------------------------------

    def __enter__(self) -> "MWDriver":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- submission ---------------------------------------------------------------

    def submit(self, work: Any, affinity: Optional[int] = None,
               n_evals: int = 1,
               constraints: Optional[Iterable[str]] = None) -> MWTask:
        """Queue one unit of work; returns its :class:`MWTask` handle.

        ``n_evals`` is the task's evaluation weight — a batched frame
        carrying ``q`` proposals submits with ``n_evals=q`` so the
        inflight/utilization accounting counts evaluations, not frames.

        ``constraints`` is a capability constraint vector: the task is
        dispatched only to workers whose declared capability set covers
        it (hard requirement — the task waits for a capable worker on a
        dynamic transport, and fails if a static transport has none).
        ``affinity`` stays a soft preference within the eligible set.
        """
        if self._shutdown:
            raise RuntimeError("driver has been shut down")
        if affinity is not None and not (1 <= affinity <= self.n_workers):
            raise ValueError(
                f"affinity must be a worker rank in 1..{self.n_workers}, got {affinity}"
            )
        task = MWTask(work, affinity=affinity, n_evals=n_evals,
                      constraints=constraints or ())
        self.tasks[task.task_id] = task
        self.n_submitted += 1
        self._pending.append(task)
        return task

    def release(self, task: MWTask) -> None:
        """Forget a finished task once its caller has taken the result.

        :attr:`tasks` otherwise holds every task's work payload and reply
        for the driver's whole life; loops that keep their own task map
        (the async driver, the campaign dispatch loop) release each task
        as they harvest it, while :meth:`wait_all` callers keep today's
        full history.  A late reply for a released task is ignored like
        any other stale reply.
        """
        if not (task.done or task.failed):
            raise ValueError(f"task {task.task_id} is not finished")
        self.tasks.pop(task.task_id, None)

    # -- hooks -----------------------------------------------------------------

    def act_on_completed_task(self, task: MWTask) -> None:
        """Subclass hook, called once per task reaching DONE (MW API)."""

    # -- scheduling core ------------------------------------------------------------

    def worker_caps(self, rank: int) -> FrozenSet[str]:
        """Capability vector worker ``rank`` declared (empty if none)."""
        return self.transport.worker_caps(rank)

    def _eligible(self, task: MWTask, rank: int) -> bool:
        """Whether ``rank`` can run ``task`` (caps cover its constraints)."""
        if not task.constraints:
            return True
        return task.constraints <= self.transport.worker_caps(rank)

    def _pick_worker(self, task: MWTask, limits: Dict[int, int]) -> Optional[int]:
        """Choose an eligible worker with a free slot, honouring affinity.

        Constraints are hard: only workers whose capability vector covers
        the task's constraint vector are considered.  Among the eligible
        ranks with a free task slot (``limits``, from
        :meth:`_slot_limits`), the one with the *fewest tasks in
        flight* wins — two tasks on two idle workers go one to each —
        then the *fewest-capability* one, so unconstrained tasks don't
        burn the rare capable ranks that constrained tasks behind them
        will need, then the one whose slot freed first.  Affinity is
        soft: the preferred rank wins when it is eligible and no less
        free than that pick; when the preferred rank is *dead*, falling
        back to another worker is logged and counted in
        ``repro_sched_fallbacks_total`` — a silent fallback used to hide
        exactly the placement drift operators care about.
        """
        inflight = self._inflight
        eligible = [r for r in self._order
                    if inflight[r] < limits.get(r, 0) and self._eligible(task, r)]
        if not eligible:
            return None
        pick = min(eligible,
                   key=lambda r: (inflight[r], len(self.transport.worker_caps(r))))
        if task.affinity is not None:
            if task.affinity in eligible and inflight[task.affinity] == inflight[pick]:
                return task.affinity
            if not self._alive.get(task.affinity, False):
                _log.warning(
                    "task %d prefers worker %d, which is dead; "
                    "falling back to worker %d",
                    task.task_id, task.affinity, pick,
                )
                self.telemetry.counter(
                    "repro_sched_fallbacks_total",
                    "Tasks dispatched off their preferred (affinity) rank "
                    "because it was dead.",
                ).inc()
        return pick

    def _slot_limits(self) -> Dict[int, int]:
        """Task slots of each live rank: one on the synchronous transport,
        else :data:`TASK_SLOTS`, or one for a straggler (its mean task time,
        from the busy-time bookkeeping, above :data:`STRAGGLER_FACTOR` times
        the fastest rank's)."""
        live = [r for r in self._order if self._alive[r]]
        if self.transport.synchronous:
            return dict.fromkeys(live, 1)
        means = {r: self._rank_busy[r] / self._rank_tasks[r]
                 for r in live if self._rank_tasks.get(r)}
        cutoff = STRAGGLER_FACTOR * min(means.values(), default=0.0)
        return {r: 1 if means.get(r, 0.0) > cutoff else TASK_SLOTS for r in live}

    def n_slots(self) -> int:
        """Task slots of the live fleet, busy or free: the most tasks one
        beat can have in flight (see :meth:`_slot_limits`)."""
        return sum(self._slot_limits().values())

    def _slot_freed(self, rank: int) -> None:
        """Move ``rank`` to the back of the first-come order."""
        self._order.remove(rank)
        self._order.append(rank)

    def capacity(self) -> Tuple[List[FrozenSet[str]], List[FrozenSet[str]]]:
        """Free task slots and live workers, as capability vectors.

        Returns ``(free, live)``: ``free`` has one entry per free task
        slot of a live rank, in the order :meth:`_pick_worker` fills
        them, so a caller that places work ahead of dispatch mirrors the
        driver by taking, per task, the first entry covering the task's
        constraints (affinity aside); ``live`` has one entry per live
        rank.  The campaign dispatch loop offers scheduler slots from it.
        Pending join and death events are applied first, so a rank that
        joined while the caller was busy is offered at once, not a beat
        later.
        """
        self._poll_transport()
        slots = []
        live = []
        limits = self._slot_limits()
        for position, rank in enumerate(self._order):
            if rank not in limits:
                continue
            caps = self.transport.worker_caps(rank)
            live.append(caps)
            slots.extend(((n, len(caps), position), caps)
                         for n in range(self._inflight[rank], limits[rank]))
        slots.sort(key=lambda slot: slot[0])
        return [caps for _, caps in slots], live

    def _dispatch(self) -> bool:
        """Send pending tasks while eligible workers have free slots.

        A constrained task with no eligible free slot is deferred
        without blocking the tasks behind it (no head-of-line blocking);
        the loop stops only when every live slot is taken.
        """
        sent = False
        deferred: deque[MWTask] = deque()
        limits = self._slot_limits()
        while self._pending:
            if not any(self._inflight[r] < n for r, n in limits.items()):
                break
            task = self._pending.popleft()
            rank = self._pick_worker(task, limits)
            if rank is None:
                deferred.append(task)
                continue
            self._inflight[rank] += 1
            task.mark_running(rank)
            self._running[task.task_id] = task
            self._dispatch_t[task.task_id] = time.monotonic()
            self.telemetry.counter(
                "repro_mw_tasks_dispatched_total",
                "Task dispatches to workers (retries re-count).",
            ).inc()
            message = Message(
                tag=MSG_TASK,
                sender=0,
                payload={"task_id": task.task_id, "work": task.work},
            )
            self.transport.send(rank, message)
            if self.transport.synchronous:
                # the reply is already buffered; handle it before the next
                # pick so the worker's slot frees first (deterministic
                # round-robin and per-task affinity, as inproc always had)
                self._drain_buffered_replies()
            sent = True
        self._pending.extendleft(reversed(deferred))
        return sent

    def _drain_buffered_replies(self) -> None:
        """Handle every reply available without blocking (synchronous path)."""
        while True:
            reply = self.transport.recv(timeout=0)
            if reply is None:
                return
            self._handle_reply(reply)

    def _handle_reply(self, message: Message) -> None:
        payload = message.payload
        task = self.tasks.get(payload["task_id"])
        if task is None or task.state is not TaskState.RUNNING:
            return  # stale reply (e.g. from a worker presumed dead)
        rank = task.worker
        self._running.pop(task.task_id, None)
        t_sent = self._dispatch_t.pop(task.task_id, None)
        now = time.monotonic()
        # a queued task starts when the rank's previous reply left it, so
        # overlapping dispatch-to-reply spans are not counted twice
        start = max(t_sent if t_sent is not None else now,
                    self._last_reply.get(rank, 0.0))
        self._last_reply[rank] = now
        self._rank_tasks[rank] = self._rank_tasks.get(rank, 0) + 1
        self._rank_evals[rank] = self._rank_evals.get(rank, 0) + task.n_evals
        self._rank_busy[rank] = self._rank_busy.get(rank, 0.0) + now - start
        self._inflight[rank] -= 1
        if self._alive[rank]:
            self._slot_freed(rank)
        if message.tag == MSG_RESULT:
            self.telemetry.counter(
                "repro_mw_replies_total", "Task replies from workers.",
                outcome="result",
            ).inc()
            task.mark_done(payload["result"])
            self.act_on_completed_task(task)
        else:
            self.telemetry.counter(
                "repro_mw_replies_total", "Task replies from workers.",
                outcome="error",
            ).inc()
            error = payload.get("error", "unknown error")
            if task.attempts > self.max_retries:
                task.mark_failed(error)
            else:
                task.mark_retry(error)
                self._pending.append(task)
                self.telemetry.counter(
                    "repro_mw_requeues_total",
                    "Tasks requeued after worker errors or deaths.",
                ).inc()

    def _requeue_tasks_of(self, rank: int) -> None:
        """Return a dead worker's in-flight tasks to the queue (or fail them),
        in the order they were dispatched."""
        self._inflight[rank] = 0
        for task in list(self._running.values()):
            if task.worker == rank:
                self._running.pop(task.task_id, None)
                self._dispatch_t.pop(task.task_id, None)
                if task.attempts > self.max_retries:
                    task.mark_failed("worker died")
                else:
                    task.mark_retry("worker died")
                    self._pending.append(task)
                    self.telemetry.counter(
                        "repro_mw_requeues_total",
                        "Tasks requeued after worker errors or deaths.",
                    ).inc()

    def _poll_transport(self) -> None:
        """Apply join/death events: liveness, slot order, crash requeue."""
        for kind, rank in self.transport.poll():
            if kind == EVENT_JOINED:
                self._alive[rank] = True
                self._slot_freed(rank)
            elif kind == EVENT_DIED:
                self._alive[rank] = False
                self.telemetry.counter(
                    "repro_mw_worker_deaths_total",
                    "Workers declared dead (crash or heartbeat silence).",
                ).inc()
                self._requeue_tasks_of(rank)

    def _fail_unmatchable(self) -> None:
        """On a static transport, fail pending tasks no live worker can run.

        Dynamic transports (TCP) may still grow a capable worker, so
        there a constrained task waits; a static pool that lacks the
        capability can never satisfy it and hanging would be a bug.
        """
        if self.transport.dynamic:
            return
        survivors: deque[MWTask] = deque()
        for task in self._pending:
            if task.constraints and not any(
                self._alive.get(r, False)
                and task.constraints <= self.transport.worker_caps(r)
                for r in range(1, self.n_workers + 1)
            ):
                task.mark_failed(
                    "no live worker satisfies constraints "
                    f"{sorted(task.constraints)}"
                )
            else:
                survivors.append(task)
        self._pending = survivors

    def _outstanding(self) -> int:
        return len(self._pending) + len(self._running)

    def _outstanding_evals(self) -> int:
        """Evaluation-weighted outstanding work (batch frames count ``q``)."""
        return sum(t.n_evals for t in self._pending) + sum(
            t.n_evals for t in self._running.values()
        )

    def wait_all(self, timeout: Optional[float] = None) -> List[MWTask]:
        """Drive scheduling until every submitted task is DONE or FAILED.

        A loop of :meth:`pump` beats of at most 0.1 s each.  Returns all
        tasks in submission order.  Raises ``TimeoutError`` if a
        real-time ``timeout`` (seconds) elapses first (the synchronous inproc
        transport ignores it).  On a dynamic transport (TCP) the master keeps
        waiting for workers to join — pass a ``timeout`` to bound that.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._outstanding():
            wait = 0.1
            if deadline is not None and not self.transport.synchronous:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"{self._outstanding()} tasks outstanding at timeout"
                    )
                wait = min(wait, remaining)
            self.pump(wait)
        return sorted(self.tasks.values(), key=lambda t: t.task_id)

    def pump(self, timeout: float = 0.05) -> int:
        """One scheduling beat: poll events, dispatch, drain available replies.

        :meth:`wait_all` loops over it; callers that keep their own event
        loop (the async campaign driver) call it directly: progress is
        made if possible, but the call returns after at most ``timeout``
        real seconds whether or not any task completed.  Returns the number
        of *evaluations* still outstanding — a batched frame counts its
        ``n_evals``, not 1, so the number means the same thing at every
        ``--eval-batch`` — and ``while driver.pump(): ...`` still drains
        the queue (zero evaluations iff zero tasks).  The point, though,
        is to interleave ``submit`` calls between beats instead of
        waiting for it to hit zero.
        """
        self._poll_transport()
        self._fail_unmatchable()
        if not self.transport.dynamic and not any(self._alive.values()):
            for task in list(self._pending):
                task.mark_failed("no live workers")
            self._pending.clear()
            return self._outstanding_evals()
        self._dispatch()
        if not self.transport.synchronous:
            reply = self.transport.recv(timeout=max(0.0, float(timeout)))
            if reply is not None:
                self._handle_reply(reply)
                self._drain_buffered_replies()
        return self._outstanding_evals()

    # -- teardown ------------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop all workers (shutdown fan-out via the transport); idempotent."""
        if self._shutdown:
            return
        self._shutdown = True
        self.transport.close()

    # -- introspection ----------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Task counts by state plus the live worker count (monitoring hook).

        Counts the tasks :attr:`tasks` still holds (see :meth:`release`).
        """
        states = {s: 0 for s in TaskState}
        for task in self.tasks.values():
            states[task.state] += 1
        return {
            "n_tasks": len(self.tasks),
            "pending": states[TaskState.PENDING],
            "running": states[TaskState.RUNNING],
            "done": states[TaskState.DONE],
            "failed": states[TaskState.FAILED],
            "live_workers": sum(self._alive.values()),
        }

    def utilization(self, elapsed_s: Optional[float] = None) -> List[dict]:
        """Per-rank utilization rows — the paper-style worker table.

        One row per rank: ``tasks`` completed (replies received),
        ``busy_s`` the seconds the rank held work — each task counts from
        its dispatch, or from the rank's previous reply when it was
        queued behind that task, to its reply — ``elapsed_s``
        the observation window (driver lifetime unless given),
        ``utilization`` their ratio, ``alive``, ``inflight`` — the
        number of *evaluations* currently dispatched to the rank but
        unanswered (a batched ``--eval-batch q`` frame counts ``q``, so
        ``watch --cells`` shows real work, not frame counts) — and
        ``evals``, the evaluation-weighted completion count alongside the
        frame-level ``tasks``.  The campaign runner folds these rows into
        the telemetry trace as a ``workers`` event; ``campaign watch
        --cells`` renders them with straggler flags.
        """
        if elapsed_s is None:
            elapsed_s = time.monotonic() - self._t0
        elapsed_s = max(float(elapsed_s), 1e-9)
        inflight: Dict[int, int] = {}
        for task in self._running.values():
            if task.worker is not None:
                inflight[task.worker] = inflight.get(task.worker, 0) + task.n_evals
        rows = []
        for rank in range(1, self.n_workers + 1):
            busy = self._rank_busy.get(rank, 0.0)
            rows.append({
                "rank": rank,
                "tasks": self._rank_tasks.get(rank, 0),
                "evals": self._rank_evals.get(rank, 0),
                "busy_s": busy,
                "elapsed_s": elapsed_s,
                "utilization": busy / elapsed_s,
                "alive": bool(self._alive.get(rank, False)),
                "inflight": inflight.get(rank, 0),
                "caps": sorted(self.transport.worker_caps(rank)),
            })
        return rows
