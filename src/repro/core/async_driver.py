"""Asynchronous evaluation driver: many ask/tell sources, one worker pool.

The whole-job campaign path runs each job start-to-finish on one worker,
so a straggler holds a whole job and every step of it.  This module drops
the unit of work to one evaluation: every optimizer is opened through its
ask/tell seam (:mod:`repro.core.base`), each proposal becomes its own mw
task (or rides a batched frame of up to ``eval_batch`` proposals), and a
single scheduling loop keeps up to ``max_inflight`` evaluations in flight
*across all jobs at once*.  While one job's round waits on a straggler,
the other jobs' proposals keep the remaining workers busy — a slow node
degrades throughput by one worker instead of stalling a job's every step.

The loop is three beats, repeated until every source is finalized:

``top_up``
    Hand the free in-flight capacity out in two passes over the unfinished
    sources and submit what they return to the mw driver.  The first pass
    takes only the round proposals each source's step is waiting on
    (:attr:`EvalSource.opt`'s ``n_unasked``); only the budget every open
    job's round leaves goes, in a second pass, to speculative refinements
    of the sources whose pool can mint them.  Required work is never
    queued behind speculation.
``pump``
    One :meth:`~repro.mw.driver.MWDriver.pump` beat — poll worker events,
    dispatch queued tasks, drain available replies.  Lost workers are
    handled below this layer: the mw driver requeues their tasks, so a
    dropped evaluation simply arrives late.
``harvest``
    Tell every completed task's value back to its source and release the
    task from the mw driver.  Tells can arrive in any order and after the
    source finished (counted in ``repro_stale_tells_total``); a task that
    *failed* (exhausted mw retries) fails its source — the engine is
    closed and the error reported.  Only the sources this beat told,
    failed or saw finish in ``top_up`` are then checked for a result.

Telemetry: the ``repro_inflight_evals`` gauge tracks scheduling depth and
``repro_stale_tells_total`` counts tells that arrived too late to matter.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.telemetry import NULL_TELEMETRY, Telemetry


@dataclass
class EvalSource:
    """One optimization driven through its ask/tell seam.

    Parameters
    ----------
    key:
        Stable identifier (the campaign job id) used in callbacks and logs.
    opt:
        An optimizer exposing the full ask/tell seam — ``ask(max_proposals)``,
        ``tell(id, value)``, ``finished``, ``result()``, ``close()`` and
        ``n_unasked`` (every :class:`~repro.core.base.SimplexOptimizer`; note
        :class:`~repro.core.pso.NoisyPSO` speaks ask/tell but has no
        termination criterion, so it is driven by :meth:`NoisyPSO.run`, not
        by this driver).
        ``n_unasked`` is the read-only count of the current round's
        proposals that ``ask`` has not handed out yet, 0 once finished.
        The driver asks every source for those before it lets any source
        mint refinements, and asks for refinements only where
        ``opt.pool.concurrent`` holds (no other pool mints one).
    make_work:
        Maps a :class:`~repro.core.base.Proposal` to the wire payload for the
        mw task (normally :func:`~repro.campaign.execution.proposal_work`).
    batch_key:
        Coalescing group for batched evaluation (``eval_batch > 1``):
        proposals from sources sharing a ``batch_key`` may ride the same
        batch frame, so the runner keys it by ``function:dim`` — the unit
        one vectorized ``batch()`` call can evaluate.  ``None`` (default)
        batches only within this source.
    """

    key: str
    opt: Any
    make_work: Callable[[Any], Any]
    batch_key: Optional[str] = None
    # internals, managed by the driver
    failed_error: Optional[str] = field(default=None, repr=False)
    finalized: bool = field(default=False, repr=False)
    # some sources (NoisyPSO) re-return still-pending proposals from ask();
    # the driver dedupes on id so nothing is ever submitted twice
    submitted_ids: set = field(default_factory=set, repr=False)


class AsyncEvalDriver:
    """Drive many :class:`EvalSource`\\ s over one :class:`~repro.mw.driver.MWDriver`.

    Parameters
    ----------
    mw:
        The mw driver whose workers answer proposals.  Its executor must
        understand the payloads ``make_work`` produces (the campaign uses
        :func:`~repro.campaign.execution.mw_eval_executor`).
    max_inflight:
        Cap on simultaneously outstanding evaluations across all sources.
    poll_timeout:
        Real seconds each :meth:`~repro.mw.driver.MWDriver.pump` beat may
        block waiting for a reply.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry`; defaults to the no-op.
    heartbeat:
        Optional zero-argument callable invoked roughly every
        ``heartbeat_interval`` seconds from the scheduling loop, after the
        beat's finished sources were reported.  The campaign runner passes
        ``heartbeat_interval=0`` to run it every beat: it flushes records,
        appends freshly claimed sources to the live ``sources`` list (the
        loop picks them up on its next beat), and emits ``workers``
        telemetry events for ``watch --cells``.
    eval_batch:
        Proposals per mw frame (``--eval-batch q``).  At the default 1
        every proposal is its own task, exactly as before.  At ``q > 1``
        proposals are grouped by :attr:`EvalSource.batch_key` and shipped
        ``q`` to a frame via ``make_batch_work``; the worker evaluates
        them in one vectorized call and the tell fan-in splits the values
        back to per-proposal ids.  Partial groups are flushed every
        scheduling beat — a proposal withheld across beats would deadlock
        its engine's round waiting for a tell that never comes.
    make_batch_work:
        Maps a list of ``(source, proposal)`` pairs (all sharing a
        ``batch_key``) to the batch frame payload (the campaign uses
        :func:`~repro.campaign.execution.batch_proposal_work`).  Required
        when ``eval_batch > 1``.
    """

    def __init__(
        self,
        mw,
        max_inflight: int = 8,
        poll_timeout: float = 0.05,
        telemetry: Optional[Telemetry] = None,
        heartbeat: Optional[Callable[[], None]] = None,
        heartbeat_interval: float = 2.0,
        eval_batch: int = 1,
        make_batch_work: Optional[Callable[[List[tuple]], Any]] = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if eval_batch < 1:
            raise ValueError(f"eval_batch must be >= 1, got {eval_batch}")
        if eval_batch > 1 and make_batch_work is None:
            raise ValueError("eval_batch > 1 requires make_batch_work")
        self.mw = mw
        self.max_inflight = int(max_inflight)
        self.poll_timeout = float(poll_timeout)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.heartbeat = heartbeat
        self.heartbeat_interval = float(heartbeat_interval)
        self.eval_batch = int(eval_batch)
        self.make_batch_work = make_batch_work
        # task_id -> (task, [(source, proposal), ...] in frame order;
        # len 1 unless batched)
        self._task_map: Dict[int, Tuple[Any, List[tuple]]] = {}
        self._inflight = 0  # evaluations aboard _task_map's frames
        # sources told, failed or seen finished this beat (id -> source)
        self._touched: Dict[int, EvalSource] = {}
        self.n_submitted = 0
        self.n_frames = 0
        self.n_told = 0
        self.n_stale = 0

    # -- scheduling loop -----------------------------------------------------

    def run(
        self,
        sources: List[EvalSource],
        on_finished: Callable[[EvalSource, Any, Optional[str]], None],
    ) -> Dict[str, int]:
        """Drive every source to completion; returns scheduling stats.

        ``on_finished(source, result, error)`` fires exactly once per source:
        with the :class:`~repro.core.state.OptimizationResult` and
        ``error=None`` on success, or ``result=None`` and the error string if
        an evaluation failed after the mw layer's retries.
        """
        gauge = self.telemetry.gauge(
            "repro_inflight_evals", "proposal evaluations currently in flight"
        )
        stale_counter = self.telemetry.counter(
            "repro_stale_tells_total",
            "tells that arrived after their proposal no longer mattered",
        )
        last_beat = time.monotonic()
        try:
            while True:
                live = [s for s in sources if not s.finalized]
                if not live and not self._task_map:
                    break
                self._top_up(live)
                gauge.set(self._inflight)
                self.mw.pump(self.poll_timeout)
                self._harvest(stale_counter)
                gauge.set(self._inflight)
                if self._touched:
                    touched, self._touched = self._touched, {}
                    # in ``sources`` order, as the finished records land
                    for src in live:
                        if id(src) in touched:
                            self._maybe_finalize(src, on_finished)
                if self.heartbeat is not None:
                    now = time.monotonic()
                    if now - last_beat >= self.heartbeat_interval:
                        last_beat = now
                        self.heartbeat()
        finally:
            gauge.set(0.0)
        return {
            "submitted": self.n_submitted,
            "frames": self.n_frames,
            "told": self.n_told,
            "stale": self.n_stale,
        }

    def _top_up(self, live: List[EvalSource]) -> None:
        """Fill the in-flight budget: round work first, speculation last.

        The first pass, in ``live`` order, asks each source only for the
        round proposals it has not handed out yet
        (``ask(min(budget, n_unasked))``, which never mints a refinement).
        Only if budget is left after every open job's round does a second
        pass, again in ``live`` order, ask with the whole remainder, so
        refinements fill purely idle capacity.  The second pass skips
        sources whose pool is not concurrent (DET): they never mint a
        refinement, and pass 1 already took their round, so asking them
        again could only return nothing.

        With ``eval_batch > 1``, proposals accumulate in per-``batch_key``
        buckets that ship as one frame when full; whatever remains after
        both passes is flushed immediately as partial frames (never held
        for a later beat — see the class docstring).
        """
        budget = self.max_inflight - self._inflight
        buckets: Dict[str, List[tuple]] = {}
        for src in live:
            if budget <= 0:
                break
            opt = src.opt
            if src.failed_error is not None:
                self._touched[id(src)] = src  # failed without a tell
                continue
            k = opt.n_unasked  # starts a fresh run at its first round
            if opt.finished:  # possibly at its start, also without a tell
                self._touched[id(src)] = src
                continue
            if k:
                budget -= self._place(src, opt.ask(min(budget, k)), buckets)
        for src in live:
            if budget <= 0:
                break
            opt = src.opt
            if src.failed_error is None and not opt.finished and opt.pool.concurrent:
                budget -= self._place(src, opt.ask(budget), buckets)
        for items in buckets.values():
            self._submit(items)

    def _place(self, src: EvalSource, proposals, buckets) -> int:
        """Submit (or bucket) ``src``'s not yet submitted proposals;
        returns how many were new."""
        seen = src.submitted_ids
        eval_batch = self.eval_batch
        key = src.batch_key if src.batch_key is not None else src.key
        placed = 0
        for proposal in proposals:
            if proposal.id in seen:
                continue
            seen.add(proposal.id)
            placed += 1
            if eval_batch == 1:
                self._submit([(src, proposal)])
                continue
            bucket = buckets.get(key)
            if bucket is None:
                bucket = buckets[key] = []
            bucket.append((src, proposal))
            if len(bucket) >= eval_batch:
                self._submit(buckets.pop(key))
        return placed

    def _submit(self, items: List[tuple]) -> None:
        """Ship one frame: a lone proposal as the classic single-eval task,
        two or more as a batch task weighted at ``len(items)`` evaluations."""
        if len(items) == 1:
            src, proposal = items[0]
            task = self.mw.submit(src.make_work(proposal))
        else:
            task = self.mw.submit(
                self.make_batch_work(items), n_evals=len(items)
            )
        self._task_map[task.task_id] = (task, items)
        self._inflight += len(items)
        self.n_submitted += len(items)
        self.n_frames += 1

    def _harvest(self, stale_counter) -> None:
        """Tell every settled frame's values back to their sources, and
        release its task from the mw driver."""
        settled = [
            entry for entry in self._task_map.values()
            if entry[0].done or entry[0].failed
        ]
        touched = self._touched
        for task, items in settled:
            del self._task_map[task.task_id]
            self.mw.release(task)
            self._inflight -= len(items)
            if task.failed:
                # The mw layer already retried (dead workers, transient
                # errors); a frame that still failed poisons every source
                # with a proposal aboard — and only those.
                for src, proposal in items:
                    touched[id(src)] = src
                    if src.failed_error is None:
                        src.failed_error = (
                            f"evaluation {proposal.id} failed: {task.error}"
                        )
                        close = getattr(src.opt, "close", None)
                        if close is not None:
                            close(reason=src.failed_error)
                continue
            if len(items) == 1:
                values = [task.result["value"]]
            else:
                values = task.result["values"]
                if len(values) != len(items):
                    raise RuntimeError(
                        f"batch task {task.task_id} returned {len(values)} "
                        f"values for {len(items)} proposals"
                    )
            # Group the frame's results by source so each optimizer takes
            # one batched tell (at most one step resumption) instead of
            # one per proposal — the master-side half of what makes
            # --eval-batch amortize.  Item order within a source is preserved.
            grouped: Dict[int, tuple] = {}
            for (src, proposal), value in zip(items, values):
                entry = grouped.get(id(src))
                if entry is None:
                    entry = grouped[id(src)] = (src, [])
                entry[1].append((proposal.id, value))
            for key, (src, pairs) in grouped.items():
                touched[key] = src
                tell_many = getattr(src.opt, "tell_many", None)
                if tell_many is not None:
                    statuses = tell_many(pairs)
                else:
                    statuses = []
                    for proposal_id, value in pairs:
                        try:
                            statuses.append(src.opt.tell(proposal_id, value))
                        except KeyError:
                            statuses.append("stale")
                self.n_told += len(statuses)
                n_stale = statuses.count("stale") + statuses.count("duplicate")
                if n_stale:
                    self.n_stale += n_stale
                    stale_counter.inc(n_stale)

    def _maybe_finalize(
        self,
        src: EvalSource,
        on_finished: Callable[[EvalSource, Any, Optional[str]], None],
    ) -> None:
        """Fire ``on_finished`` once a source has failed or produced a result."""
        if src.finalized:
            return
        if src.failed_error is not None:
            src.finalized = True
            on_finished(src, None, src.failed_error)
        elif src.opt.finished:
            src.finalized = True
            try:
                result = src.opt.result()
            except Exception as exc:  # noqa: BLE001 - a crashed run fails its job only
                on_finished(src, None, f"{type(exc).__name__}: {exc}")
            else:
                on_finished(src, result, None)
