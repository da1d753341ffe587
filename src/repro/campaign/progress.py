"""Live campaign progress: heartbeat snapshots, rates, ETAs, watch loops.

Two consumers share the :class:`ProgressSnapshot` shape:

* ``campaign run --progress`` — the runner emits a snapshot after every
  recorded batch (the heartbeat), with the rate measured over the whole
  call so the ETA stays stable;
* ``campaign watch`` — :func:`watch_campaign` polls a campaign directory
  that *other* processes are draining and yields a snapshot per tick,
  with the rate measured between consecutive observations.  Watch
  snapshots also carry per-cell progress (:class:`CellProgress`) and the
  count of jobs currently under a live claim lease, so a dashboard can
  tell "nobody is working on this cell" from "claimed, in flight".

Both read only the spec and the result store — through the
:class:`~repro.campaign.backends.base.StoreBackend` contract, so every
engine (JSONL, SQLite, ``store://``) is watchable identically —
and watching works from any host that can see the shared campaign
directory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional, Tuple


def format_duration(seconds: Optional[float]) -> str:
    """Compact human duration: ``42s``, ``3m12s``, ``2h05m``, or ``?``."""
    if seconds is None or seconds != seconds or seconds < 0:
        return "?"
    seconds = int(round(seconds))
    if seconds < 60:
        return f"{seconds}s"
    if seconds < 3600:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"


@dataclass(frozen=True)
class CellProgress:
    """Completion state of one grid cell (variant x function x dim x sigma0).

    ``claimed`` counts unfinished jobs currently under a live lease —
    some runner is entitled to be executing them right now; expired or
    released claims do not count.
    """

    label: str
    algorithm: str
    function: str
    dim: int
    sigma0: float
    total: int
    done: int
    failed: int
    claimed: int

    def to_dict(self) -> dict:
        """Flat JSON shape for ``campaign watch --json`` consumers."""
        return {
            "label": self.label,
            "algorithm": self.algorithm,
            "function": self.function,
            "dim": self.dim,
            "sigma0": self.sigma0,
            "total": self.total,
            "done": self.done,
            "failed": self.failed,
            "claimed": self.claimed,
        }

    def line(self) -> str:
        """One indented per-cell line for the plain ``watch --cells`` view."""
        extras = ""
        if self.claimed:
            extras += f", {self.claimed} claimed"
        if self.failed:
            extras += f", {self.failed} failed"
        return (
            f"  {self.label} {self.function} d={self.dim} "
            f"s0={self.sigma0:g}: {self.done}/{self.total} done{extras}"
        )


@dataclass(frozen=True)
class WorkerUtilization:
    """Per-rank utilization of one mw worker — the paper-style table row.

    Sourced from the telemetry trace's latest ``workers`` event (the
    runner folds the mw driver's dispatch/reply bookkeeping into one
    event per run).  ``straggler`` flags a rank whose utilization fell
    below half the pool median — the stalls the paper's worker-table
    diagnosis is after.
    """

    rank: int
    tasks: int            # replies received from this rank (frames)
    busy_s: float         # seconds holding work: dispatch (or, for a
                          # task queued behind another, the previous
                          # reply) to reply, so queued tasks count once
    elapsed_s: float      # observation window (driver lifetime)
    utilization: float    # busy_s / elapsed_s
    alive: bool
    straggler: bool = False
    inflight: int = 0     # evaluations dispatched but unanswered (a batch
                          # frame counts its q, so depth is honest under
                          # --eval-batch)
    evals: int = 0        # evaluations completed (>= tasks under batching)

    def to_dict(self) -> dict:
        """Flat JSON shape for ``campaign watch --json`` consumers."""
        return {
            "rank": self.rank,
            "tasks": self.tasks,
            "evals": self.evals,
            "busy_s": self.busy_s,
            "elapsed_s": self.elapsed_s,
            "utilization": self.utilization,
            "alive": self.alive,
            "straggler": self.straggler,
            "inflight": self.inflight,
        }

    def line(self) -> str:
        """One indented per-worker line for the ``watch --cells`` view."""
        flags = "" if self.alive else " [dead]"
        if self.straggler:
            flags += " [straggler]"
        depth = f", {self.inflight} in flight" if self.inflight else ""
        # Under --eval-batch a frame carries several evaluations; show
        # both counts when they diverge so the table stays comparable
        # across batch sizes.
        work = f"{self.tasks} tasks"
        if self.evals > self.tasks:
            work += f" ({self.evals} evals)"
        return (
            f"  worker {self.rank}: {work}{depth}, "
            f"busy {self.busy_s:.1f}s/{self.elapsed_s:.1f}s "
            f"({self.utilization:.0%}){flags}"
        )


def workers_from_trace(directory) -> Tuple[WorkerUtilization, ...]:
    """Worker-utilization rows from a campaign's telemetry trace.

    Reads the latest ``workers`` event in ``<directory>/telemetry.jsonl``
    (written by mw-backend runs with telemetry enabled) and flags
    stragglers: with more than one worker, any rank whose utilization is
    below half the pool median.  Returns ``()`` when there is no trace
    or no mw run has reported yet.
    """
    from repro.telemetry import TELEMETRY_FILENAME, last_event

    path = Path(directory) / TELEMETRY_FILENAME
    if not path.exists():
        return ()
    event = last_event(path, "workers")
    if event is None:
        return ()
    rows = sorted(event.get("workers") or [], key=lambda r: int(r.get("rank", 0)))
    utils = sorted(float(r.get("utilization", 0.0)) for r in rows)
    median = utils[len(utils) // 2] if utils else 0.0
    return tuple(
        WorkerUtilization(
            rank=int(r.get("rank", 0)),
            tasks=int(r.get("tasks", 0)),
            busy_s=float(r.get("busy_s", 0.0)),
            elapsed_s=float(r.get("elapsed_s", 0.0)),
            utilization=float(r.get("utilization", 0.0)),
            alive=bool(r.get("alive", False)),
            straggler=(
                len(rows) > 1
                and float(r.get("utilization", 0.0)) < 0.5 * median
            ),
            inflight=int(r.get("inflight", 0)),
            evals=int(r.get("evals", r.get("tasks", 0))),
        )
        for r in rows
    )


@dataclass(frozen=True)
class ProgressSnapshot:
    """One observation of a campaign's completion state."""

    campaign: str
    n_total: int          # jobs in the expanded grid
    done: int             # completed store-wide (all cooperating runners)
    failed: int           # latest-attempt failures (retried on re-run)
    elapsed_s: float      # since the run call / watch loop started
    rate: float           # completions per second over the measurement window
    claimed: int = 0      # unfinished jobs under a live lease (watch only)
    cells: Tuple[CellProgress, ...] = ()  # per-cell detail (watch only)
    workers: Tuple[WorkerUtilization, ...] = ()  # mw utilization (telemetry)

    @property
    def remaining(self) -> int:
        """Jobs not yet completed anywhere."""
        return max(0, self.n_total - self.done)

    @property
    def eta_s(self) -> Optional[float]:
        """Estimated seconds to drain the remainder (``None`` if unknown)."""
        if self.rate <= 0 or self.remaining == 0:
            return None
        return self.remaining / self.rate

    def to_dict(self) -> dict:
        """Machine-readable snapshot for dashboards (``campaign watch --json``).

        One flat JSON-serializable object per observation; derived fields
        (``remaining``, ``eta_s``) are materialized so consumers need no
        arithmetic.  ``eta_s`` is ``None`` while the rate is unknown;
        ``cells`` carries the per-cell breakdown when the producer
        computed one (the watch loop does, the runner heartbeat does not).
        """
        return {
            "campaign": self.campaign,
            "n_total": self.n_total,
            "done": self.done,
            "failed": self.failed,
            "claimed": self.claimed,
            "remaining": self.remaining,
            "elapsed_s": self.elapsed_s,
            "rate": self.rate,
            "eta_s": self.eta_s,
            "cells": [cell.to_dict() for cell in self.cells],
            "workers": [worker.to_dict() for worker in self.workers],
        }

    def line(self) -> str:
        """The one-line heartbeat format shared by ``--progress`` and ``watch``."""
        rate = f"{self.rate:.2f} jobs/s" if self.rate > 0 else "? jobs/s"
        claimed = f", {self.claimed} claimed" if self.claimed else ""
        return (
            f"[{self.campaign}] {self.done}/{self.n_total} done, "
            f"{self.failed} failed, {self.remaining} remaining{claimed} | "
            f"{rate} | eta {format_duration(self.eta_s)} | "
            f"elapsed {format_duration(self.elapsed_s)}"
        )


def cells_from_status(status: dict) -> Tuple[CellProgress, ...]:
    """Build sorted :class:`CellProgress` rows from ``Campaign.status()``.

    ``status["cells"]`` maps the cell tuple (label, algorithm, function,
    dim, sigma0) to its count dict; the rows come back sorted by that
    tuple so output order is stable across polls and layouts.
    """
    rows = []
    for key in sorted(status["cells"]):
        label, algorithm, function, dim, sigma0 = key
        counts = status["cells"][key]
        rows.append(
            CellProgress(
                label=label,
                algorithm=algorithm,
                function=function,
                dim=int(dim),
                sigma0=float(sigma0),
                total=counts["total"],
                done=counts["done"],
                failed=counts["failed"],
                claimed=counts["claimed"],
            )
        )
    return tuple(rows)


def _store_mtime_window(campaign) -> Optional[float]:
    """Seconds between campaign creation and the store's last write.

    The creation proxy is ``spec.json``'s mtime (written once, when the
    campaign directory is initialised); the last-write proxy is the
    newer mtime of the store's file and its ``-wal`` sibling — the JSONL
    file, or the SQLite database plus its WAL.  ``None`` when the window
    cannot be measured (in-memory or network store, store not yet
    written, or clock skew producing a non-positive window).
    """
    try:
        t_start = (Path(campaign.directory) / "spec.json").stat().st_mtime
    except (OSError, AttributeError):
        return None
    store_path = getattr(campaign.store, "path", None)
    if store_path is None:
        return None
    store_path = Path(store_path)
    latest = None
    for candidate in (store_path, store_path.with_name(store_path.name + "-wal")):
        try:
            mtime = candidate.stat().st_mtime
        except OSError:
            continue
        latest = mtime if latest is None else max(latest, mtime)
    if latest is None:
        return None
    window = latest - t_start
    return window if window > 0 else None


def seed_rate(campaign, done: int) -> float:
    """First-tick completion rate estimated from store file mtimes.

    A watch loop's first observation has no measurement window of its
    own, so estimate one from the store instead: ``done`` jobs landed
    between campaign creation (``spec.json`` mtime) and the store's last
    write.  Returns 0 when nothing is done yet or the window cannot be
    measured — the pre-fix behaviour, never worse.
    """
    if done <= 0:
        return 0.0
    window = _store_mtime_window(campaign)
    if not window:
        return 0.0
    return done / window


def watch_campaign(
    campaign,
    interval: float = 2.0,
    max_ticks: Optional[int] = None,
    _sleep: Callable[[float], None] = time.sleep,
    _clock: Callable[[], float] = time.monotonic,
) -> Iterator[ProgressSnapshot]:
    """Poll a campaign directory, yielding one snapshot per tick.

    Ends when every job has settled (done or failed — failures only clear
    on a re-run, so waiting for them would hang) or after ``max_ticks``
    snapshots (``1`` gives the ``--once`` behaviour).  The per-tick rate is
    the completion delta between observations over the wall-time between
    them; the first tick has no window of its own, so its rate is seeded
    from store-file mtimes (:func:`seed_rate`) — ``campaign watch --once``
    mid-drain reports a usable rate and ETA instead of ``?``.  Each
    snapshot carries the per-cell breakdown, live-claim counts, and (when
    a telemetry trace reports them) per-worker utilization rows.

    ``campaign`` is a :class:`~repro.campaign.runner.Campaign`; ``_sleep``
    and ``_clock`` are injectable for tests.
    """
    t0 = _clock()
    prev_done: Optional[int] = None
    prev_t = t0
    ticks = 0
    while True:
        status = campaign.status()
        now = _clock()
        done = status["done"]
        if prev_done is None:
            rate = seed_rate(campaign, done)
        elif now > prev_t:
            rate = max(0.0, (done - prev_done) / (now - prev_t))
        else:
            rate = 0.0
        yield ProgressSnapshot(
            campaign=status["name"],
            n_total=status["n_jobs"],
            done=done,
            failed=status["failed"],
            elapsed_s=now - t0,
            rate=rate,
            claimed=status.get("claimed", 0),
            cells=cells_from_status(status),
            workers=workers_from_trace(campaign.directory),
        )
        ticks += 1
        if max_ticks is not None and ticks >= max_ticks:
            return
        if done + status["failed"] >= status["n_jobs"]:
            return
        prev_done, prev_t = done, now
        _sleep(interval)
