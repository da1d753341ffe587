"""Campaign execution: resumable parallel sweeps over a job grid.

:class:`CampaignRunner` expands a :class:`~repro.campaign.spec.CampaignSpec`,
subtracts the jobs its result store already holds (resume), and drains
the rest through :class:`_DispatchLoop` — the one claim → dispatch →
record loop, which ``campaign serve``
(:class:`~repro.campaign.scheduler.MultiCampaignMaster`) runs over many
campaigns and ``campaign run`` over one.  Its work units are jobs run
inline (``serial``), whole jobs as :class:`~repro.mw.MWDriver` tasks
(``mw``; crashed workers requeue their tasks), or ask/tell sources
sharing one :class:`~repro.core.async_driver.AsyncEvalDriver` (``mw``
with ``async_mode``).

Every job is **claimed** in the store before it runs, so exactly one
runner executes it however many processes or hosts drain the campaign.
Claims roll as jobs finish, one heartbeat thread renews them all, a
graceful interrupt records what finished and releases the rest, and a
hard-killed runner's claims expire for any peer to reclaim.
``KeyboardInterrupt`` returns a report instead of unwinding, so the
obvious follow-up is to re-run the same command.

:class:`Campaign` is the directory-level façade the CLI and examples use:
``<dir>/spec.json`` plus a result store — any
:class:`~repro.campaign.backends.base.StoreBackend` engine (JSONL,
SQLite, or ``store://``).
"""

from __future__ import annotations

import logging
import os
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.campaign.aggregate import CellSummary, PairedComparison, compare_labels, summarize
from repro.campaign.execution import (
    RUN_ID_ENV,
    batch_proposal_work,
    build_job_optimizer,
    mw_eval_executor,
    mw_job_executor,
    proposal_work,
    run_job,
)
from repro.campaign.backends import open_store, parse_store_spec
from repro.campaign.progress import ProgressSnapshot
from repro.campaign.spec import CampaignSpec, Job, _is_plain_json
from repro.campaign.store import (
    STATUS_DONE,
    STATUS_FAILED,
    CompactionStats,
    ResultStore,
)
from repro.core.async_driver import AsyncEvalDriver, EvalSource
from repro.mw.driver import MWDriver
from repro.mw.transport import TRANSPORT_NAMES, is_tcp_spec
from repro.telemetry import Telemetry, new_span_id

SPEC_FILENAME = "spec.json"
RESULTS_FILENAME = "results.jsonl"

#: Execution backends a runner accepts.
RUNNER_BACKENDS = ("serial", "mw")
#: Same-host transports the ``mw`` backend can put under the driver
#: (a ``tcp://host:port`` listen URL is also accepted — see
#: :mod:`repro.mw.tcp` and ``docs/CAMPAIGNS.md`` on cross-host campaigns).
#: Owned by :mod:`repro.mw.transport`; re-exported here for campaign users.
MW_TRANSPORTS = TRANSPORT_NAMES

#: Default seconds a claim lease lives without renewal.  Generous on
#: purpose: expiry only has to beat *abandonment* (a killed runner), not
#: latency, and it must absorb cross-host clock skew and GC/IO pauses.
DEFAULT_LEASE_TTL = 60.0

#: Seconds between ``workers`` telemetry events while an async pass runs.
WORKERS_EVENT_INTERVAL = 2.0

ProgressCallback = Callable[[ProgressSnapshot], None]

_log = logging.getLogger(__name__)


def default_runner_id() -> str:
    """This process's lease identity (``host:pid``): unique among live
    runners sharing a store, stable for exactly a lease's scope."""
    return f"{socket.gethostname()}:{os.getpid()}"


def validate_mw_transport(spec: str) -> None:
    """Raise ``ValueError`` unless ``spec`` names a usable mw transport
    (checked when a runner is built, so a typo fails before any claim)."""
    if spec not in TRANSPORT_NAMES and not is_tcp_spec(spec):
        raise ValueError(
            f"mw_transport must be one of {TRANSPORT_NAMES} or a "
            f"tcp://host:port URL, got {spec!r}"
        )


@dataclass
class CampaignReport:
    """What one ``run()`` call did."""

    n_total: int          # jobs in the expanded grid
    n_skipped: int        # already completed in the store (resume)
    n_run: int            # executed this call
    n_done: int           # of those, succeeded
    n_failed: int         # of those, failed
    n_shed: int = 0       # completed by a cooperating runner mid-flight
    n_leased: int = 0     # left to a peer holding a live claim lease
    interrupted: bool = False

    @property
    def n_remaining(self) -> int:
        """Jobs still not completed anywhere after this call."""
        return self.n_total - self.n_skipped - self.n_done - self.n_shed

    def __str__(self) -> str:
        shed = f", {self.n_shed} shed to peers" if self.n_shed else ""
        leased = f", {self.n_leased} leased to peers" if self.n_leased else ""
        tail = "  [interrupted]" if self.interrupted else ""
        return (
            f"{self.n_total} jobs: {self.n_skipped} already done, "
            f"{self.n_done} completed, {self.n_failed} failed{shed}{leased}, "
            f"{self.n_remaining} remaining{tail}"
        )


class _LeaseHeartbeat:
    """Background renewal of a runner's live claims.

    A serial job blocks the loop's thread while it runs, so renewal comes
    from a daemon thread: every ``ttl / 3`` seconds it calls ``renew()``,
    which extends whatever claims the runner holds at that beat.  The
    sleep deducts the renew round trip, so a slow or remote store cannot
    stretch the beat period toward the ttl.  A failed renewal is retried
    immediately; a beat that fails both attempts is skipped — the next
    beat retries, and at worst a lease lapses and a peer duplicates a job
    (wasteful, never wrong) — but it is surfaced in
    ``repro_lease_renew_failures_total`` and a warning log.
    """

    def __init__(self, renew: Callable[[], None], ttl: float,
                 telemetry=None) -> None:
        self._renew = renew
        self._ttl = float(ttl)
        if telemetry is None:
            telemetry = Telemetry.from_env()
        self._failures = telemetry.counter(
            "repro_lease_renew_failures_total",
            "Lease heartbeat renewals that failed even after one retry.",
        )
        self.n_failures = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="lease-heartbeat", daemon=True
        )
        self._thread.start()

    def _loop(self) -> None:
        interval = max(self._ttl / 3.0, 0.05)
        delay = interval
        while not self._stop.wait(delay):
            started = time.monotonic()
            try:
                try:
                    self._renew()
                except OSError:  # retry once: most store errors are blips
                    self._renew()
            except OSError as exc:
                self.n_failures += 1
                self._failures.inc()
                _log.warning(
                    "lease renewal failed twice (%d failed beats so far; "
                    "lease ttl %.0fs): %s", self.n_failures, self._ttl, exc,
                )
            # Deduct the time renewing took so beats stay ~ttl/3 apart
            # wall-clock; floor keeps a pathologically slow store from
            # turning the loop into a busy spin.
            delay = max(interval - (time.monotonic() - started), 0.05)

    def stop(self) -> None:
        """Stop renewing and wait for the thread."""
        self._stop.set()
        self._thread.join()


class _Tenant:
    """One campaign's state inside a :class:`_DispatchLoop`."""

    def __init__(self, spec: CampaignSpec, store, jobs: List[Job],
                 weight: float = 1.0, max_inflight: Optional[int] = None,
                 campaign: Optional["Campaign"] = None) -> None:
        self.name = spec.name
        self.store = store
        self.jobs = jobs
        self.weight = weight
        self.max_inflight = max_inflight
        self.campaign = campaign
        self.reset()

    def reset(self) -> None:
        """Start a fresh run: zero counts, no backlog, claims or buffers."""
        self.counts = {"done": 0, "failed": 0, "shed": 0, "leased": 0}
        self.n_total = len(self.jobs)
        self.n_skipped = 0
        self.backlog: deque = deque()
        self.claimed: Set[str] = set()    # claimed, not yet recorded or released
        self.executed: Set[str] = set()   # recorded this run, never re-claimed
        self.finished: List[dict] = []    # records waiting for the next flush
        self.open = 0                     # async jobs claimed and unfinished
        self.flush_at = 0                 # async: flush + refill at this many open
        self.last_flush = time.monotonic()

    def report(self, interrupted: bool = False) -> CampaignReport:
        """This tenant's :class:`CampaignReport` for the current run."""
        return CampaignReport(
            n_total=self.n_total,
            n_skipped=self.n_skipped,
            n_run=self.counts["done"] + self.counts["failed"],
            n_done=self.counts["done"],
            n_failed=self.counts["failed"],
            n_shed=self.counts["shed"],
            n_leased=self.counts["leased"],
            interrupted=interrupted,
        )


class _DispatchLoop:
    """The one claim → dispatch → record loop.

    :class:`CampaignRunner` runs it with one tenant (``campaign run``),
    :class:`~repro.campaign.scheduler.MultiCampaignMaster` with one per
    directory (``campaign serve``).  A run makes *passes*: each loads
    every tenant's pending jobs (not completed in its store, not recorded
    by this run) and drains them; passes repeat until one records
    nothing, so claims that expired mid-run are picked up by the same
    call, while a job that failed here waits for the next run.  Jobs are
    claimed per tenant in rolling batches of at most ``batch_size`` and
    dispatched as one work-unit kind:

    ``serial``
        Claimed jobs run inline, drawn through the scheduler; a beat's
        records land together, so an interrupt mid-beat loses only that
        beat's work (its claims are released).
    ``job``
        One mw task per job.  A tenant claims another batch when fewer
        than ``batch_size`` of its jobs are queued; the
        :class:`~repro.campaign.scheduler.CampaignScheduler` hands free
        worker slots out by deficit-weighted round-robin, and a finished
        task is recorded at the end of the pump beat it finishes in.
    ``eval``
        One ask/tell :class:`EvalSource` per job and one
        :meth:`AsyncEvalDriver.run` call per pass.  A tenant keeps at most
        ``batch_size`` jobs open; once half of those open at its last
        refill finished, it flushes their records in one ``record_many``
        and appends fresh claims to the driver's live sources in the same
        beat.  In between, records coalesce (a flush costs milliseconds),
        and ``flush_interval`` bounds any wait.

    One :class:`_LeaseHeartbeat` renews every tenant's claims; it shares
    a lock with the loop's store calls, so no store is used from two
    threads at once.  Whole-job units are placed by their spec's
    ``constraints`` only where ``honor_constraints`` holds.  On any exit
    finished records are flushed first, then every unrecorded claim is
    released.  Options are those of :class:`CampaignRunner`; ``label``
    names the backend in ``run_start``.
    """

    #: Match each job's ``constraints`` against worker capabilities
    #: (``campaign serve``, which has ``--worker-caps``).
    honor_constraints = True

    def __init__(self, kind: str, *, label: str, batch_size: int,
                 lease_ttl: float, runner_id: str, telemetry: Telemetry,
                 transport: str = "process", max_workers: Optional[int] = None,
                 mw_max_retries: int = 2, worker_caps=None, affinity: bool = False,
                 max_inflight: Optional[int] = None, eval_batch: int = 1,
                 flush_interval: float = 2.0) -> None:
        if int(batch_size) < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        validate_mw_transport(transport)
        if lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {lease_ttl}")
        if max_inflight is not None and int(max_inflight) < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if int(eval_batch) < 1:
            raise ValueError(f"eval_batch must be >= 1, got {eval_batch}")
        if int(eval_batch) > 1 and kind != "eval":
            raise ValueError("eval_batch > 1 requires async mode (--async)")
        if flush_interval <= 0:
            raise ValueError(f"flush_interval must be positive, got {flush_interval}")
        self.kind = kind
        self.label = label
        self.batch_size = int(batch_size)
        self.lease_ttl = float(lease_ttl)
        self.runner_id = runner_id
        self.telemetry = telemetry
        self.transport = transport
        self.max_workers = max_workers
        self.mw_max_retries = int(mw_max_retries)
        self.worker_caps = dict(worker_caps or {})
        self.affinity = bool(affinity)
        self.max_inflight = None if max_inflight is None else int(max_inflight)
        self.eval_batch = int(eval_batch)
        self.flush_interval = float(flush_interval)
        self.tenants: Dict[str, _Tenant] = {}
        self.scheduler = self._fresh_scheduler()
        self.driver = None
        self._lock = threading.Lock()
        self._inflight: Dict[int, Tuple[_Tenant, Job, object]] = {}  # mw tasks
        self._open: Dict[int, Tuple[_Tenant, Job, float, str]] = {}   # sources

    def add_tenant(self, spec: CampaignSpec, store, jobs: List[Job],
                   **kwargs) -> _Tenant:
        """Register one campaign; ``kwargs`` as for :class:`_Tenant`."""
        if self.telemetry.enabled:
            # One registry for the whole run: store latency histograms land
            # next to runner spans, so `campaign metrics` sees both.
            store.telemetry = self.telemetry
        tenant = _Tenant(spec, store, jobs, **kwargs)
        self.scheduler.add_tenant(tenant.name, weight=tenant.weight,
                                  max_inflight=tenant.max_inflight)
        self.tenants[tenant.name] = tenant
        return tenant

    # -- the run -----------------------------------------------------------

    def _drain(self, max_jobs: Optional[int] = None,
               progress: Optional[Callable[[_Tenant], None]] = None,
               timeout: Optional[float] = None,
               on_start: Optional[Callable[[object], None]] = None,
               poll_interval: float = 0.05) -> None:
        """Drain every tenant; re-raises whatever interrupted it.

        ``max_jobs`` caps the jobs each tenant executes, ``progress`` is
        called with a tenant after each of its record flushes,
        ``timeout`` bounds the run in real seconds (``TimeoutError``),
        and ``on_start`` receives the mw driver once its transport is
        live.  Reports are read from the tenants afterwards.
        """
        t0 = time.monotonic()
        self._progress = progress
        self._deadline = None if timeout is None else t0 + float(timeout)
        self._on_start = on_start
        self._poll = float(poll_interval)
        self.scheduler = self._fresh_scheduler()
        for tenant in self.tenants.values():
            tenant.reset()
            done = tenant.store.completed_ids()
            tenant.n_skipped = sum(1 for job in tenant.jobs if job.job_id in done)
        budget = None if max_jobs is None else max(0, int(max_jobs))
        saved_run_env = os.environ.get(RUN_ID_ENV)
        if self.telemetry.enabled:
            # Executing processes (mw workers spawn after this point) stamp
            # this run's id into their audit lines and store records.
            os.environ[RUN_ID_ENV] = self.telemetry.run_id
            self.telemetry.event(
                "run_start",
                campaign=",".join(self.tenants),
                backend=self.label,
                n_total=sum(t.n_total for t in self.tenants.values()),
                n_skipped=sum(t.n_skipped for t in self.tenants.values()),
            )
        heartbeat = _LeaseHeartbeat(self._renew_claims, self.lease_ttl,
                                    telemetry=self.telemetry)
        interrupted = False
        try:
            while True:
                self.telemetry.counter(
                    "repro_runner_passes_total",
                    "Claim-and-execute passes over the grid.",
                ).inc()
                n_recorded = self._pass(budget)
                if budget is not None:
                    budget -= n_recorded
                if not n_recorded:
                    # Whatever is left is done, failed here, or validly
                    # leased to a live peer; another pass would spin.
                    break
        except BaseException:
            interrupted = True
            self._salvage()
            raise
        finally:
            heartbeat.stop()
            for tenant in self.tenants.values():
                if tenant.claimed:
                    try:
                        tenant.store.release(list(tenant.claimed), self.runner_id)
                    except OSError:  # pragma: no cover - store gone mid-teardown
                        pass
                    tenant.claimed.clear()
            if self.driver is not None:
                self.driver.shutdown()
                self.driver = None
            if self.telemetry.enabled:
                if saved_run_env is None:
                    os.environ.pop(RUN_ID_ENV, None)
                else:
                    os.environ[RUN_ID_ENV] = saved_run_env
                self.telemetry.event(
                    "run_end",
                    **{key: sum(t.counts[key] for t in self.tenants.values())
                       for key in ("done", "failed", "shed", "leased")},
                    elapsed_s=time.monotonic() - t0,
                    interrupted=interrupted,
                )
                self.telemetry.write_metrics()

    def _fresh_scheduler(self):
        """A scheduler with every tenant registered and nothing queued."""
        from repro.campaign.scheduler import CampaignScheduler  # imports this module

        scheduler = CampaignScheduler(telemetry=self.telemetry)
        for tenant in self.tenants.values():
            scheduler.add_tenant(tenant.name, weight=tenant.weight,
                                 max_inflight=tenant.max_inflight)
        return scheduler

    def _pass(self, budget: Optional[int]) -> int:
        """One claim → dispatch → record pass; returns the jobs it recorded."""
        for tenant in self.tenants.values():
            tenant.counts["leased"] = 0  # re-observed every pass
            with self._lock:
                done = tenant.store.completed_ids()
            pending = [job for job in tenant.jobs
                       if job.job_id not in done and job.job_id not in tenant.executed]
            tenant.backlog = deque(pending if budget is None else pending[:budget])
        if not any(tenant.backlog for tenant in self.tenants.values()):
            return 0
        self._start_driver()
        before = self._n_recorded()
        with self.telemetry.span("pass", kind=self.kind, tenants=len(self.tenants)):
            if self.kind == "eval":
                self._eval_pass()
            else:
                self._job_pass()
            self._workers_event()
        return self._n_recorded() - before

    def _n_recorded(self) -> int:
        return sum(t.counts["done"] + t.counts["failed"] for t in self.tenants.values())

    def _start_driver(self) -> None:
        """Build the mw driver before the first claim (serial needs none)."""
        if self.kind == "serial" or self.driver is not None:
            return
        pending = [job for t in self.tenants.values() for job in t.backlog]
        for job in pending:
            if not _is_plain_json(job.options):
                raise ValueError(  # the codec would silently stringify them
                    f"job {job.label!r} has non-JSON options {job.options!r}; "
                    f"the mw backend serializes jobs as plain JSON — use the "
                    f"serial backend, or express the options as plain JSON"
                )
        n_workers = self.max_workers or os.cpu_count() or 2
        static = not is_tcp_spec(self.transport)
        if self.kind == "job" and static and not self.worker_caps:
            # One job per local worker at most; with capabilities the fleet
            # stays whole, since a capped one would lose the highest ranks.
            n_workers = min(n_workers, len(pending))
        self.driver = MWDriver(
            mw_eval_executor if self.kind == "eval" else mw_job_executor,
            n_workers=max(1, int(n_workers)),
            backend=self.transport,
            max_retries=self.mw_max_retries,
            seed=0,
            transport_options=(
                {"worker_caps": self.worker_caps}
                if self.worker_caps and static else None
            ),
            telemetry=self.telemetry,
        )
        self._workers_at = time.monotonic()
        if self._on_start is not None:
            self._on_start(self.driver)

    # -- store calls (the heartbeat shares the lock) -------------------------

    def _renew_claims(self) -> None:
        """Heartbeat beat: renew each tenant's claimed, unrecorded ids."""
        with self._lock:
            for tenant in self.tenants.values():
                if tenant.claimed:
                    tenant.store.renew(list(tenant.claimed), self.runner_id,
                                       self.lease_ttl)

    def _claim(self, tenant: _Tenant, jobs: List[Job]) -> List[Job]:
        """Claim jobs in the tenant's store; return the granted ones.  The
        rest were completed by a peer (``shed``) or are leased to one."""
        ids = [job.job_id for job in jobs]
        with self._lock:
            with self.telemetry.span("claim", n_jobs=len(ids)):
                granted = set(tenant.store.claim(ids, self.runner_id, self.lease_ttl))
            tenant.claimed.update(granted)
            done = tenant.store.completed_ids() if len(granted) != len(ids) else ()
        for job_id in ids:
            if job_id in granted:
                continue
            if job_id in done:
                tenant.counts["shed"] += 1
                self.telemetry.counter(
                    "repro_runner_jobs_shed_total",
                    "Jobs dropped because a peer completed them first.",
                ).inc()
            else:
                tenant.counts["leased"] += 1
                self.telemetry.counter(
                    "repro_runner_jobs_leased_total",
                    "Jobs skipped because a peer holds a live lease.",
                ).inc()
        return [job for job in jobs if job.job_id in granted]

    def _record(self, tenant: _Tenant) -> None:
        """Append a tenant's finished records as one ``record_many`` (one
        locked write / transaction in every engine)."""
        records, tenant.finished = tenant.finished, []
        ids = [rec["job_id"] for rec in records]
        with self._lock:
            with self.telemetry.span("record", n_jobs=len(records)):
                tenant.store.record_many(records)
            tenant.claimed.difference_update(ids)
        tenant.executed.update(ids)
        tenant.last_flush = time.monotonic()
        for rec in records:
            tenant.counts["done" if rec["status"] == STATUS_DONE else "failed"] += 1
            self.telemetry.counter(
                "repro_runner_jobs_total",
                "Jobs this runner executed, by outcome.",
                status=rec["status"],
            ).inc()
            self.telemetry.histogram(
                "repro_job_seconds", "Wall-clock duration of job executions.",
            ).observe(float(rec.get("elapsed_s", 0.0)))
            self.telemetry.event(
                "job",
                job_id=rec["job_id"],
                span_id=rec.get("span_id", "-"),
                status=rec["status"],
                elapsed_s=float(rec.get("elapsed_s", 0.0)),
            )
        if self._progress is not None:
            self._progress(tenant)

    def _flush_all(self) -> None:
        for tenant in self.tenants.values():
            if tenant.finished:
                self._record(tenant)

    def _salvage(self) -> None:
        """Interrupted: record whatever finished before the claims go back."""
        try:
            if self.kind == "job" and self.driver is not None:
                self._harvest()
            self._flush_all()
        except OSError:  # pragma: no cover - store gone mid-teardown
            pass

    # -- whole-job units (serial and mw tasks) -------------------------------

    def _job_pass(self) -> None:
        self._inflight = {}
        tenants = list(self.tenants.values())
        while (self._inflight or self.scheduler.queued()
               or any(t.backlog for t in tenants)):
            for tenant in tenants:
                self._top_up(tenant)
            self._fill_slots()
            if self.driver is not None:
                self.driver.pump(self._poll)
                self._harvest()
            self._flush_all()
            self._check_deadline()

    def _top_up(self, tenant: _Tenant) -> None:
        """Claim another batch into the tenant's queue when it runs low."""
        while tenant.backlog and self.scheduler.depth(tenant.name) < self.batch_size:
            batch = [tenant.backlog.popleft()
                     for _ in range(min(self.batch_size, len(tenant.backlog)))]
            for job in self._claim(tenant, batch):
                self.scheduler.enqueue(tenant.name, job, priority=job.priority)

    def _fill_slots(self) -> None:
        """Offer free slots to the scheduler; run or submit what it grants."""
        if self.driver is None:
            # serial: every queued job runs now, and the beat's records
            # land together after the last one
            records = []
            while True:
                selected = self.scheduler.select()
                if selected is None:
                    break
                name, job = selected
                records.append((self.tenants[name], run_job(job)))
                self.scheduler.mark_complete(name)
            for tenant, record in records:
                tenant.finished.append(record)
            return
        driver = self.driver
        # One scheduler slot per free worker slot.  On a static fleet a
        # job no *live* worker can ever satisfy must not queue forever:
        # pass it through to the driver, whose unmatchable-constraint
        # check fails it with a clear error.  On a dynamic (tcp) fleet it
        # waits — a capable worker may yet join.
        avail, live_caps = driver.capacity()
        static = not driver.transport.dynamic

        def can_place(job: Job) -> bool:
            need = self._needs(job)
            if any(need <= caps for caps in avail):
                return True
            return static and not any(need <= caps for caps in live_caps)

        while True:
            selected = self.scheduler.select(can_place)
            if selected is None:
                break
            name, job = selected
            # Mirror the driver's choice (``capacity`` lists free slots in
            # the order dispatch fills them) so the local bookkeeping
            # tracks what dispatch will actually consume.
            need = self._needs(job)
            slot = next((i for i, caps in enumerate(avail) if need <= caps), None)
            if slot is not None:
                del avail[slot]
            affinity = None
            if self.affinity:  # round-robin over ranks, in dispatch order
                affinity = driver.n_submitted % driver.n_workers + 1
            task = driver.submit(job.to_dict(), affinity=affinity, constraints=need)
            self._inflight[task.task_id] = (self.tenants[name], job, task)

    def _needs(self, job: Job) -> frozenset:
        """The capabilities a worker must have to run ``job``."""
        return frozenset(job.constraints) if self.honor_constraints else frozenset()

    def _harvest(self) -> None:
        """Move finished tasks' records to their tenants; free their slots."""
        finished = [tid for tid, (_, _, task) in self._inflight.items()
                    if task.done or task.failed]
        for tid in finished:
            tenant, job, task = self._inflight.pop(tid)
            self.driver.release(task)
            tenant.finished.append(
                task.result if task.done else CampaignRunner._mw_failure_record(job, task)
            )
            self.scheduler.mark_complete(tenant.name)

    # -- ask/tell units ------------------------------------------------------

    def _eval_pass(self) -> None:
        self._open = {}
        self._run_id = os.environ.get(RUN_ID_ENV, "-")
        sources: list = []
        for tenant in self.tenants.values():
            self._refill(tenant, sources)
        if not sources:
            return  # every pending job is done or leased to a peer
        driver = AsyncEvalDriver(
            self.driver,
            max_inflight=self.max_inflight or max(
                2 * self.driver.n_workers, 2 * self.eval_batch),
            telemetry=self.telemetry,
            heartbeat=partial(self._eval_beat, sources),
            heartbeat_interval=0.0,  # every beat: claims must roll promptly
            eval_batch=self.eval_batch,
            make_batch_work=self._batch_work,
        )
        driver.run(sources, self._on_finished)
        self._flush_all()

    def _refill(self, tenant: _Tenant, sources: list) -> None:
        """Claim until ``batch_size`` jobs are open; each becomes a source."""
        while tenant.backlog and tenant.open < self.batch_size:
            n = min(self.batch_size - tenant.open, len(tenant.backlog))
            for job in self._claim(tenant, [tenant.backlog.popleft() for _ in range(n)]):
                src = EvalSource(
                    key=job.job_id,
                    opt=build_job_optimizer(job),
                    make_work=partial(proposal_work, job),
                    batch_key=f"{job.function}:{job.dim}",
                )
                self._open[id(src)] = (tenant, job, time.perf_counter(), new_span_id())
                sources.append(src)
                tenant.open += 1
        tenant.flush_at = tenant.open // 2

    def _eval_beat(self, sources: list) -> None:
        """Per-beat callback of the async driver: flush, refill, report."""
        now = time.monotonic()
        for tenant in self.tenants.values():
            if tenant.open <= tenant.flush_at and (tenant.finished or tenant.backlog):
                if tenant.finished:
                    self._record(tenant)
                # finished sources leave the driver's live list here
                sources[:] = [src for src in sources if not src.finalized]
                self._refill(tenant, sources)
            elif tenant.finished and now - tenant.last_flush >= self.flush_interval:
                self._record(tenant)
        if now - self._workers_at >= WORKERS_EVENT_INTERVAL:
            self._workers_event()
        self._check_deadline()

    def _batch_work(self, items):
        return batch_proposal_work(
            [(self._open[id(src)][1], proposal) for src, proposal in items]
        )

    def _on_finished(self, src, result, error) -> None:
        tenant, job, t_started, span_id = self._open.pop(id(src))
        tenant.open -= 1
        tenant.finished.append({
            "job_id": job.job_id,
            "status": STATUS_DONE if error is None else STATUS_FAILED,
            "job": job.to_dict(),
            "result": None if result is None else result.to_dict(),
            "error": error,
            "elapsed_s": time.perf_counter() - t_started,
            "run_id": self._run_id,
            "span_id": span_id,
        })

    # -- shared beat chores --------------------------------------------------

    def _workers_event(self) -> None:
        """Per-rank utilization for ``campaign watch --cells``."""
        self._workers_at = time.monotonic()
        if self.telemetry.enabled and self.driver is not None:
            self.telemetry.event("workers", workers=self.driver.utilization())

    def _check_deadline(self) -> None:
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise TimeoutError(
                f"run timed out with {len(self._inflight) + len(self._open)} "
                f"job(s) in flight and {self.scheduler.queued()} queued"
            )


class CampaignRunner(_DispatchLoop):
    """Executes the pending jobs of a spec against a result store.

    A one-tenant :class:`_DispatchLoop`; ``campaign serve``
    (:class:`~repro.campaign.scheduler.MultiCampaignMaster`) is the same
    loop over many campaigns.  The runner has no worker capabilities, so
    it ignores the spec's ``constraints``: every job runs on any worker.

    Parameters
    ----------
    spec / store:
        The grid to drain, and the result store every cooperating runner
        shares (resume skip-set, claim-lease arbiter, append target) —
        any :class:`~repro.campaign.backends.base.StoreBackend`.
    backend:
        ``serial`` (jobs run inline) or ``mw`` (:class:`~repro.mw.MWDriver`).
    max_workers:
        mw worker count (default: CPU count; a whole-job fleet on a local
        transport never spawns more workers than pending jobs).
    batch_size:
        Jobs per claim.  Serial records each claimed batch with one store
        write (the resume granularity); mw keeps up to ``batch_size``
        claimed jobs queued, async mode up to ``batch_size`` open.
        Default: 1 for serial, else the worker count.
    mw_transport:
        ``inproc`` (deterministic, tests), ``threaded``, ``process`` (the
        default), or a ``tcp://host:port`` listen URL that standalone
        ``python -m repro mw-worker`` processes on any host connect to.
    mw_affinity / mw_max_retries:
        Pin jobs round-robin to worker ranks (the paper restarts a worker
        "on the same processors"); requeues per task after worker errors
        or crashes before the job is recorded as failed.
    async_mode:
        mw only: drive every open job through its ask/tell seam, one mw
        task per proposal (or frame), so a straggler delays one
        evaluation instead of a job (:mod:`repro.core.async_driver`).
        Speculative refinements make results differ from whole-job runs.
    max_inflight / eval_batch / flush_interval:
        Async mode: the cap on outstanding evaluations (default ``2 *
        workers``, or ``2 * eval_batch`` if larger); proposals per mw
        frame, evaluated in one vectorized ``batch()`` call; and the
        upper bound (seconds) on how long a finished job's record waits
        for a flush (records otherwise flush with each refill claim).
    lease_ttl / runner_id:
        Seconds a claim survives without renewal (renewed every
        ``ttl / 3``; it bounds how long a crashed runner's jobs stay
        unavailable, so keep it generous), and the lease identity
        (default :func:`default_runner_id`).
    telemetry:
        Defaults to :meth:`Telemetry.from_env`.  When live, store latency
        metrics route through it, ``$REPRO_RUN_ID`` correlates audit lines
        with trace events, and the claim / pass / record spans are traced.
    """

    honor_constraints = False

    def __init__(
        self,
        spec: CampaignSpec,
        store,
        backend: str = "serial",
        max_workers: Optional[int] = None,
        batch_size: Optional[int] = None,
        mw_transport: str = "process",
        mw_affinity: bool = False,
        mw_max_retries: int = 2,
        async_mode: bool = False,
        max_inflight: Optional[int] = None,
        eval_batch: int = 1,
        flush_interval: float = 2.0,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        runner_id: Optional[str] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if backend not in RUNNER_BACKENDS:
            raise ValueError(
                f"backend must be one of {RUNNER_BACKENDS}, got {backend!r}"
            )
        if async_mode and backend != "mw":
            raise ValueError(
                f"async mode drives evaluations through the mw layer; "
                f"backend must be 'mw', got {backend!r}"
            )
        if batch_size is None:
            # serial: record after every job, the finest resume grain
            batch_size = 1 if backend == "serial" else (max_workers or os.cpu_count() or 2)
        super().__init__(
            "serial" if backend == "serial" else ("eval" if async_mode else "job"),
            label=backend, batch_size=batch_size, lease_ttl=lease_ttl,
            runner_id=runner_id or default_runner_id(),
            telemetry=telemetry if telemetry is not None else Telemetry.from_env(),
            transport=mw_transport, max_workers=max_workers,
            mw_max_retries=mw_max_retries, affinity=mw_affinity,
            max_inflight=max_inflight, eval_batch=eval_batch,
            flush_interval=flush_interval,
        )
        self.spec = spec
        self.store = store
        self._tenant = self.add_tenant(spec, store, spec.expand())

    def pending(self) -> List[Job]:
        """Grid jobs not yet completed in the store, in expansion order."""
        done = self.store.completed_ids()
        return [job for job in self._tenant.jobs if job.job_id not in done]

    def run(
        self,
        max_jobs: Optional[int] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> CampaignReport:
        """Execute pending jobs; returns instead of raising on Ctrl-C.

        ``max_jobs`` caps how many jobs this call executes; ``progress``
        gets a :class:`~repro.campaign.progress.ProgressSnapshot` after
        every record flush (the ``--progress`` heartbeat).  Returns once
        everything is settled or the only jobs left are validly leased
        to live peers (``n_leased``; re-run later, or let the peer finish).
        """
        t0 = time.monotonic()

        def emit(tenant: _Tenant) -> None:
            elapsed = max(time.monotonic() - t0, 1e-9)
            progress(
                ProgressSnapshot(
                    campaign=self.spec.name,
                    n_total=tenant.n_total,
                    done=tenant.n_skipped + tenant.counts["done"] + tenant.counts["shed"],
                    failed=tenant.counts["failed"],
                    elapsed_s=elapsed,
                    rate=tenant.counts["done"] / elapsed,
                )
            )

        try:
            self._drain(max_jobs=max_jobs, progress=None if progress is None else emit)
        except KeyboardInterrupt:
            return self._tenant.report(interrupted=True)
        return self._tenant.report()

    @staticmethod
    def _mw_failure_record(job: Job, task) -> dict:
        """Store record for a task the driver gave up on (retries exhausted)."""
        return {
            "job_id": job.job_id,
            "status": STATUS_FAILED,
            "job": job.to_dict(),
            "result": None,
            "error": task.error or "mw task failed",
            "elapsed_s": 0.0,
        }


class Campaign:
    """A campaign directory: ``spec.json`` plus its result store.

    :func:`~repro.campaign.backends.open_store` resolves the store: the
    single ``results.jsonl`` by default, or the engine a ``store`` spec
    (``"jsonl"``, ``"sqlite"``, ``"store://host:port"``) requests.  An
    existing ``store-manifest.json`` always wins; requesting a
    *conflicting* engine is an error (``campaign migrate-store``
    converts), while ``store="sqlite"`` migrates a legacy directory in
    place.  The grid is fixed at creation, so reopening with a
    *different* spec is an error; the same (or no) spec resumes.
    """

    def __init__(self, directory, spec: Optional[CampaignSpec] = None,
                 store: Optional[str] = None) -> None:
        engine = parse_store_spec(store)
        self.directory = Path(directory)
        spec_path = self.directory / SPEC_FILENAME
        if spec_path.exists():
            existing = CampaignSpec.load(spec_path)
            if spec is not None and not spec.same_grid(existing):
                raise ValueError(
                    f"campaign at {self.directory} already initialised with a "
                    f"different spec ({existing.name!r}); use a new directory"
                )
            self.spec = existing
        else:
            if spec is None:
                raise FileNotFoundError(
                    f"no {SPEC_FILENAME} in {self.directory} and no spec given"
                )
            self.spec = spec
            spec.save(spec_path)
        self.store = open_store(self.directory, engine=engine)
        self._jobs: Optional[List[Job]] = None

    def jobs(self) -> List[Job]:
        """The expanded grid, cached: re-expanding (and re-hashing) a
        100k-job grid every ``watch`` tick would dwarf the store read."""
        if self._jobs is None:
            self._jobs = self.spec.expand()
        return self._jobs

    # -- execution --------------------------------------------------------

    def run(
        self,
        backend: str = "serial",
        max_workers: Optional[int] = None,
        batch_size: Optional[int] = None,
        max_jobs: Optional[int] = None,
        mw_transport: str = "process",
        mw_affinity: bool = False,
        mw_max_retries: int = 2,
        async_mode: bool = False,
        max_inflight: Optional[int] = None,
        eval_batch: int = 1,
        flush_interval: float = 2.0,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        runner_id: Optional[str] = None,
        progress: Optional[ProgressCallback] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> CampaignReport:
        """Run (or resume) the pending jobs; see :class:`CampaignRunner`.

        ``telemetry`` defaults to :meth:`Telemetry.from_env` anchored at
        the campaign directory, so setting ``$REPRO_TELEMETRY`` (or the
        CLI's ``--telemetry``) makes the run append its event trace to
        ``<dir>/telemetry.jsonl`` with no further wiring.
        """
        if telemetry is None:
            telemetry = Telemetry.from_env(
                self.directory, runner=runner_id or default_runner_id()
            )
        runner = CampaignRunner(
            self.spec, self.store, backend=backend, max_workers=max_workers,
            batch_size=batch_size, mw_transport=mw_transport,
            mw_affinity=mw_affinity, mw_max_retries=mw_max_retries,
            async_mode=async_mode, max_inflight=max_inflight,
            eval_batch=eval_batch, flush_interval=flush_interval,
            lease_ttl=lease_ttl, runner_id=runner_id, telemetry=telemetry,
        )
        return runner.run(max_jobs=max_jobs, progress=progress)

    # -- maintenance ------------------------------------------------------

    def compact(self) -> CompactionStats:
        """Compact the result store (see :meth:`ResultStore.compact`)."""
        return self.store.compact()

    # -- inspection -------------------------------------------------------

    def status(self) -> dict:
        """Counts of done / failed / pending / claimed jobs, plus per-cell detail.

        ``claimed`` (unfinished jobs under a live lease) overlays, not
        partitions, the pending/failed counts; ``cells`` maps each grid
        cell to its own ``{"total", "done", "failed", "claimed"}``;
        ``engine`` names the store engine.
        """
        jobs = self.jobs()
        records = {r["job_id"]: r for r in self.store.records()}
        leases = self.store.leases()
        done = failed = claimed = 0
        cells: dict = {}
        for job in jobs:
            state = records.get(job.job_id, {}).get("status")
            is_done = state == STATUS_DONE
            is_failed = state == STATUS_FAILED
            is_claimed = not is_done and job.job_id in leases
            done += is_done
            failed += is_failed
            claimed += is_claimed
            cell = cells.setdefault(
                job.cell, {"total": 0, "done": 0, "failed": 0, "claimed": 0}
            )
            cell["total"] += 1
            cell["done"] += is_done
            cell["failed"] += is_failed
            cell["claimed"] += is_claimed
        return {
            "name": self.spec.name,
            "directory": str(self.directory),
            "n_jobs": len(jobs),
            "done": done,
            "failed": failed,  # failed jobs are retried on the next run
            "pending": len(jobs) - done - failed,
            "claimed": claimed,
            "engine": getattr(self.store, "engine", "jsonl"),
            "cells": cells,
        }

    def records(self) -> List[dict]:
        """All store records, deduplicated by job id (last record wins)."""
        return self.store.records()

    def summary(self) -> List[CellSummary]:
        """Per-cell aggregates over completed jobs (see :mod:`.aggregate`)."""
        return summarize(self.store.completed())

    def compare(self, label_a: str, label_b: str, **kwargs) -> PairedComparison:
        """Paired seed-for-seed comparison of two algorithm variants."""
        return compare_labels(self.store.completed(), label_a, label_b, **kwargs)
