"""Hooks on the program's layers, installed from outside (no ``src/`` edits).

:class:`Probe` is always on.  It records what the end-to-end metrics and
the output checks need and nothing more: when each job's claim was
granted, when its record became durable and how often it was recorded,
when the first task went out, and the mw driver's utilization at
shutdown.  It also launches the round's worker fleet as soon as a tcp
master transport reports its bound port-0 address.

:func:`install_layer_trace` wraps the public functions of every layer in
spans for a traced round; :class:`LayerState` holds the per-job
timestamps and scheduler decisions those wrappers collect.
"""

from __future__ import annotations

import functools
import time
import weakref
from collections import Counter
from typing import Dict, List, Optional, Tuple

from perfbench.spans import Patches, Tracer
from repro.campaign.backends.netstore import NetworkStoreBackend
from repro.campaign.backends.sqlite import SQLiteStoreBackend
from repro.campaign.runner import CampaignRunner
from repro.campaign.scheduler import CampaignScheduler, MultiCampaignMaster
from repro.core.async_driver import AsyncEvalDriver
from repro.core.base import TELL_DUPLICATE, TELL_EXTRA, TELL_STALE, SimplexOptimizer
from repro.mw import tcp
from repro.mw.driver import MWDriver
from repro.mw.messages import MSG_TASK
from repro.mw.tcp import TcpMasterTransport

#: The store engines the workloads use (local sqlite and ``store://``).
STORE_ENGINES = (SQLiteStoreBackend, NetworkStoreBackend)


class Probe:
    """Always-on, per-round bookkeeping for the end-to-end metrics.

    Set :attr:`fleet` and :attr:`executor` before a round: the wrapped
    :meth:`TcpMasterTransport.start` spawns ``n_workers`` workers running
    ``executor`` against the bound address and waits until they joined.
    """

    def __init__(self) -> None:
        self.patches = Patches()
        self.fleet = None
        self.executor: Optional[str] = None
        self.reset()

    def reset(self) -> None:
        """Forget the previous round."""
        self.claimed: Dict[str, float] = {}
        self.recorded: Dict[str, float] = {}
        self.record_counts: Counter = Counter()
        self.first_claim: Optional[float] = None
        self.cpu_first_claim = 0.0
        self.last_record: Optional[float] = None
        self.cpu_last_record = 0.0
        self.first_dispatch: Optional[float] = None
        self.drivers: Dict[int, dict] = {}

    def install(self) -> None:
        for engine in STORE_ENGINES:
            self.patches.wrap(engine, "claim", self._claim)
            self.patches.wrap(engine, "record_many", self._record_many)
        self.patches.wrap(TcpMasterTransport, "start", self._start)
        self.patches.wrap(TcpMasterTransport, "send", self._send)
        self.patches.wrap(MWDriver, "shutdown", self._shutdown)

    def uninstall(self) -> None:
        self.patches.restore()

    def _claim(self, claim):
        probe = self

        @functools.wraps(claim)
        def wrapper(store, job_ids, *args, **kwargs):
            if probe.first_claim is None:
                probe.first_claim = time.perf_counter()
                probe.cpu_first_claim = time.process_time()
            granted = claim(store, job_ids, *args, **kwargs)
            now = time.perf_counter()
            for job_id in granted:
                probe.claimed.setdefault(job_id, now)
            return granted

        return wrapper

    def _record_many(self, record_many):
        probe = self

        @functools.wraps(record_many)
        def wrapper(store, records, *args, **kwargs):
            records = list(records)
            result = record_many(store, records, *args, **kwargs)
            now = time.perf_counter()
            for rec in records:
                job_id = rec["job_id"]
                probe.record_counts[job_id] += 1
                probe.recorded.setdefault(job_id, now)
            if records:
                probe.last_record = now
                probe.cpu_last_record = time.process_time()
            return result

        return wrapper

    def _start(self, start):
        probe = self

        @functools.wraps(start)
        def wrapper(transport):
            start(transport)
            if probe.fleet is not None:
                probe.fleet.spawn_workers(transport.address, transport.n_workers,
                                          probe.executor)
                probe.fleet.wait_joined(transport, transport.n_workers)

        return wrapper

    def _send(self, send):
        probe = self

        @functools.wraps(send)
        def wrapper(transport, rank, message):
            if probe.first_dispatch is None and message.tag == MSG_TASK:
                probe.first_dispatch = time.perf_counter()
            return send(transport, rank, message)

        return wrapper

    def _shutdown(self, shutdown):
        probe = self

        @functools.wraps(shutdown)
        def wrapper(driver):
            probe.drivers[id(driver)] = {
                "utilization": driver.utilization(),
                "requeues": sum(max(0, task.attempts - 1)
                                for task in driver.tasks.values()),
            }
            return shutdown(driver)

        return wrapper


class LayerState:
    """What the layer wrappers collect besides span totals, per round."""

    def __init__(self) -> None:
        self.finished: Dict[str, float] = {}       # job id -> on_finished time
        self.enqueued: Dict[str, float] = {}       # job id -> scheduler enqueue
        self.queue_waits: List[float] = []
        self.dispatches: List[Tuple[str, bool]] = []
        self.weights: Dict[str, float] = {}
        # AsyncEvalDriver -> its stats after the previous run() call
        self.run_stats: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def reset_round(self) -> None:
        """Per-job timestamps are per round; waits and dispatches pool."""
        self.finished = {}
        self.enqueued = {}


def install_layer_trace(tracer: Tracer, state: LayerState) -> None:
    """Wrap every layer's public calls in spans (undo: ``tracer.uninstall``).

    Span names are ``<layer>.<call>``; :data:`perfbench.report.LAYERS`
    maps the prefixes to layers.  ``runner.run`` and ``master.serve`` are
    the entry points whose self time no layer explains; ``setup.fleet``
    and ``teardown.shutdown`` bracket work outside the steady state.
    """
    clock = tracer.clock
    patches = tracer.patches

    def count_statuses(statuses):
        for status in statuses:
            tracer.count("core.tell.statuses")
            if status == TELL_EXTRA:
                tracer.count("core.tell.extra")
            elif status in (TELL_STALE, TELL_DUPLICATE):
                tracer.count("core.tell.stale")

    # master entry points, fleet launch and teardown
    tracer.wrap(CampaignRunner, "run", "runner.run")
    tracer.wrap(MultiCampaignMaster, "serve", "master.serve")
    tracer.wrap(TcpMasterTransport, "start", "setup.fleet")
    tracer.wrap(MWDriver, "shutdown", "teardown.shutdown")

    # repro.core: the optimizers' ask/tell seam
    tracer.wrap(SimplexOptimizer, "ask", "core.ask")
    tracer.wrap(SimplexOptimizer, "tell", "core.tell",
                on_return=lambda status, args, kwargs: count_statuses([status]))
    tracer.wrap(SimplexOptimizer, "tell_many", "core.tell",
                on_return=lambda statuses, args, kwargs: count_statuses(statuses))

    # repro.core.async_driver, plus the runner's on_finished callback.  One
    # driver serves every claimed batch and its stats are cumulative, so
    # each run adds only what grew since that driver's previous run.
    def add_run_stats(stats, args, kwargs):
        seen = state.run_stats.get(args[0], {})
        for key in ("submitted", "frames"):
            tracer.count(f"async_driver.{key}", stats[key] - seen.get(key, 0))
        state.run_stats[args[0]] = dict(stats)

    def make_run(run):
        def run_with_finish_times(driver, sources, on_finished):
            def finished(src, result, error):
                state.finished[src.key] = clock()
                on_finished(src, result, error)

            return run(driver, sources,
                       tracer.traced("runner.on_finished", finished))

        return tracer.traced("async_driver.run",
                             functools.wraps(run)(run_with_finish_times),
                             on_return=add_run_stats)

    patches.wrap(AsyncEvalDriver, "run", make_run)

    # repro.mw.tcp: one span per frame; the header read is the idle wait
    tracer.wrap(tcp, "send_frame", "mw.tcp.send_frame")
    tracer.wrap(tcp, "recv_frame", "mw.tcp.recv_frame")
    tracer.wrap(tcp, "encode_frame", "mw.tcp.encode_frame",
                on_return=lambda data, args, kwargs:
                tracer.count("mw.tcp.bytes_out", len(data)))

    def make_recv_exact(recv_exact):
        waited = tracer.traced("mw.tcp.recv_wait", recv_exact)

        @functools.wraps(recv_exact)
        def recv_exact_split(sock, n, allow_eof=False):
            return (waited if allow_eof else recv_exact)(sock, n, allow_eof)

        return recv_exact_split

    patches.wrap(tcp, "recv_exact", make_recv_exact)

    # repro.mw.driver: submit, the pump beat, and the pump's reply wait
    tracer.wrap(MWDriver, "submit", "mw.driver.submit")
    tracer.wrap(MWDriver, "pump", "mw.driver.pump")
    tracer.wrap(TcpMasterTransport, "recv", "mw.driver.recv_wait")

    # repro.campaign.scheduler: queue wait per job and the DRR decisions
    def make_enqueue(enqueue):
        @functools.wraps(enqueue)
        def enqueue_timed(sched, name, item, *args, **kwargs):
            state.enqueued[item.job_id] = clock()
            return enqueue(sched, name, item, *args, **kwargs)

        return tracer.traced("scheduler.enqueue", enqueue_timed)

    def make_select(select):
        @functools.wraps(select)
        def select_timed(sched, *args, **kwargs):
            backlogged = all(t.depth() for t in sched.tenants.values())
            picked = select(sched, *args, **kwargs)
            if picked is not None:
                name, item = picked
                state.queue_waits.append(clock() - state.enqueued.pop(item.job_id))
                state.dispatches.append((name, backlogged))
                state.weights.update(
                    (t.name, t.weight) for t in sched.tenants.values()
                )
            return picked

        return tracer.traced("scheduler.select", select_timed)

    patches.wrap(CampaignScheduler, "enqueue", make_enqueue)
    patches.wrap(CampaignScheduler, "select", make_select)
    tracer.wrap(CampaignScheduler, "mark_complete", "scheduler.mark_complete")

    # repro.campaign.backends: every store call the master makes
    def count_claim(granted, args, kwargs):
        if granted:
            tracer.count("runner.claim_batches")

    for engine in STORE_ENGINES:
        tracer.wrap(engine, "claim", "store.claim", on_return=count_claim)
        tracer.wrap(engine, "record_many", "store.record_many",
                    on_return=lambda result, args, kwargs:
                    tracer.count("store.record_many.rows", len(args[1])))
        tracer.wrap(engine, "renew", "store.renew")
        tracer.wrap(engine, "release", "store.release")
        tracer.wrap(engine, "completed_ids", "store.completed_ids")

    def make_connect(connect):
        @functools.wraps(connect)
        def connect_counted(store):
            if store._ever_connected:
                tracer.count("store.reconnects")
            return connect(store)

        return connect_counted

    patches.wrap(NetworkStoreBackend, "_connect", make_connect)
