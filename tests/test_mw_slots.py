"""Two task slots per worker on the socket transports (``process``, ``tcp://``).

Each live rank holds one running task and one queued behind it, so the
master's turnaround overlaps execution.  Tasks go to the rank with the
fewest in flight, and a rank that dies with both slots full has both
tasks requeued.  The executors below block on a gate file, so a test
decides when the in-flight tasks may finish.
"""

import multiprocessing as mp
import os
import signal
import time
from pathlib import Path

import pytest

from repro.mw import MWDriver
from repro.mw.tcp import run_worker


def rank_reporter(work, ctx):
    return ctx.rank


def gated(work, ctx):
    """Wait for the gate file, then log ``key rank`` once and return the rank."""
    gate = Path(work["gate"])
    deadline = time.monotonic() + 30
    while not gate.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    with open(work["log"], "a") as log:
        log.write(f"{work['key']} {ctx.rank}\n")
    return ctx.rank


class Fleet:
    """A 2-rank driver on one backend, with the pid serving each rank."""

    def __init__(self, backend, executor):
        self.forked = {}
        if backend == "process":
            self.driver = MWDriver(executor, n_workers=2, backend="process", seed=0)
            self.pids = {rank: p.pid for rank, p in self.driver._procs.items()}
            return
        self.driver = MWDriver(executor, n_workers=2, backend="tcp://127.0.0.1:0",
                               seed=0, transport_options={"heartbeat_interval": 0.1})
        self.pids = {}
        address = self.driver.transport.address
        ctx = mp.get_context("fork")
        for rank in (1, 2):  # one at a time, so the pid of each rank is known
            proc = ctx.Process(target=run_worker, args=(address, executor), daemon=True)
            proc.start()
            self.forked[rank] = proc
            self.pids[rank] = proc.pid
            deadline = time.monotonic() + 30
            while len(self.driver.transport.stats()["connected"]) < rank:
                assert time.monotonic() < deadline, "worker never joined"
                time.sleep(0.01)
            self.driver.pump(0)  # apply the join

    def inflight(self):
        return {row["rank"]: row["inflight"] for row in self.driver.utilization()}

    def close(self):
        self.driver.shutdown()
        for proc in self.forked.values():
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=10)


@pytest.fixture(params=["process", "tcp"])
def backend(request):
    return request.param


def gated_work(tmp_path, n):
    gate = tmp_path / "gate"
    log = tmp_path / "executed.log"
    return gate, log, [{"gate": str(gate), "log": str(log), "key": k} for k in range(n)]


class TestTwoSlotsPerWorker:
    def test_two_workers_hold_four_tasks_at_once(self, backend, tmp_path):
        gate, log, works = gated_work(tmp_path, 5)
        fleet = Fleet(backend, gated)
        try:
            tasks = [fleet.driver.submit(work) for work in works]
            fleet.driver.pump(0)
            assert fleet.inflight() == {1: 2, 2: 2}
            assert fleet.driver.stats()["running"] == 4
            assert fleet.driver.stats()["pending"] == 1  # no third slot
            gate.touch()
            fleet.driver.wait_all(timeout=30)
            assert all(t.done for t in tasks)
        finally:
            gate.touch()
            fleet.close()

    def test_two_tasks_on_two_idle_workers_land_one_per_rank(self, backend):
        fleet = Fleet(backend, rank_reporter)
        try:
            tasks = [fleet.driver.submit(None) for _ in range(2)]
            fleet.driver.wait_all(timeout=30)
            assert sorted(t.result for t in tasks) == [1, 2]
        finally:
            fleet.close()

    def test_killed_worker_with_two_tasks_has_both_requeued(self, backend, tmp_path):
        gate, log, works = gated_work(tmp_path, 4)
        fleet = Fleet(backend, gated)
        try:
            tasks = [fleet.driver.submit(work) for work in works]
            fleet.driver.pump(0)
            assert fleet.inflight() == {1: 2, 2: 2}
            on_victim = [t for t in tasks if t.worker == 1]
            assert len(on_victim) == 2
            os.kill(fleet.pids[1], signal.SIGKILL)
            gate.touch()
            fleet.driver.wait_all(timeout=30)
            assert all(t.done for t in tasks)
            assert [t.result for t in on_victim] == [2, 2]
            assert [t.attempts for t in on_victim] == [2, 2]
            assert fleet.driver.stats()["live_workers"] == 1
        finally:
            gate.touch()
            fleet.close()
        # every task ran to completion exactly once, all on the survivor
        lines = sorted(log.read_text().split("\n")[:-1])
        assert lines == [f"{k} 2" for k in range(4)]
