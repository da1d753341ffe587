"""The ``process`` transport on the socket stack: forked workers on socketpairs.

A local fleet is read through the same selector as a tcp fleet, so its
master starts no thread, its workers notice a dead master by EOF, and a
worker that stops answering is caught by the heartbeat sweep instead of
stalling the fleet.
"""

import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

from repro.mw import MWDriver
from repro.mw.tcp import (
    DEFAULT_HEARTBEAT_INTERVAL,
    FLEET_JOIN_TIMEOUT_S,
    HEARTBEAT_TIMEOUT_INTERVALS,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")

needs_proc = pytest.mark.skipif(not os.path.isdir("/proc/self"),
                                reason="reads process states from /proc")


def square(work, ctx):
    return work * work


def rank_reporter(work, ctx):
    return ctx.rank


def _state(pid):
    """``pid``'s state letter from ``/proc`` (``None`` once it is reaped)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return None


def _running(pid):
    """Whether ``pid`` is a live process (an unreaped zombie has exited)."""
    return _state(pid) not in (None, "Z")


class TestProcessFleet:
    def test_master_starts_no_thread(self):
        before = threading.active_count()
        with MWDriver(square, n_workers=4, backend="process", seed=0) as driver:
            assert threading.active_count() == before
            tasks = [driver.submit(k) for k in range(12)]
            driver.wait_all(timeout=30)
            assert [t.result for t in tasks] == [k * k for k in range(12)]
            assert threading.active_count() == before
        assert threading.active_count() == before

    @needs_proc
    def test_workers_exit_when_the_master_is_killed(self):
        """Each forked worker closes the master's socket ends it inherited,
        so a SIGKILLed master's EOF reaches every worker."""
        script = textwrap.dedent("""
            from repro.mw import MWDriver

            def square(work, ctx):
                return work * work

            driver = MWDriver(square, n_workers=2, backend="process", seed=0)
            driver.submit(3)
            driver.wait_all(timeout=30)
            print(*(p.pid for p in driver._procs.values()), flush=True)
            while True:
                driver.pump(0.1)
        """)
        env = dict(os.environ, PYTHONPATH=SRC)
        master = subprocess.Popen([sys.executable, "-c", script], env=env,
                                  stdout=subprocess.PIPE, text=True)
        pids = []
        try:
            pids += [int(p) for p in master.stdout.readline().split()]
            assert len(pids) == 2 and all(_running(p) for p in pids)
            master.kill()
            master.wait(timeout=10)
            deadline = time.monotonic() + 10
            while any(_running(p) for p in pids) and time.monotonic() < deadline:
                time.sleep(0.05)
            orphans = [p for p in pids if _running(p)]
            assert not orphans, f"workers {orphans} outlived their master"
        finally:
            master.kill()
            master.wait(timeout=10)
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_stopped_worker_is_reported_dead_and_its_tasks_move(self):
        """A hung worker is caught by heartbeat silence: its pinned tasks are
        requeued to a live rank instead of stalling the fleet."""
        with MWDriver(rank_reporter, n_workers=2, backend="process", seed=0) as driver:
            victim = driver._procs[1].pid
            os.kill(victim, signal.SIGSTOP)
            try:
                start = time.monotonic()
                tasks = [driver.submit(None, affinity=1) for _ in range(2)]
                timeout = HEARTBEAT_TIMEOUT_INTERVALS * DEFAULT_HEARTBEAT_INTERVAL + 5
                driver.wait_all(timeout=timeout)
                assert time.monotonic() - start < timeout
                assert not driver._alive[1]
                assert [t.result for t in tasks] == [2, 2]
            finally:
                os.kill(victim, signal.SIGKILL)

    @needs_proc
    def test_stopped_worker_does_not_outlive_shutdown(self):
        """A SIGSTOPped worker never acts on SIGTERM; shutdown kills and
        reaps it within the join bound instead of leaving it stopped."""
        driver = MWDriver(square, n_workers=2, backend="process", seed=0)
        victim = driver._procs[1].pid
        os.kill(victim, signal.SIGSTOP)
        try:
            start = time.monotonic()
            driver.shutdown()
            assert time.monotonic() - start < FLEET_JOIN_TIMEOUT_S + 2.0
            assert _state(victim) is None, (
                f"worker {victim} left in state {_state(victim)}")
            assert not any(_running(p.pid) for p in driver._procs.values())
        finally:
            if _running(victim):
                os.kill(victim, signal.SIGKILL)
