"""Tests for the Transport abstraction extracted from MWDriver.

The driver's behavioral contract across the three same-host transports
(deterministic inproc ordering, affinity, requeue, per-worker seeding) is
covered by test_mw_driver.py; this file tests the transport layer itself —
the factory, the event protocol, and the executor wire specs that let
cross-host workers import the master's executor by name.
"""

import numpy as np
import pytest

from repro.mw import MWDriver
from repro.mw.messages import MSG_RESULT, MSG_TASK, Message
from repro.mw.tcp import ProcessTransport
from repro.mw.transport import (
    EVENT_DIED,
    InprocTransport,
    ThreadedTransport,
    Transport,
    executor_wire_spec,
    is_tcp_spec,
    make_transport,
    resolve_executor,
    spec_of,
)


# module-level callables (importable by wire spec, picklable for process)
def square(work, ctx):
    return work * work


def _seqs(n, seed=0):
    return np.random.SeedSequence(seed).spawn(n)


class TestFactory:
    def test_names_map_to_classes(self):
        for spec, cls in [
            ("inproc", InprocTransport),
            ("threaded", ThreadedTransport),
            ("process", ProcessTransport),
        ]:
            t = make_transport(spec, executor=square, n_workers=2, seed_seqs=_seqs(2))
            assert isinstance(t, cls)
            assert isinstance(t, Transport)

    def test_unknown_spec_rejected(self):
        with pytest.raises(ValueError, match="backend must be one of"):
            make_transport("carrier-pigeon", executor=square, n_workers=1,
                           seed_seqs=_seqs(1))

    def test_same_host_transports_take_only_worker_caps(self):
        with pytest.raises(ValueError, match="accepts only the worker_caps"):
            make_transport("inproc", executor=square, n_workers=1,
                           seed_seqs=_seqs(1), heartbeat_interval=1.0)

    def test_same_host_transports_accept_worker_caps(self):
        t = make_transport("inproc", executor=square, n_workers=2,
                           seed_seqs=_seqs(2), worker_caps={1: ["md", "fast"]})
        assert t.worker_caps(1) == frozenset({"md", "fast"})
        assert t.worker_caps(2) == frozenset()

    def test_tcp_spec_detection(self):
        assert is_tcp_spec("tcp://127.0.0.1:5555")
        assert not is_tcp_spec("inproc")
        assert not is_tcp_spec("udp://x:1")

    def test_tcp_spec_builds_tcp_transport(self):
        from repro.mw.tcp import TcpMasterTransport

        t = make_transport("tcp://127.0.0.1:0", executor=square, n_workers=2,
                           seed_seqs=_seqs(2))
        assert isinstance(t, TcpMasterTransport)  # not started; nothing to close


class TestInprocTransport:
    def test_send_executes_and_buffers_reply(self):
        t = make_transport("inproc", executor=square, n_workers=1, seed_seqs=_seqs(1))
        assert t.synchronous and not t.dynamic
        assert t.initially_live() == {1}
        t.send(1, Message(tag=MSG_TASK, sender=0,
                          payload={"task_id": 7, "work": 3}))
        reply = t.recv(timeout=0)
        assert reply.tag == MSG_RESULT
        assert reply.payload == {"task_id": 7, "result": 9}
        assert t.recv(timeout=0) is None

    def test_poll_reports_nothing(self):
        t = make_transport("inproc", executor=square, n_workers=1, seed_seqs=_seqs(1))
        assert t.poll() == []


def exit_on_two(work, ctx):
    if work == 2:
        raise SystemExit(1)  # escapes MWWorker.execute: kills the thread
    return work


class TestThreadedTransport:
    # the worker thread's death is the scenario, not a stray failure
    @pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_dead_worker_thread_fails_its_task(self):
        with MWDriver(exit_on_two, n_workers=1, backend="threaded",
                      max_retries=0) as driver:
            ok = driver.submit(1)
            driver.wait_all(timeout=10)
            lost = driver.submit(2)
            driver.wait_all(timeout=10)
        assert ok.result == 1
        assert lost.failed and lost.error == "worker died"
        assert driver.transport.poll() == []  # reported once


class TestProcessTransport:
    def test_dead_worker_reported_exactly_once(self):
        import os
        import signal
        import time

        t = ProcessTransport(square, _seqs(2))
        t.start()
        try:
            os.kill(t.procs[1].pid, signal.SIGKILL)
            deadline = time.monotonic() + 10
            events = []
            while not events and time.monotonic() < deadline:
                events = t.poll()
                time.sleep(0.05)
            assert events == [(EVENT_DIED, 1)]
            assert t.poll() == []  # not re-reported
        finally:
            t.close()

    def test_worker_streams_are_independent(self):
        """Process workers reconstruct their spawned stream (entropy AND
        spawn key), so two ranks never share noise draws."""

        with MWDriver(draw_normal, n_workers=2, backend="process", seed=3) as driver:
            a = driver.submit(None, affinity=1)
            b = driver.submit(None, affinity=2)
            driver.wait_all(timeout=30)
            assert a.result != b.result

    def test_process_streams_match_inproc_streams(self):
        """Same root seed -> same per-rank streams on every transport."""

        def first_draws(backend):
            with MWDriver(draw_normal, n_workers=2, backend=backend, seed=11) as d:
                tasks = [d.submit(None, affinity=r) for r in (1, 2)]
                d.wait_all(timeout=30)
                return [t.result for t in tasks]

        assert first_draws("process") == first_draws("inproc")


def draw_normal(work, ctx):
    return float(ctx.rng.normal())


class TestExecutorWireSpec:
    def test_module_level_executor_round_trips(self):
        payload = executor_wire_spec(square)
        assert payload == {"kind": "executor", "spec": f"{__name__}:square"}
        assert resolve_executor(payload) is square

    def test_unimportable_callables_have_no_spec(self):
        assert spec_of(lambda x: x) is None
        assert executor_wire_spec(lambda w, c: w) is None

    def test_instance_executor_has_no_generic_spec(self):
        class Exec:
            def __call__(self, work, ctx):
                return work

        assert executor_wire_spec(Exec()) is None

    def test_malformed_payloads_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            resolve_executor("not-a-dict")
        with pytest.raises(ValueError, match="module:attr"):
            resolve_executor({"kind": "executor", "spec": "no-colon"})
        with pytest.raises(ValueError, match="unknown executor kind"):
            resolve_executor({"kind": "teleport", "spec": "os:getcwd"})

    def test_missing_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError):
            resolve_executor({"kind": "executor", "spec": "os:not_a_thing"})


class TestDriverTransportInjection:
    def test_prebuilt_transport_instance_is_used(self):
        t = InprocTransport(square, _seqs(2))
        with MWDriver(square, n_workers=2, transport=t) as driver:
            assert driver.transport is t
            task = driver.submit(5)
            driver.wait_all()
            assert task.result == 25
