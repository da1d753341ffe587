"""Tests for the TCP socket transport: framing, handshake, cross-host flows.

Workers run as in-process threads (same protocol as ``python -m repro
mw-worker``, minus the process boundary) so the suite stays fast; the
subprocess-level acceptance path is covered in test_campaign_tcp.py.
"""

import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.mw import MWDriver
from repro.mw.messages import (
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_RESULT,
    MSG_SHUTDOWN,
    MSG_TASK,
    MSG_WELCOME,
    Message,
    encode_message,
)
from repro.mw.transport import EVENT_DIED, EVENT_JOINED
from repro.mw.tcp import (
    PROTOCOL_VERSION,
    TcpMasterTransport,
    TcpWorkerEndpoint,
    recv_frame,
    run_worker,
    send_frame,
)
from repro.wire import MAX_FRAME_BYTES, CodecError, encode_frame


def square(work, ctx):
    return work * work


def slow_square(work, ctx):
    time.sleep(0.05)
    return work * work


def tcp_driver(executor, n_workers=2, **kwargs):
    """A driver listening on an ephemeral localhost port, fast heartbeats."""
    options = {"heartbeat_interval": 0.1}
    options.update(kwargs.pop("transport_options", {}))
    return MWDriver(
        executor,
        n_workers=n_workers,
        backend="tcp://127.0.0.1:0",
        transport_options=options,
        **kwargs,
    )


def start_worker(address, executor, **kwargs):
    """One endpoint worker on a thread; returns (thread, result-holder)."""
    holder = {}

    def run():
        try:
            holder["stats"] = TcpWorkerEndpoint(address, executor=executor, **kwargs).run()
        except Exception as exc:  # noqa: BLE001 - surfaced by the test
            holder["error"] = exc

    t = threading.Thread(target=run, daemon=True)
    t.start()
    return t, holder


class TestUrlParsing:
    def test_worker_rejects_ephemeral_master_port(self):
        with pytest.raises(ValueError, match="explicit master port"):
            TcpWorkerEndpoint("tcp://127.0.0.1:0")


class TestSocketFraming:
    def test_roundtrip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            msg = Message(tag=MSG_TASK, sender=0,
                          payload={"task_id": 3, "work": [1.0, 2.0]})
            send_frame(a, msg)
            assert recv_frame(b) == msg
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_truncated_frame_raises_codec_error(self):
        """EOF mid-frame must raise, never hang or return partial data."""
        a, b = socket.socketpair()
        try:
            frame = encode_frame(encode_message(Message(tag=MSG_TASK, sender=0,
                                                        payload={"x": 1})))
            a.sendall(frame[:-3])
            a.close()
            with pytest.raises(CodecError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_frame_header_raises_codec_error(self):
        import struct

        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", 2**30 + 1) + b"xxxx")
            with pytest.raises(CodecError, match="exceeds"):
                recv_frame(b)
        finally:
            a.close()
            b.close()


class TestEndToEnd:
    def test_two_workers_complete_all_tasks(self):
        with tcp_driver(square) as driver:
            tasks = [driver.submit(i) for i in range(10)]
            addr = driver.transport.address
            t1, h1 = start_worker(addr, square)
            t2, h2 = start_worker(addr, square)
            driver.wait_all(timeout=30)
            assert [t.result for t in tasks] == [i * i for i in range(10)]
            assert driver.stats()["live_workers"] >= 1
        # master shutdown fans out to both workers; they exit cleanly
        t1.join(timeout=10)
        t2.join(timeout=10)
        assert not t1.is_alive() and not t2.is_alive()
        executed = [h.get("stats", {}).get("executed", 0) for h in (h1, h2)]
        assert sum(executed) == 10

    def test_worker_joining_after_wait_all_starts_receives_work(self):
        """Late joiners: the master waits, a worker shows up, work flows."""
        with tcp_driver(square, n_workers=1) as driver:
            tasks = [driver.submit(i) for i in range(3)]
            addr = driver.transport.address

            def late_join():
                time.sleep(0.4)
                start_worker(addr, square)

            threading.Thread(target=late_join, daemon=True).start()
            driver.wait_all(timeout=30)
            assert [t.result for t in tasks] == [0, 1, 4]

    def test_worker_errors_are_retried_then_failed(self):
        def failing(work, ctx):
            raise RuntimeError("boom")

        with tcp_driver(failing, n_workers=1, max_retries=1) as driver:
            task = driver.submit(1)
            start_worker(driver.transport.address, failing)
            driver.wait_all(timeout=30)
            assert task.failed
            assert "boom" in task.error
            assert task.attempts == 2

    def test_worker_rng_streams_match_inproc(self):
        """Rank seed streams travel the wire intact (entropy + spawn key)."""
        def draw(work, ctx):
            return float(ctx.rng.normal())

        def inproc_draws():
            with MWDriver(draw, n_workers=2, backend="inproc", seed=5) as d:
                ts = [d.submit(None, affinity=r) for r in (1, 2)]
                d.wait_all()
                return sorted(t.result for t in ts)

        with tcp_driver(draw, seed=5) as driver:
            t1, _ = start_worker(driver.transport.address, draw)
            t2, _ = start_worker(driver.transport.address, draw)
            # both ranks must be connected before dispatch so each affinity
            # lands on its own rank (otherwise the draws come from one stream)
            deadline = time.monotonic() + 10
            while len(driver.transport.stats()["connected"]) < 2 \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            tasks = [driver.submit(None, affinity=r) for r in (1, 2)]
            driver.wait_all(timeout=30)
            assert sorted(t.result for t in tasks) == inproc_draws()


class TestCrashRecovery:
    def test_worker_crash_mid_task_triggers_requeue(self):
        """A worker whose connection drops mid-task has it requeued."""
        with tcp_driver(slow_square, n_workers=2) as driver:
            addr = driver.transport.address
            tasks = [driver.submit(i) for i in range(6)]

            # a misbehaving worker: handshakes, reads one task, drops dead
            def crashing_worker():
                sock = socket.create_connection(
                    (driver.transport.host, driver.transport.port), timeout=5)
                send_frame(sock, Message(tag=MSG_HELLO, sender=0,
                                         payload={"version": PROTOCOL_VERSION}))
                welcome = recv_frame(sock)
                assert welcome.tag == MSG_WELCOME
                task = recv_frame(sock)  # receive work, never answer
                assert task.tag == MSG_TASK
                sock.close()  # crash

            crash = threading.Thread(target=crashing_worker, daemon=True)
            crash.start()
            deadline = time.monotonic() + 10
            while not driver.transport.stats()["connected"] \
                    and time.monotonic() < deadline:
                time.sleep(0.02)
            survivor, _ = start_worker(addr, slow_square)
            driver.wait_all(timeout=30)
            crash.join(timeout=10)
            assert all(t.done for t in tasks)
            assert [t.result for t in tasks] == [i * i for i in range(6)]
            # the dropped task was re-attempted
            assert any(t.attempts > 1 for t in tasks)

    def test_silent_worker_is_presumed_dead_by_heartbeat_timeout(self):
        """A connected-but-silent peer is swept after the heartbeat window."""
        with tcp_driver(square, n_workers=2,
                        transport_options={"heartbeat_interval": 0.05,
                                           "heartbeat_timeout": 0.3}) as driver:
            addr = driver.transport.address
            tasks = [driver.submit(i) for i in range(4)]

            # handshake, then go completely silent (no heartbeats, no reads)
            sock = socket.create_connection(
                (driver.transport.host, driver.transport.port), timeout=5)
            send_frame(sock, Message(tag=MSG_HELLO, sender=0,
                                     payload={"version": PROTOCOL_VERSION}))
            assert recv_frame(sock).tag == MSG_WELCOME
            try:
                start_worker(addr, square)
                driver.wait_all(timeout=30)
                assert [t.result for t in tasks] == [i * i for i in range(4)]
            finally:
                sock.close()

    def test_replacement_worker_takes_over_the_dead_rank(self):
        """A rank freed by a dead worker is reissued to the next joiner —
        the paper's "restarted on the same processors"."""
        with tcp_driver(square, n_workers=1) as driver:
            addr = driver.transport.address
            task = driver.submit(3)
            t1, h1 = start_worker(addr, square)
            driver.wait_all(timeout=30)
            assert task.result == 9
            rank1 = None
            # tear the first worker down by closing from the master side
            with driver.transport._lock:
                sock = driver.transport._conns[1]
            sock.close()
            t1.join(timeout=10)
            rank1 = h1["stats"]["rank"] if "stats" in h1 else None
            # wait until the master notices the death
            deadline = time.monotonic() + 10
            while driver.transport.stats()["connected"] and time.monotonic() < deadline:
                driver._poll_transport()
                time.sleep(0.05)
            t2, h2 = start_worker(addr, square)
            task2 = driver.submit(4)
            driver.wait_all(timeout=30)
            assert task2.result == 16
            assert driver.transport.stats()["connected"] == [1]
            assert rank1 == 1


class TestShutdownAndRefusal:
    def test_master_shutdown_closes_all_sockets(self):
        driver = tcp_driver(square)
        addr = driver.transport.address
        t1, h1 = start_worker(addr, square)
        t2, h2 = start_worker(addr, square)
        deadline = time.monotonic() + 10
        while len(driver.transport.stats()["connected"]) < 2 \
                and time.monotonic() < deadline:
            time.sleep(0.05)
        driver.shutdown()
        t1.join(timeout=10)
        t2.join(timeout=10)
        assert not t1.is_alive() and not t2.is_alive()
        assert h1["stats"]["executed"] == 0 and h2["stats"]["executed"] == 0
        # every master-side socket is gone
        assert driver.transport.stats()["connected"] == []
        # (no "connect now fails" probe here: a connect to a closed ephemeral
        # port from the same host can TCP-self-connect and appear open)

    def test_excess_worker_is_turned_away(self):
        with tcp_driver(square, n_workers=1) as driver:
            addr = driver.transport.address
            t1, _ = start_worker(addr, square)
            deadline = time.monotonic() + 10
            while not driver.transport.stats()["connected"] \
                    and time.monotonic() < deadline:
                time.sleep(0.05)
            stats = run_worker(addr, executor=square, connect_timeout=5)
            assert stats["refused"]
            assert stats["rank"] is None

    def test_version_mismatch_is_refused(self):
        """A version-1 worker cannot decode the version-2 list tags, so it
        must be refused at the hello, not crash on its first task frame."""
        assert PROTOCOL_VERSION == 2
        with tcp_driver(square, n_workers=1) as driver:
            for version in (999, 1):
                sock = socket.create_connection(
                    (driver.transport.host, driver.transport.port), timeout=5)
                try:
                    send_frame(sock, Message(tag=MSG_HELLO, sender=0,
                                             payload={"version": version}))
                    reply = recv_frame(sock)
                    assert reply.tag == MSG_SHUTDOWN
                    assert reply.payload["reason"] == "protocol version mismatch"
                finally:
                    sock.close()

    def test_worker_without_any_executor_errors_cleanly(self):
        """No local override and no master wire spec -> a loud ValueError."""
        unshippable = lambda work, ctx: work  # noqa: E731 - deliberately unimportable

        with tcp_driver(unshippable, n_workers=1) as driver:
            with pytest.raises(ValueError, match="--executor"):
                run_worker(driver.transport.address, connect_timeout=5)

    def test_connect_timeout_raises_oserror(self):
        # nothing listens on this port (bound-then-closed)
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(OSError):
            run_worker(f"tcp://127.0.0.1:{port}", executor=square,
                       connect_timeout=0.5)


class TestCapabilityHandshake:
    def test_worker_caps_declared_in_hello_reach_the_master(self):
        """A worker's --caps vector rides its hello and gates placement:
        constrained tasks land only on workers whose caps cover them."""

        def rank_reporter(work, ctx):
            return ctx.rank

        with tcp_driver(rank_reporter, n_workers=2) as driver:
            addr = driver.transport.address
            t1, h1 = start_worker(addr, rank_reporter, caps=["md", "fast"])
            t2, h2 = start_worker(addr, rank_reporter)
            constrained = [driver.submit(None, constraints=["md"])
                           for _ in range(4)]
            plain = [driver.submit(None) for _ in range(4)]
            driver.wait_all(timeout=30)
            # whichever rank the caps worker got, all constrained tasks
            # ran there — and its caps surface in stats/utilization
            caps_by_rank = driver.transport.stats()["caps"]
            assert list(caps_by_rank.values()) == [["fast", "md"]]
            (md_rank,) = caps_by_rank
            assert {t.result for t in constrained} == {md_rank}
            assert all(t.done for t in plain)
            rows = {r["rank"]: r["caps"] for r in driver.utilization()}
            assert rows[md_rank] == ["fast", "md"]
        t1.join(timeout=10)
        t2.join(timeout=10)

    def test_capless_worker_declares_nothing(self):
        """An old-style worker (no caps) still handshakes fine — the caps
        field is additive and absent means the empty vector."""
        with tcp_driver(square, n_workers=1) as driver:
            addr = driver.transport.address
            t, holder = start_worker(addr, square)
            task = driver.submit(3)
            driver.wait_all(timeout=30)
            assert task.result == 9
            assert driver.transport.stats()["caps"] == {}
            assert driver.worker_caps(1) == frozenset()
        t.join(timeout=10)


@pytest.fixture
def master():
    """A started master transport on an ephemeral port (no driver)."""
    transport = TcpMasterTransport(
        "tcp://127.0.0.1:0", square, n_workers=4,
        seed_seqs=np.random.SeedSequence(0).spawn(4),
        heartbeat_interval=0.05, heartbeat_timeout=0.25,
    )
    transport.start()
    yield transport
    transport.close()


def raw_worker(transport):
    """Handshake a bare socket (no worker threads); returns (sock, rank)."""
    sock = socket.create_connection((transport.host, transport.port), timeout=5)
    send_frame(sock, Message(tag=MSG_HELLO, sender=0,
                             payload={"version": PROTOCOL_VERSION}))
    welcome = recv_frame(sock)
    assert welcome.tag == MSG_WELCOME
    return sock, welcome.payload["rank"]


def frame(message):
    return encode_frame(encode_message(message))


def result(rank, task_id):
    return Message(tag=MSG_RESULT, sender=rank,
                   payload={"task_id": task_id, "result": task_id * task_id})


def poll_until(transport, predicate, timeout=5.0):
    """Poll events until ``predicate(events so far)`` holds; returns them."""
    events = []
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        events += transport.poll()
        if predicate(events):
            return events
        time.sleep(0.01)
    raise AssertionError(f"condition not met; events: {events}")


class TestSelectorReceive:
    """The master reads every worker on the driver's thread via a selector."""

    def test_frame_split_across_writes_arrives_whole(self, master):
        sock, rank = raw_worker(master)
        try:
            data = frame(result(rank, 7))
            sock.sendall(data[:3])  # part of the length prefix only
            assert master.recv(timeout=0.2) is None
            sock.sendall(data[3:10])
            assert master.recv(timeout=0.2) is None
            sock.sendall(data[10:])
            reply = master.recv(timeout=5)
            assert reply == result(rank, 7)
        finally:
            sock.close()

    def test_two_frames_in_one_write_arrive_in_order(self, master):
        sock, rank = raw_worker(master)
        try:
            heartbeat = frame(Message(tag=MSG_HEARTBEAT, sender=rank))
            sock.sendall(frame(result(rank, 1)) + heartbeat + frame(result(rank, 2)))
            assert master.recv(timeout=5) == result(rank, 1)
            assert master.recv(timeout=5) == result(rank, 2)
            assert master.recv(timeout=0) is None
        finally:
            sock.close()

    @pytest.mark.parametrize("garbage", [
        struct.pack(">I", 5) + b"hello",               # undecodable payload
        struct.pack(">I", MAX_FRAME_BYTES + 1),        # oversized length prefix
    ], ids=["garbage", "oversized"])
    def test_bad_stream_drops_only_that_rank(self, master, garbage):
        bad, bad_rank = raw_worker(master)
        good, good_rank = raw_worker(master)
        try:
            poll_until(master, lambda ev: len(ev) == 2)  # both joined
            bad.sendall(garbage)
            events = poll_until(master, lambda ev: ev)
            assert events == [(EVENT_DIED, bad_rank)]
            assert master.stats()["connected"] == [good_rank]
            # the surviving rank still gets tasks and is still heard
            master.send(good_rank, Message(tag=MSG_TASK, sender=0,
                                           payload={"task_id": 3, "work": 3}))
            assert recv_frame(good).payload == {"task_id": 3, "work": 3}
            good.sendall(frame(result(good_rank, 3)))
            assert master.recv(timeout=5) == result(good_rank, 3)
            assert master.poll() == []
        finally:
            bad.close()
            good.close()

    def test_unread_heartbeats_keep_a_worker_alive(self, master):
        """Heartbeats that queued in the kernel while the driver was busy
        count at the next poll: no death after 2x the timeout unread."""
        t, holder = start_worker(master.address, square)
        poll_until(master, lambda ev: ev == [(EVENT_JOINED, 1)])
        time.sleep(2 * master.heartbeat_timeout)  # driver "busy": no recv/poll
        assert master.poll() == []
        assert master.stats()["connected"] == [1]
        master.close()
        t.join(timeout=10)
        assert holder["stats"]["rank"] == 1

    def test_thread_count_does_not_grow_with_workers(self, master):
        def settled(n_connected):
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                master.poll()
                handshaking = any(t.name == "mw-tcp-handshake"
                                  for t in threading.enumerate())
                if len(master.stats()["connected"]) == n_connected and not handshaking:
                    return threading.active_count()
                time.sleep(0.01)
            raise AssertionError(f"{n_connected} workers did not settle")

        socks = [raw_worker(master)[0]]
        try:
            one = settled(1)
            socks += [raw_worker(master)[0] for _ in range(3)]
            assert settled(4) == one
        finally:
            for sock in socks:
                sock.close()

    def test_close_is_prompt(self, master):
        t, _ = start_worker(master.address, square)
        sock, _rank = raw_worker(master)
        try:
            poll_until(master, lambda ev: len(ev) == 2)
            start = time.monotonic()
            master.close()
            assert time.monotonic() - start < 1.0
            assert recv_frame(sock).tag == MSG_SHUTDOWN
        finally:
            sock.close()
        t.join(timeout=10)
        assert not t.is_alive()
