"""The ``store://`` network store engine, over real sockets.

The parametrized ``store_backend`` fixture already drives the generic
store and chaos suites over an in-process :class:`StoreServer`; this
module covers what is *specific* to the network engine — the URL
grammar, wire-level error mapping, incremental reads, piggybacked lease
renewal, the reconnect-with-resume handshake (including a server killed
and restarted out from under a live CLI runner), the shared dial
backoff helper, and the two bugfixes that ride along (multi-thread
SQLite close, the lease heartbeat's latency-aware retry loop).
"""

import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.campaign import Campaign, CampaignSpec, JOB_AUDIT_ENV, open_store
from repro.campaign.backends import (
    NetworkStoreBackend,
    NetworkStoreError,
    StoreServer,
    parse_store_spec,
)
from repro.campaign.backends import netstore
from repro.campaign.backends.netstore import STORE_PROTOCOL_VERSION, is_store_url
from repro.campaign.backends.sqlite import SQLiteStoreBackend
from repro.campaign.runner import _LeaseHeartbeat
from repro.campaign.store import ResultStore
from repro.telemetry import Telemetry
from repro import wire
from repro.wire import MAX_FRAME_BYTES, dial_with_backoff, encode_frame, read_frame

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture
def served(tmp_path):
    """An in-process server over a sqlite backend + a client factory."""
    backend = SQLiteStoreBackend(tmp_path / "served")
    server = StoreServer(backend, listen="127.0.0.1:0")
    server.start()
    clients = []

    def connect(**options):
        client = NetworkStoreBackend(server.address, **options)
        clients.append(client)
        return client

    connect.server = server
    connect.backend = backend
    yield connect
    for client in clients:
        client.close()
    server.close()
    backend.close()


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestUrlGrammar:
    def test_is_store_url(self):
        assert is_store_url("store://h:1")
        assert not is_store_url("jsonl")
        assert not is_store_url(None)

    def test_spec_round_trips_whole(self):
        assert parse_store_spec("store://h:9090") == "store://h:9090"

    def test_client_rejects_port_zero(self):
        with pytest.raises(ValueError, match="explicit port"):
            NetworkStoreBackend("store://127.0.0.1:0")


class TestWireParity:
    """The client behaves like the local engine it fronts."""

    def test_full_contract_matches_local_sqlite(self, served, tmp_path):
        local = SQLiteStoreBackend(tmp_path / "local")
        remote = served()
        for store in (local, remote):
            assert store.claim(["a", "b", "c"], "r1", ttl=60) == ["a", "b", "c"]
            store.record_many([
                {"job_id": "a", "status": "done", "result": {"v": 1}},
                {"job_id": "b", "status": "failed", "error": "boom"},
            ])
            store.release(["c"], "r1")
        assert remote.counts() == local.counts()
        assert remote.completed_ids() == local.completed_ids()
        assert remote.records() == local.records()
        assert set(remote.leases()) == set(local.leases()) == set()
        assert len(remote) == len(local) == 2
        stats = remote.compact()
        assert stats.n_records_after == 2
        local.close()

    def test_engine_identifiers(self, served):
        client = served()
        assert client.engine == "store"
        assert client.metrics_engine == "netstore"
        assert client.path == served.server.address

    def test_returned_records_are_isolated_copies(self, served):
        client = served()
        client.record({"job_id": "a", "status": "done", "result": {"v": 1}})
        client.records()[0]["result"]["v"] = 999
        assert client.records()[0]["result"]["v"] == 1

    def test_incremental_reads_across_clients(self, served):
        reader, writer = served(), served()
        writer.record({"job_id": "a", "status": "done"})
        assert [r["job_id"] for r in reader.records()] == ["a"]
        stamp = reader._stamp
        assert stamp > 0  # the sqlite backing engine is stamp-capable
        writer.record_many([{"job_id": "b", "status": "done"},
                            {"job_id": "a", "status": "failed"}])
        records = {r["job_id"]: r for r in reader.records()}
        assert set(records) == {"a", "b"}
        assert records["a"]["status"] == "failed"  # update folded in
        assert reader._stamp > stamp

    def test_full_read_fallback_for_stampless_backend(self, tmp_path):
        backend = ResultStore(tmp_path / "results.jsonl")  # no records_since
        server = StoreServer(backend)
        server.start()
        try:
            client = NetworkStoreBackend(server.address)
            client.record({"job_id": "a", "status": "done"})
            client.record({"job_id": "b", "status": "done"})
            assert {r["job_id"] for r in client.records()} == {"a", "b"}
            assert client._stamp == 0  # full replace, no stamp to trust
            client.close()
        finally:
            server.close()

    def test_malformed_record_raises_valueerror_client_side(self, served):
        with pytest.raises(ValueError, match="job_id"):
            served().record({"status": "done"})

    def test_server_side_errors_come_back_by_kind(self, served):
        client = served()
        # bypass client-side validation to prove the *server's* ValueError
        # crosses the wire as a ValueError, not a transport failure
        with pytest.raises(ValueError):
            client._call("record_many", records=[{"nope": 1}], renew=None)
        with pytest.raises(NetworkStoreError, match="unknown op"):
            client._call("bogus")
        # the connection survived both application errors
        assert client.counts()["total"] == 0

    def test_record_many_piggybacks_renewal(self, served):
        client = served()
        client.claim(["a", "b", "c"], "r1", ttl=30)
        before = {jid: lease.deadline for jid, lease in client.leases().items()}
        time.sleep(0.05)
        client.record_many([{"job_id": "a", "status": "done"}])
        after = client.leases()
        for jid in ("b", "c"):  # renewed in the same frame as the append
            assert after[jid].deadline > before[jid]
        assert "a" not in client._held  # fulfilled, no longer renewed


def send_request(sock, request):
    sock.sendall(encode_frame(json.dumps(request).encode()))


def read_reply(sock):
    return json.loads(read_frame(sock))


def raw_client(server, rcvbuf=None):
    """A bare socket that has completed the hello handshake."""
    sock = socket.socket()
    if rcvbuf is not None:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
    sock.settimeout(10)
    sock.connect((server.host, server.port))
    send_request(sock, {"op": "hello", "version": STORE_PROTOCOL_VERSION})
    assert read_reply(sock)["ok"]
    return sock


def wait_closed(sock, timeout=10.0):
    """Read (and discard) until the server ends the connection.

    A server still answering makes this raise ``socket.timeout``.
    """
    sock.settimeout(timeout)
    try:
        while sock.recv(1 << 20):
            pass
    except ConnectionResetError:
        pass


def claim_and_record(client, job_id):
    """One claim -> record_many round trip on a healthy connection."""
    assert client.claim([job_id], "good-runner", ttl=60) == [job_id]
    client.record_many([{"job_id": job_id, "status": "done"}])
    assert job_id in client.completed_ids()


class TestServerRobustness:
    """One selector loop serves every client: a bad one must hurt no other."""

    def test_refused_hello_ends_the_connection(self, served):
        sock = socket.create_connection(
            (served.server.host, served.server.port), timeout=10)
        try:
            send_request(sock, {"op": "hello", "version": 99})
            reply = read_reply(sock)
            assert reply["ok"] is False and "version" in reply["error"]
            try:
                send_request(sock, {"op": "claim", "job_ids": ["a"],
                                    "runner": "intruder", "ttl": 60, "now": None})
            except OSError:
                pass  # the server may already have closed its end
            wait_closed(sock, timeout=2.0)
        finally:
            sock.close()
        assert served.backend.leases() == {}

    def test_client_closes_its_socket_on_a_refused_hello(self, served, monkeypatch):
        dialed = []

        def dial(*args, **kwargs):
            dialed.append(wire.dial_with_backoff(*args, **kwargs))
            return dialed[-1]

        def refuse(server, request):
            raise ValueError("unsupported store protocol version")

        monkeypatch.setattr(netstore, "dial_with_backoff", dial)
        monkeypatch.setattr(StoreServer, "_op_hello", refuse)
        with pytest.raises(ValueError, match="protocol version"):
            served().counts()
        assert [sock.fileno() for sock in dialed] == [-1]

    @pytest.mark.parametrize("garbage", [
        encode_frame(b"not json"),
        encode_frame(b"[1, 2]"),
        encode_frame(b"[" * 100_000 + b"]" * 100_000),
        struct.pack(">I", MAX_FRAME_BYTES + 1),
    ], ids=["non-json", "non-dict", "deep-nesting", "oversized"])
    def test_bad_frame_drops_only_that_connection(self, served, garbage):
        good = served()
        good.counts()  # connected before the bad client shows up
        bad = raw_client(served.server)
        try:
            bad.sendall(garbage)
            wait_closed(bad)
            claim_and_record(good, "a")
        finally:
            bad.close()

    def test_half_sent_frame_stalls_nobody(self, served):
        good = served()
        bad = raw_client(served.server)
        try:
            frame = encode_frame(json.dumps({"op": "len"}).encode())
            bad.sendall(frame[:6])  # header plus two bytes, then silence
            claim_and_record(good, "a")
            bad.sendall(frame[6:])  # the rest arrives: answered as usual
            assert read_reply(bad) == {"ok": True, "n": 1}
        finally:
            bad.close()

    def test_client_that_never_reads_is_dropped(self, served, monkeypatch):
        monkeypatch.setattr(netstore, "SEND_TIMEOUT_S", 0.5)
        good = served()
        good.record_many([{"job_id": f"pad-{i}", "status": "done",
                           "result": {"blob": "x" * 2000}} for i in range(50)])
        # a small receive window keeps the kernel from buffering it all
        bad = raw_client(served.server, rcvbuf=4096)
        try:
            records = encode_frame(json.dumps({"op": "records", "since": 0}).encode())
            bad.sendall(records * 200)  # ~20 MB of replies, never read
            start = time.monotonic()
            claim_and_record(good, "a")
            assert time.monotonic() - start < 5.0
            wait_closed(bad)
        finally:
            bad.close()

    def test_thread_count_stays_flat_with_clients(self, served):
        clients = [served()]
        clients[0].counts()
        one = threading.active_count()
        clients += [served() for _ in range(7)]
        for client in clients:
            client.counts()
        assert threading.active_count() == one


class TestReconnectResume:
    def restart_server(self, served):
        """Kill the fixture's server, restart on the same port + backend."""
        port = served.server.port
        served.server.close()
        server = StoreServer(served.backend, listen=f"127.0.0.1:{port}")
        server.start()
        served.server = server
        return server

    def test_client_survives_server_restart(self, served):
        client = served(reconnect_timeout=10.0)
        client.claim(["a", "b"], "r1", ttl=60)
        client.record({"job_id": "a", "status": "done"})
        self.restart_server(served)
        # next call reconnects, re-handshakes, and retries transparently
        assert client.counts() == {"total": 1, "done": 1, "failed": 0}
        client.record({"job_id": "b", "status": "done"})
        assert client.completed_ids() == {"a", "b"}

    def test_resume_reasserts_held_leases(self, served):
        client = served(reconnect_timeout=10.0)
        client.claim(["a", "b"], "r1", ttl=1.0)
        self.restart_server(served)
        time.sleep(1.1)  # leases lapse during the partition
        client.record({"job_id": "x", "status": "done"})  # forces reconnect
        # the resume handshake re-claimed the expired leases for r1
        leases = client.leases()
        assert {jid: leases[jid].runner for jid in ("a", "b")} == {
            "a": "r1", "b": "r1",
        }
        assert set(client._held) == {"a", "b"}

    def test_read_cache_reset_on_reconnect(self, served):
        client = served(reconnect_timeout=10.0)
        client.record({"job_id": "a", "status": "done"})
        client.records()
        assert client._stamp > 0
        self.restart_server(served)
        assert {r["job_id"] for r in client.records()} == {"a"}

    def test_reconnect_redials_after_a_reset_handshake(self, served):
        """A reconnect dial that is accepted and then reset — as one landing
        in a dying server's listen backlog is — redials until the restarted
        server answers, instead of spending the call's one resend."""
        client = served(reconnect_timeout=10.0)
        client.record({"job_id": "a", "status": "done"})
        port = served.server.port
        served.server.close()
        resets = []

        def reset_first_connection_then_restart():
            with socket.create_server(("127.0.0.1", port)) as listener:
                conn, _ = listener.accept()
                # linger 0: close() sends RST, not FIN
                conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
                conn.close()
                resets.append(port)
            server = StoreServer(served.backend, listen=f"127.0.0.1:{port}")
            server.start()
            served.server = server

        helper = threading.Thread(target=reset_first_connection_then_restart,
                                  daemon=True)
        helper.start()
        assert client.counts() == {"total": 1, "done": 1, "failed": 0}
        helper.join(timeout=10)
        assert resets == [port]

    def test_unreachable_server_fails_with_context(self):
        client = NetworkStoreBackend(f"store://127.0.0.1:{free_port()}",
                                     connect_timeout=0.3)
        with pytest.raises(NetworkStoreError, match="failed after reconnect"):
            client.counts()


class TestDialBackoff:
    def test_timeout_error_names_the_last_error(self):
        port = free_port()
        start = time.monotonic()
        with pytest.raises(OSError, match="last error"):
            dial_with_backoff("127.0.0.1", port, timeout=0.3)
        assert time.monotonic() - start >= 0.25  # kept trying, with backoff

    def test_connects_once_the_listener_appears(self):
        port = free_port()

        def listen_later():
            time.sleep(0.15)
            srv = socket.create_server(("127.0.0.1", port))
            srv.accept()[0].close()
            srv.close()

        t = threading.Thread(target=listen_later, daemon=True)
        t.start()
        sock = dial_with_backoff("127.0.0.1", port, timeout=5.0)
        sock.close()
        t.join()


class TestSQLiteClose:
    def test_close_reaches_every_threads_connection(self, tmp_path):
        store = SQLiteStoreBackend(tmp_path)
        store.record({"job_id": "a", "status": "done"})

        def touch():
            store.counts()  # opens this thread's connection

        threads = [threading.Thread(target=touch) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(store._conns) == 4  # main + 3 workers
        store.close()
        assert store._conns == {}  # every connection closed, not just ours

    def test_close_then_reuse_reopens(self, tmp_path):
        store = SQLiteStoreBackend(tmp_path)
        store.record({"job_id": "a", "status": "done"})
        store.close()
        assert store.counts()["done"] == 1  # lazily reconnects


class _FlakyStore:
    """renew() fails ``fail_first`` times, then succeeds forever."""

    def __init__(self, fail_first):
        self.fail_first = fail_first
        self.calls = 0

    def renew(self, job_ids, runner, ttl):
        self.calls += 1
        if self.calls <= self.fail_first:
            raise OSError("store unreachable")
        return list(job_ids)


class TestLeaseHeartbeat:
    def wait_for(self, predicate, timeout=10.0):
        deadline = time.monotonic() + timeout
        while not predicate():
            assert time.monotonic() < deadline, "condition never held"
            time.sleep(0.01)

    def test_single_failure_is_retried_not_counted(self):
        store = _FlakyStore(fail_first=1)
        hb = _LeaseHeartbeat(lambda: store.renew(["a"], "r1", 0.3), ttl=0.3,
                             telemetry=Telemetry.create())
        try:
            self.wait_for(lambda: store.calls >= 3)
        finally:
            hb.stop()
        assert hb.n_failures == 0  # the immediate retry absorbed the blip

    def test_double_failure_surfaces(self, caplog):
        store = _FlakyStore(fail_first=10 ** 9)
        telemetry = Telemetry.create()
        with caplog.at_level("WARNING", logger="repro.campaign.runner"):
            hb = _LeaseHeartbeat(lambda: store.renew(["a", "b"], "r1", 0.3),
                                 ttl=0.3, telemetry=telemetry)
            try:
                self.wait_for(lambda: hb.n_failures >= 2)
            finally:
                hb.stop()
        counters = {
            c["name"]: c["value"]
            for c in telemetry.registry.snapshot()["counters"]
        }
        assert counters["repro_lease_renew_failures_total"] >= 2
        assert any("lease renewal" in r.message for r in caplog.records)
        # each failed beat made exactly two attempts (original + retry)
        assert store.calls >= 2 * hb.n_failures

    def test_beat_period_deducts_renew_latency(self):
        class SlowStore:
            def __init__(self):
                self.times = []

            def renew(self, job_ids, runner, ttl):
                self.times.append(time.monotonic())
                time.sleep(0.1)  # renew latency ~= the beat interval
                return list(job_ids)

        store = SlowStore()
        hb = _LeaseHeartbeat(lambda: store.renew(["a"], "r1", 0.45),
                             ttl=0.45)  # interval 0.15
        try:
            self.wait_for(lambda: len(store.times) >= 4)
        finally:
            hb.stop()
        # With the fixed ttl/3 sleep the gap would be ~0.25 s (sleep +
        # latency); deducting latency keeps beats ~one interval apart.
        gaps = [b - a for a, b in zip(store.times, store.times[1:])]
        assert sum(gaps) / len(gaps) < 0.22


class TestStoreServeCLI:
    def serve(self, directory, port, *extra):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "store-serve",
             str(directory), "--listen", f"127.0.0.1:{port}", *extra],
            env=dict(os.environ, PYTHONPATH=SRC),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        line = proc.stdout.readline()
        assert f"store://127.0.0.1:{port}" in line, line
        return proc

    def test_partition_runner_survives_server_restart(self, tmp_path):
        """Kill the store server out from under a live CLI runner and
        restart it: the runner reconnects, resumes its leases, finishes
        with every job executed exactly once."""
        store_dir = tmp_path / "store-data"
        port = free_port()
        server = self.serve(store_dir, port)
        try:
            spec = CampaignSpec(
                name="partition", algorithms=["DET", "PC"],
                functions=["sphere"], dims=[2], sigma0s=[1.0],
                seeds=list(range(15)), tau=1e-3, walltime=1e3, max_steps=25,
            )  # 30 jobs, ~ms each
            camp = tmp_path / "camp"
            Campaign(camp, spec=spec, store=f"store://127.0.0.1:{port}")
            audit = tmp_path / "audit.log"
            runner = subprocess.Popen(
                [sys.executable, "-m", "repro", "campaign", "run", str(camp),
                 "--batch-size", "3"],
                env=dict(os.environ, PYTHONPATH=SRC,
                         **{JOB_AUDIT_ENV: str(audit)}),
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            )
            # let it get demonstrably mid-campaign, then kill the server
            deadline = time.time() + 60
            while not audit.exists() or len(audit.read_text().splitlines()) < 3:
                assert time.time() < deadline, "runner never started"
                assert runner.poll() is None
                time.sleep(0.02)
            server.send_signal(signal.SIGKILL)
            server.communicate()
            time.sleep(0.3)  # a real (brief) partition, then recovery
            server = self.serve(store_dir, port)
            out, _ = runner.communicate(timeout=120)
            assert runner.returncode == 0, out.decode()
        finally:
            server.send_signal(signal.SIGINT)
            server.communicate(timeout=30)
        expected = sorted(j.job_id for j in spec.expand())
        executed_ids = sorted(line.split()[0]
                              for line in audit.read_text().splitlines())
        assert executed_ids == expected  # exactly once each, across the gap
        # the persisted sqlite store behind the server agrees
        store = open_store(store_dir, engine="sqlite")
        assert store.completed_ids() == set(expected)
        store.close()

    def test_store_serve_refuses_network_engine(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "campaign", "store-serve",
             str(tmp_path / "d"), "--store", "store://h:1"],
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "local" in proc.stderr
