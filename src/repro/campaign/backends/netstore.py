"""A network result-store engine: ``store://host:port``.

Every other engine coordinates runners through a *shared filesystem*
(``flock`` on JSONL, a SQLite file) — which is exactly the coupling the
paper's MW architecture removes: results flow through a long-lived
manager process, not a mount.  This module completes that picture for
the store the way :mod:`repro.mw.tcp` completed it for task dispatch:

* :class:`StoreServer` wraps any local
  :class:`~repro.campaign.backends.base.StoreBackend` (``campaign
  store-serve`` defaults to the SQLite engine) behind a framed TCP
  listener built from the same :mod:`repro.wire` stack as the mw
  transport — length-prefixed frames, one selector loop answering every
  client on one thread, keepalive + Nagle-off on every socket.  Frame
  payloads are JSON, not the typed TLV codec: store records are
  JSON-serializable by construction (that is how every engine persists
  them), and on exactly these payloads the C JSON codec encodes a
  ``record_many`` request 2–3x and decodes it about 4x faster than the
  Python TLV walker, in frames about a quarter smaller
  (``docs/CAMPAIGNS.md`` has the measurement).
* :class:`NetworkStoreBackend` is the client: a full ``StoreBackend``
  implementation that speaks request/response frames over one socket,
  registered as the ``store://host:port`` engine, so ``campaign run
  --store store://…`` and every CLI subcommand work unchanged with no
  shared filesystem between runner and store.

Wire-level design points:

* **One frame per batch.**  A batch claim, renew, release, or
  ``record_many`` is a single request frame and a single response frame
  — the store's one-critical-section-per-batch discipline extends to
  one round trip per batch, which is what keeps ``store://`` throughput
  within a small factor of the local engine it fronts.
* **Piggybacked renewal.**  A ``record_many`` frame carries the ids of
  the leases its runner still holds; the server renews them in the same
  request, so the result-append hot path doubles as a heartbeat and the
  renewal thread has one fewer round trip to race against.
* **Incremental reads.**  ``records`` requests carry the client's last
  mutation stamp; a stamp-capable backend
  (:meth:`~repro.campaign.backends.sqlite.SQLiteStoreBackend.records_since`)
  returns only newer rows, which the client folds into an id-keyed
  cache — polling a million-row store from ``campaign watch`` costs the
  delta, not the table.  Backends without stamps fall back to full
  reads, flagged so the client replaces instead of folds.
* **Reconnect with resume.**  A broken connection (server restart,
  transient partition) is not fatal: the client redials with the shared
  exponential-backoff helper (:func:`repro.wire.dial_with_backoff`),
  re-handshakes, *re-asserts the leases it held* via a claim (its own
  or expired leases re-grant; completed jobs are skipped), resets its
  read cache, and retries the failed request once.  Every request is
  idempotent — claims re-grant to their holder, appends upsert, renew
  and release are set operations — so the retry is safe even when the
  original frame was applied before the connection died.

Errors the server reports (e.g. a malformed record) are re-raised
client-side by kind — ``ValueError`` stays ``ValueError`` — while
transport failures surface as :class:`NetworkStoreError`, an ``OSError``
subclass, so every existing ``except OSError`` retry path (the lease
heartbeat, quiet release on interrupt) treats a dead store server like
a transient filesystem hiccup.
"""

from __future__ import annotations

import copy
import json
import random
import selectors
import socket
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.campaign.backends.base import (
    ENGINE_STORE,
    MANIFEST_FILENAME,
    STORE_URL_PREFIX,
    CompactionStats,
    Lease,
    StoreBackend,
    _write_manifest_file,
    is_store_url,
    read_manifest,
)
from repro.wire import (
    RECV_CHUNK_BYTES,
    CodecError,
    accept_pending,
    close_quietly,
    dial_with_backoff,
    disable_nagle,
    enable_keepalive,
    encode_frame,
    parse_url,
    read_frame,
    split_frames,
)

#: Protocol version carried in the hello handshake; a mismatch is
#: refused up front instead of failing on some later frame.
STORE_PROTOCOL_VERSION = 1

#: Seconds a reply may make no progress before the server drops its
#: client.  One thread answers every client, so a client that stops
#: reading stalls the others for at most this long.
SEND_TIMEOUT_S = 5.0

#: First and largest pause (seconds, doubling, jittered) before a client
#: redials after a reconnect's handshake failed on the transport.
REDIAL_DELAY_S = 0.05
MAX_REDIAL_DELAY_S = 2.0


class NetworkStoreError(OSError):
    """A store request failed at the transport or protocol level.

    An ``OSError`` on purpose: the campaign layer already treats store
    ``OSError`` as "transient, retry or shrug" (heartbeat skips a beat,
    interrupt-path release is best-effort), and a briefly unreachable
    store server deserves exactly that handling.
    """


def parse_store_url(url: str) -> Tuple[str, int]:
    """Split ``store://host:port`` into ``(host, port)`` (see :func:`repro.wire.parse_url`)."""
    return parse_url(url, "store")


def _parse_listen(spec: str) -> Tuple[str, int]:
    """Parse a server ``--listen`` spec: ``host:port`` or a store:// URL."""
    return parse_store_url(spec if is_store_url(spec) else STORE_URL_PREFIX + spec)


def _send_obj(sock: socket.socket, obj: dict) -> None:
    """Write one length-prefixed JSON dict.

    The socket's timeout bounds each stall rather than the whole frame,
    so a large reply to a slow but live reader still goes through.
    """
    view = memoryview(encode_frame(json.dumps(obj, separators=(",", ":")).encode()))
    while view:
        view = view[sock.send(view):]


def _decode_obj(payload: bytes) -> dict:
    """Parse one JSON request/response dict; :class:`CodecError` otherwise."""
    try:
        obj = json.loads(payload)
    except (ValueError, RecursionError):  # RecursionError: hostile nesting
        raise CodecError("store frame payload is not valid JSON") from None
    if not isinstance(obj, dict):
        raise CodecError(f"expected a dict frame, got {type(obj).__name__}")
    return obj


# -- server ----------------------------------------------------------------


class _Client:
    """One server-side connection's receive buffer and handshake state."""

    __slots__ = ("buf", "greeted")

    def __init__(self) -> None:
        self.buf = bytearray()
        self.greeted = False


class StoreServer:
    """Serve one local :class:`StoreBackend` to ``store://`` clients.

    One selector loop answers every client, like the receive path of
    :class:`repro.mw.tcp.TcpMasterTransport`: it accepts on the
    non-blocking listener, reads each connection into its own buffer,
    splits complete frames with :func:`repro.wire.split_frames`, and
    runs the requests one at a time on the loop's thread.  Serving in
    sequence needs no lock and no thread per client, and costs little —
    every engine batches its critical sections anyway (``flock`` per
    append, ``BEGIN IMMEDIATE`` per claim), and one request at a time
    gives every backend, stamped or not, a consistent view across
    clients.

    A connection's first frame must be an accepted hello; a refused
    hello is answered and the connection closed.  EOF, a malformed or
    oversized frame, or a reply that makes no progress for
    :data:`SEND_TIMEOUT_S` (a client that stops reading) drops that
    connection alone.

    :meth:`start` runs the loop on one background thread;
    :meth:`serve_forever` runs it on the caller's thread instead.  The
    server does not own the backend: callers (the CLI, the test
    fixture) close what they opened.

    Parameters
    ----------
    backend:
        Any local store engine to serve; ``campaign store-serve``
        defaults to SQLite.
    listen:
        ``host:port`` to bind (port 0 picks an ephemeral port; read the
        result from :attr:`address` after :meth:`bind`).
    """

    def __init__(self, backend: StoreBackend, listen: str = "127.0.0.1:0") -> None:
        self._backend = backend
        self.host, self.port = _parse_listen(listen)
        self._listener: Optional[socket.socket] = None
        # The listener, the waker's read end and every client, each key's
        # data a _Client for connections and None otherwise.
        self._selector: Optional[selectors.BaseSelector] = None
        self._waker: Optional[Tuple[socket.socket, socket.socket]] = None
        self._thread: Optional[threading.Thread] = None
        self._closing = False

    # -- lifecycle ---------------------------------------------------------

    def bind(self) -> None:
        """Bind the listener, resolving :attr:`address`; idempotent."""
        if self._listener is not None:
            return
        self._listener = socket.create_server(
            (self.host, self.port), backlog=16, reuse_port=False
        )
        self._listener.setblocking(False)
        self.port = self._listener.getsockname()[1]
        self._waker = socket.socketpair()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, None)
        self._selector.register(self._waker[0], selectors.EVENT_READ, None)

    def start(self) -> None:
        """Bind, then serve every client from one background thread."""
        self.bind()
        self._thread = threading.Thread(
            target=self._serve, daemon=True, name="store-serve"
        )
        self._thread.start()

    @property
    def address(self) -> str:
        """The bound ``store://host:port`` (port resolved after ``bind``)."""
        return f"{STORE_URL_PREFIX}{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Serve on the caller's thread until :meth:`close` (instead of :meth:`start`).

        The CLI's foreground mode: ``campaign store-serve`` installs
        SIGINT/SIGTERM handlers that raise, which interrupt the select
        directly; the loop closes every socket on the way out.
        """
        self.bind()
        self._thread = threading.current_thread()
        self._serve()

    def close(self) -> None:
        """Stop serving and drop every connection; idempotent.

        The served backend is *not* closed — the opener owns it.
        """
        if self._closing:
            return
        self._closing = True
        if self._waker is None:
            return  # never bound
        try:
            self._waker[1].send(b"\0")
        except OSError:
            pass  # the loop already exited and closed it
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)
        if thread is None or not thread.is_alive():
            self._teardown()  # else the loop tears down as it exits

    # -- the selector loop -------------------------------------------------

    def _serve(self) -> None:
        """Accept, read and answer until :meth:`close`, then tear down."""
        try:
            while not self._closing:
                for key, _events in self._selector.select():
                    if key.data is not None:
                        self._read(key.fileobj, key.data)
                    elif key.fileobj is self._listener:
                        self._accept()
                    # else the waker: close() set _closing before writing it
        finally:
            self._teardown()

    def _teardown(self) -> None:
        """Close every registered socket and the selector; idempotent."""
        selector, self._selector = self._selector, None
        if selector is None:
            return
        for key in list(selector.get_map().values()):
            close_quietly(key.fileobj)
        selector.close()
        close_quietly(self._waker[1])

    def _accept(self) -> None:
        """Register every pending connection with the selector."""
        # the timeout bounds reply stalls only: reads follow readiness
        for sock in accept_pending(self._listener, SEND_TIMEOUT_S):
            self._selector.register(sock, selectors.EVENT_READ, _Client())

    def _read(self, sock: socket.socket, client: _Client) -> None:
        """Answer every complete request a readable connection has sent.

        EOF, a socket error, a malformed frame, or a refused handshake
        drops this connection alone.
        """
        try:
            chunk = sock.recv(RECV_CHUNK_BYTES)
            keep = bool(chunk)
            if keep:
                client.buf += chunk
                for payload in split_frames(client.buf):
                    keep = self._answer(sock, client, _decode_obj(payload))
                    if not keep:
                        break
        except (OSError, CodecError):
            keep = False
        if not keep:
            self._selector.unregister(sock)
            close_quietly(sock)

    def _answer(self, sock: socket.socket, client: _Client, request: dict) -> bool:
        """Reply to one request; ``False`` once the connection must end.

        Until a hello is accepted, nothing but a hello is served.
        """
        greeting = not client.greeted
        if greeting and request.get("op") != "hello":
            reply = {"ok": False, "kind": "ProtocolError",
                     "error": "first frame must be a hello"}
        else:
            reply = self._dispatch(request)
        _send_obj(sock, reply)
        if greeting:
            client.greeted = reply["ok"]
        return client.greeted

    # -- dispatch ----------------------------------------------------------

    def _dispatch(self, request: dict) -> dict:
        """Apply one request to the backend; never raises.

        Application errors travel back as ``{"ok": False, "kind", "error"}``
        so the client can re-raise them by kind; only transport failures
        tear the connection down.
        """
        op = str(request.get("op"))
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            return {"ok": False, "kind": "ProtocolError",
                    "error": f"unknown op {op!r}"}
        try:
            result = handler(request)
        except Exception as exc:  # noqa: BLE001 - boundary: errors become frames
            return {"ok": False, "kind": type(exc).__name__, "error": str(exc)}
        result["ok"] = True
        return result

    def _op_hello(self, request: dict) -> dict:
        version = request.get("version")
        if version != STORE_PROTOCOL_VERSION:
            raise ValueError(
                f"unsupported store protocol version {version!r} "
                f"(server speaks {STORE_PROTOCOL_VERSION})"
            )
        return {"version": STORE_PROTOCOL_VERSION,
                "engine": self._backend.engine}

    def _op_claim(self, request: dict) -> dict:
        granted = self._backend.claim(
            request["job_ids"], request["runner"], request["ttl"],
            now=request.get("now"),
        )
        return {"granted": list(granted)}

    def _op_renew(self, request: dict) -> dict:
        held = self._backend.renew(
            request["job_ids"], request["runner"], request["ttl"],
            now=request.get("now"),
        )
        return {"held": list(held)}

    def _op_release(self, request: dict) -> dict:
        self._backend.release(request["job_ids"], request["runner"])
        return {}

    def _op_record_many(self, request: dict) -> dict:
        self._backend.record_many(request["records"])
        renewed: List[str] = []
        renew = request.get("renew")
        if renew:
            renewed = list(self._backend.renew(
                renew["job_ids"], renew["runner"], renew["ttl"]
            ))
        return {"renewed": renewed}

    def _op_records(self, request: dict) -> dict:
        since = int(request.get("since") or 0)
        records_since = getattr(self._backend, "records_since", None)
        if records_since is not None:
            stamp, rows = records_since(since)
            return {"full": False, "stamp": stamp, "records": rows}
        return {"full": True, "stamp": 0, "records": self._backend.records()}

    def _op_completed_ids(self, request: dict) -> dict:
        return {"ids": sorted(self._backend.completed_ids())}

    def _op_counts(self, request: dict) -> dict:
        return {"counts": dict(self._backend.counts())}

    def _op_leases(self, request: dict) -> dict:
        leases = self._backend.leases(now=request.get("now"))
        return {"leases": [
            [lease.job_id, lease.runner, lease.deadline]
            for lease in leases.values()
        ]}

    def _op_compact(self, request: dict) -> dict:
        stats = self._backend.compact(now=request.get("now"))
        return {"stats": [stats.n_records_before, stats.n_records_after,
                          stats.bytes_before, stats.bytes_after]}

    def _op_len(self, request: dict) -> dict:
        return {"n": len(self._backend)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<StoreServer {self.address} backend={self._backend!r}>"


# -- client ----------------------------------------------------------------


class NetworkStoreBackend(StoreBackend):
    """The :class:`StoreBackend` contract over a ``store://`` connection.

    One socket, one request in flight at a time (an internal lock makes
    the instance safe to share between the runner thread and its lease
    heartbeat).  Separate instances — like the fresh stores each
    cooperating runner process opens — get their own connections.

    Parameters
    ----------
    url:
        The server's ``store://host:port``.
    connect_timeout:
        Seconds to keep dialing the *initial* connection (with
        exponential backoff), so runners may start before the server.
    reconnect_timeout:
        Seconds to keep redialing after an established connection
        breaks — the partition budget within which a server restart is
        invisible to the campaign (beyond one resumed handshake).
    """

    engine = ENGINE_STORE
    metrics_engine = "netstore"

    def __init__(
        self,
        url: str,
        connect_timeout: float = 30.0,
        reconnect_timeout: float = 30.0,
    ) -> None:
        self.host, self.port = parse_store_url(url)
        if self.port == 0:
            raise ValueError(f"a store client needs an explicit port, got {url!r}")
        self.url = url
        self.connect_timeout = float(connect_timeout)
        self.reconnect_timeout = float(reconnect_timeout)
        self._lock = threading.RLock()
        self._sock: Optional[socket.socket] = None
        self._ever_connected = False
        # Incremental-read cache, mirroring the SQLite engine's: id-keyed
        # records in first-appearance order + the last mutation stamp.
        self._by_id: Dict[str, dict] = {}
        self._stamp = 0
        # Leases this client believes it holds — the resume set re-asserted
        # after a reconnect, and the piggyback set renewed on every append.
        self._held: Dict[str, None] = {}
        self._held_runner: Optional[str] = None
        self._held_ttl: float = 0.0

    @property
    def path(self) -> str:
        """The server URL (display / identification; nothing is local)."""
        return self.url

    # -- connection management ---------------------------------------------

    def _connect(self) -> socket.socket:
        """Dial and handshake; on reconnect, resume held leases.

        A reconnect whose handshake hits a transport error redials, with
        backoff, until ``reconnect_timeout``: a dial made while the old
        server dies can land in its listen backlog and be reset at the
        hello.  A refused hello (``ValueError``) or a request the server
        rejects fails at once.
        """
        reconnect = self._ever_connected
        timeout = self.reconnect_timeout if reconnect else self.connect_timeout
        deadline = time.monotonic() + timeout
        delay = REDIAL_DELAY_S
        while True:
            sock = dial_with_backoff(self.host, self.port,
                                     max(0.0, deadline - time.monotonic()))
            sock.settimeout(max(timeout, 30.0))
            enable_keepalive(sock)
            disable_nagle(sock)
            try:
                self._handshake(sock)
            except (OSError, ValueError) as exc:  # CodecError is a ValueError
                close_quietly(sock)
                transport = (isinstance(exc, (OSError, CodecError))
                             and not isinstance(exc, NetworkStoreError))
                remaining = deadline - time.monotonic()
                if not (reconnect and transport and remaining > 0):
                    raise
                time.sleep(min(delay, remaining) * random.uniform(0.5, 1.0))
                delay = min(2.0 * delay, MAX_REDIAL_DELAY_S)
                continue
            self._ever_connected = True
            self._sock = sock
            return sock

    def _handshake(self, sock: socket.socket) -> None:
        """The hello, then (on a reconnect) the lease resume."""
        self._roundtrip(sock, {
            "op": "hello", "version": STORE_PROTOCOL_VERSION,
        })
        if self._ever_connected:
            # Resume: re-assert the leases we held when the connection
            # died.  claim() re-grants a runner's own or expired leases
            # and skips jobs completed meanwhile — exactly the repair a
            # briefly-partitioned runner needs; ids a peer validly
            # reclaimed in the gap are dropped from the held set.
            if self._held and self._held_runner is not None:
                granted = self._roundtrip(sock, {
                    "op": "claim", "job_ids": list(self._held),
                    "runner": self._held_runner, "ttl": self._held_ttl,
                    "now": None,
                })["granted"]
                self._held = dict.fromkeys(granted)
            # The new server may front different (or rewound) data;
            # drop the read cache rather than trust a foreign stamp.
            self._by_id = {}
            self._stamp = 0

    def _roundtrip(self, sock: socket.socket, request: dict) -> dict:
        """One raw request/response exchange; raises on any failure."""
        _send_obj(sock, request)
        payload = read_frame(sock)
        if payload is None:
            raise CodecError("store server closed the connection mid-request")
        reply = _decode_obj(payload)
        if not reply.get("ok"):
            kind = reply.get("kind")
            error = str(reply.get("error"))
            if kind == "ValueError":
                raise ValueError(error)
            raise NetworkStoreError(f"store server rejected {request.get('op')!r}: "
                                    f"{kind}: {error}")
        return reply

    def _drop_sock(self) -> None:
        if self._sock is not None:
            close_quietly(self._sock)
            self._sock = None

    def _call(self, op: str, _request_fn=None, **fields: Any) -> dict:
        """Send one request, reconnecting (with resume) and retrying once.

        Safe because every op is idempotent: a frame that was applied
        just before the connection died produces the same state when
        replayed after the resume handshake.  The frame is built *after*
        the connection is established — ``_request_fn`` lets ops whose
        fields depend on reconnect-reset client state (the ``records``
        mutation stamp) contribute fresh values to the retried frame.
        """
        with self._lock:
            last_error: Optional[Exception] = None
            for attempt in range(2):
                try:
                    sock = self._sock if self._sock is not None else self._connect()
                    request = dict(fields, op=op)
                    if _request_fn is not None:
                        request.update(_request_fn())
                    return self._roundtrip(sock, request)
                # CodecError subclasses ValueError, so the transport clause
                # must come first; a bare ValueError is an application error
                # relayed by the server — the connection is fine, propagate.
                except (OSError, CodecError) as exc:
                    self._drop_sock()
                    last_error = exc
            raise NetworkStoreError(
                f"store request {op!r} to {self.url} failed after reconnect: "
                f"{last_error}"
            ) from last_error

    def close(self) -> None:
        """Drop the connection; the next call would reconnect."""
        with self._lock:
            self._drop_sock()

    # -- writing -----------------------------------------------------------

    @staticmethod
    def _validate(records: Sequence[dict]) -> List[dict]:
        records = list(records)
        for rec in records:
            if "job_id" not in rec or "status" not in rec:
                raise ValueError("record needs 'job_id' and 'status' fields")
        return records

    def record(self, record: dict) -> None:
        """Append one record (a one-element :meth:`record_many` frame)."""
        self.record_many([record])

    def record_many(self, records: Sequence[dict]) -> None:
        """Append a batch in one frame, piggybacking lease renewal.

        Validation happens client-side too, so a malformed record fails
        before it crosses the wire.  The frame renews whatever leases
        this client still holds beyond the batch being fulfilled — on
        the append hot path the store hears from the runner constantly,
        shrinking the window a slow heartbeat leaves open.
        """
        records = self._validate(records)
        if not records:
            return
        with self._lock:
            renew = None
            recorded = {rec["job_id"] for rec in records}
            keep = [jid for jid in self._held if jid not in recorded]
            if keep and self._held_runner is not None:
                renew = {"job_ids": keep, "runner": self._held_runner,
                         "ttl": self._held_ttl}
            with self._timed("append"):
                self._call("record_many", records=records, renew=renew)
            for jid in recorded:
                self._held.pop(jid, None)

    # -- leases ------------------------------------------------------------

    def claim(
        self,
        job_ids: Sequence[str],
        runner: str,
        ttl: float,
        now: Optional[float] = None,
    ) -> List[str]:
        """Claim a batch in one frame; see :meth:`StoreBackend.claim`."""
        with self._lock:
            with self._timed("claim"):
                reply = self._call(
                    "claim", job_ids=list(job_ids), runner=runner,
                    ttl=float(ttl), now=now,
                )
            granted = list(reply["granted"])
            if runner != self._held_runner:
                # One client serves one runner identity at a time; a new
                # identity supersedes the old resume set.
                self._held = {}
                self._held_runner = runner
            self._held_ttl = float(ttl)
            self._held.update(dict.fromkeys(granted))
            return granted

    def renew(
        self,
        job_ids: Sequence[str],
        runner: str,
        ttl: float,
        now: Optional[float] = None,
    ) -> List[str]:
        """Renew a batch in one frame; see :meth:`StoreBackend.renew`."""
        with self._lock:
            reply = self._call(
                "renew", job_ids=list(job_ids), runner=runner,
                ttl=float(ttl), now=now,
            )
            held = list(reply["held"])
            if runner == self._held_runner:
                self._held_ttl = float(ttl)
                for jid in job_ids:
                    if jid not in held:
                        self._held.pop(jid, None)  # lost to a peer or fulfilled
            return held

    def release(self, job_ids: Sequence[str], runner: str) -> None:
        """Release claims in one frame; see :meth:`StoreBackend.release`."""
        with self._lock:
            self._call("release", job_ids=list(job_ids), runner=runner)
            for jid in job_ids:
                self._held.pop(jid, None)

    def leases(self, now: Optional[float] = None) -> Dict[str, Lease]:
        """Live leases by job id, fetched in one frame."""
        reply = self._call("leases", now=now)
        return {
            jid: Lease(jid, runner, deadline)
            for jid, runner, deadline in reply["leases"]
        }

    # -- reading -----------------------------------------------------------

    def records(self) -> List[dict]:
        """All records in first-appearance order, fetched incrementally.

        The request carries the last mutation stamp; a stamp-capable
        server returns only newer rows, folded into the local id-keyed
        cache exactly as the SQLite engine folds its own reads.  A
        ``full`` response (stampless backing engine) replaces the cache.
        """
        with self._lock:
            reply = self._call(
                "records", _request_fn=lambda: {"since": self._stamp}
            )
            rows = reply["records"]
            if reply.get("full"):
                self._by_id = {rec["job_id"]: rec for rec in rows}
                self._stamp = 0
            else:
                for rec in rows:
                    self._by_id[rec["job_id"]] = rec
                self._stamp = int(reply["stamp"])
            return [copy.deepcopy(r) for r in self._by_id.values()]

    def completed_ids(self) -> Set[str]:
        """Ids of done jobs, computed server-side (no record shipping)."""
        return set(self._call("completed_ids")["ids"])

    def counts(self) -> Dict[str, int]:
        """Status tallies, computed server-side."""
        return dict(self._call("counts")["counts"])

    # -- maintenance -------------------------------------------------------

    def compact(self, now: Optional[float] = None) -> CompactionStats:
        """Ask the server to compact its backing store."""
        with self._timed("compact"):
            reply = self._call("compact", now=now)
        return CompactionStats(*(int(v) for v in reply["stats"]))

    def __len__(self) -> int:
        return int(self._call("len")["n"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NetworkStoreBackend {self.url}>"


def open_network_store(url: str, directory=None, **client_options: Any) -> NetworkStoreBackend:
    """Open a ``store://`` client, pinning ``directory``'s manifest to it.

    The registry hook behind :func:`repro.campaign.backends.open_store`:
    when a campaign directory is given, its ``store-manifest.json`` is
    created (or validated) with ``engine: "store"`` and the server URL,
    so re-opening the directory *without* ``--store`` reconnects to the
    same server — the network engine keeps the same auto-detect contract
    as the local ones.  A directory already pinned to a local engine is
    refused (the data lives there, not behind a server); a directory
    pinned to a *different* server URL is re-pinned, since a restarted
    server legitimately moves ports.
    """
    host, port = parse_store_url(url)
    if directory is not None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        manifest = read_manifest(directory)
        if manifest is None or manifest.get("url") != url:
            if manifest is not None and manifest["engine"] != ENGINE_STORE:
                raise ValueError(
                    f"store at {directory} uses the {manifest['engine']!r} "
                    f"engine; cannot reopen it as {ENGINE_STORE!r} — serve "
                    f"it with 'campaign store-serve', or use "
                    f"'campaign migrate-store' to convert"
                )
            _write_manifest_file(
                directory / MANIFEST_FILENAME,
                {"version": 1, "engine": ENGINE_STORE, "url": url},
            )
    return NetworkStoreBackend(url, **client_options)
