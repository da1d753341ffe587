"""Framed-socket transports: every multi-process fleet on one socket stack.

The paper's master talks to every worker through one communication
layer (MWRMComm, §3.1).  Here that is one framed byte stream per worker
— a :mod:`repro.wire` frame (u32 length prefix) around one
codec-encoded :class:`~repro.mw.messages.Message`; truncated or
oversized frames raise :class:`~repro.wire.CodecError`, never hang —
under two transports:

* :class:`ProcessTransport` (``process``) forks one local worker per
  rank on a ``socket.socketpair()``.  Ranks are fixed at fork, so there
  is no handshake, and the executor is inherited (any callable works).
  Each child first closes the master ends it inherited, so a dead
  master's EOF reaches it.
* :class:`TcpMasterTransport` (``tcp://host:port``) listens for
  standalone ``python -m repro mw-worker`` processes on any host (§4.3),
  *late joiners* included.  A joiner's ``hello`` (protocol version plus
  an optional ``caps`` vector, e.g. ``["md", "fast"]``) is answered by a
  ``welcome`` with its rank, its spawned seed stream (so per-rank
  streams equal the same-host transports'), the executor's importable
  ``module:attr`` wire spec and the heartbeat interval.  A dead worker's
  rank goes to the next joiner — "restarted on the same processors".

Both share the master half, :class:`SocketMasterTransport`, which runs
no thread: the driver's own thread reads every connection (and the tcp
listener) through one selector in ``recv``/``poll``/``stats``, reports
a worker dead once — on EOF, a failed send, or heartbeat silence, judged
only after pending frames are read — and fans ``shutdown`` out on
close.  They share the worker half too, :func:`serve_tasks`: task →
execute → reply, heartbeating from a background thread, until
``shutdown`` or EOF.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from collections import deque
from typing import (
    TYPE_CHECKING, Any, Deque, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence,
)

import numpy as np
# numpy imports its random module on first use.  A worker builds its
# rank's generator as soon as it is welcomed, so load that before the
# hello rather than inside the first task's time.
import numpy.random  # noqa: F401

from repro.mw.messages import (
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_SHUTDOWN,
    MSG_TASK,
    MSG_WELCOME,
    Message,
    decode_message,
    encode_message,
)
from repro.mw.transport import (
    EVENT_DIED,
    EVENT_JOINED,
    NO_CAPS,
    Transport,
    TransportEvent,
    executor_wire_spec,
    normalize_caps,
    normalize_caps_map,
    resolve_executor,
)
from repro.mw.worker import Executor, MWWorker
from repro.telemetry.metrics import NULL_COUNTER, NULL_HISTOGRAM
# send_frame looks encode_frame up through this module's globals and
# recv_exact is re-exported: perfbench/hooks.py wraps both as attributes
# of repro.mw.tcp.
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
    recv_exact,  # noqa: F401 - re-exported
    split_frames,
)

if TYPE_CHECKING:
    import multiprocessing

#: Protocol version carried in the hello/welcome handshake.
#: Version 2 added the homogeneous ``list[str]``/``list[int]`` codec tags,
#: which a version-1 peer cannot decode.
PROTOCOL_VERSION = 2

#: Default seconds between worker heartbeats.
DEFAULT_HEARTBEAT_INTERVAL = 1.0

#: Dead-peer detection: a worker silent for this many heartbeat intervals
#: (no heartbeat, result, or error frame) is presumed crashed.
HEARTBEAT_TIMEOUT_INTERVALS = 5.0

#: Seconds a closing process fleet waits, in all, for its workers to
#: exit after ``shutdown`` before it kills the stragglers.
FLEET_JOIN_TIMEOUT_S = 5.0


def send_frame(sock: socket.socket, message: Message) -> None:
    """Write one framed message to the socket."""
    sock.sendall(encode_frame(encode_message(message)))


def recv_frame(sock: socket.socket) -> Optional[Message]:
    """Read one framed message; ``None`` on clean EOF at a frame boundary."""
    data = read_frame(sock)
    return None if data is None else decode_message(data)


def _seed_payload(seq: np.random.SeedSequence) -> dict:
    """Codec-safe description of a spawned seed stream.

    ``entropy`` travels as a decimal string because it can exceed the
    codec's 64-bit integer range (128-bit when the root seed is None).
    """
    return {
        "entropy": str(seq.entropy),
        "spawn_key": [int(k) for k in seq.spawn_key],
    }


def _seed_from_payload(payload: dict) -> np.random.SeedSequence:
    """Inverse of :func:`_seed_payload`."""
    return np.random.SeedSequence(
        int(payload["entropy"]), spawn_key=tuple(payload["spawn_key"])
    )


class _Conn:
    """One master-side connection: its rank (``None`` until a tcp hello),
    receive buffer, and when a complete frame last arrived (the time it
    was registered until then)."""

    __slots__ = ("rank", "buf", "last_seen")

    def __init__(self, registered_at: float, rank: Optional[int] = None) -> None:
        self.rank = rank
        self.buf = bytearray()
        self.last_seen = registered_at


class SocketMasterTransport(Transport):
    """Master half of the socket transports: one selector, no thread.

    Every method runs on the driver's thread.  Complete frames are split
    out of each connection's buffer, heartbeats are consumed, and replies
    queue for :meth:`recv`; a worker is reported dead exactly once.
    Subclasses fill the selector: :class:`ProcessTransport` with the
    master ends of its socketpairs, already bound to their ranks, and
    :class:`TcpMasterTransport` with a listener (key data ``None``) whose
    connections are bound to a rank by their hello (:meth:`_greet`).
    """

    def __init__(
        self,
        n_workers: int,
        seed_seqs: Sequence[np.random.SeedSequence],
        heartbeat_timeout: float,
    ) -> None:
        self.n_workers = int(n_workers)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self._seed_seqs = list(seed_seqs)
        self._conns: Dict[int, socket.socket] = {}  # live workers, by rank
        self._caps: Dict[int, FrozenSet[str]] = {}
        self._events: List[TransportEvent] = []
        self._closing = False
        # Every connection (a _Conn) and the tcp listener (None); and
        # complete replies not yet returned by recv().
        self._selector: Optional[selectors.BaseSelector] = None
        self._inbox: Deque[Message] = deque()
        # Re-bound against the live telemetry context in _open(); null here
        # so a transport used without a driver still counts safely.
        self._m_sent = NULL_COUNTER
        self._m_received = NULL_COUNTER
        self._m_heartbeat_gap = NULL_HISTOGRAM

    def _open(self) -> None:
        """Bind the metric handles and open the selector (from ``start``)."""
        # Metric handles are bound here, after the driver has assigned its
        # telemetry context (Transport.telemetry is set post-construction).
        self._m_sent = self.telemetry.counter(
            "repro_mw_frames_total", "Worker frames by direction.",
            direction="sent",
        )
        self._m_received = self.telemetry.counter(
            "repro_mw_frames_total", "Worker frames by direction.",
            direction="received",
        )
        self._m_heartbeat_gap = self.telemetry.histogram(
            "repro_mw_heartbeat_gap_seconds",
            "Silence between worker frames as read by the master at each "
            "heartbeat (RTT + scheduling delay + master busy time).",
        )
        self._selector = selectors.DefaultSelector()

    def close(self) -> None:
        """Send ``shutdown`` to every connection, close all sockets; idempotent.

        Workers get a bare ``shutdown``; a connection that has not sent
        its hello yet gets one with the reason "master is shutting down".
        """
        if self._closing:
            return
        self._closing = True
        if self._selector is not None:
            for key in list(self._selector.get_map().values()):
                conn = key.data
                if conn is not None:  # None: the tcp listener
                    payload = None if conn.rank is not None else {
                        "reason": "master is shutting down"}
                    try:
                        send_frame(key.fileobj, Message(
                            tag=MSG_SHUTDOWN, sender=0, payload=payload))
                    except (OSError, CodecError):
                        pass
                close_quietly(key.fileobj)
            self._selector.close()
        self._conns.clear()
        self._caps.clear()

    # -- the selector: receive, drop ----------------------------------------

    def _accept(self) -> None:
        """Register the listener's pending connections (tcp only)."""

    def _greet(self, sock: socket.socket, conn: _Conn, hello: Message) -> None:
        """Bind an unranked connection by its first frame (tcp only)."""
        raise ValueError("frame on a connection without a rank")

    def _drop(self, sock: socket.socket, rank: Optional[int]) -> None:
        """Stop reading a connection and close it; a worker is reported dead."""
        try:
            self._selector.unregister(sock)
        except (KeyError, ValueError):
            pass  # already dropped
        close_quietly(sock)
        if rank is not None and self._conns.get(rank) is sock:
            del self._conns[rank]
            self._caps.pop(rank, None)
            self._events.append((EVENT_DIED, rank))

    def _reap_closed(self) -> None:
        """Drop connections whose socket was closed under the selector.

        A closed descriptor silently leaves epoll; without this its number
        could be reused by the next joiner and collide with the stale key.
        """
        for key in list(self._selector.get_map().values()):
            if key.data is not None and key.fileobj.fileno() < 0:
                self._drop(key.fileobj, key.data.rank)

    def _read_ready(self, timeout: Optional[float]) -> None:
        """Wait up to ``timeout`` for readable sockets and read each once.

        A readable listener is accepted, and the selector is then asked
        again without waiting, since a new connection's hello may already
        be queued: a read that accepts a joiner also welcomes it.
        """
        ready = self._selector.select(timeout)
        while ready:
            accepted = False
            for key, _events in ready:
                if key.data is None:
                    self._accept()
                    accepted = True
                else:
                    self._read(key.fileobj, key.data)
            ready = self._selector.select(0) if accepted else ()

    def _read(self, sock: socket.socket, conn: _Conn) -> None:
        """Handle every complete frame a readable connection has sent.

        An unranked connection's first frame goes to :meth:`_greet`; after
        it, heartbeats are consumed here and replies queue in
        :attr:`_inbox`.  EOF, a socket error, a malformed frame or a
        refused hello drops this connection alone.
        """
        try:
            chunk = sock.recv(RECV_CHUNK_BYTES)
            if chunk:
                conn.buf += chunk
                for payload in split_frames(conn.buf):
                    message = decode_message(payload)
                    if conn.rank is None:
                        self._greet(sock, conn, message)
                    else:
                        self._receive(conn, message)
                return
        except (OSError, ValueError):  # CodecError is a ValueError
            pass
        self._drop(sock, conn.rank)

    def _receive(self, conn: _Conn, message: Message) -> None:
        """Note the sign of life; keep a reply, consume a heartbeat."""
        now = time.monotonic()
        gap = now - conn.last_seen
        conn.last_seen = now
        self._m_received.inc()
        if message.tag == MSG_HEARTBEAT:
            # The silence a heartbeat ends approximates one worker round
            # trip plus scheduling delay — the RTT series.  It is measured
            # when the driver reads the frame, so master busy time counts.
            self._m_heartbeat_gap.observe(gap)
            return
        self._inbox.append(message)

    def _reading(self) -> bool:
        """Whether the selector is open (started, not closed)."""
        return self._selector is not None and not self._closing

    # -- Transport interface ----------------------------------------------

    def send(self, rank: int, message: Message) -> None:
        """Frame and send to one worker; a failed send reports it dead."""
        sock = self._conns.get(rank)
        if sock is None:
            return  # died between poll and send; poll() already reported it
        try:
            send_frame(sock, message)
            self._m_sent.inc()
        except (OSError, CodecError):
            self._drop(sock, rank)

    def recv(self, timeout: Optional[float] = None) -> Optional[Message]:
        """Next worker result/error frame (``None`` on timeout).

        Waits in the selector — accepting and welcoming tcp joiners on
        the way — until a reply is complete or ``timeout`` elapses.  A
        worker that joins or dies during the wait ends it early, with
        ``None``: the driver's next beat applies the event (feeds the
        joiner, requeues the dead worker's tasks) instead of sleeping
        out the timeout first.
        """
        if self._inbox:
            return self._inbox.popleft()
        if not self._reading():
            return None
        n_events = len(self._events)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            wait = None if deadline is None else max(0.0, deadline - time.monotonic())
            self._read_ready(wait)
            if self._inbox:
                return self._inbox.popleft()
            if len(self._events) > n_events:
                return None
            if deadline is not None and time.monotonic() >= deadline:
                return None

    def poll(self) -> List[TransportEvent]:
        """Drain join/death events; also sweep silent connections.

        Pending connections and frames are read first (without waiting),
        so a hello or heartbeats that queued while the driver was busy
        are credited before the sweep judges silence: a worker silent for
        ``heartbeat_timeout`` is dropped and reported dead, a connection
        that sent no hello within it is dropped.
        """
        if self._reading():
            self._reap_closed()
            self._read_ready(0)
            now = time.monotonic()
            for key in list(self._selector.get_map().values()):
                conn = key.data
                if conn is not None and now - conn.last_seen > self.heartbeat_timeout:
                    self._drop(key.fileobj, conn.rank)
        events, self._events = self._events, []
        return events

    def worker_caps(self, rank: int) -> FrozenSet[str]:
        """Caps live worker ``rank`` declared (empty if unknown/dead)."""
        return self._caps.get(rank, NO_CAPS)


class ProcessTransport(SocketMasterTransport):
    """One forked OS process per worker rank, each on its own socketpair.

    The child runs :func:`serve_tasks` with the rank's seed stream, so
    streams equal inproc's; ``worker_caps`` stands in for the caps a tcp
    worker declares.  A worker that dies is reported at the next
    ``poll`` by its EOF, a hung one after ``heartbeat_timeout``; a local
    rank is not restarted.
    """

    def __init__(
        self,
        executor: Executor,
        seed_seqs: Sequence[np.random.SeedSequence],
        worker_caps: Optional[Mapping[int, Any]] = None,
    ) -> None:
        super().__init__(
            len(seed_seqs), seed_seqs,
            HEARTBEAT_TIMEOUT_INTERVALS * DEFAULT_HEARTBEAT_INTERVAL,
        )
        self._executor = executor
        self._caps = normalize_caps_map(worker_caps)
        self.procs: Dict[int, multiprocessing.Process] = {}

    def start(self) -> None:
        """Fork one daemon process per rank on its own socketpair."""
        # imported here, not at module level: an mw-worker process, which
        # loads this module for its task loop, never needs it
        import multiprocessing

        self._open()
        ctx = multiprocessing.get_context("fork")
        for rank in range(1, self.n_workers + 1):
            master_end, worker_end = socket.socketpair()
            self._conns[rank] = master_end  # before the fork: the child closes it
            proc = ctx.Process(
                target=self._worker_main, args=(rank, worker_end),
                daemon=True, name=f"mw-worker-{rank}",
            )
            proc.start()
            worker_end.close()
            self.procs[rank] = proc
            self._selector.register(master_end, selectors.EVENT_READ,
                                    _Conn(time.monotonic(), rank))

    def _worker_main(self, rank: int, sock: socket.socket) -> None:
        """The forked child: close the master ends it inherited (else a dead
        master's EOF never reaches it), then serve tasks."""
        for master_end in self._conns.values():
            close_quietly(master_end)
        worker = MWWorker(rank, self._executor, self._seed_seqs[rank - 1],
                          caps=self.worker_caps(rank))
        serve_tasks(sock, worker, DEFAULT_HEARTBEAT_INTERVAL)

    def initially_live(self) -> set:
        """All ranks: the processes are forked by ``start``."""
        return set(range(1, self.n_workers + 1))

    def close(self) -> None:
        """Fan out ``shutdown``, join the fleet, then kill and reap stragglers.

        The join waits :data:`FLEET_JOIN_TIMEOUT_S` in all.  A straggler
        gets SIGKILL, not SIGTERM: a stopped (SIGSTOPped) worker never
        acts on SIGTERM and would outlive its master.
        """
        super().close()
        deadline = time.monotonic() + FLEET_JOIN_TIMEOUT_S
        for proc in self.procs.values():
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in self.procs.values():
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=FLEET_JOIN_TIMEOUT_S)


class TcpMasterTransport(SocketMasterTransport):
    """Master side of the TCP transport: listener, hello/welcome, slots.

    Owns ``n_workers`` rank slots.  Workers connect at any time; each is
    welcomed onto the lowest free rank (a rank freed by a dead worker is
    reused first-come, so replacements inherit the dead worker's seed
    stream and affinity).  Excess workers beyond ``n_workers`` are turned
    away with a ``shutdown`` frame.

    The non-blocking listener sits in the one selector: a readable
    listener is accepted there, and a connection's first complete frame
    is its hello, checked and welcomed (or refused) there too.  A joiner
    is therefore welcomed at the master's next read — every loop that
    owns a driver reads it on every beat, and the worker's handshake
    timeout, ``max(connect_timeout, 30 s)``, bounds the wait.  A silent
    joiner stalls no one: ``heartbeat_timeout`` sweeps it.

    Parameters
    ----------
    url:
        ``tcp://host:port`` to listen on; port 0 binds an ephemeral port
        (read the result from :attr:`address`).
    executor:
        The master's executor; shipped to workers as an importable
        ``module:attr`` wire spec when possible.  Workers launched with
        an explicit ``--executor`` ignore it.
    n_workers:
        Rank slots (1..n_workers).
    seed_seqs:
        One spawned ``SeedSequence`` per rank.
    heartbeat_interval:
        Seconds between worker heartbeats (sent to workers in the
        welcome).
    heartbeat_timeout:
        Seconds of silence after which a worker is presumed dead, and
        after which a connection that sent no hello is dropped
        (default: ``HEARTBEAT_TIMEOUT_INTERVALS * heartbeat_interval``).
    """

    dynamic = True

    def __init__(
        self,
        url: str,
        executor: Executor,
        n_workers: int,
        seed_seqs: Sequence[np.random.SeedSequence],
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        heartbeat_timeout: Optional[float] = None,
    ) -> None:
        self.host, self.port = parse_url(url, "tcp")
        if heartbeat_interval <= 0:
            raise ValueError(f"heartbeat_interval must be > 0, got {heartbeat_interval}")
        super().__init__(
            n_workers, seed_seqs,
            heartbeat_timeout
            if heartbeat_timeout is not None
            else HEARTBEAT_TIMEOUT_INTERVALS * heartbeat_interval,
        )
        self.heartbeat_interval = float(heartbeat_interval)
        self._executor_payload = executor_wire_spec(executor)
        self._listener: Optional[socket.socket] = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Bind the non-blocking listener; workers are accepted as it is read."""
        self._open()
        self._listener = socket.create_server(
            (self.host, self.port), backlog=self.n_workers + 2, reuse_port=False
        )
        self._listener.setblocking(False)
        self.port = self._listener.getsockname()[1]
        self._selector.register(self._listener, selectors.EVENT_READ, None)

    @property
    def address(self) -> str:
        """The bound ``tcp://host:port`` (port resolved after ``start``)."""
        return f"tcp://{self.host}:{self.port}"

    def initially_live(self) -> set:
        """No ranks: TCP workers join after the master starts listening."""
        return set()

    # -- accept and hello/welcome -------------------------------------------

    def _accept(self) -> None:
        """Register every pending connection; its first frame must be a hello."""
        # blocking sockets: a connection is only read once the selector
        # reports it readable, and sendall needs blocking mode
        socks = accept_pending(self._listener, timeout=None)
        if socks:
            self._reap_closed()  # a new socket may reuse a stale key's fd
        now = time.monotonic()
        for sock in socks:
            self._selector.register(sock, selectors.EVENT_READ, _Conn(now))

    def _refuse(self, sock: socket.socket, reason: str) -> None:
        """Answer a hello with ``shutdown`` and raise: the caller drops it."""
        send_frame(sock, Message(tag=MSG_SHUTDOWN, sender=0, payload={"reason": reason}))
        raise ValueError(f"worker refused: {reason}")

    def _greet(self, sock: socket.socket, conn: _Conn, hello: Message) -> None:
        """Welcome a connection's first frame onto the lowest free rank.

        Raises ``ValueError`` (the caller drops the connection) when the
        frame is not a hello, and after answering ``shutdown`` when the
        protocol version differs or every rank is taken.
        """
        if hello.tag != MSG_HELLO:
            raise ValueError("worker did not introduce itself with a hello frame")
        payload = hello.payload if isinstance(hello.payload, dict) else {}
        if payload.get("version") != PROTOCOL_VERSION:
            self._refuse(sock, "protocol version mismatch")
        # Capability vector: an optional, additive hello field — workers
        # predating it simply declare no capabilities.
        caps = payload.get("caps")
        if caps is not None and not isinstance(caps, list):
            raise ValueError(f"malformed caps {caps!r} in hello")
        rank = next((r for r in range(1, self.n_workers + 1) if r not in self._conns), None)
        if rank is None:
            self._refuse(sock, "all worker ranks are taken")
        send_frame(sock, Message(
            tag=MSG_WELCOME,
            sender=0,
            payload={
                "rank": rank,
                "seed": _seed_payload(self._seed_seqs[rank - 1]),
                "executor": self._executor_payload,
                "heartbeat_interval": self.heartbeat_interval,
            },
        ))
        # the rank is filled and the join queued in one step; the DIED
        # event can only come later, from _drop
        conn.rank = rank
        conn.last_seen = time.monotonic()
        self._conns[rank] = sock
        self._caps[rank] = normalize_caps(caps)
        self._events.append((EVENT_JOINED, rank))

    # -- monitoring ----------------------------------------------------------

    def stats(self) -> dict:
        """Connection counts for monitoring: connected ranks, caps, slots.

        Reads pending connections and frames first, without waiting, as
        :meth:`poll` does, so a caller waiting for joins sees them.
        """
        if self._reading():
            self._read_ready(0)
        return {
            "connected": sorted(self._conns),
            "caps": {r: sorted(c) for r, c in self._caps.items() if c},
            "n_workers": self.n_workers,
            "address": self.address,
        }


# -- the worker half ----------------------------------------------------------


def serve_tasks(sock: socket.socket, worker: MWWorker,
                heartbeat_interval: float) -> dict:
    """Serve task frames on ``sock`` until shutdown or EOF; returns stats.

    The loop of every socket worker once it has its rank (a forked
    worker at once, an ``mw-worker`` after the welcome), heartbeating
    every ``heartbeat_interval`` seconds from a background thread.  A
    ``shutdown`` frame, EOF or a broken stream ends it: the master is
    gone or done either way.
    """
    send_lock = threading.Lock()  # the heartbeat thread and the loop share sock
    stopped = threading.Event()

    def send(message: Message) -> None:
        with send_lock:
            send_frame(sock, message)

    def heartbeat() -> None:
        while not stopped.wait(heartbeat_interval):
            try:
                send(Message(tag=MSG_HEARTBEAT, sender=worker.rank))
            except (OSError, CodecError):
                return

    threading.Thread(target=heartbeat, daemon=True,
                     name=f"mw-heartbeat-{worker.rank}").start()
    try:
        while True:
            try:
                message = recv_frame(sock)
            except (OSError, CodecError):
                break
            if message is None or message.tag == MSG_SHUTDOWN:
                break
            if message.tag != MSG_TASK:
                continue  # tolerate stray traffic
            task = message.payload
            reply = worker.execute(task["task_id"], task["work"])
            try:
                send(reply)
            except (OSError, CodecError):
                break
    finally:
        stopped.set()
    return worker.stats()


class TcpWorkerEndpoint:
    """Worker side of the TCP transport: connect, handshake, serve tasks.

    The endpoint retries the initial connection until ``connect_timeout``
    elapses, so workers may be launched before the master is listening.
    After the welcome it runs :func:`serve_tasks` with an
    :class:`~repro.mw.worker.MWWorker` seeded from the master-assigned
    stream, until the master sends ``shutdown`` or closes the socket.

    Parameters
    ----------
    url:
        The master's ``tcp://host:port``.
    executor:
        Local executor override.  When ``None`` the endpoint resolves the
        master's wire spec (``module:attr``) — the normal mode for
        ``python -m repro mw-worker``.
    connect_timeout:
        Seconds to keep retrying the initial connection.
    caps:
        Capability names this worker advertises in its hello (e.g.
        ``["md", "fast"]``); the master only dispatches tasks whose
        constraint vector these cover.
    """

    def __init__(
        self,
        url: str,
        executor: Optional[Executor] = None,
        connect_timeout: float = 30.0,
        caps: Optional[Iterable[str]] = None,
    ) -> None:
        self.host, self.port = parse_url(url, "tcp")
        if self.port == 0:
            raise ValueError(f"worker needs an explicit master port, got {url!r}")
        self.executor = executor
        self.caps = normalize_caps(caps)
        self.connect_timeout = float(connect_timeout)
        self.rank: Optional[int] = None

    def _connect(self) -> socket.socket:
        """Dial the master, backing off until ``connect_timeout`` elapses."""
        sock = dial_with_backoff(self.host, self.port, self.connect_timeout)
        # a bounded timeout for the handshake only; the task loop resets
        # it to blocking (idle gaps between tasks can be arbitrarily long)
        sock.settimeout(max(self.connect_timeout, 30.0))
        return sock

    def run(self) -> dict:
        """Serve tasks until the master shuts down; returns worker stats.

        Raises ``OSError`` if the master cannot be reached within
        ``connect_timeout``, ``CodecError`` on a corrupt stream, and
        ``ValueError`` if no executor is available on either side.
        """
        sock = self._connect()
        try:
            return self._serve(sock)
        finally:
            close_quietly(sock)

    def _serve(self, sock: socket.socket) -> dict:
        """The handshake, then :func:`serve_tasks` on the connection."""
        hello_payload = {"version": PROTOCOL_VERSION}
        if self.caps:
            hello_payload["caps"] = sorted(self.caps)
        send_frame(sock, Message(tag=MSG_HELLO, sender=0, payload=hello_payload))
        welcome = recv_frame(sock)
        if welcome is None:
            raise CodecError("master closed the connection before welcome")
        if welcome.tag == MSG_SHUTDOWN:
            reason = (welcome.payload or {}).get("reason", "master refused the worker")
            return {"rank": None, "executed": 0, "errors": 0, "refused": reason}
        if welcome.tag != MSG_WELCOME:
            raise CodecError(f"expected welcome, got {welcome.tag!r}")
        payload = welcome.payload
        self.rank = int(payload["rank"])
        executor = self.executor
        if executor is None:
            if payload.get("executor") is None:
                raise ValueError(
                    "master did not provide an executor spec; launch the worker "
                    "with an explicit --executor module:attr"
                )
            executor = resolve_executor(payload["executor"])
        worker = MWWorker(self.rank, executor, _seed_from_payload(payload["seed"]),
                          caps=self.caps)
        # blocking from here (idle waits have no bound), with kernel
        # keepalive so a master that vanishes without FIN/RST still
        # unblocks the loop instead of orphaning the worker process
        sock.settimeout(None)
        enable_keepalive(sock)
        disable_nagle(sock)
        interval = float(payload.get("heartbeat_interval", DEFAULT_HEARTBEAT_INTERVAL))
        stats = serve_tasks(sock, worker, interval)
        stats["refused"] = None
        return stats


def run_worker(
    url: str,
    executor: Optional[Executor] = None,
    connect_timeout: float = 30.0,
    caps: Optional[Iterable[str]] = None,
) -> dict:
    """Run one standalone TCP worker to completion; returns its stats.

    The ``python -m repro mw-worker`` entrypoint: connects to the master
    at ``url``, declares its capability vector ``caps`` in the hello,
    serves tasks until the master shuts down, and reports
    ``{"rank", "executed", "errors", "refused"}``.
    """
    return TcpWorkerEndpoint(
        url, executor=executor, connect_timeout=connect_timeout, caps=caps
    ).run()
