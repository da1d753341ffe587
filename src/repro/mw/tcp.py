"""TCP socket transport: cross-host master-worker without a shared filesystem.

Completes the paper's §4.3 picture — evaluation workers on *remote
processors* — with a small framed protocol over plain sockets:

* every frame is a :mod:`repro.wire` frame — a big-endian u32 length
  prefix — around one codec-encoded :class:`~repro.mw.messages.Message`
  (truncated or oversized frames raise :class:`~repro.wire.CodecError`,
  never hang);
* the master (:class:`TcpMasterTransport`) listens on ``tcp://host:port``
  and accepts workers whenever they show up — *late joiners* are welcome,
  which is how a campaign master on one host is served by workers
  launched minutes later on others;
* a joining worker sends ``hello`` (protocol version plus an optional
  ``caps`` capability vector, e.g. ``["md", "fast"]``, that the driver
  matches against task constraint vectors); the master answers
  ``welcome`` with the worker's assigned rank, its spawned seed stream
  (entropy + spawn key, so per-rank RNG streams are identical to the
  same-host transports), the executor's importable ``module:attr`` wire
  spec, and the heartbeat interval;
* after the handshake the master runs no thread per connection: the
  driver's own thread reads every worker through one selector inside
  :meth:`TcpMasterTransport.recv` and :meth:`TcpMasterTransport.poll`,
  splitting complete frames out of a per-connection buffer with
  :func:`repro.wire.split_frames`;
* workers heartbeat between tasks; a silent or disconnected worker is
  reported dead through :meth:`TcpMasterTransport.poll`, which feeds the
  driver's existing crash-requeue path, and its rank becomes free so a
  replacement worker is "restarted on the same processors" (§3.1).
  ``poll`` reads pending frames before judging silence, so heartbeats
  that queued while the driver was busy still count;
* master shutdown fans a ``shutdown`` frame to every connected worker and
  closes all sockets, so ``python -m repro mw-worker`` processes exit
  cleanly when the campaign finishes.

The standalone worker entrypoint is :func:`run_worker`, exposed on the
CLI as ``python -m repro mw-worker tcp://host:port``.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from collections import deque
from typing import Deque, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

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

#: Protocol version carried in the hello/welcome handshake.
#: Version 2 added the homogeneous ``list[str]``/``list[int]`` codec tags,
#: which a version-1 peer cannot decode.
PROTOCOL_VERSION = 2

#: Default seconds between worker heartbeats.
DEFAULT_HEARTBEAT_INTERVAL = 1.0

#: Dead-peer detection: a worker silent for this many heartbeat intervals
#: (no heartbeat, result, or error frame) is presumed crashed.
HEARTBEAT_TIMEOUT_INTERVALS = 5.0


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


class TcpMasterTransport(Transport):
    """Master side of the TCP transport: listener, registry, heartbeats.

    Owns ``n_workers`` rank slots.  Workers connect at any time; each is
    welcomed onto the lowest free rank (a rank freed by a dead worker is
    reused first-come, so replacements inherit the dead worker's seed
    stream and affinity).  Excess workers beyond ``n_workers`` are turned
    away with a ``shutdown`` frame.

    Threading: a background thread accepts connections and a short-lived
    thread runs each handshake, so a slow joiner never stalls the master.
    Once welcomed, a connection is handed to the *driver's* thread — the
    one calling :meth:`recv`, :meth:`poll`, :meth:`send` and
    :meth:`close` — which reads every worker through one selector.  No
    thread exists per connection: replies are decoded where they are
    consumed, and the master's thread count does not grow with the fleet.

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
        Seconds of silence after which a worker is presumed dead
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
        self.n_workers = int(n_workers)
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_timeout = float(
            heartbeat_timeout
            if heartbeat_timeout is not None
            else HEARTBEAT_TIMEOUT_INTERVALS * heartbeat_interval
        )
        self._seed_seqs = list(seed_seqs)
        self._executor_payload = executor_wire_spec(executor)
        # Shared with the accept/handshake threads, under _lock.
        self._lock = threading.Lock()
        self._conns: Dict[int, socket.socket] = {}
        self._caps: Dict[int, FrozenSet[str]] = {}
        self._last_seen: Dict[int, float] = {}
        self._events: List[TransportEvent] = []
        self._joined: List[Tuple[int, socket.socket]] = []  # awaiting the selector
        self._threads: List[threading.Thread] = []
        self._listener: Optional[socket.socket] = None
        self._closing = False
        # The driver thread's alone: the selector over live connections
        # (each key's data is ``(rank, receive buffer)``; the waker's is
        # None), the socketpair handshakes use to interrupt a blocked
        # select, and complete replies not yet returned by recv().
        self._selector: Optional[selectors.BaseSelector] = None
        self._waker: Optional[Tuple[socket.socket, socket.socket]] = None
        self._inbox: Deque[Message] = deque()
        # Re-bound against the live telemetry context in start(); null here
        # so a transport used without a driver still counts safely.
        self._m_sent = NULL_COUNTER
        self._m_received = NULL_COUNTER
        self._m_heartbeat_gap = NULL_HISTOGRAM

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Bind the listener and start accepting workers in the background."""
        # Metric handles are bound here, after the driver has assigned its
        # telemetry context (Transport.telemetry is set post-construction).
        self._m_sent = self.telemetry.counter(
            "repro_mw_frames_total", "TCP frames by direction.",
            direction="sent",
        )
        self._m_received = self.telemetry.counter(
            "repro_mw_frames_total", "TCP frames by direction.",
            direction="received",
        )
        self._m_heartbeat_gap = self.telemetry.histogram(
            "repro_mw_heartbeat_gap_seconds",
            "Silence between worker frames as read by the master at each "
            "heartbeat (RTT + scheduling delay + master busy time).",
        )
        self._selector = selectors.DefaultSelector()
        wake_r, wake_w = socket.socketpair()
        wake_r.setblocking(False)
        wake_w.setblocking(False)
        self._waker = (wake_r, wake_w)
        self._selector.register(wake_r, selectors.EVENT_READ, None)
        self._listener = socket.create_server(
            (self.host, self.port), backlog=self.n_workers + 2, reuse_port=False
        )
        # closing a socket does not wake a thread blocked in accept() on
        # Linux, so the accept loop polls with a short timeout instead
        self._listener.settimeout(0.25)
        self.port = self._listener.getsockname()[1]
        t = threading.Thread(target=self._accept_loop, daemon=True, name="mw-tcp-accept")
        t.start()
        self._threads.append(t)

    @property
    def address(self) -> str:
        """The bound ``tcp://host:port`` (port resolved after ``start``)."""
        return f"tcp://{self.host}:{self.port}"

    def initially_live(self) -> set:
        """No ranks: TCP workers join after the master starts listening."""
        return set()

    def close(self) -> None:
        """Fan shutdown out to every worker, close all sockets; idempotent."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
            conns = list(self._conns.values())
            self._conns.clear()
        for sock in conns:
            try:
                send_frame(sock, Message(tag=MSG_SHUTDOWN, sender=0))
            except (OSError, CodecError):
                pass
            close_quietly(sock)
        if self._listener is not None:
            close_quietly(self._listener)
        if self._selector is not None:
            self._selector.close()
        for end in self._waker or ():
            end.close()
        for t in self._threads:
            t.join(timeout=5.0)

    # -- master-side plumbing ---------------------------------------------

    def _accept_loop(self) -> None:
        """Accept connections until the listener closes; handshake each."""
        while True:
            try:
                sock, _addr = self._listener.accept()
            except socket.timeout:
                with self._lock:
                    if self._closing:
                        return
                continue
            except OSError:
                return  # listener closed
            # handshake on its own thread: one silent or slow connection
            # (port scanner, health probe) must not block other joiners
            threading.Thread(
                target=self._handshake_guarded, args=(sock,),
                daemon=True, name="mw-tcp-handshake",
            ).start()

    def _handshake_guarded(self, sock: socket.socket) -> None:
        """Run one handshake, closing the socket on any failure."""
        try:
            self._handshake(sock)
        except (OSError, CodecError, ValueError):
            close_quietly(sock)

    def _handshake(self, sock: socket.socket) -> None:
        """Welcome one connecting worker onto a free rank (or turn it away)."""
        sock.settimeout(self.heartbeat_timeout)
        hello = recv_frame(sock)
        if hello is None or hello.tag != MSG_HELLO:
            raise ValueError("worker did not introduce itself with a hello frame")
        version = (hello.payload or {}).get("version")
        if version != PROTOCOL_VERSION:
            send_frame(sock, Message(tag=MSG_SHUTDOWN, sender=0,
                                     payload={"reason": "protocol version mismatch"}))
            raise ValueError(f"unsupported protocol version {version!r}")
        # Capability vector: an optional, additive hello field — workers
        # predating it simply declare no capabilities.
        caps = normalize_caps((hello.payload or {}).get("caps"))
        with self._lock:
            if self._closing:
                raise ValueError("transport is closing")
            free = [r for r in range(1, self.n_workers + 1) if r not in self._conns]
            if not free:
                rank = None
            else:
                rank = free[0]
                self._conns[rank] = sock
                self._caps[rank] = caps
                self._last_seen[rank] = time.monotonic()
        if rank is None:
            send_frame(sock, Message(tag=MSG_SHUTDOWN, sender=0,
                                     payload={"reason": "all worker ranks are taken"}))
            raise ValueError("no free worker rank")
        welcome = Message(
            tag=MSG_WELCOME,
            sender=0,
            payload={
                "rank": rank,
                "seed": _seed_payload(self._seed_seqs[rank - 1]),
                "executor": self._executor_payload,
                "heartbeat_interval": self.heartbeat_interval,
            },
        )
        try:
            send_frame(sock, welcome)
        except OSError:
            self._forget(rank, sock, report=False)
            raise
        # blocking from here: the driver thread only reads a connection
        # the selector reported readable, and sendall needs blocking mode
        sock.settimeout(None)
        enable_keepalive(sock)
        disable_nagle(sock)
        with self._lock:
            if self._conns.get(rank) is not sock:
                # swept dead (welcome stalled past the heartbeat window) or
                # superseded while we handshook; do not announce the join
                raise ValueError("connection lost during handshake")
            self._last_seen[rank] = time.monotonic()
            # the join is queued in the same step that hands the connection
            # to the driver thread, the only source of its DIED event — so
            # a died-before-joined inversion is impossible
            self._events.append((EVENT_JOINED, rank))
            self._joined.append((rank, sock))
        self._wake()

    def _wake(self) -> None:
        """Interrupt the driver thread's select so it adopts new joiners."""
        try:
            self._waker[1].send(b"\0")
        except OSError:
            pass  # a full waker buffer is already a pending wake-up; closed is moot

    def _forget(self, rank: int, sock: socket.socket, report: bool = True) -> None:
        """Unregister a connection; report the death unless we are closing."""
        with self._lock:
            if self._conns.get(rank) is not sock:
                return
            del self._conns[rank]
            self._caps.pop(rank, None)
            self._last_seen.pop(rank, None)
            if report and not self._closing:
                self._events.append((EVENT_DIED, rank))

    # -- driver-thread receive path ------------------------------------------

    def _drop(self, rank: int, sock: socket.socket) -> None:
        """Stop reading a connection, report it dead and close it."""
        try:
            self._selector.unregister(sock)
        except (KeyError, ValueError):
            pass  # not adopted yet, or the selector is closed
        self._forget(rank, sock)
        close_quietly(sock)

    def _adopt_joined(self) -> None:
        """Register connections welcomed since the last call with the selector."""
        with self._lock:
            joined, self._joined = self._joined, []
            live = [(rank, sock) for rank, sock in joined if self._conns.get(rank) is sock]
        for rank, sock in live:
            self._selector.register(sock, selectors.EVENT_READ, (rank, bytearray()))

    def _reap_closed(self) -> None:
        """Drop connections whose socket was closed under the selector.

        A closed descriptor silently leaves epoll; without this its number
        could be reused by the next joiner and collide with the stale key.
        """
        for key in list(self._selector.get_map().values()):
            if key.data is not None and key.fileobj.fileno() < 0:
                self._drop(key.data[0], key.fileobj)

    def _read_ready(self, timeout: Optional[float]) -> None:
        """Wait up to ``timeout`` for readable connections and read each once.

        Complete frames are split off each connection's buffer: heartbeats
        are consumed here, replies queue in :attr:`_inbox`.  EOF, a socket
        error, or a malformed frame drops that connection alone.
        """
        if self._joined:
            self._adopt_joined()
        for key, _events in self._selector.select(timeout):
            if key.data is None:
                try:
                    while key.fileobj.recv(4096):
                        pass
                except BlockingIOError:
                    pass
                self._adopt_joined()
                continue
            rank, buf = key.data
            sock = key.fileobj
            try:
                chunk = sock.recv(RECV_CHUNK_BYTES)
                if chunk:
                    buf += chunk
                    for payload in split_frames(buf):
                        self._receive(rank, sock, decode_message(payload))
                    continue
            except (OSError, CodecError):
                pass
            self._drop(rank, sock)  # EOF, socket error or malformed frame

    def _receive(self, rank: int, sock: socket.socket, message: Message) -> None:
        """Note the sign of life; keep a reply, consume a heartbeat."""
        now = time.monotonic()
        with self._lock:
            if self._conns.get(rank) is not sock:
                return  # superseded (e.g. presumed dead, rank reused)
            gap = now - self._last_seen.get(rank, now)
            self._last_seen[rank] = now
        self._m_received.inc()
        if message.tag == MSG_HEARTBEAT:
            # The silence a heartbeat ends approximates one worker round
            # trip plus scheduling delay — the RTT series.  It is measured
            # when the driver reads the frame, so master busy time counts.
            self._m_heartbeat_gap.observe(gap)
            return
        self._inbox.append(message)

    # -- Transport interface ----------------------------------------------

    def send(self, rank: int, message: Message) -> None:
        """Frame and send to one worker; a failed send reports it dead."""
        with self._lock:
            sock = self._conns.get(rank)
        if sock is None:
            return  # died between poll and send; poll() already reported it
        try:
            send_frame(sock, message)
            self._m_sent.inc()
        except (OSError, CodecError):
            self._drop(rank, sock)

    def recv(self, timeout: Optional[float] = None) -> Optional[Message]:
        """Next worker result/error frame (``None`` on timeout).

        Reads the connections on the calling thread: waits in the
        selector until a reply is complete or ``timeout`` elapses.
        """
        if self._inbox:
            return self._inbox.popleft()
        if self._selector is None or self._closing:
            return None
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            wait = None if deadline is None else max(0.0, deadline - time.monotonic())
            self._read_ready(wait)
            if self._inbox:
                return self._inbox.popleft()
            if deadline is not None and time.monotonic() >= deadline:
                return None

    def poll(self) -> List[TransportEvent]:
        """Drain join/death events; also sweep for heartbeat timeouts.

        Readable connections are drained first (without waiting), so a
        worker whose heartbeats sat unread while the driver was busy is
        credited with them before the sweep judges its silence.
        """
        if self._selector is not None and not self._closing:
            self._reap_closed()
            self._read_ready(0)
        now = time.monotonic()
        stale: List[Tuple[int, socket.socket]] = []
        with self._lock:
            for rank, sock in self._conns.items():
                if now - self._last_seen.get(rank, now) > self.heartbeat_timeout:
                    stale.append((rank, sock))
        for rank, sock in stale:
            self._drop(rank, sock)
        with self._lock:
            events, self._events = self._events, []
        return events

    def worker_caps(self, rank: int) -> FrozenSet[str]:
        """Caps rank ``rank`` declared in its hello (empty if unknown/dead)."""
        with self._lock:
            return self._caps.get(rank, NO_CAPS)

    def stats(self) -> dict:
        """Connection counts for monitoring: connected ranks, caps, slots."""
        with self._lock:
            return {
                "connected": sorted(self._conns),
                "caps": {r: sorted(c) for r, c in self._caps.items() if c},
                "n_workers": self.n_workers,
                "address": self.address,
            }


class TcpWorkerEndpoint:
    """Worker side of the TCP transport: connect, handshake, serve tasks.

    The endpoint retries the initial connection until ``connect_timeout``
    elapses, so workers may be launched before the master is listening.
    After the welcome it executes ``task`` frames one at a time with an
    :class:`~repro.mw.worker.MWWorker` seeded from the master-assigned
    stream, heartbeating from a background thread, until the master sends
    ``shutdown`` or closes the socket.

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
        self._send_lock = threading.Lock()
        self._stop_heartbeat = threading.Event()

    def _connect(self) -> socket.socket:
        """Dial the master, backing off until ``connect_timeout`` elapses."""
        sock = dial_with_backoff(self.host, self.port, self.connect_timeout)
        # a bounded timeout for the handshake only; the task loop resets
        # it to blocking (idle gaps between tasks can be arbitrarily long)
        sock.settimeout(max(self.connect_timeout, 30.0))
        return sock

    def _send(self, sock: socket.socket, message: Message) -> None:
        """Serialized frame write (heartbeat thread and task loop share it)."""
        with self._send_lock:
            send_frame(sock, message)

    def _heartbeat_loop(self, sock: socket.socket, interval: float) -> None:
        """Send a heartbeat every ``interval`` seconds until stopped."""
        rank = self.rank or 0
        while not self._stop_heartbeat.wait(interval):
            try:
                self._send(sock, Message(tag=MSG_HEARTBEAT, sender=rank))
            except (OSError, CodecError):
                return

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
            self._stop_heartbeat.set()
            close_quietly(sock)

    def _serve(self, sock: socket.socket) -> dict:
        """The handshake + task loop on an established connection."""
        hello_payload = {"version": PROTOCOL_VERSION}
        if self.caps:
            hello_payload["caps"] = sorted(self.caps)
        self._send(sock, Message(tag=MSG_HELLO, sender=0, payload=hello_payload))
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
        beat = threading.Thread(
            target=self._heartbeat_loop, args=(sock, interval),
            daemon=True, name=f"mw-tcp-heartbeat-{self.rank}",
        )
        beat.start()
        while True:
            # after the handshake, a broken stream means the master is gone
            # (crash, or the shutdown/close race) — exit cleanly, do not
            # traceback: the worker's job is over either way
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
                self._send(sock, reply)
            except (OSError, CodecError):
                break
        stats = worker.stats()
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
