"""Transport — the MWRMComm layer separated from the driver (paper §3.1).

The Wisconsin MW hides its communication substrate behind an abstract
``MWRMComm`` with ``pack``/``unpack``/``send``/``recv`` primitives so the
same master logic runs over Condor, PVM or sockets.  This module is that
seam for the Python reproduction: :class:`Transport` carries
codec-encodable :class:`~repro.mw.messages.Message` frames between the
master (:class:`~repro.mw.driver.MWDriver`) and a set of worker *ranks*,
and the driver is written purely against it — scheduling, affinity,
retries and seeding live in the driver; *where the workers are* lives
here.

Two in-process transports live here:

* :class:`InprocTransport` — synchronous, deterministic; ``send``
  executes the task immediately and buffers the reply.
* :class:`ThreadedTransport` — one thread per worker over
  ``queue.Queue`` channels.

Every multi-process fleet is on the one socket stack of
:mod:`repro.mw.tcp`: the ``process`` transport forks local workers on
socketpairs, and a ``tcp://host:port`` spec selects the cross-host
transport, whose workers may join *after* the master starts (late
joiners), which the driver learns about through :meth:`Transport.poll`
events.  :func:`make_transport` maps any spec string to an instance.
"""

from __future__ import annotations

import importlib
import queue
import threading
from collections import deque
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.mw.messages import MSG_SHUTDOWN, MSG_TASK, Message
from repro.mw.worker import Executor, MWWorker
from repro.telemetry import NULL_TELEMETRY, Telemetry

#: Same-host transport names (a ``tcp://host:port`` URL is also accepted).
TRANSPORT_NAMES = ("inproc", "threaded", "process")

#: A transport lifecycle event: ``("joined" | "died", rank)``.
TransportEvent = Tuple[str, int]

EVENT_JOINED = "joined"
EVENT_DIED = "died"

#: The empty capability vector (shared; capability sets are immutable).
NO_CAPS: FrozenSet[str] = frozenset()


def normalize_caps(caps: Any) -> FrozenSet[str]:
    """Coerce a capability declaration to a ``frozenset`` of names.

    Accepts any iterable of strings (or ``None`` → empty).  Names are
    stripped; empty names are dropped, so ``"md,,fast".split(",")`` and
    ``["md", "fast"]`` normalize identically.
    """
    if not caps:
        return NO_CAPS
    return frozenset(s for s in (str(c).strip() for c in caps) if s)


def normalize_caps_map(worker_caps: Optional[Mapping[int, Any]]) -> Dict[int, FrozenSet[str]]:
    """Normalize a ``{rank: caps}`` config mapping (``None`` → empty dict)."""
    if not worker_caps:
        return {}
    return {int(rank): normalize_caps(caps) for rank, caps in worker_caps.items()}


class Transport:
    """Master-side view of a worker pool: frame routing plus liveness.

    A transport owns the communication channels to ``n_workers`` worker
    ranks (1-based; rank 0 is the master).  The driver calls
    :meth:`send` to dispatch a task frame to a rank, :meth:`recv` to
    collect the next worker reply, :meth:`poll` to learn which ranks
    joined or died since the last poll, and :meth:`close` to fan a clean
    shutdown out to every worker.  Implementations must tolerate
    ``close`` being called more than once.
    """

    #: ``send`` completes the task before returning; replies are
    #: immediately available from ``recv`` (the deterministic inproc mode).
    synchronous: bool = False
    #: Workers may join (or rejoin) after ``start`` — the driver must not
    #: give up when no rank is currently live.
    dynamic: bool = False
    #: Telemetry context transport-level metrics report through; the
    #: driver assigns its own before calling ``start``, so implementations
    #: should create metric handles in ``start``, not ``__init__``.
    #: Defaults to the shared no-op instance.
    telemetry: Telemetry = NULL_TELEMETRY

    def start(self) -> None:
        """Bring the transport up (bind sockets, spawn workers); no-op here."""

    def initially_live(self) -> Set[int]:
        """Ranks that are connected and usable immediately after ``start``."""
        raise NotImplementedError

    def worker_caps(self, rank: int) -> FrozenSet[str]:
        """Capability vector worker ``rank`` declared (empty if none/unknown).

        Local transports learn caps from the ``worker_caps`` config option
        of :func:`make_transport`; the TCP transport learns them from each
        worker's hello handshake.  The driver matches task constraints
        against this set when picking a worker.
        """
        return NO_CAPS

    def send(self, rank: int, message: Message) -> None:
        """Deliver ``message`` to worker ``rank`` (best-effort for dead ranks)."""
        raise NotImplementedError

    def recv(self, timeout: Optional[float] = None) -> Optional[Message]:
        """Next worker reply, or ``None`` if nothing arrives within ``timeout``.

        ``timeout=None`` blocks until a reply is available; ``timeout=0``
        polls without blocking.  A transport that reports liveness events
        may return ``None`` early when one is queued during the wait, so
        the caller can :meth:`poll` it at once.
        """
        raise NotImplementedError

    def poll(self) -> List[TransportEvent]:
        """Liveness events since the last poll, in chronological order."""
        return []

    def close(self) -> None:
        """Shut every worker down and release channels; idempotent."""
        raise NotImplementedError


class InprocTransport(Transport):
    """Deterministic single-threaded transport: tasks run inside ``send``.

    The historical ``inproc`` backend: no concurrency, synchronous
    round-robin execution, used by unit tests and the virtual-cluster
    simulator.  Replies buffer in FIFO order and drain through ``recv``.
    """

    synchronous = True

    def __init__(
        self,
        executor: Executor,
        seed_seqs: Sequence[np.random.SeedSequence],
        worker_caps: Optional[Mapping[int, Any]] = None,
    ) -> None:
        self._caps = normalize_caps_map(worker_caps)
        self.workers: Dict[int, MWWorker] = {
            rank: MWWorker(rank, executor, seq, caps=self._caps.get(rank))
            for rank, seq in enumerate(seed_seqs, start=1)
        }
        self._replies: deque[Message] = deque()

    def initially_live(self) -> Set[int]:
        """All ranks: in-process workers exist from construction."""
        return set(self.workers)

    def worker_caps(self, rank: int) -> FrozenSet[str]:
        """Caps from the ``worker_caps`` config mapping (empty default)."""
        return self._caps.get(rank, NO_CAPS)

    def send(self, rank: int, message: Message) -> None:
        """Execute a task message synchronously, buffering the reply."""
        if message.tag != MSG_TASK:
            return
        payload = message.payload
        reply = self.workers[rank].execute(payload["task_id"], payload["work"])
        self._replies.append(reply)

    def recv(self, timeout: Optional[float] = None) -> Optional[Message]:
        """Pop the oldest buffered reply (never blocks)."""
        return self._replies.popleft() if self._replies else None

    def close(self) -> None:
        """Nothing to tear down for in-process workers."""


class ThreadedTransport(Transport):
    """One Python thread per worker rank over ``queue.Queue`` channels.

    Messages travel un-encoded (same interpreter); real overlap for
    I/O-bound executors.
    """

    def __init__(
        self,
        executor: Executor,
        seed_seqs: Sequence[np.random.SeedSequence],
        worker_caps: Optional[Mapping[int, Any]] = None,
    ) -> None:
        self._caps = normalize_caps_map(worker_caps)
        self.workers: Dict[int, MWWorker] = {
            rank: MWWorker(rank, executor, seq, caps=self._caps.get(rank))
            for rank, seq in enumerate(seed_seqs, start=1)
        }
        self._inboxes: Dict[int, queue.Queue] = {r: queue.Queue() for r in self.workers}
        self._outbox: queue.Queue = queue.Queue()
        self._threads: Dict[int, threading.Thread] = {}

    def start(self) -> None:
        """Start one daemon thread per worker running its receive loop."""
        for rank, worker in self.workers.items():
            t = threading.Thread(
                target=worker.run_loop,
                args=(self._inboxes[rank], self._outbox),
                daemon=True,
                name=f"mw-worker-{rank}",
            )
            t.start()
            self._threads[rank] = t

    def initially_live(self) -> Set[int]:
        """All ranks: threads are running once ``start`` returns."""
        return set(self.workers)

    def worker_caps(self, rank: int) -> FrozenSet[str]:
        """Caps from the ``worker_caps`` config mapping (empty default)."""
        return self._caps.get(rank, NO_CAPS)

    def send(self, rank: int, message: Message) -> None:
        """Enqueue the message on the rank's inbox."""
        self._inboxes[rank].put(message)

    def poll(self) -> List[TransportEvent]:
        """Each worker thread an executor's ``SystemExit`` or
        ``KeyboardInterrupt`` ended, reported once."""
        dead = [rank for rank, t in self._threads.items() if not t.is_alive()]
        for rank in dead:
            del self._threads[rank]
        return [(EVENT_DIED, rank) for rank in dead]

    def recv(self, timeout: Optional[float] = None) -> Optional[Message]:
        """Blocking pop from the shared outbox (``None`` on timeout)."""
        try:
            if timeout == 0:
                return self._outbox.get_nowait()
            return self._outbox.get(timeout=timeout)
        except queue.Empty:
            return None

    def close(self) -> None:
        """Send shutdown to every thread and join them (bounded wait)."""
        for rank in self._inboxes:
            self._inboxes[rank].put(Message(tag=MSG_SHUTDOWN, sender=0))
        for t in self._threads.values():
            t.join(timeout=5.0)


# -- executor wire specs ------------------------------------------------------
#
# Cross-host transports cannot ship code: the codec carries data only (no
# pickle).  Instead the master describes its executor as an importable
# "module:attr" spec that standalone workers resolve locally, the same way
# the paper's workers import the simulation binary from their own disk.


def spec_of(obj: Any) -> Optional[str]:
    """``"module:attr"`` for an importable module-level callable, else ``None``."""
    module = getattr(obj, "__module__", None)
    qualname = getattr(obj, "__qualname__", None)
    if not module or not isinstance(qualname, str) or "." in qualname:
        return None
    try:
        imported = importlib.import_module(module)
    except ImportError:
        return None
    if getattr(imported, qualname, None) is not obj:
        return None
    return f"{module}:{qualname}"


def executor_wire_spec(executor: Executor) -> Optional[dict]:
    """Describe ``executor`` for the wire, or ``None`` if it cannot travel.

    Returns ``{"kind": "executor", "spec": "module:attr"}`` for an
    importable module-level callable.
    """
    spec = spec_of(executor)
    if spec is None:
        return None
    return {"kind": "executor", "spec": spec}


def resolve_executor(payload: dict) -> Executor:
    """Inverse of :func:`executor_wire_spec`: import the callable.

    Raises ``ValueError`` for malformed payloads and lets import errors
    propagate with their natural message (the worker operator needs it).
    """
    if not isinstance(payload, dict) or "spec" not in payload:
        raise ValueError(f"malformed executor spec {payload!r}")
    kind = payload.get("kind", "executor")
    module_name, sep, attr = str(payload["spec"]).partition(":")
    if not sep or not attr:
        raise ValueError(f"executor spec must be 'module:attr', got {payload['spec']!r}")
    if kind != "executor":
        raise ValueError(f"unknown executor kind {kind!r}")
    return getattr(importlib.import_module(module_name), attr)


# -- factory ------------------------------------------------------------------


def is_tcp_spec(spec: str) -> bool:
    """Whether ``spec`` selects the TCP transport (``tcp://host:port``)."""
    return isinstance(spec, str) and spec.startswith("tcp://")


def make_transport(
    spec: str,
    executor: Executor,
    n_workers: int,
    seed_seqs: Sequence[np.random.SeedSequence],
    **options: Any,
) -> Transport:
    """Build the transport named by ``spec``.

    ``spec`` is ``"inproc"``, ``"threaded"``, ``"process"`` or a
    ``tcp://host:port`` URL (the master listens there; ``port`` may be 0
    for an ephemeral port).  ``options`` are forwarded to the TCP
    transport (heartbeat tuning); the same-host transports accept only
    ``worker_caps`` — a ``{rank: [capability, …]}`` mapping standing in
    for the capability declaration TCP workers make in their hello
    handshake.
    """
    if spec in ("inproc", "threaded", "process"):
        worker_caps = options.pop("worker_caps", None)
        if options:
            raise ValueError(
                f"transport {spec!r} accepts only the worker_caps option, "
                f"got {options}"
            )
        if spec == "inproc":
            return InprocTransport(executor, seed_seqs, worker_caps=worker_caps)
        if spec == "threaded":
            return ThreadedTransport(executor, seed_seqs, worker_caps=worker_caps)
        from repro.mw.tcp import ProcessTransport

        return ProcessTransport(executor, seed_seqs, worker_caps=worker_caps)
    if is_tcp_spec(spec):
        from repro.mw.tcp import TcpMasterTransport

        return TcpMasterTransport(
            spec,
            executor=executor,
            n_workers=n_workers,
            seed_seqs=seed_seqs,
            **options,
        )
    raise ValueError(
        f"backend must be one of {TRANSPORT_NAMES} or a tcp://host:port URL, "
        f"got {spec!r}"
    )
