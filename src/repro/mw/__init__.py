"""MW — a from-scratch master-worker framework (paper §3.1, §4.3).

The paper re-implements three classes of the University of Wisconsin MW
library: ``MWDriver`` (the master: manages workers, dispatches tasks),
``MWWorker`` (executes tasks, reports results, waits for more) and ``MWTask``
(one unit of work plus its result).  Communication goes through an abstract
``MWRMComm`` layer with ``pack``/``unpack``/``send``/``recv`` primitives that
can ride on different transports.

This package mirrors that decomposition in Python: the master is written
against the :class:`~repro.mw.transport.Transport` seam (the MWRMComm
role), with four interchangeable transports:

* ``inproc``  — deterministic, single-threaded message passing (default; the
  event-driven cluster model in :mod:`repro.cluster` builds on it),
* ``threaded`` — real concurrency via ``queue.Queue`` and worker threads,
* ``process`` — real parallelism: forked worker processes, each on one end
  of a socketpair, running the same task loop as a tcp worker,
* ``tcp://host:port`` — cross-host sockets: the master listens, standalone
  ``python -m repro mw-worker`` processes connect from anywhere, no shared
  filesystem required.

Both multi-process transports live in :mod:`repro.mw.tcp` and share its
master read path and worker loop.

Tasks and workers never talk to each other directly — results go to the
master, which "has the ability to direct a cessation of work at one point in
parameter space and the initiation of new simulations at a different point".
"""

from repro._lazy import lazy_exports as _lazy_exports

# Lazy, so an `mw-worker` (which needs `.tcp` and its worker loop)
# imports neither the driver nor the Fig. 3.2 vertex server and file-I/O
# layers.
_EXPORTS = {
    "repro.mw.codec": (
        "pack",
        "unpack",
    ),
    "repro.mw.messages": (
        "MSG_ERROR",
        "MSG_RESULT",
        "MSG_SHUTDOWN",
        "MSG_TASK",
        "Message",
        "decode_message",
        "encode_message",
    ),
    "repro.mw.task": (
        "MWTask",
        "TaskState",
    ),
    "repro.mw.worker": (
        "MWWorker",
        "WorkerContext",
    ),
    "repro.mw.transport": (
        "InprocTransport",
        "ThreadedTransport",
        "Transport",
        "make_transport",
    ),
    "repro.mw.tcp": (
        "ProcessTransport",
    ),
    "repro.mw.driver": (
        "MWDriver",
    ),
    "repro.mw.fileio": (
        "FileIOChannel",
    ),
    "repro.mw.vertex_server": (
        "SimulationClient",
        "VertexServer",
    ),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [name for names in _EXPORTS.values() for name in names]
