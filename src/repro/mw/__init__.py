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

from repro.mw.codec import pack, unpack
from repro.mw.messages import (
    MSG_ERROR,
    MSG_RESULT,
    MSG_SHUTDOWN,
    MSG_TASK,
    Message,
    decode_message,
    encode_message,
)
from repro.mw.task import MWTask, TaskState
from repro.mw.worker import MWWorker, WorkerContext
from repro.mw.transport import (
    InprocTransport,
    ThreadedTransport,
    Transport,
    make_transport,
)
from repro.mw.tcp import ProcessTransport
from repro.mw.driver import MWDriver
from repro.mw.vertex_pool import MWVertexPool, VertexSampler
from repro.mw.fileio import FileIOChannel
from repro.mw.vertex_server import SimulationClient, VertexServer

__all__ = [
    "FileIOChannel",
    "InprocTransport",
    "MSG_ERROR",
    "MSG_RESULT",
    "MSG_SHUTDOWN",
    "MSG_TASK",
    "MWDriver",
    "MWTask",
    "MWVertexPool",
    "MWWorker",
    "Message",
    "ProcessTransport",
    "SimulationClient",
    "TaskState",
    "ThreadedTransport",
    "Transport",
    "VertexSampler",
    "VertexServer",
    "WorkerContext",
    "decode_message",
    "encode_message",
    "make_transport",
    "pack",
    "unpack",
]
