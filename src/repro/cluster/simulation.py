"""MW-on-a-cluster time accounting for the scale-up study (Fig. 3.18).

:class:`SimulatedMWPool` is a drop-in evaluation pool that charges virtual
time for the framework's communication on top of the sampling time itself.
Per dispatch cycle (one ``advance``), the master serially

* packs and sends one task message per active vertex over the MPI fabric,
* writes/reads the per-vertex spool files at the simplex level serially
  (``master_io_per_vertex`` each),
* each worker forwards the request to its server over file I/O (parallel
  across vertices, so only the slowest single hop counts),
* results return the same way, gathered serially at the master.

That gives ``overhead(n) = n (2 T_mpi(msg) + T_master_io) + 2 T_file(msg)``
for ``n`` active vertices — linear in the vertex count, which for the
Rosenbrock scale-up means the time *per simplex step* grows mildly with
dimension, "minor, and attributed to the I/O at the simplex and vertex
levels" exactly as the paper reports for Fig. 3.18c.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.allocation import ProcessorAllocation
from repro.cluster.network import NetworkModel
from repro.cluster.node import Cluster
from repro.noise.stochastic import SamplingPool, StochasticFunction


class SimulatedMWPool(SamplingPool):
    """Sampling pool that also charges MW communication overheads.

    Parameters
    ----------
    func:
        Stochastic objective (as for :class:`SamplingPool`).
    cluster:
        Virtual cluster; construction verifies the paper's processor
        allocation for ``(dim, ns)`` fits on it.
    dim, ns:
        Problem dimensionality and per-vertex simulation count, for the
        Table 3.3 processor accounting.
    mpi, fileio:
        Network models for the two communication levels (defaults: the
        paper's Myrinet MPI fabric and spool-file I/O).
    task_bytes, result_bytes:
        Message sizes; defaults approximate a packed theta vector plus
        headers.
    """

    def __init__(
        self,
        func: StochasticFunction,
        cluster: Cluster,
        dim: int,
        ns: int = 1,
        warmup: float = 1.0,
        mpi: Optional[NetworkModel] = None,
        fileio: Optional[NetworkModel] = None,
        task_bytes: Optional[int] = None,
        result_bytes: int = 256,
        master_io_per_vertex: float = 5e-3,
    ) -> None:
        super().__init__(func, warmup=warmup, concurrent=True)
        self.allocation = ProcessorAllocation.for_problem(dim, ns)
        if self.allocation.total > cluster.total_cores:
            raise ValueError(
                f"allocation needs {self.allocation.total} cores; cluster has "
                f"{cluster.total_cores}"
            )
        self.cluster = cluster
        self.mpi = mpi if mpi is not None else NetworkModel.myrinet_10g()
        self.fileio = fileio if fileio is not None else NetworkModel.file_io()
        # one packed float64 per dimension plus framing
        self.task_bytes = task_bytes if task_bytes is not None else 8 * dim + 64
        self.result_bytes = int(result_bytes)
        if master_io_per_vertex < 0.0:
            raise ValueError(
                f"master_io_per_vertex must be >= 0, got {master_io_per_vertex}"
            )
        self.master_io_per_vertex = float(master_io_per_vertex)
        self.n_dispatch_cycles = 0
        self.comm_overhead = 0.0

    def _cycle_overhead(self, n_active: int) -> float:
        """Virtual seconds of communication for one dispatch cycle."""
        if n_active == 0:
            return 0.0
        # master serializes sends/receives over MPI plus its per-vertex
        # simplex-level spool-file bookkeeping
        per_vertex = (
            self.mpi.round_trip(self.task_bytes, self.result_bytes)
            + self.master_io_per_vertex
        )
        # worker<->server file hops run in parallel across vertices
        file_cost = self.fileio.round_trip(self.task_bytes, self.result_bytes)
        return n_active * per_vertex + file_cost

    def advance_rounds(self, dt: float, targets=None):
        """Sample like :class:`SamplingPool`, then charge the cycle's
        communication overhead (synchronous :meth:`advance` and the
        ask/tell engine both drive this)."""
        now = yield from super().advance_rounds(dt, targets=targets)
        overhead = self._cycle_overhead(len(self.active))
        self.n_dispatch_cycles += 1
        self.comm_overhead += overhead
        if overhead > 0.0:
            now = self.clock.advance(overhead)
        return now
