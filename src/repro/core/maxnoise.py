"""Algorithm 2 — the max-noise (MN) algorithm.

MN inserts a *wait gate* (eq. 2.3) into the simplex loop: the move decision is
postponed until the noisiest vertex's variance is small compared to the
internal variance of the vertex function values,

    max_i sigma_i^2(t_i)  <=  k * mean_i ( g(theta_i) - gbar )^2 .

Early in the optimization the vertices are far apart in function value, so the
gate passes cheaply (poor parameter values are rejected after only short
sampling); late in the optimization the vertices cluster and the gate forces
long sampling so that moves are made on reliable estimates.  ``k`` only
controls the speed of convergence, not the outcome — a small value in 1..5 is
appropriate (§3.2).

Through the ask/tell seam (:mod:`repro.core.base`) every unsatisfied gate
check becomes one proposal round: with ``wait_target="all"`` the round holds
a proposal per active vertex (the whole simplex refines in parallel, the MW
deployment model); with ``"noisiest"`` it is a single-proposal round.  The
geometric ``wait_growth`` schedule is what keeps the number of rounds — and
hence ask/tell round-trips — logarithmic in the required sampling time.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.base import SimplexOptimizer
from repro.core.termination import TerminationCriterion
from repro.noise.stochastic import SamplingPool, StochasticFunction


class MaxNoise(SimplexOptimizer):
    """MN: classic simplex decisions behind the eq. 2.3 sampling gate.

    Parameters
    ----------
    k:
        Gate constant of eq. 2.3 (paper sweeps 2..5 in Table 3.1).
    wait_dt:
        Initial wait quantum; each unsatisfied check grows it geometrically by
        ``wait_growth`` so the gate resolves in logarithmically many rounds.
    wait_target:
        ``"all"`` (default): while waiting, every active vertex keeps
        sampling (the MW deployment model).  ``"noisiest"``: only the single
        noisiest vertex receives additional sampling — an ablation variant
        (see DESIGN.md §5) that spends less total CPU for the same wall time.

    .. note::
       On a (near-)flat surface with ``k < 1`` the eq. 2.3 gate can be
       unsatisfiable (noise variance and internal variance shrink at the
       same 1/t rate), so the termination criterion should always include a
       walltime bound — as the paper's does (§2.4.1) and
       :func:`~repro.core.termination.default_termination` provides.
    """

    name = "MN"

    def __init__(
        self,
        func: StochasticFunction,
        initial_vertices,
        *,
        k: float = 2.0,
        wait_dt: float = 1.0,
        wait_growth: float = 1.6,
        wait_target: str = "all",
        termination: Optional[TerminationCriterion] = None,
        pool: Optional[SamplingPool] = None,
        **kwargs,
    ) -> None:
        if not (k > 0.0):
            raise ValueError(f"k must be > 0, got {k!r}")
        if not (wait_dt > 0.0):
            raise ValueError(f"wait_dt must be > 0, got {wait_dt!r}")
        if not (wait_growth >= 1.0):
            raise ValueError(f"wait_growth must be >= 1, got {wait_growth!r}")
        if wait_target not in ("all", "noisiest"):
            raise ValueError(f"wait_target must be 'all' or 'noisiest', got {wait_target!r}")
        if wait_target == "noisiest":
            # the ablation variant only refines targeted vertices; idle
            # vertices keep their estimates (non-concurrent pool semantics)
            self.concurrent_sampling = False
        super().__init__(
            func, initial_vertices, termination=termination, pool=pool, **kwargs
        )
        self.k = float(k)
        self.wait_dt = float(wait_dt)
        self.wait_growth = float(wait_growth)
        self.wait_target = wait_target

    # -- the eq. 2.3 gate -------------------------------------------------------

    def _gate_satisfied(self) -> bool:
        """True when the noisiest vertex variance is within k x internal variance."""
        max_var = float(self.simplex.variances().max())
        internal = self.simplex.internal_variance()
        return max_var <= self.k * internal

    def _wait_for_gate(self):
        """Generator: sample until the gate opens (or a termination
        criterion fires)."""
        dt = self.wait_dt
        while not self._gate_satisfied():
            self._check_interrupt()
            if self.wait_target == "noisiest":
                noisiest = max(self.simplex.vertices, key=lambda ev: ev.variance)
                yield from self._wait(dt, targets=[noisiest])
            else:
                yield from self._wait(dt)
            self._step_resamples += 1
            dt *= self.wait_growth

    def _decide_step(self):
        yield from self._wait_for_gate()
        return (yield from self._classic_step())


#: Alias used in tables and figures.
MN = MaxNoise
