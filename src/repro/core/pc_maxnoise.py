"""Algorithm 4 — point-to-point comparison combined with max-noise (PC+MN).

Both gates must pass for a move: the eq. 2.3 max-noise wait condition at the
top of each iteration *and* the per-comparison confidence-interval separation
of the PC algorithm (written in Algorithm 4 with bare sigma terms, i.e. the
PC width fixed at k = 1).  The stricter conditions slow each step down but
the steps that are taken are more reliable — the paper measures the same
final accuracy as PC with roughly 5x fewer simplex steps (178 vs 900 at
sigma0 = 1000, §3.3).

Under the ask/tell seam (:mod:`repro.core.base`) the two gates interleave as
alternating proposal rounds: first the MN wait refines all active vertices
(one round per unsatisfied eq. 2.3 check), then the PC comparison sites add
their own rounds.  Nothing here overrides the seam — both gates are
generators that funnel every sample through the pool's
:meth:`~repro.noise.stochastic.SamplingPool.advance_rounds`, which yields
the rounds.
"""

from __future__ import annotations

from typing import Optional

from repro.core.comparisons import ConditionSet
from repro.core.point_compare import PointComparison
from repro.core.termination import TerminationCriterion
from repro.noise.stochastic import SamplingPool, StochasticFunction


class PCMaxNoise(PointComparison):
    """PC+MN: the PC step behind the MN sampling gate.

    Parameters
    ----------
    k_mn:
        Constant of the max-noise gate (eq. 2.3).
    k:
        Confidence width for the PC comparisons; Algorithm 4 uses bare sigma
        terms, so this defaults to 1 and normally stays there.
    """

    name = "PC+MN"

    def __init__(
        self,
        func: StochasticFunction,
        initial_vertices,
        *,
        k_mn: float = 2.0,
        k: float = 1.0,
        conditions: Optional[ConditionSet] = None,
        wait_dt: float = 1.0,
        wait_growth: float = 1.6,
        termination: Optional[TerminationCriterion] = None,
        pool: Optional[SamplingPool] = None,
        **kwargs,
    ) -> None:
        if not (k_mn > 0.0):
            raise ValueError(f"k_mn must be > 0, got {k_mn!r}")
        if not (wait_dt > 0.0):
            raise ValueError(f"wait_dt must be > 0, got {wait_dt!r}")
        if not (wait_growth >= 1.0):
            raise ValueError(f"wait_growth must be >= 1, got {wait_growth!r}")
        super().__init__(
            func,
            initial_vertices,
            k=k,
            conditions=conditions,
            termination=termination,
            pool=pool,
            **kwargs,
        )
        self.k_mn = float(k_mn)
        self.wait_dt = float(wait_dt)
        self.wait_growth = float(wait_growth)

    def _gate_satisfied(self) -> bool:
        max_var = float(self.simplex.variances().max())
        return max_var <= self.k_mn * self.simplex.internal_variance()

    def _wait_for_gate(self):
        dt = self.wait_dt
        while not self._gate_satisfied():
            self._check_interrupt()
            yield from self._wait(dt)
            self._step_resamples += 1
            dt *= self.wait_growth

    def _decide_step(self):
        yield from self._wait_for_gate()
        return (yield from super()._decide_step())


#: Alias used in tables and figures.
PCMN = PCMaxNoise
