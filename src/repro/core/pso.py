"""Particle swarm with a noise-aware simplex polish (paper §5.2 future work).

"Particle swarm optimization (PSO) suffers from the disadvantage of slow
convergence in the refined search stages ... while the maxnoise,
point-to-point and simplex in general lack the ability to converge to a
global minimum but converge quickly to a local minimum.  An ability to use
PSO with maxnoise and point-to-point may prove to be another step forward."

This module implements exactly that combination: a global PSO stage over the
noisy objective (each particle's fitness is a sampled evaluation with the
usual ``sigma0/sqrt(t)`` error; the personal/global bests use a
confidence-interval update rule so noise does not corrupt the incumbent),
followed by an MN or PC local stage seeded with a simplex around the swarm's
best point.

Like the simplex family, :class:`NoisyPSO` speaks ask/tell — but with no
step generator: one swarm generation is one batch of proposals
(:meth:`NoisyPSO.ask` moves the swarm and mints a proposal per particle,
:meth:`NoisyPSO.tell` collects surface values in any order, and the last
tell of a generation merges noise and updates the incumbents in particle
order so the result is identical to the legacy interleaved loop).
:meth:`NoisyPSO.step` is re-expressed on top of that seam.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from repro.core.base import (
    TELL_APPLIED,
    TELL_DUPLICATE,
    Proposal,
)
from repro.core.driver import make_optimizer
from repro.core.state import OptimizationResult
from repro.core.termination import default_termination
from repro.functions.suite import initial_simplex
from repro.noise.stochastic import SamplingPool, StochasticFunction


class NoisyPSO:
    """Global stage: particle swarm over a stochastic objective.

    Parameters
    ----------
    func:
        Stochastic objective.
    bounds:
        ``(low, high)`` arrays (or scalars) for the search box.
    n_particles:
        Swarm size.
    inertia, cognitive, social:
        Standard PSO coefficients.
    eval_time:
        Sampling time per fitness evaluation.
    k:
        Confidence width for incumbent updates: a particle replaces its
        personal/global best only when its interval is ``k`` sigma below the
        incumbent's — the PC idea applied to swarm bookkeeping.
    rng:
        Generator or seed for swarm initialization and velocity updates
        (independent from the objective's noise stream).
    """

    name = "PSO"

    def __init__(
        self,
        func: StochasticFunction,
        bounds,
        dim: int,
        n_particles: int = 12,
        inertia: float = 0.7,
        cognitive: float = 1.5,
        social: float = 1.5,
        eval_time: float = 1.0,
        k: float = 1.0,
        rng=None,
    ) -> None:
        if n_particles < 2:
            raise ValueError(f"n_particles must be >= 2, got {n_particles}")
        if not (eval_time > 0.0):
            raise ValueError(f"eval_time must be > 0, got {eval_time}")
        low, high = bounds
        self.low = np.broadcast_to(np.asarray(low, dtype=float), (dim,)).copy()
        self.high = np.broadcast_to(np.asarray(high, dtype=float), (dim,)).copy()
        if np.any(self.high <= self.low):
            raise ValueError("bounds must satisfy high > low elementwise")
        self.func = func
        self.dim = dim
        self.k = float(k)
        self.eval_time = float(eval_time)
        self.inertia = float(inertia)
        self.cognitive = float(cognitive)
        self.social = float(social)
        self.rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)

        span = self.high - self.low
        self.pos = self.rng.uniform(self.low, self.high, size=(n_particles, dim))
        self.vel = self.rng.uniform(-span, span, size=(n_particles, dim)) * 0.1
        self.best_pos = self.pos.copy()
        self.best_val = np.empty(n_particles)
        self.best_sem = np.empty(n_particles)
        for i in range(n_particles):
            ev = self.func.evaluate(self.pos[i], self.eval_time)
            self.best_val[i] = ev.estimate
            self.best_sem[i] = ev.sem
        g = int(np.argmin(self.best_val))
        self.gbest_pos = self.best_pos[g].copy()
        self.gbest_val = float(self.best_val[g])
        self.gbest_sem = float(self.best_sem[g])
        self.n_iterations = 0
        # ask/tell generation state (see module docstring)
        self._pending: Dict[str, int] = {}
        self._proposals: List[Proposal] = []
        self._gen_values: Dict[int, float] = {}
        self._resolved: set = set()
        self._counter = 0
        self.n_duplicate_tells = 0
        self.n_stale_tells = 0

    def _confidently_below(self, val: float, sem: float, inc_val: float, inc_sem: float) -> bool:
        """PC-style incumbent update: k-sigma intervals must separate."""
        return val + self.k * sem < inc_val - self.k * inc_sem

    # -- ask/tell seam --------------------------------------------------------

    def ask(self, max_proposals: Optional[int] = None) -> List[Proposal]:
        """Return pending proposals, advancing the swarm if none are out.

        A generation is minted lazily: when no proposals are outstanding the
        swarm moves (velocity/position update, drawing ``r1``/``r2`` from the
        swarm rng exactly as the legacy loop did) and one proposal per
        particle is returned.  While a generation is in flight, ``ask``
        re-returns the still-untold proposals — PSO is generation-batched, so
        there is nothing speculative to mint beyond the batch.
        """
        if not self._pending:
            self._advance_swarm()
        out = list(self._proposals)
        if max_proposals is not None:
            out = out[: max(0, int(max_proposals))]
        return out

    def tell(self, proposal_id: str, value: float) -> str:
        """Feed back the deterministic surface value for one proposal.

        Accepts tells in any order.  The last tell of a generation triggers
        the merge: noise is applied from the objective's generator in
        particle order (so the stream is independent of arrival order) and
        the personal/global incumbents update in particle order, matching the
        legacy interleaved loop bit for bit.  Returns a ``TELL_*`` status;
        unknown ids raise ``KeyError``.
        """
        if proposal_id in self._resolved:
            self.n_duplicate_tells += 1
            return TELL_DUPLICATE
        if proposal_id not in self._pending:
            raise KeyError(f"unknown proposal id {proposal_id!r}")
        i = self._pending.pop(proposal_id)
        self._resolved.add(proposal_id)
        self._gen_values[i] = float(value)
        self._proposals = [p for p in self._proposals if p.id != proposal_id]
        if not self._pending:
            self._finish_iteration()
        return TELL_APPLIED

    def _advance_swarm(self) -> None:
        """Move the swarm and mint one proposal per particle."""
        n = self.pos.shape[0]
        r1 = self.rng.random((n, self.dim))
        r2 = self.rng.random((n, self.dim))
        self.vel = (
            self.inertia * self.vel
            + self.cognitive * r1 * (self.best_pos - self.pos)
            + self.social * r2 * (self.gbest_pos[None, :] - self.pos)
        )
        self.pos = np.clip(self.pos + self.vel, self.low, self.high)
        self.pos.setflags(write=False)  # proposals hold read-only row views
        self._gen_values = {}
        self._proposals: List[Proposal] = []
        for i in range(n):
            pid = f"pso{self._counter:06d}"
            self._counter += 1
            self._pending[pid] = i
            self._proposals.append(
                Proposal(
                    id=pid,
                    theta=self.pos[i],
                    label=f"pso:{self.n_iterations}:{i}",
                    dt=self.eval_time,
                )
            )

    def _finish_iteration(self) -> None:
        """Merge a completed generation and update the incumbents."""
        n = self.pos.shape[0]
        for i in range(n):
            ev = self.func.start(self.pos[i])
            self.func.merge_external(ev, self.eval_time, self._gen_values[i])
            if self._confidently_below(
                ev.estimate, ev.sem, self.best_val[i], self.best_sem[i]
            ):
                self.best_val[i] = ev.estimate
                self.best_sem[i] = ev.sem
                self.best_pos[i] = self.pos[i].copy()
            if self._confidently_below(
                ev.estimate, ev.sem, self.gbest_val, self.gbest_sem
            ):
                self.gbest_val = ev.estimate
                self.gbest_sem = ev.sem
                self.gbest_pos = self.pos[i].copy()
        self._gen_values = {}
        self.n_iterations += 1

    def step(self) -> None:
        """One swarm iteration, re-expressed over the ask/tell seam:
        ask the full generation, answer every proposal from the underlying
        surface, and let the final tell merge and update incumbents."""
        for proposal in self.ask():
            self.tell(proposal.id, float(self.func.f(np.asarray(proposal.theta))))

    def run(self, n_iterations: int = 30) -> np.ndarray:
        """Run the swarm; returns the global-best position."""
        for _ in range(n_iterations):
            self.step()
        return self.gbest_pos.copy()


def pso_polish(
    func: StochasticFunction,
    bounds,
    dim: int,
    polish_algorithm: str = "PC",
    pso_iterations: int = 30,
    n_particles: int = 12,
    polish_step: float = 0.25,
    tau: float = 1e-3,
    walltime: float = 1e5,
    max_steps: int = 1000,
    seed: Optional[int] = None,
    **polish_options,
) -> OptimizationResult:
    """The §5.2 hybrid: global NoisyPSO, then an MN/PC simplex polish.

    The polish stage starts from an axis-aligned simplex of half-width
    ``polish_step`` around the swarm's best point and inherits the shared
    virtual clock, so the returned walltime covers both stages.
    """
    swarm = NoisyPSO(
        func, bounds, dim, n_particles=n_particles, rng=seed,
    )
    center = swarm.run(pso_iterations)
    vertices = initial_simplex(center, step=polish_step)
    termination = default_termination(tau=tau, walltime=walltime, max_steps=max_steps)
    opt = make_optimizer(
        polish_algorithm, func, vertices, termination=termination, **polish_options
    )
    result = opt.run()
    result.extra["pso_iterations"] = swarm.n_iterations
    result.extra["pso_best"] = center
    result.algorithm = f"PSO+{result.algorithm}"
    return result
