"""Algorithm 1 — the deterministic downhill simplex (DET baseline).

The classical Nelder-Mead method exactly as printed in the paper, including
its branch structure (reflection is accepted whenever it beats the *worst*
vertex, contraction otherwise, collapse toward the best vertex if contraction
fails).  On a noisy objective DET reads each point once with a fixed sampling
budget and never revisits it — this is precisely the behaviour the stochastic
variants fix, and the reason DET "can terminate inappropriately at a solution
very far from the true optimum" (§1.2).

Through the ask/tell seam (:mod:`repro.core.base`) each one-shot evaluation
is a single-proposal round: the non-concurrent pool activates one trial
point at a time, so DET's asks arrive one proposal deep.  The engine mints
no speculative refinements for non-concurrent pools — extra sampling would
silently upgrade DET's fixed-budget reads into MN-style refinement and
change the trajectory.
"""

from __future__ import annotations

from repro.core.base import SimplexOptimizer


class NelderMead(SimplexOptimizer):
    """Deterministic simplex (DET): plain comparisons, one-shot evaluations.

    ``warmup`` is the fixed per-evaluation sampling budget; idle vertices do
    not refine over time (``concurrent_sampling = False``), matching a code
    that evaluates its objective once per point.
    """

    name = "DET"
    concurrent_sampling = False

    def _decide_step(self):
        return (yield from self._classic_step())


#: Alias used throughout the paper's tables and figures.
DET = NelderMead
