"""Algorithm 3 — the point-to-point comparison (PC) algorithm.

PC fixes MN's weakness (one noisy vertex that does not even influence the
move can hold the whole simplex hostage) by comparing only the *significant*
vertices pairwise, each at a chosen confidence: a comparison is accepted only
when the two k-sigma intervals are disjoint, and the involved points are
resampled until that happens.  Sampling proceeds "until the point where the
simplex transformation can be made at the chosen accuracy" (§2.3).

The seven comparison sites (c1..c7) and their pairings:

    c1 / c5:  ref vs smax  — enter the accept branch / the contract branch
    c2:       ref vs min   — accept reflection without trying expansion
    c3 / c4:  exp vs ref   — accept expansion / fall back to reflection
    c6 / c7:  con vs max   — accept contraction / collapse

Which sites carry error bars is configurable via
:class:`~repro.core.comparisons.ConditionSet` — the ablation axis of
Figs. 3.8-3.17.  A site without error bars decides on plain means and never
triggers resampling.

Through the ask/tell seam (:mod:`repro.core.base`) each resampling wait at a
comparison site is one proposal round over the currently active vertices —
the trial point under comparison samples alongside the simplex, so a round
may carry up to ``dim + 2`` proposals.  Comparison decisions themselves read
only merged estimates and never cross the seam.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.core import simplex as geom
from repro.core.base import SimplexOptimizer
from repro.core.comparisons import ConditionSet, Decision
from repro.core.termination import TerminationCriterion
from repro.noise.evaluation import VertexEvaluation
from repro.noise.stochastic import SamplingPool, StochasticFunction


class PointComparison(SimplexOptimizer):
    """PC: every simplex move justified by disjoint confidence intervals.

    Parameters
    ----------
    k:
        Confidence width in standard errors (paper compares k=1 vs k=2,
        Fig. 3.7; Algorithm 3 is written with a generic k).
    conditions:
        Which sites use error bars (default: all seven, the strict "c1-7"
        implementation of Algorithm 3 as printed).
    resample_dt, resample_growth:
        Initial resampling quantum and geometric growth factor for
        undecidable comparisons.
    max_resample_rounds:
        Budget per comparison; beyond it the decision is *forced* on plain
        means (the paper notes coincidentally near-identical vertices would
        otherwise sample forever, §2.3).
    """

    name = "PC"

    def __init__(
        self,
        func: StochasticFunction,
        initial_vertices,
        *,
        k: float = 1.0,
        conditions: Optional[ConditionSet] = None,
        resample_dt: float = 1.0,
        resample_growth: float = 1.6,
        max_resample_rounds: int = 60,
        termination: Optional[TerminationCriterion] = None,
        pool: Optional[SamplingPool] = None,
        **kwargs,
    ) -> None:
        if not (k > 0.0):
            raise ValueError(f"k must be > 0, got {k!r}")
        if not (resample_dt > 0.0):
            raise ValueError(f"resample_dt must be > 0, got {resample_dt!r}")
        if not (resample_growth >= 1.0):
            raise ValueError(f"resample_growth must be >= 1, got {resample_growth!r}")
        if max_resample_rounds < 1:
            raise ValueError(f"max_resample_rounds must be >= 1, got {max_resample_rounds!r}")
        super().__init__(
            func, initial_vertices, termination=termination, pool=pool, **kwargs
        )
        self.k = float(k)
        self.conditions = conditions if conditions is not None else ConditionSet.all()
        self.resample_dt = float(resample_dt)
        self.resample_growth = float(resample_growth)
        self.max_resample_rounds = int(max_resample_rounds)

    # -- gated comparisons ------------------------------------------------------

    def _interval(self, ev: VertexEvaluation, with_bars: bool) -> Tuple[float, float]:
        """(lower, upper) of the k-sigma interval; degenerate without bars."""
        if not with_bars:
            return ev.estimate, ev.estimate
        half = self.k * ev.sem
        if not math.isfinite(half):
            half = math.inf
        return ev.estimate - half, ev.estimate + half

    def _test_below(self, a: VertexEvaluation, b: VertexEvaluation, bars: bool) -> bool:
        """Site test ``g(a) + k sigma_a < g(b) - k sigma_b`` (bars optional)."""
        _, upper_a = self._interval(a, bars)
        lower_b, _ = self._interval(b, bars)
        return upper_a < lower_b

    def _test_not_below(self, a: VertexEvaluation, b: VertexEvaluation, bars: bool) -> bool:
        """Site test ``g(a) - k sigma_a >= g(b) + k sigma_b`` (bars optional)."""
        lower_a, _ = self._interval(a, bars)
        _, upper_b = self._interval(b, bars)
        return lower_a >= upper_b

    def _decide_pair(
        self,
        a: VertexEvaluation,
        b: VertexEvaluation,
        site_below: int,
        site_not_below: int,
    ):
        """Generator: resolve a paired condition (c1/c5, c3/c4 or c6/c7),
        resampling as needed; returns the :class:`Decision`.

        Returns :data:`Decision.BELOW` when the ``site_below`` condition fires
        and :data:`Decision.NOT_BELOW` when ``site_not_below`` fires.  If the
        resampling budget is exhausted the decision is forced on plain means.
        """
        bars_below = self.conditions.uses(site_below)
        bars_not = self.conditions.uses(site_not_below)
        dt = self.resample_dt
        rounds = 0
        while True:
            if self._test_below(a, b, bars_below):
                self.stats.record(rounds, was_forced=False)
                return Decision.BELOW
            if self._test_not_below(a, b, bars_not):
                self.stats.record(rounds, was_forced=False)
                return Decision.NOT_BELOW
            if rounds >= self.max_resample_rounds:
                self.stats.record(rounds, was_forced=True)
                return (
                    Decision.BELOW
                    if a.estimate < b.estimate
                    else Decision.NOT_BELOW
                )
            self._check_interrupt()
            yield from self._wait(dt, targets=[a, b])
            self._step_resamples += 1
            rounds += 1
            dt *= self.resample_growth

    def _single_condition(
        self, a: VertexEvaluation, b: VertexEvaluation, site: int
    ) -> bool:
        """One-shot site (c2): ``g(a) - k sigma_a > g(b) + k sigma_b``.

        Algorithm 3 has no resample loop here — when uncertain the flow simply
        proceeds to the expansion attempt.
        """
        bars = self.conditions.uses(site)
        lower_a, _ = self._interval(a, bars)
        _, upper_b = self._interval(b, bars)
        return lower_a > upper_b

    # -- Algorithm 3 -------------------------------------------------------------

    def _decide_step(self):
        mn, smax, mx = self.simplex.order()
        cent, ref_theta = self._trial_points(mx)
        ref = yield from self._activate(ref_theta, label="ref")
        branch = yield from self._decide_pair(ref, smax, site_below=1, site_not_below=5)
        if branch is Decision.BELOW:  # condition 1
            if self._single_condition(ref, mn, site=2):  # condition 2
                self._accept(mx, ref, "reflect")
                return "reflect"
            exp_theta = geom.expand_point(ref.theta, cent, self.gamma)
            exp = yield from self._activate(exp_theta, label="exp")
            verdict = yield from self._decide_pair(exp, ref, site_below=3, site_not_below=4)
            if verdict is Decision.BELOW:  # condition 3
                self._accept(mx, exp, "expand")
                self._discard(ref)
                return "expand"
            # condition 4
            self._accept(mx, ref, "reflect")
            self._discard(exp)
            return "reflect"
        # condition 5
        con_theta = geom.contract_point(mx.theta, cent, self.beta)
        con = yield from self._activate(con_theta, label="con")
        verdict = yield from self._decide_pair(con, mx, site_below=6, site_not_below=7)
        if verdict is Decision.BELOW:  # condition 6
            self._accept(mx, con, "contract")
            self._discard(ref)
            return "contract"
        # condition 7
        self._discard(ref, con)
        yield from self._do_collapse(mn)
        return "collapse"


#: Alias used in tables and figures.
PC = PointComparison
