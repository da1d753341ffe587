"""The paper's contribution: stochastic variants of the downhill simplex.

Five optimizers share one skeleton (:mod:`repro.core.base`):

========  =========================================  ==========================
name      class                                      paper reference
========  =========================================  ==========================
DET       :class:`~repro.core.nelder_mead.NelderMead`   Algorithm 1 (baseline)
MN        :class:`~repro.core.maxnoise.MaxNoise`        Algorithm 2, eq. 2.3
PC        :class:`~repro.core.point_compare.PointComparison`  Algorithm 3
PC+MN     :class:`~repro.core.pc_maxnoise.PCMaxNoise`   Algorithm 4
Anderson  :class:`~repro.core.anderson.AndersonSimplex` eq. 2.4 comparator
========  =========================================  ==========================
"""

from repro._lazy import lazy_exports as _lazy_exports

# Lazy, so a campaign worker (which needs `make_optimizer` and the five
# optimizers) skips checkpointing and the PSO polish.
_EXPORTS = {
    "repro.core.anderson": (
        "AndersonSimplex",
        "AndersonStructureSearch",
    ),
    "repro.core.base": (
        "TELL_APPLIED",
        "TELL_DUPLICATE",
        "TELL_EXTRA",
        "TELL_STALE",
        "Proposal",
        "SimplexOptimizer",
    ),
    "repro.core.checkpoint": (
        "resume",
        "save_checkpoint",
        "snapshot",
    ),
    "repro.core.comparisons": (
        "ComparisonStats",
        "ConditionSet",
        "Decision",
        "compare",
    ),
    "repro.core.driver": (
        "ALGORITHMS",
        "make_optimizer",
        "optimize",
    ),
    "repro.core.maxnoise": (
        "MN",
        "MaxNoise",
    ),
    "repro.core.nelder_mead": (
        "DET",
        "NelderMead",
    ),
    "repro.core.pc_maxnoise": (
        "PCMN",
        "PCMaxNoise",
    ),
    "repro.core.point_compare": (
        "PC",
        "PointComparison",
    ),
    "repro.core.pso": (
        "NoisyPSO",
        "pso_polish",
    ),
    "repro.core.simplex": (
        "Simplex",
        "collapse_point",
        "contract_point",
        "diameter",
        "expand_point",
        "reflect_point",
    ),
    "repro.core.state": (
        "OptimizationResult",
        "StepRecord",
        "Trace",
    ),
    "repro.core.termination": (
        "CompositeTermination",
        "DiameterTermination",
        "MaxStepsTermination",
        "TerminationCriterion",
        "ToleranceTermination",
        "WalltimeTermination",
        "default_termination",
    ),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [name for names in _EXPORTS.values() for name in names]
