"""repro — automated, parallel optimization algorithms for stochastic functions.

A from-scratch Python reproduction of Chahal (2011): the MN / PC / PC+MN
stochastic variants of the Nelder-Mead downhill simplex, the DET and Anderson
baselines, the MW master-worker parallel framework they run on, a virtual
cluster model for the scale-up study, and the TIP4P liquid-water
parameterization application (mini molecular-dynamics engine + calibrated
surrogate).

Quickstart::

    from repro import optimize
    result = optimize("rosenbrock", dim=3, algorithm="PC",
                      sigma0=100.0, seed=0, walltime=1e5)
    print(result.best_theta, result.best_estimate)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro._lazy import lazy_exports as _lazy_exports

# Every `python -m repro` process imports this package, so it loads
# nothing eagerly: the optimizers (and numpy) load on first use.
_EXPORTS = {
    "repro.core": (
        "ALGORITHMS",
        "AndersonSimplex",
        "ConditionSet",
        "DET",
        "MN",
        "MaxNoise",
        "NelderMead",
        "OptimizationResult",
        "PC",
        "PCMN",
        "PCMaxNoise",
        "PointComparison",
        "Simplex",
        "optimize",
    ),
    "repro.noise": (
        "NoiseModel",
        "SamplingPool",
        "StochasticFunction",
        "VertexEvaluation",
        "VirtualClock",
    ),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__version__ = "1.0.0"

__all__ = [*(name for names in _EXPORTS.values() for name in names), "__version__"]
