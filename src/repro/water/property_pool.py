"""Property-level evaluation pool for the water application.

The surrogate front door (:func:`~repro.water.surrogate.surrogate_cost_function`)
wraps the *cost* in a single noise scale.  The real system is richer: each
vertex's workers sample the six properties independently, the master sees the
cost of the current property *means*, and the uncertainty of that cost follows
from the per-property standard errors.  This module implements that faithful
model as a drop-in pool for the optimizers:

* :class:`PropertyEvaluation` — a vertex evaluation whose ``estimate`` is the
  eq. 3.4 cost of the precision-weighted property means, and whose ``sem``
  comes from delta-method propagation **at the current means** (plus the
  chi-square floor near the optimum);
* :class:`PropertySamplingPool` — a :class:`~repro.noise.stochastic.SamplingPool`
  whose rounds sample every property of every vertex for ``dt`` on the master.

Because the cost is a nonlinear function of noisy means, its estimator is
biased at finite t (E[cost(means)] = cost(true) + sum a_i sigma_i^2/t); this
is exactly the bias a real squared-residual objective has, and it decays as
1/t — another reason the late stages need long sampling.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from repro.noise.clock import VirtualClock
from repro.noise.evaluation import VertexEvaluation
from repro.noise.stochastic import SamplingPool
from repro.water.cost import WaterCostFunction
from repro.water.experiment import EXPERIMENTAL_TARGETS
from repro.water.surrogate import WaterSurrogate


_NO_TOLD_VALUES = (
    "PropertySamplingPool samples properties on the master; "
    "it cannot merge told surface values"
)


class PropertyEvaluation(VertexEvaluation):
    """Vertex evaluation backed by per-property accumulators.

    ``estimate`` and ``sem`` are *derived* (read-only) views over the
    property means; the generic merge API is disabled because sampling goes
    through :meth:`merge_property_block`.
    """

    __slots__ = ("cost", "props", "prop_sigma0")

    def __init__(
        self,
        theta,
        cost: WaterCostFunction,
        prop_sigma0: Dict[str, float],
        label: str = "",
    ) -> None:
        super().__init__(theta, sigma0=None, sigma0_guess=1.0, label=label)
        self.cost = cost
        self.prop_sigma0 = dict(prop_sigma0)
        # per-property running means: time-weighted, variance sigma0_i^2/t
        self.props: Dict[str, VertexEvaluation] = {
            name: VertexEvaluation(theta, sigma0=s0, label=f"{label}:{name}")
            for name, s0 in self.prop_sigma0.items()
        }

    # -- sampling ----------------------------------------------------------

    def merge_property_block(self, dt: float, samples: Dict[str, float]) -> None:
        """Merge one block of property measurements taken over ``dt``."""
        for name, ev in self.props.items():
            if name not in samples:
                raise KeyError(f"block is missing property {name!r}")
            ev.merge_block(dt, samples[name])
        self.time += dt
        self.n_blocks += 1

    def merge_block(self, dt: float, sample: float) -> None:  # pragma: no cover
        raise TypeError(
            "PropertyEvaluation samples properties, not cost blocks; "
            "use merge_property_block"
        )

    # -- derived views -----------------------------------------------------------

    def property_means(self) -> Dict[str, float]:
        return {name: ev.estimate for name, ev in self.props.items()}

    def property_sems(self) -> Dict[str, float]:
        return {name: ev.sem for name, ev in self.props.items()}

    @property
    def estimate(self) -> float:  # type: ignore[override]
        if self.time <= 0.0:
            return math.nan
        return self.cost(self.property_means())

    @estimate.setter
    def estimate(self, value) -> None:
        # the base-class __init__ assigns nan before our fields exist;
        # ignore writes (the estimate is always derived)
        return

    @property
    def sem(self) -> float:  # type: ignore[override]
        if self.time <= 0.0:
            return math.inf
        return self.cost.propagated_sigma(
            self.property_means(), self.property_sems(), include_floor=True
        )

    @property
    def variance(self) -> float:  # type: ignore[override]
        s = self.sem
        return s * s if math.isfinite(s) else math.inf


class PropertySamplingPool(SamplingPool):
    """:class:`~repro.noise.stochastic.SamplingPool` sampling water properties.

    Every round samples each property of each of its vertices on the
    master, from :attr:`rng`.  Told surface values (a round's or a
    refinement's) fail the ask/tell run with a ``TypeError``.

    Parameters
    ----------
    surrogate:
        Property source (noise-free surfaces + per-property sigma0).  Any
        object with ``properties(theta)`` and ``sigma0(name)`` works, so an
        MD-backed source can be swapped in.
    cost:
        eq. 3.4 cost; defaults to the paper's experimental targets.
    warmup:
        Initial sampling time per activation.
    rng:
        Noise stream.
    """

    def __init__(
        self,
        surrogate: Optional[WaterSurrogate] = None,
        cost: Optional[WaterCostFunction] = None,
        warmup: float = 1.0,
        rng=None,
    ) -> None:
        self.surrogate = surrogate if surrogate is not None else WaterSurrogate()
        self.cost = cost if cost is not None else WaterCostFunction(EXPERIMENTAL_TARGETS)
        self.rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self._sigma0 = {name: self.surrogate.sigma0(name) for name in self.cost.properties}
        super().__init__(_PropertyFunctionView(self), warmup=warmup)

    def _sample_rounds(self, evs, dt: float):
        """Yield one round and sample every property of ``evs`` locally,
        vertex by vertex, property by property."""
        if not evs:
            return
        evs = list(evs)
        if (yield evs, dt) is not None:
            raise TypeError(_NO_TOLD_VALUES)
        scale = 1.0 / math.sqrt(dt)
        for ev in evs:
            clean = self.surrogate.properties(ev.theta)
            block = {
                name: clean[name] + self.rng.normal(0.0, self._sigma0[name]) * scale
                for name in self._sigma0
            }
            ev.merge_property_block(dt, block)
            self.func.n_underlying_calls += 1
            self.func.total_sampling_time += dt


class _PropertyFunctionView:
    """StochasticFunction-shaped adapter: the pool's clock, counters and
    evaluation factory."""

    def __init__(self, pool: PropertySamplingPool) -> None:
        self._pool = pool
        self.clock = VirtualClock()
        self.n_underlying_calls = 0
        self.total_sampling_time = 0.0

    def start(self, theta, label: str = "") -> PropertyEvaluation:
        return PropertyEvaluation(theta, self._pool.cost, self._pool._sigma0, label=label)

    def merge_external_batch(self, evs, dt: float, fvals) -> None:
        """Told refinements are surface values too: rejected like a round's."""
        raise TypeError(_NO_TOLD_VALUES)

    def true_value(self, theta) -> float:
        return self._pool.cost(self._pool.surrogate.properties(np.asarray(theta, dtype=float)))


def parameterize_water_property_level(
    algorithm: str = "PC",
    seed: Optional[int] = 0,
    vertices=None,
    tau: float = 1e-3,
    walltime: float = 3e5,
    max_steps: int = 300,
    **options,
):
    """Water parameterization on the faithful property-level pool."""
    from repro.core.driver import make_optimizer
    from repro.core.termination import default_termination
    from repro.water.tip4p import INITIAL_SIMPLEX_3_4A

    pool = PropertySamplingPool(rng=seed)
    verts = (
        np.asarray(vertices, dtype=float)
        if vertices is not None
        else INITIAL_SIMPLEX_3_4A[:4].copy()
    )
    termination = default_termination(tau=tau, walltime=walltime, max_steps=max_steps)
    opt = make_optimizer(
        algorithm, pool.func, verts, pool=pool, termination=termination, **options
    )
    return opt.run()
