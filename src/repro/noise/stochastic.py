"""Wrap a deterministic objective with time-dependent sampling noise.

:class:`StochasticFunction` is the bridge between a clean test function (the
"underlying deterministic surface" ``f``) and what the optimizer is allowed to
see: noisy :class:`~repro.noise.evaluation.VertexEvaluation` objects whose
precision improves the longer they are sampled.

Two estimator modes are provided (an ablation axis, see DESIGN.md):

``average`` (default)
    Consistent running average.  Extending an evaluation draws an independent
    block mean ``s ~ N(f, sigma0**2/dt)`` and precision-merges it; the
    estimate after total time ``t`` is exactly ``N(f, sigma0**2/t)`` and
    successive refinements are martingale increments (what real continued
    sampling does).

``resample``
    Fresh draw ``g = f + N(0, sigma0**2/t)`` at every look, matching the
    paper's controlled experiments verbatim ("artificial Gaussian noise ...
    with a variance inversely proportional to the duration for which the
    vertex had been active").

:class:`SamplingPool` keeps a set of evaluations "active": advancing the pool
by ``dt`` extends *every* active evaluation by ``dt`` and moves the virtual
clock, modelling the MW deployment where each vertex's simulations keep
running until the master says stop.  Every sampling request is a *round*;
the generator forms :meth:`SamplingPool.activate_rounds` and
:meth:`SamplingPool.advance_rounds` yield the rounds so a caller can answer
them with externally computed surface values (the ask/tell seam of
:mod:`repro.core.base`) instead of sampling locally.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from repro.noise.clock import VirtualClock
from repro.noise.evaluation import VertexEvaluation

Sigma0Spec = Union[float, Callable[[np.ndarray], float]]

_MODES = ("average", "resample")


class StochasticFunction:
    """A noisy, sampled view of a deterministic objective ``f``.

    Parameters
    ----------
    f:
        Underlying deterministic objective ``f(theta) -> float``.
    sigma0:
        Inherent noise scale; either a scalar or a callable of ``theta``
        (eq. 1.2 allows the variance to depend on the location).
    mode:
        ``"average"`` or ``"resample"`` (see module docstring).
    rng:
        ``numpy.random.Generator`` or integer seed.  Controls all noise.
    clock:
        Shared :class:`VirtualClock`; a fresh one is created if omitted.
    sigma_known:
        If True the optimizer is told the true ``sigma0`` for each point; if
        False it only gets block-scatter estimates (realistic case).
    sigma0_guess:
        Prior standard error used before estimates exist when
        ``sigma_known=False``.
    """

    def __init__(
        self,
        f: Callable[[np.ndarray], float],
        sigma0: Sigma0Spec = 1.0,
        mode: str = "average",
        rng: Union[np.random.Generator, int, None] = None,
        clock: Optional[VirtualClock] = None,
        sigma_known: bool = True,
        sigma0_guess: Optional[float] = None,
    ) -> None:
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.f = f
        self._sigma0 = sigma0
        self.mode = mode
        self.rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self.clock = clock if clock is not None else VirtualClock()
        self.sigma_known = bool(sigma_known)
        if sigma0_guess is None:
            sigma0_guess = sigma0 if isinstance(sigma0, (int, float)) else 1.0
        self.sigma0_guess = float(sigma0_guess)
        # bookkeeping for experiment accounting
        self.n_underlying_calls = 0
        self.total_sampling_time = 0.0

    # -- introspection -------------------------------------------------------

    def sigma0_at(self, theta) -> float:
        """Inherent noise scale at ``theta``."""
        if callable(self._sigma0):
            return float(self._sigma0(np.asarray(theta, dtype=float)))
        return float(self._sigma0)

    def true_value(self, theta) -> float:
        """Noise-free value of the underlying surface (for measurement only).

        Optimizers must never call this; the analysis layer uses it to compute
        the paper's R metric (error of the converged function value).
        """
        return float(self.f(np.asarray(theta, dtype=float)))

    # -- evaluation lifecycle -------------------------------------------------

    def start(self, theta, label: str = "") -> VertexEvaluation:
        """Create an (unsampled) evaluation at ``theta``."""
        sigma0 = self.sigma0_at(theta) if self.sigma_known else None
        return VertexEvaluation(
            theta, sigma0=sigma0, sigma0_guess=self.sigma0_guess, label=label
        )

    def extend(self, ev: VertexEvaluation, dt: float) -> VertexEvaluation:
        """Sample ``ev`` for ``dt`` more virtual seconds (noise only; the
        caller — normally a :class:`SamplingPool` — owns the clock)."""
        dt = float(dt)
        if not (dt > 0.0):
            raise ValueError(f"dt must be > 0, got {dt!r}")
        return self.merge_external(ev, dt, float(self.f(ev.theta)))

    def merge_external(self, ev: VertexEvaluation, dt: float, fval: float) -> VertexEvaluation:
        """Merge an externally computed surface value as one sampling block.

        The master-side half of the ask/tell seam: a worker reports the
        deterministic surface value ``fval = f(theta)`` for a proposal and
        the noise model is applied *here*, at merge time, from this
        function's own generator.  Because ``f`` itself never consumes this
        generator, a block merged through this method is bitwise identical
        to one sampled locally by :meth:`extend` — and as long as a round's
        merges happen in pool order, the noise stream is independent of the
        order in which workers replied.  Counts toward
        ``n_underlying_calls`` / ``total_sampling_time`` exactly like a
        local extension (the call happened, just elsewhere).
        """
        dt = float(dt)
        if not (dt > 0.0):
            raise ValueError(f"dt must be > 0, got {dt!r}")
        fval = float(fval)
        self.n_underlying_calls += 1
        self.total_sampling_time += dt
        s0 = self.sigma0_at(ev.theta)
        if self.mode == "average":
            if s0 == 0.0:
                block = fval
            else:
                block = fval + self.rng.normal(0.0, s0 / math.sqrt(dt))
            ev.merge_block(dt, block)
        else:  # resample
            t_new = ev.time + dt
            if s0 == 0.0:
                g = fval
            else:
                g = fval + self.rng.normal(0.0, s0 / math.sqrt(t_new))
            ev.replace(t_new, g)
        return ev

    def evaluate(self, theta, time: float, label: str = "") -> VertexEvaluation:
        """Convenience: start an evaluation and sample it for ``time``."""
        ev = self.start(theta, label=label)
        return self.extend(ev, time)

    # -- batched sampling kernel ----------------------------------------------

    def merge_external_batch(
        self,
        evs: Sequence[VertexEvaluation],
        dt: float,
        fvals: Sequence[float],
    ) -> None:
        """Merge one sampling block into *each* of ``evs`` — batched.

        Batch counterpart of :meth:`merge_external`: the noise of every
        point whose ``sigma0`` is non-zero is drawn in a **single**
        ``standard_normal(k)`` call and scaled per point as a Python float;
        points with ``sigma0 == 0`` draw nothing and keep their value
        as told (a ``-0.0`` keeps its sign).  The generator consumes
        exactly the same stream as the scalar loop
        ``for ev, v in zip(evs, fvals): merge_external(ev, dt, v)`` —
        numpy draws a batch of normals one after another off the same bit
        stream — and each point is merged in order, reading its ``time``
        at merge time, so the merged evaluations are **bitwise identical**
        even when ``evs`` repeats an evaluation (the rng-stream parity
        suite pins this).  This is what lets every batching layer above
        (pool rounds, told refinements, ``--eval-batch`` frames) amortize
        Python/rng overhead without perturbing a single trajectory.
        """
        dt = float(dt)
        if not (dt > 0.0):
            raise ValueError(f"dt must be > 0, got {dt!r}")
        n = len(evs)
        if len(fvals) != n:
            raise ValueError(f"got {len(fvals)} values for {n} evaluations")
        if not n:
            return
        if isinstance(fvals, np.ndarray):
            fvals = fvals.tolist()
        if callable(self._sigma0):
            s0s = [self.sigma0_at(ev.theta) for ev in evs]
            k = sum(1 for s0 in s0s if s0 > 0.0)
        else:
            s0s = [float(self._sigma0)] * n
            k = n if s0s[0] > 0.0 else 0
        draws = iter(self.rng.standard_normal(k).tolist() if k else ())
        self.n_underlying_calls += n
        self.total_sampling_time += dt * n
        if self.mode == "average":
            root_dt = math.sqrt(dt)
            for ev, s0, value in zip(evs, s0s, fvals):
                value = float(value)
                if s0 > 0.0:
                    value += s0 / root_dt * next(draws)
                ev.merge_block(dt, value)
        else:  # resample
            for ev, s0, value in zip(evs, s0s, fvals):
                value = float(value)
                t_new = ev.time + dt
                if s0 > 0.0:
                    value += s0 / math.sqrt(t_new) * next(draws)
                ev.replace(t_new, value)

    def extend_many(self, evs: Sequence[VertexEvaluation], dt: float) -> None:
        """Sample every evaluation in ``evs`` for ``dt`` more seconds — batched.

        The pool-level batched advance: the underlying surface is evaluated
        through its vectorized :meth:`~repro.functions.suite.TestFunction.batch`
        kernel when it has one (one numpy call for the whole stack instead
        of ``len(evs)`` Python calls) and the noise for all points is drawn
        in one rng call via :meth:`merge_external_batch`.  Bitwise identical
        to ``for ev in evs: extend(ev, dt)`` — ``f`` is deterministic and
        never consumes this generator, so hoisting its calls ahead of the
        noise draws cannot reorder the stream.
        """
        evs = list(evs)
        if not evs:
            return
        batch = getattr(self.f, "batch", None)
        if batch is not None and len(evs) > 1:
            fvals = np.asarray(
                batch(np.array([ev.theta for ev in evs], dtype=float)), dtype=float
            )
        else:
            fvals = np.array([float(self.f(ev.theta)) for ev in evs], dtype=float)
        self.merge_external_batch(evs, dt, fvals)

    def batch_evaluate(
        self, thetas, time: float, labels: Optional[Sequence[str]] = None
    ) -> List[VertexEvaluation]:
        """Start and sample an evaluation at every row of ``thetas`` — batched.

        Convenience mirror of :meth:`evaluate` for a ``(n, d)`` stack: one
        vectorized surface call, one rng call for all the noise.
        """
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2:
            raise ValueError(f"thetas must be (n, d), got shape {thetas.shape}")
        if labels is None:
            labels = [""] * thetas.shape[0]
        evs = [self.start(t, label=lbl) for t, lbl in zip(thetas, labels)]
        self.extend_many(evs, time)
        return evs


class SamplingPool:
    """Set of concurrently-sampling evaluations sharing a virtual clock.

    In the paper's MW deployment every active vertex keeps its simulations
    running; "waiting" in the MN/PC algorithms therefore refines *all* active
    vertices at once while virtual wall time passes.  ``advance(dt)`` models
    exactly that.  Costs are separable: total sampling effort is
    ``len(active) * dt`` but elapsed wall time is only ``dt`` because the
    vertices sample in parallel on different processors.

    Parameters
    ----------
    func:
        The :class:`StochasticFunction` being optimized.
    warmup:
        Sampling time given to a vertex when it is activated, before the
        caller ever looks at it (an estimate needs ``t > 0``).
    concurrent:
        If True (the MW model), any passage of time refines every active
        vertex.  If False (the classical DET baseline), each evaluation is
        sampled only when explicitly targeted — a point is measured once with
        a fixed budget and never revisited.
    """

    def __init__(
        self,
        func: StochasticFunction,
        warmup: float = 1.0,
        concurrent: bool = True,
    ) -> None:
        if not (warmup > 0.0):
            raise ValueError(f"warmup must be > 0, got {warmup!r}")
        self.func = func
        self.warmup = float(warmup)
        self.concurrent = bool(concurrent)
        self.active: List[VertexEvaluation] = []
        self.n_activations = 0

    @property
    def clock(self) -> VirtualClock:
        return self.func.clock

    @property
    def now(self) -> float:
        return self.func.clock.now

    # -- sampling as rounds ------------------------------------------------
    #
    # Every sampling request of the pool is a *round*: the generator forms
    # below yield ``(evs, dt)`` and expect the round's answer sent back —
    # either the deterministic surface values ``f(theta)`` of ``evs`` (in
    # order; the noise model is applied here, in pool order, through
    # :meth:`StochasticFunction.merge_external_batch`) or ``None`` to sample
    # locally through :meth:`StochasticFunction.extend_many`.  The clock
    # only moves after the round is merged.  The synchronous
    # :meth:`activate` / :meth:`advance` drive the same generators with
    # :func:`sample_locally`; the ask/tell engine in :mod:`repro.core.base`
    # publishes each round as proposals instead.  A pool that samples
    # something other than the surface overrides only :meth:`_sample_rounds`
    # (:class:`~repro.water.property_pool.PropertySamplingPool`).

    def activate_rounds(self, theta, label: str = ""):
        """Generator form of :meth:`activate`; returns the new evaluation."""
        ev = self.func.start(theta, label=label)
        self.active.append(ev)
        self.n_activations += 1
        if self.concurrent:
            yield from self.advance_rounds(self.warmup)
        else:
            yield from self._sample_rounds([ev], self.warmup)
            self.clock.advance(self.warmup)
        return ev

    def advance_rounds(self, dt: float, targets=None):
        """Generator form of :meth:`advance`; returns the new clock time."""
        dt = float(dt)
        if not (dt > 0.0):
            raise ValueError(f"dt must be > 0, got {dt!r}")
        if self.concurrent:
            extend = self.active
        else:
            extend = list(targets) if targets is not None else []
            for ev in extend:
                if ev not in self.active:
                    raise ValueError("target evaluation is not active in this pool")
        yield from self._sample_rounds(extend, dt)
        return self.clock.advance(dt)

    def _sample_rounds(self, evs, dt: float):
        """Yield one ``(evs, dt)`` round (none when ``evs`` is empty) and
        merge its answer.

        Both answers run the batched sampling kernel (vectorized surface
        call where available, one rng draw for the whole round), which is
        bitwise identical to the historical per-evaluation loop — see
        :meth:`StochasticFunction.merge_external_batch`.
        """
        if not evs:
            return
        evs = list(evs)
        values = yield evs, dt
        if values is None:
            self.func.extend_many(evs, dt)
        else:
            self.func.merge_external_batch(evs, dt, values)

    # -- synchronous protocol ------------------------------------------------

    def activate(self, theta, label: str = "") -> VertexEvaluation:
        """Start sampling a new point; it receives the warmup time.

        Activation advances the clock by the warmup (the new simulation must
        run before it produces a usable estimate).  In concurrent mode the
        other active vertices refine for free while it runs.
        """
        return sample_locally(self.activate_rounds(theta, label=label))

    def adopt(self, ev: VertexEvaluation) -> VertexEvaluation:
        """Add an existing evaluation to the active set (no time passes)."""
        if ev not in self.active:
            self.active.append(ev)
        return ev

    def deactivate(self, ev: VertexEvaluation) -> None:
        """Stop sampling ``ev`` (master directs a cessation of work)."""
        try:
            self.active.remove(ev)
        except ValueError:
            raise ValueError("evaluation is not active in this pool") from None

    def advance(self, dt: float, targets=None) -> float:
        """Let ``dt`` virtual seconds pass.

        In concurrent mode every active vertex samples for ``dt`` regardless
        of ``targets`` (independent simulations never pause).  In
        non-concurrent mode only the ``targets`` (default: none) receive
        sampling.  Returns the new clock time.
        """
        return sample_locally(self.advance_rounds(dt, targets=targets))

    def __len__(self) -> int:
        return len(self.active)

    def __contains__(self, ev: VertexEvaluation) -> bool:
        return ev in self.active


def sample_locally(rounds):
    """Drive a round generator to completion, sampling every round locally.

    ``rounds`` is any generator that yields ``(evs, dt)`` sampling rounds
    and accepts ``None`` as "sample them here" (see
    :meth:`SamplingPool.advance_rounds`); returns the generator's return
    value.
    """
    try:
        rounds.send(None)
        while True:
            rounds.send(None)
    except StopIteration as stop:
        return stop.value
