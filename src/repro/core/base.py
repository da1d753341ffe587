"""Shared machinery for the simplex-family optimizers.

:class:`SimplexOptimizer` owns the evaluation pool, the simplex, termination,
tracing and the vertex-replacement plumbing; each algorithm (DET, MN, PC,
PC+MN, Anderson) only implements :meth:`_decide_step` plus its own sampling
gates.  The optimizers never see the underlying deterministic surface — all
decisions go through noisy :class:`~repro.noise.evaluation.VertexEvaluation`
estimates, exactly as the paper's master only sees what workers report.

Step code as generators
-----------------------
Every piece of step code that samples (``_decide_step`` and everything it
calls down to :meth:`SamplingPool.activate_rounds
<repro.noise.stochastic.SamplingPool.activate_rounds>` /
:meth:`~repro.noise.stochastic.SamplingPool.advance_rounds`) is a generator
that yields one ``(evs, dt)`` *round* per sampling request and resumes with
the round's answer.  There is exactly one step loop, :meth:`_loop`; how the
rounds are answered is the only difference between the entry points:

* :meth:`run` / :meth:`_run_inline` answer every round locally (the pool
  samples through its batched kernel);
* the ask/tell seam publishes each round as :class:`Proposal` objects.

Ask/tell seam
-------------
:meth:`ask` returns pending proposals (stable ids, theta, requested sampling
time) and :meth:`tell` feeds the deterministic surface values back — in any
order.  When a round's last value is told, the step loop resumes on the
caller's thread and runs until it needs the next round (or finishes); no
thread, lock or condition variable is involved.  The noise model is applied
master-side at merge time, in pool order, once a round completes
(:meth:`~repro.noise.stochastic.StochasticFunction.merge_external_batch`),
so the trajectory is bitwise identical to :meth:`run` no matter how tells
interleave.  The asynchronous campaign driver
(:mod:`repro.core.async_driver`) drives many optimizers' seams through one
MW worker pool with no per-iteration barrier.
"""

from __future__ import annotations

from itertools import groupby
from typing import Dict, List, NamedTuple, Optional, Sequence, Set

import numpy as np

from repro.core import simplex as geom
from repro.core.comparisons import ComparisonStats
from repro.core.simplex import Simplex
from repro.core.state import OptimizationResult, StepRecord, Trace
from repro.core.termination import TerminationCriterion, default_termination
from repro.noise.evaluation import VertexEvaluation
from repro.noise.stochastic import SamplingPool, StochasticFunction, sample_locally


class _StopOptimization(Exception):
    """Raised inside wait/resample loops when a termination criterion fires."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


#: :meth:`SimplexOptimizer.tell` outcomes.
TELL_APPLIED = "applied"      # a required round slot accepted the value
TELL_EXTRA = "extra"          # a speculative refinement, merged at the next round boundary
TELL_STALE = "stale"          # the proposal's vertex (or the whole run) is gone
TELL_DUPLICATE = "duplicate"  # this id was already told; value ignored


class Proposal(NamedTuple):
    """One pending evaluation request from :meth:`SimplexOptimizer.ask`.

    The holder should compute the *deterministic* surface value ``f(theta)``
    — averaged over ``dt`` virtual seconds of simulation in a real
    deployment — and feed it back via ``tell(id, value)``.  Ids are stable
    (minted once, in deterministic order) and never reused within a run.
    A proposal is immutable and carries no per-instance dict; ``theta`` is
    a read-only view of the vertex's own coordinates (not a copy), so
    writing to it raises.
    """

    id: str           #: stable identifier, unique within one optimizer run
    theta: np.ndarray  #: point to evaluate (read-only)
    label: str        #: vertex label ("ref", "v0", ...; "refine:<label>" for speculative work)
    dt: float         #: virtual seconds of sampling requested


class _RoundSlot:
    """Mutable state of one outstanding proposal (engine-internal)."""

    __slots__ = ("id", "ev", "dt", "value")

    def __init__(self, proposal_id: str, ev: VertexEvaluation, dt: float) -> None:
        self.id = proposal_id
        self.ev = ev
        self.dt = dt
        self.value: Optional[float] = None


class _AskTellEngine:
    """Drives :meth:`SimplexOptimizer._loop` through proposal rounds.

    Between calls the step generator is always either finished or
    suspended at a round with at least one untold proposal.  The tell that
    resolves a round's last proposal resumes the generator on the caller's
    thread: told refinements are merged, then the round's values (in pool
    order, whatever the tell order), and the step runs to the next round.
    Determinism contract: with no speculative refinements the trajectory is
    bitwise identical to :meth:`SimplexOptimizer.run`.  Nothing is locked:
    one optimizer's ask/tell calls must come from one thread at a time (the
    asynchronous driver makes them all from its scheduling loop).

    Speculative refinements (minted by ``ask(n)`` when the round's unasked
    proposals cannot fill ``n`` slots) add extra sampling blocks to still-active
    vertices; they are merged at the next round boundary and never advance
    the virtual clock — idle MW workers keep sampling, exactly the paper's
    deployment model.  Tells for vertices that were discarded in the
    meantime are rejected as stale and counted.
    """

    def __init__(self, optimizer: "SimplexOptimizer") -> None:
        self._opt = optimizer
        self._steps = optimizer._loop()
        self._round: Dict[str, _RoundSlot] = {}
        self._untold = 0
        self._extras: Dict[str, _RoundSlot] = {}
        # vertices with an outstanding (minted, untold) refinement
        self._refining: Set[VertexEvaluation] = set()
        self._told_extras: List[_RoundSlot] = []
        self._fresh: List[Proposal] = []
        self._resolved: set = set()
        self._counter = 0
        self._done = False
        self._result: Optional[OptimizationResult] = None
        self._error: Optional[BaseException] = None
        self.n_stale_tells = 0
        self.n_duplicate_tells = 0
        self._resume(None)

    # -- driving the step generator ---------------------------------------

    def _resume(
        self,
        values: Optional[List[float]],
        stop: Optional[BaseException] = None,
    ) -> None:
        """Send a round's values (or throw ``stop``) and run to the next round."""
        try:
            if stop is None:
                evs, dt = self._steps.send(values)
            else:
                evs, dt = self._steps.throw(stop)
        except StopIteration as finished:
            self._finish(result=finished.value)
            return
        except BaseException as exc:  # noqa: BLE001 - surfaced by ask()/result()
            self._finish(error=exc)
            if not isinstance(exc, Exception):
                raise
            return
        dt = float(dt)
        for ev in evs:
            proposal_id = self._mint()
            self._round[proposal_id] = _RoundSlot(proposal_id, ev, dt)
            self._fresh.append(
                Proposal(id=proposal_id, theta=ev.theta.view(), label=ev.label, dt=dt)
            )
        self._untold = len(evs)

    def _finish(self, result=None, error=None) -> None:
        self._done = True
        self._result = result
        self._error = error
        self._fresh = []
        self._refining.clear()

    def _complete_round(self) -> None:
        """Every slot of the round is told: merge and run the next step."""
        values = [slot.value for slot in self._round.values()]
        self._round = {}
        try:
            self._merge_told_extras()
        except Exception as exc:  # noqa: BLE001 - surfaced by ask()/result()
            self._finish(error=exc)
            return
        self._resume(values)

    def _merge_told_extras(self) -> None:
        """Fold accepted refinement values in, at a round boundary.

        Applied only between steps so refinement merges never interleave
        with a step's computation; within a batch they apply in mint order
        so a fixed set of arrivals yields one deterministic stream.  The
        live ones merge through one batched kernel call per run of equal
        ``dt`` (they all carry the pool's warmup), which consumes the same
        rng stream as merging them one by one.
        """
        if not self._told_extras:
            return
        batch = sorted(self._told_extras, key=lambda s: s.id)
        self._told_extras.clear()
        pool = self._opt.pool
        live = []
        for slot in batch:
            if slot.ev in pool:
                live.append(slot)
            else:
                self.n_stale_tells += 1
        for dt, run in groupby(live, key=lambda s: s.dt):
            run = list(run)
            self._opt.func.merge_external_batch(
                [slot.ev for slot in run], dt, [slot.value for slot in run]
            )

    def _mint(self) -> str:
        self._counter += 1
        return f"p{self._counter:06d}"

    # -- caller side -------------------------------------------------------

    def ask(self, max_proposals: Optional[int] = None) -> List[Proposal]:
        """Pending proposals of the current round (never blocks)."""
        if self._error is not None:
            raise self._error
        if max_proposals is None:
            out, self._fresh = self._fresh, []
            return out
        out = self._fresh[:max_proposals]
        del self._fresh[: len(out)]
        if not self._done and len(out) < max_proposals:
            out.extend(self._mint_refinements(max_proposals - len(out)))
        return out

    def _mint_refinements(self, n: int) -> List[Proposal]:
        """Speculative refinement proposals: keep idle workers sampling.

        At most one outstanding refinement per active vertex, most
        uncertain (largest standard error) vertices first.  Non-concurrent
        pools (the DET baseline) read each point exactly once by
        definition, so no refinements are minted for them.
        """
        pool = self._opt.pool
        if not pool.concurrent:
            return []
        busy = self._refining
        candidates = [ev for ev in pool.active if ev not in busy]
        candidates.sort(key=lambda ev: -ev.sem)
        dt = float(pool.warmup)
        out = []
        for ev in candidates[:n]:
            proposal_id = self._mint()
            self._extras[proposal_id] = _RoundSlot(proposal_id, ev, dt)
            busy.add(ev)
            out.append(
                Proposal(
                    id=proposal_id,
                    theta=ev.theta.view(),
                    label=f"refine:{ev.label}",
                    dt=dt,
                )
            )
        return out

    def tell(self, proposal_id: str, value: float) -> str:
        """Resolve one proposal; returns a ``TELL_*`` status string."""
        status = self._tell(proposal_id, value)
        if status is None:
            raise KeyError(f"unknown proposal id {proposal_id!r}")
        if status == TELL_APPLIED and not self._untold:
            self._complete_round()
        return status

    def tell_many(self, items) -> List[str]:
        """Resolve a batch of ``(proposal_id, value)`` pairs.

        The batched-evaluation fan-in: every value of a frame is applied
        before the step loop resumes, so a frame of ``q`` results costs at
        most one step resumption.  Statuses come back in item order with
        the same semantics as :meth:`tell`, except unknown ids map to
        :data:`TELL_STALE` instead of raising — a batch fan-in cannot
        abandon the rest of the frame over one retired id (engine-side
        stale counters are untouched for those, matching the driver's
        ``KeyError`` handling for single tells).
        """
        statuses = []
        completed = False
        for proposal_id, value in items:
            status = self._tell(proposal_id, value)
            if status == TELL_APPLIED and not self._untold:
                completed = True
            statuses.append(TELL_STALE if status is None else status)
        if completed:
            self._complete_round()
        return statuses

    def _tell(self, proposal_id: str, value: float) -> Optional[str]:
        """Record one tell; ``None`` flags an unknown proposal id."""
        if proposal_id in self._resolved:
            self.n_duplicate_tells += 1
            return TELL_DUPLICATE
        slot = self._round.get(proposal_id)
        extra = self._extras.get(proposal_id) if slot is None else None
        if slot is None and extra is None:
            return None
        self._resolved.add(proposal_id)
        if self._done:
            self.n_stale_tells += 1
            return TELL_STALE
        if slot is not None:
            slot.value = float(value)
            self._untold -= 1
            return TELL_APPLIED
        del self._extras[proposal_id]
        self._refining.discard(extra.ev)
        extra.value = float(value)
        self._told_extras.append(extra)
        return TELL_EXTRA

    @property
    def finished(self) -> bool:
        """True once the step loop has produced a result (or an error)."""
        return self._done

    def result(self) -> OptimizationResult:
        """The run's result; re-raises step-loop errors.

        Raises ``RuntimeError`` while a round is still outstanding — the
        result only exists once every proposal of the run has been told
        (or :meth:`close` was called).
        """
        if not self._done:
            raise RuntimeError(
                f"ask/tell run of {self._opt.name} is not finished: "
                f"{self._untold} proposal(s) of the current round are untold "
                "(tell them, or close() the run)"
            )
        if self._error is not None:
            raise self._error
        return self._result

    def close(self, reason: str = "closed") -> None:
        """Abort the step loop at its outstanding round; idempotent.

        The run finishes at once with a normal :class:`OptimizationResult`
        whose ``reason`` is the given string (the same path a mid-step
        termination takes); unresolved proposals become stale.
        """
        while not self._done:
            self._resume(None, stop=_StopOptimization(reason))


class SimplexOptimizer:
    """Base class for the downhill-simplex family.

    Parameters
    ----------
    func:
        The :class:`~repro.noise.stochastic.StochasticFunction` to minimize.
    initial_vertices:
        ``(d+1, d)`` array of starting vertex coordinates.  The paper keeps
        this a *user input*: "the total cost of the optimization can depend
        dramatically on the initial state of the simplex, so it is not
        advisable to automate this step".
    alpha, beta, gamma:
        Reflection / contraction / expansion coefficients (defaults 1, 0.5, 2
        — "for optimal performance of simplex", §2.1).
    warmup:
        Sampling time given to each newly activated vertex.
    termination:
        A :class:`~repro.core.termination.TerminationCriterion`; defaults to
        tolerance + walltime + max-steps.
    pool:
        Evaluation pool; a fresh :class:`SamplingPool` is built if omitted.
        Any :class:`SamplingPool` subclass works: the step loop samples
        through its generator form (``activate_rounds`` /
        ``advance_rounds``), so every sampling round is published through
        the ask/tell seam.  To run on MW workers, drive the optimizer's
        ask/tell seam from :class:`~repro.core.async_driver.AsyncEvalDriver`.
    record_trace:
        Keep per-step records for the analysis layer.
    """

    name = "base"
    #: whether idle vertices keep sampling while time passes (MW model); the
    #: classical DET baseline overrides this to False.
    concurrent_sampling = True

    def __init__(
        self,
        func: StochasticFunction,
        initial_vertices,
        *,
        alpha: float = 1.0,
        beta: float = 0.5,
        gamma: float = 2.0,
        warmup: float = 1.0,
        termination: Optional[TerminationCriterion] = None,
        pool: Optional[SamplingPool] = None,
        record_trace: bool = True,
    ) -> None:
        if not (alpha > 0.0):
            raise ValueError(f"alpha must be > 0, got {alpha!r}")
        if not (0.0 < beta < 1.0):
            raise ValueError(f"beta must be in (0, 1), got {beta!r}")
        if not (gamma > 1.0):
            raise ValueError(f"gamma must be > 1, got {gamma!r}")
        self.func = func
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.gamma = float(gamma)
        if pool is None:
            pool = SamplingPool(func, warmup=warmup, concurrent=self.concurrent_sampling)
        self.pool = pool
        self._t0 = pool.now
        vertices = np.asarray(initial_vertices, dtype=float)
        if vertices.ndim != 2:
            raise ValueError(
                f"initial_vertices must be (d+1, d), got shape {vertices.shape}"
            )
        evals = [
            self.pool.activate(v, label=f"v{i}") for i, v in enumerate(vertices)
        ]
        self.simplex = Simplex(evals)
        self.termination = termination if termination is not None else default_termination()
        self.n_steps = 0
        self.trace: Optional[Trace] = Trace() if record_trace else None
        self.stats = ComparisonStats()
        self._step_wait = 0.0
        self._step_resamples = 0
        self._stop_reason: Optional[str] = None
        self._asktell: Optional[_AskTellEngine] = None

    # -- time -----------------------------------------------------------------

    def elapsed_walltime(self) -> float:
        """Virtual seconds since this optimizer was constructed."""
        return self.pool.now - self._t0

    # -- run loop ---------------------------------------------------------------

    def run(self) -> OptimizationResult:
        """Iterate simplex steps until a termination criterion fires.

        Runs the step loop on the caller's thread, sampling every round
        locally (:meth:`_run_inline`).  If an ask/tell run is already under
        way, it is finished instead: each outstanding round is evaluated
        on the surface and told back.  The golden-digest suite
        (``tests/test_core_golden.py``) pins both paths, and every ask/tell
        drive, to the same bitwise trajectory.
        """
        engine = self._asktell
        if engine is None:
            return self._run_inline()
        try:
            while True:
                proposals = engine.ask()
                if not proposals:
                    break
                engine.tell_many(
                    [(p.id, float(self.func.f(p.theta))) for p in proposals]
                )
        except BaseException:
            engine.close(reason="error")
            raise
        return engine.result()

    def _run_inline(self) -> OptimizationResult:
        """The step loop with every sampling round answered locally."""
        return sample_locally(self._loop())

    def _loop(self):
        """The step loop as a round generator; returns the result.

        Yields one ``(evs, dt)`` round per pool sampling request (see
        :meth:`SamplingPool.advance_rounds
        <repro.noise.stochastic.SamplingPool.advance_rounds>`).
        """
        reason = self.termination.check(self)
        while reason is None:
            self._step_wait = 0.0
            self._step_resamples = 0
            try:
                operation = yield from self._decide_step()
            except _StopOptimization as stop:
                reason = stop.reason
                break
            self.n_steps += 1
            if self.trace is not None:
                best = self.simplex.best()
                self.trace.append(
                    StepRecord(
                        step=self.n_steps,
                        time=self.pool.now,
                        operation=operation,
                        best_estimate=best.estimate,
                        best_true=self.func.true_value(best.theta),
                        diameter=self.simplex.diameter(),
                        contraction_level=self.simplex.contraction_level,
                        wait_time=self._step_wait,
                        resample_rounds=self._step_resamples,
                    )
                )
            reason = self.termination.check(self)
        return self._result(reason)

    def _result(self, reason: str) -> OptimizationResult:
        best = self.simplex.best()
        return OptimizationResult(
            algorithm=self.name,
            best_theta=np.array(best.theta, copy=True),
            best_estimate=best.estimate,
            best_true=self.func.true_value(best.theta),
            n_steps=self.n_steps,
            reason=reason,
            walltime=self.elapsed_walltime(),
            trace=self.trace,
            n_underlying_calls=self.func.n_underlying_calls,
            total_sampling_time=self.func.total_sampling_time,
            forced_decisions=self.stats.forced,
        )

    # -- ask/tell interface ------------------------------------------------------

    def _engine(self) -> _AskTellEngine:
        """The lazily started ask/tell engine (runs to its first round)."""
        if self._asktell is None:
            self._asktell = _AskTellEngine(self)
        return self._asktell

    def ask(self, max_proposals: Optional[int] = None) -> List[Proposal]:
        """Pending evaluation :class:`Proposal` objects (stable, unique ids).

        With ``max_proposals=None`` returns exactly the proposals the step
        loop is suspended on (one *round*; empty once the run has finished
        or while the caller already holds the round).  With an integer, also
        tops the batch up with speculative refinement proposals on active
        vertices once the round's proposals are handed out.  ``ask(k)`` with
        ``k <= n_unasked`` therefore never mints a refinement: the
        asynchronous driver asks that way first for every open job, and
        only the budget all rounds leave goes to refinements.  Note the
        initial simplex is sampled synchronously at construction; ask/tell
        covers everything from the first step on.
        """
        return self._engine().ask(max_proposals)

    @property
    def n_unasked(self) -> int:
        """Proposals of the current round that :meth:`ask` has not handed
        out yet; 0 once the run is finished (or closed).

        Reading it starts the ask/tell run, as :meth:`ask` does, so a fresh
        optimizer reports its first round.
        """
        return len(self._engine()._fresh)

    def tell(self, proposal_id: str, value: float) -> str:
        """Feed back the deterministic surface value for one proposal.

        Tells may arrive in any order; the noise model is applied at merge
        time in pool order, so the trajectory is independent of arrival
        order.  Returns one of :data:`TELL_APPLIED`, :data:`TELL_EXTRA`,
        :data:`TELL_STALE` (vertex retired / run over — value dropped,
        counted in :attr:`n_stale_tells`), or :data:`TELL_DUPLICATE`
        (already told — rejected cleanly).  Unknown ids raise ``KeyError``.
        """
        return self._engine().tell(proposal_id, value)

    def tell_many(self, items) -> List[str]:
        """Feed back a frame of ``(proposal_id, value)`` pairs at once.

        At most one step resumption for the whole batch — the fan-in half
        of ``--eval-batch``.  Statuses come back in item order; unknown ids
        map to :data:`TELL_STALE` instead of raising.
        """
        return self._engine().tell_many(items)

    @property
    def finished(self) -> bool:
        """True once the ask/tell run has produced a result."""
        return self._asktell is not None and self._asktell.finished

    def result(self) -> OptimizationResult:
        """The finished ask/tell run's result.

        Raises ``RuntimeError`` while a round is outstanding (never waits).
        """
        return self._engine().result()

    def close(self, reason: str = "closed") -> None:
        """Stop an ask/tell run early (returns at once); outstanding
        proposals become stale."""
        if self._asktell is not None:
            self._asktell.close(reason=reason)

    @property
    def n_stale_tells(self) -> int:
        """Tells rejected because their vertex (or the run) was retired."""
        return 0 if self._asktell is None else self._asktell.n_stale_tells

    @property
    def n_duplicate_tells(self) -> int:
        """Tells rejected because the proposal id was already resolved."""
        return 0 if self._asktell is None else self._asktell.n_duplicate_tells

    # -- the algorithm-specific part ---------------------------------------------

    def _decide_step(self):
        """Generator: perform one simplex iteration; return the operation name."""
        raise NotImplementedError

    # -- shared plumbing -----------------------------------------------------------

    def _check_interrupt(self) -> None:
        """Abort mid-step if a termination criterion fired during sampling."""
        reason = self.termination.check(self)
        if reason is not None:
            raise _StopOptimization(reason)

    def _wait(self, dt: float, targets: Sequence[VertexEvaluation] = ()):
        """Generator: spend ``dt`` virtual seconds sampling; track per-step
        wait time."""
        yield from self.pool.advance_rounds(dt, targets=targets or None)
        self._step_wait += dt

    def _activate(self, theta, label: str):
        """Generator: activate a new vertex; returns its evaluation."""
        return (yield from self.pool.activate_rounds(theta, label=label))

    def _discard(self, *evs: VertexEvaluation) -> None:
        for ev in evs:
            if ev in self.pool:
                self.pool.deactivate(ev)

    def _trial_points(self, mx: VertexEvaluation):
        """Reflection point and the centroid it was computed from."""
        cent = self.simplex.centroid_excluding(mx)
        ref = geom.reflect_point(cent, mx.theta, self.alpha)
        return cent, ref

    def _accept(self, mx: VertexEvaluation, new: VertexEvaluation, operation: str) -> None:
        """Replace the worst vertex with an accepted trial vertex."""
        self.simplex.replace(mx, new, operation)
        self._discard(mx)

    def _do_collapse(self, mn: VertexEvaluation):
        """Generator: collapse every non-best vertex halfway toward the best
        (§2.1)."""
        replacements = []
        old = [ev for ev in self.simplex.vertices if ev is not mn]
        for i, ev in enumerate(old):
            new_theta = geom.collapse_point(ev.theta, mn.theta)
            replacements.append((yield from self._activate(new_theta, label=f"clp{i}")))
        self.simplex.collapse(replacements)
        self._discard(*old)

    # -- shared step skeleton (Algorithms 1 & 2 differ only by the gate) ----------

    def _classic_step(self):
        """Generator: one iteration of Algorithm 1's decision tree on plain
        estimates; returns the operation name."""
        mn, smax, mx = self.simplex.order()
        cent, ref_theta = self._trial_points(mx)
        ref = yield from self._activate(ref_theta, label="ref")
        if ref.estimate < mn.estimate:
            exp_theta = geom.expand_point(ref.theta, cent, self.gamma)
            exp = yield from self._activate(exp_theta, label="exp")
            if exp.estimate < ref.estimate:
                self._accept(mx, exp, "expand")
                self._discard(ref)
                return "expand"
            self._accept(mx, ref, "reflect")
            self._discard(exp)
            return "reflect"
        if ref.estimate < mx.estimate:
            self._accept(mx, ref, "reflect")
            return "reflect"
        con_theta = geom.contract_point(mx.theta, cent, self.beta)
        con = yield from self._activate(con_theta, label="con")
        if con.estimate < mx.estimate:
            self._accept(mx, con, "contract")
            self._discard(ref)
            return "contract"
        self._discard(ref, con)
        yield from self._do_collapse(mn)
        return "collapse"
