"""Parity + property tests for the ask/tell seam (repro.core.base).

Three layers of evidence that killing the per-iteration barrier did not
change the optimizers:

* **Trajectory parity** — for every algorithm in ``ALGORITHMS``,
  ``run()`` and manual ask/tell drives (out-of-order tells, batched
  ``tell_many``) reproduce the locally sampled loop ``_run_inline()`` seed
  for seed: identical vertices, identical :class:`OptimizationResult`,
  identical trace.  ``tests/test_core_golden.py`` pins all of them to
  digests of the pre-generator reference loop.
* **Protocol semantics** — duplicate tells are rejected cleanly, unknown
  ids raise, late tells go stale and are counted, speculative refinement
  proposals respect the non-concurrent (DET) pool contract.
* **Lifecycle** — the engine is thread-free: opening and abandoning runs
  starts no threads, ``close()`` returns at once, and ``result()`` on an
  unfinished run raises instead of waiting.
* **A hypothesis state machine** — random interleavings of
  ask / in-order tells / out-of-order tells / duplicate tells / unknown
  tells never mint a duplicate proposal id, never lose a proposal, and
  always terminate.
"""

import threading
import time

import numpy as np
import pytest

from repro.core import (
    ALGORITHMS,
    Proposal,
    TELL_APPLIED,
    TELL_DUPLICATE,
    TELL_EXTRA,
    TELL_STALE,
    default_termination,
    make_optimizer,
)
from repro.functions import Sphere, initial_simplex, random_vertices
from repro.noise import StochasticFunction

try:
    from hypothesis import settings as hyp_settings
    from hypothesis import strategies as st
    from hypothesis.stateful import (
        RuleBasedStateMachine,
        initialize,
        invariant,
        precondition,
        rule,
        run_state_machine_as_test,
    )

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is normally present
    HAVE_HYPOTHESIS = False


def build(algorithm, seed=42, dim=2, sigma0=1.0, max_steps=40, tau=0.05):
    """A deterministically seeded optimizer (same seed -> same instance)."""
    init_rng = np.random.default_rng(seed)
    vertices = random_vertices(dim, low=-2.0, high=2.0, rng=init_rng)
    func = StochasticFunction(
        Sphere(dim), sigma0=sigma0, rng=np.random.default_rng(seed + 7)
    )
    return make_optimizer(
        algorithm,
        func,
        vertices,
        termination=default_termination(tau=tau, walltime=1e6, max_steps=max_steps),
        record_trace=True,
    )


def assert_results_identical(a, b):
    """Bitwise-equality of two OptimizationResults, trace included."""
    assert a.reason == b.reason
    assert a.n_steps == b.n_steps
    assert a.walltime == b.walltime
    assert a.n_underlying_calls == b.n_underlying_calls
    assert a.total_sampling_time == b.total_sampling_time
    assert np.array_equal(a.best_theta, b.best_theta)
    assert a.best_estimate == b.best_estimate
    assert a.best_true == b.best_true
    ra, rb = a.trace.to_records(), b.trace.to_records()
    assert ra == rb


class TestRunParity:
    """run() and the ask/tell drives are trajectory-identical to _run_inline()."""

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_engine_run_matches_inline_reference(self, algorithm):
        reference = build(algorithm)._run_inline()
        result = build(algorithm).run()
        assert_results_identical(reference, result)
        assert result.n_steps > 0  # the run actually went somewhere

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_engine_leaves_identical_simplex(self, algorithm):
        ref_opt = build(algorithm)
        ref_opt._run_inline()
        eng_opt = build(algorithm)
        eng_opt.run()
        for ev_ref, ev_eng in zip(ref_opt.simplex.vertices, eng_opt.simplex.vertices):
            assert np.array_equal(ev_ref.theta, ev_eng.theta)
            assert ev_ref.estimate == ev_eng.estimate
            assert ev_ref.time == ev_eng.time

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_out_of_order_tells_reproduce_trajectory(self, algorithm):
        """Full-batch ask + reversed-order tells == the legacy trajectory.

        Noise is drawn at merge time in pool order, so the arrival order
        of a round's values must not matter.
        """
        reference = build(algorithm)._run_inline()
        opt = build(algorithm)
        surface = opt.func.f
        while True:
            proposals = opt.ask()
            if not proposals:
                break
            for p in reversed(proposals):
                status = opt.tell(p.id, float(surface(np.asarray(p.theta))))
                assert status == TELL_APPLIED
        assert_results_identical(reference, opt.result())
        assert opt.n_stale_tells == 0
        assert opt.n_duplicate_tells == 0

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_batched_tell_many_reproduces_trajectory(self, algorithm):
        """Whole-round tell_many frames == the sequential reference.

        The --eval-batch fan-in: a frame of results lands through one
        batched tell (at most one step resumption) with the
        surface values computed by the vectorized batch kernel, and the
        trajectory must stay bitwise identical to the inline loop.
        """
        reference = build(algorithm)._run_inline()
        opt = build(algorithm)
        surface = opt.func.f
        while True:
            proposals = opt.ask()
            if not proposals:
                break
            thetas = np.ascontiguousarray(
                [np.asarray(p.theta, dtype=float) for p in proposals]
            )
            values = surface.batch(thetas)
            statuses = opt.tell_many(
                [(p.id, float(v)) for p, v in zip(proposals, values)]
            )
            assert statuses == [TELL_APPLIED] * len(proposals)
        assert_results_identical(reference, opt.result())
        assert opt.n_stale_tells == 0
        assert opt.n_duplicate_tells == 0

    def test_proposal_ids_are_stable_and_unique(self):
        opt = build("MN", max_steps=10)
        surface = opt.func.f
        seen = set()
        while True:
            proposals = opt.ask()
            if not proposals:
                break
            for p in proposals:
                assert isinstance(p, Proposal)
                assert p.id not in seen
                seen.add(p.id)
                assert p.dt > 0
                opt.tell(p.id, float(surface(np.asarray(p.theta))))
        assert len(seen) > 0


class TestTellSemantics:
    def test_duplicate_tell_rejected_cleanly(self):
        opt = build("MN", max_steps=5)
        surface = opt.func.f
        proposals = opt.ask()
        p = proposals[0]
        assert opt.tell(p.id, float(surface(np.asarray(p.theta)))) == TELL_APPLIED
        assert opt.tell(p.id, 123.456) == TELL_DUPLICATE
        assert opt.n_duplicate_tells == 1
        for q in proposals[1:]:
            opt.tell(q.id, float(surface(np.asarray(q.theta))))
        opt.close()

    def test_unknown_id_raises_keyerror(self):
        opt = build("MN", max_steps=5)
        opt.ask()
        with pytest.raises(KeyError):
            opt.tell("never-minted", 0.0)
        opt.close()

    def test_tell_after_close_goes_stale(self):
        opt = build("MN", max_steps=5)
        proposals = opt.ask()
        opt.close(reason="test-close")
        status = opt.tell(proposals[0].id, 0.0)
        assert status == TELL_STALE
        assert opt.n_stale_tells >= 1
        result = opt.result()
        assert result.reason == "test-close"

    def test_close_is_idempotent_and_finishes(self):
        opt = build("PC", max_steps=5)
        opt.ask()
        opt.close()
        opt.close()
        assert opt.finished
        assert opt.result().reason == "closed"


class TestTellManySemantics:
    """Batch fan-in edge cases: per-item statuses under one lock."""

    def test_unknown_id_maps_to_stale_without_raising(self):
        opt = build("MN", max_steps=5)
        surface = opt.func.f
        proposals = opt.ask()
        items = [(p.id, float(surface(np.asarray(p.theta)))) for p in proposals]
        statuses = opt.tell_many([("p999999", 1.0)] + items)
        assert statuses[0] == TELL_STALE
        assert statuses[1:] == [TELL_APPLIED] * len(proposals)
        # unknown ids mirror the driver-side KeyError handling: counted
        # by the caller, not by the engine
        assert opt.n_stale_tells == 0
        opt.close()

    def test_duplicate_within_one_batch_rejected(self):
        opt = build("MN", max_steps=5)
        surface = opt.func.f
        proposals = opt.ask()
        p = proposals[0]
        value = float(surface(np.asarray(p.theta)))
        statuses = opt.tell_many([(p.id, value), (p.id, value)])
        assert statuses == [TELL_APPLIED, TELL_DUPLICATE]
        assert opt.n_duplicate_tells == 1
        opt.close()

    def test_empty_batch_is_a_noop(self):
        opt = build("MN", max_steps=5)
        opt.ask()
        assert opt.tell_many([]) == []
        opt.close()


class TestRefinements:
    def test_ask_n_mints_refinements_when_blocked(self):
        """With the round held, ask(n) mints refine:* proposals on active
        vertices; telling them merges extra sampling without breaking the run."""
        opt = build("MN", max_steps=10)
        surface = opt.func.f
        proposals = opt.ask()
        assert proposals
        extras = opt.ask(4)
        assert all(p.label.startswith("refine:") for p in extras)
        assert len({p.id for p in proposals + extras}) == len(proposals) + len(extras)
        for p in extras:
            assert opt.tell(p.id, float(surface(np.asarray(p.theta)))) == TELL_EXTRA
        while proposals:
            for p in proposals:
                opt.tell(p.id, float(surface(np.asarray(p.theta))))
            proposals = opt.ask()
        result = opt.result()
        assert result.n_steps > 0

    def test_no_refinements_for_non_concurrent_pool(self):
        """DET reads each point once with a fixed budget; speculative
        refinement would silently change that contract, so the engine must
        not mint any."""
        opt = build("DET", max_steps=10)
        proposals = opt.ask()
        assert proposals
        assert opt.ask(8) == []
        opt.close()

    def test_refinement_for_discarded_vertex_counts_stale(self):
        opt = build("MN", max_steps=12)
        surface = opt.func.f
        proposals = opt.ask()
        extras = opt.ask(2)
        # hold the refinement values until the vertex set has churned
        held = list(extras)
        for _ in range(6):
            if not proposals:
                break
            for p in proposals:
                opt.tell(p.id, float(surface(np.asarray(p.theta))))
            proposals = opt.ask()
        before = opt.n_stale_tells
        for p in held:
            status = opt.tell(p.id, float(surface(np.asarray(p.theta))))
            assert status in (TELL_EXTRA, TELL_STALE)
        # drive to completion; stale refinements are counted at merge time
        while proposals:
            for p in proposals:
                opt.tell(p.id, float(surface(np.asarray(p.theta))))
            proposals = opt.ask()
        opt.result()
        assert opt.n_stale_tells >= before


class TestThreadFreeLifecycle:
    """The engine runs each step on the caller's thread: no threads to leak,
    nothing to join, nothing to wait for."""

    def test_open_finish_and_abandon_leave_no_threads(self):
        before = threading.active_count()
        opts = [build("MN" if i % 2 else "DET", seed=i, max_steps=4) for i in range(200)]
        rounds = [opt.ask() for opt in opts]
        assert all(rounds)
        assert threading.active_count() == before
        for opt, proposals in zip(opts[:100], rounds):
            surface = opt.func.f
            while proposals:
                for p in proposals:
                    opt.tell(p.id, float(surface(np.asarray(p.theta))))
                proposals = opt.ask()
            assert opt.finished
            assert opt.result().n_steps > 0
        del opts[100:]  # abandoned mid-round, never closed
        assert threading.active_count() == before

    def test_close_returns_at_once(self):
        opt = build("PC", max_steps=50)
        assert opt.ask()
        t0 = time.perf_counter()
        opt.close(reason="stop")
        assert time.perf_counter() - t0 < 0.5
        assert opt.finished
        assert opt.result().reason == "stop"
        assert opt.ask() == []

    def test_result_with_outstanding_round_raises(self):
        opt = build("MN", max_steps=5)
        proposals = opt.ask()
        assert proposals
        with pytest.raises(RuntimeError, match="not finished"):
            opt.result()
        # the run is intact: finishing the round carries on normally
        surface = opt.func.f
        while proposals:
            for p in proposals:
                opt.tell(p.id, float(surface(np.asarray(p.theta))))
            proposals = opt.ask()
        assert opt.result().n_steps > 0

    def test_step_error_surfaces_through_ask_and_result(self):
        opt = build("MN", max_steps=5)
        proposals = opt.ask()

        def broken_merge(*args, **kwargs):
            raise ValueError("step exploded")

        opt.func.merge_external_batch = broken_merge
        statuses = opt.tell_many(
            [(p.id, float(opt.func.f(np.asarray(p.theta)))) for p in proposals]
        )
        assert statuses == [TELL_APPLIED] * len(proposals)
        assert opt.finished
        with pytest.raises(ValueError, match="step exploded"):
            opt.ask()
        with pytest.raises(ValueError, match="step exploded"):
            opt.result()


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestAskTellStateMachine:
    """Random interleavings of the protocol never corrupt the engine."""

    def test_random_interleavings(self):
        class AskTellMachine(RuleBasedStateMachine):
            def __init__(self):
                super().__init__()
                self.opt = None
                self.pending = []       # proposals asked but not told
                self.seen_ids = set()
                self.told_ids = []

            @initialize(
                algorithm=st.sampled_from(sorted(ALGORITHMS)),
                seed=st.integers(min_value=0, max_value=2**16),
            )
            def setup(self, algorithm, seed):
                self.opt = build(algorithm, seed=seed, max_steps=8, tau=0.2)
                self.surface = self.opt.func.f

            @rule()
            def ask(self):
                for p in self.opt.ask(2):
                    assert p.id not in self.seen_ids, "duplicate proposal id"
                    self.seen_ids.add(p.id)
                    self.pending.append(p)

            @precondition(lambda self: self.pending)
            @rule(data=st.data())
            def tell_random_pending(self, data):
                i = data.draw(
                    st.integers(min_value=0, max_value=len(self.pending) - 1)
                )
                p = self.pending.pop(i)
                status = self.opt.tell(
                    p.id, float(self.surface(np.asarray(p.theta)))
                )
                assert status in (TELL_APPLIED, TELL_EXTRA, TELL_STALE)
                self.told_ids.append(p.id)

            @precondition(lambda self: self.told_ids)
            @rule(data=st.data())
            def tell_duplicate(self, data):
                pid = data.draw(st.sampled_from(self.told_ids))
                status = self.opt.tell(pid, 0.0)
                assert status in (TELL_DUPLICATE, TELL_STALE)

            @rule()
            def tell_unknown(self):
                try:
                    self.opt.tell("bogus-id", 0.0)
                except KeyError:
                    pass
                else:  # pragma: no cover - would be a protocol violation
                    raise AssertionError("unknown id did not raise KeyError")

            def teardown(self):
                if self.opt is None:
                    return
                # no proposal may be lost: draining every pending round must
                # terminate (bounded by max_steps) with a usable result
                for _ in range(10_000):
                    for p in self.pending:
                        status = self.opt.tell(
                            p.id, float(self.surface(np.asarray(p.theta)))
                        )
                        assert status in (TELL_APPLIED, TELL_EXTRA, TELL_STALE)
                    self.pending = list(self.opt.ask(2))
                    if not self.pending and self.opt.finished:
                        break
                else:  # pragma: no cover
                    raise AssertionError("drain did not terminate")
                result = self.opt.result()
                assert result.reason is not None

        run_state_machine_as_test(
            AskTellMachine,
            settings=hyp_settings(
                max_examples=15, stateful_step_count=30, deadline=None
            ),
        )
