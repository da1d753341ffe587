"""Cross-cutting property-based tests (hypothesis) on system invariants."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from store_helpers import STORE_BACKENDS, open_store_backend
from repro.campaign import ResultStore, open_store
from repro.cluster import Cluster, JobRequest, PBSScheduler
from repro.core import MaxStepsTermination, NelderMead
from repro.functions import Quadratic, initial_simplex
from repro.mw import decode_message, encode_message, Message
from repro.mw.messages import MSG_RESULT, MSG_TASK
from repro.noise import StochasticFunction

slow_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestOptimizerEquivariance:
    @given(
        shift=hnp.arrays(float, (2,), elements=st.floats(-5, 5, allow_nan=False)),
    )
    @slow_settings
    def test_det_translation_equivariance_of_outcome(self, shift):
        """Minimizing f(x - c) from x0 + c lands at the shifted optimum.

        (Exact *path* equivariance does not survive floating point — a tie
        broken differently flips a branch — so the property tested is the
        outcome: both runs converge equally close to their own minimizer.)
        """
        def run(center, start):
            f = Quadratic(2, scales=[1.0, 3.0], center=center)
            func = StochasticFunction(f, sigma0=0.0, rng=0)
            opt = NelderMead(
                func,
                initial_simplex(start, step=0.7),
                termination=MaxStepsTermination(200),
            )
            return opt.run(), f

        base, f_base = run(np.zeros(2), np.array([1.3, -0.8]))
        moved, f_moved = run(shift, np.array([1.3, -0.8]) + shift)
        d_base = f_base.distance_to_solution(base.best_theta)
        d_moved = f_moved.distance_to_solution(moved.best_theta)
        assert d_base < 1e-3
        assert d_moved < 1e-3

    @given(scale=st.floats(0.1, 50.0))
    @slow_settings
    def test_det_invariant_to_objective_scaling(self, scale):
        """Multiplying f by a positive constant changes no decision."""
        def run(s):
            f = Quadratic(2, scales=[s, 3.0 * s], center=[1.0, -1.0])
            func = StochasticFunction(f, sigma0=0.0, rng=0)
            opt = NelderMead(
                func,
                initial_simplex([0.0, 0.0], step=0.9),
                termination=MaxStepsTermination(100),
            )
            return opt.run()

        a = run(1.0)
        b = run(scale)
        np.testing.assert_allclose(a.best_theta, b.best_theta, atol=1e-9)
        assert a.trace.operations() == b.trace.operations()


class TestSchedulerInvariants:
    @given(
        sizes=st.lists(st.integers(1, 16), min_size=1, max_size=12),
    )
    @slow_settings
    def test_core_conservation(self, sizes):
        """free + allocated == total, at every point of any submit sequence."""
        cluster = Cluster.homogeneous(4, cores_per_node=8)
        sched = PBSScheduler(cluster)
        jobs = []
        for s in sizes:
            job = sched.submit(JobRequest(n_procs=s))
            if job is not None:
                jobs.append(job)
            allocated = sum(len(j.entries) for j in sched.running.values())
            assert sched.free_cores + allocated == cluster.total_cores
        # release everything; queued jobs may start, then drain them too
        while sched.running:
            jid = next(iter(sched.running))
            sched.release(jid)
        assert sched.free_cores == cluster.total_cores
        assert sched.queued == 0 or all(
            q.n_procs > cluster.total_cores for q in sched._queue
        )

    @given(sizes=st.lists(st.integers(1, 8), min_size=2, max_size=8))
    @slow_settings
    def test_no_core_double_allocation(self, sizes):
        cluster = Cluster.homogeneous(3, cores_per_node=8)
        sched = PBSScheduler(cluster)
        for s in sizes:
            sched.submit(JobRequest(n_procs=s))
        entries = [e for j in sched.running.values() for e in j.entries]
        # each physical core (machinefile slot) appears at most its multiplicity
        from collections import Counter

        total = Counter()
        for e in entries:
            total[e] += 1
        for node, count in total.items():
            assert count <= 8


# A deliberately tiny id pool so random op sequences collide on job ids
# (duplicates, re-claims, and overwrites are the interesting cases).
_job_ids = st.text(alphabet="abc", min_size=1, max_size=2)
_runners = st.sampled_from(["r1", "r2"])

_store_ops = st.lists(
    st.one_of(
        st.tuples(st.just("record"), _job_ids,
                  st.sampled_from(["done", "failed"]), st.integers(0, 9)),
        st.tuples(st.just("claim"), st.lists(_job_ids, max_size=3), _runners),
        st.tuples(st.just("release"), st.lists(_job_ids, max_size=3), _runners),
        st.tuples(st.just("compact")),
    ),
    max_size=30,
)


class TestStoreProperties:
    """Every store engine under random append/claim/release/compact mixes.

    Parametrized over the same engine set as the ``store_backend``
    fixture (fresh stores are built per hypothesis example, which a
    function-scoped fixture cannot provide).
    """

    @staticmethod
    def _apply(store, model, op):
        """Run one op against the real store and the pure-dict model.

        The model tracks *results only* — the invariant under test is that
        lease traffic and compaction never disturb (or surface as) result
        records, and that last-record-wins holds.
        """
        if op[0] == "record":
            _, jid, status, v = op
            rec = {"job_id": jid, "status": status, "result": {"v": v}}
            store.record(rec)
            model[jid] = rec
        elif op[0] == "claim":
            store.claim(op[1], op[2], ttl=3600)
        elif op[0] == "release":
            store.release(op[1], op[2])
        else:
            store.compact()

    @pytest.mark.parametrize("engine", STORE_BACKENDS)
    @given(ops=_store_ops)
    @slow_settings
    def test_random_interleavings_preserve_last_record_wins(self, engine, ops):
        with tempfile.TemporaryDirectory() as tmp:
            store = open_store_backend(engine, tmp)
            model = {}
            for op in ops:
                self._apply(store, model, op)
                done = {j for j, r in model.items() if r["status"] == "done"}
                assert store.completed_ids() == done  # no completed result lost
            assert {r["job_id"]: r for r in store.records()} == model
            store.compact()  # a final compact changes nothing observable
            assert {r["job_id"]: r for r in store.records()} == model
            # and a fresh reader of the same directory agrees
            reread = open_store_backend(engine, tmp)
            assert {r["job_id"]: r for r in reread.records()} == model

    @given(
        records=st.lists(
            st.tuples(_job_ids, st.sampled_from(["done", "failed"]),
                      st.integers(0, 9)),
            max_size=30,
        ),
        torn_tail=st.booleans(),
    )
    @slow_settings
    def test_legacy_migration_is_lossless_and_idempotent(self, records, torn_tail):
        with tempfile.TemporaryDirectory() as tmp:
            legacy = ResultStore(Path(tmp) / "results.jsonl")
            for jid, status, v in records:
                legacy.record({"job_id": jid, "status": status, "result": {"v": v}})
            if torn_tail and records:
                with open(legacy.path, "a") as fh:
                    fh.write('{"job_id": "zz", "stat')  # hard-kill artifact
            expected = {r["job_id"]: r for r in legacy.records()}

            migrated = open_store(tmp, engine="sqlite")
            assert {r["job_id"]: r for r in migrated.records()} == expected
            assert not (Path(tmp) / "results.jsonl").exists()

            # idempotent: re-resolving (and re-migrating) changes nothing
            again = open_store(tmp)
            assert type(again) is type(migrated)
            assert {r["job_id"]: r for r in again.records()} == expected
            again.compact()
            assert {r["job_id"]: r for r in again.records()} == expected


class TestMessageProperties:
    @given(
        payload=st.dictionaries(
            st.text(max_size=6),
            st.one_of(st.integers(-1000, 1000), st.floats(-1e6, 1e6, allow_nan=False), st.text(max_size=10)),
            max_size=5,
        ),
        sender=st.integers(0, 100),
        tag=st.sampled_from([MSG_TASK, MSG_RESULT]),
    )
    @settings(max_examples=50, deadline=None)
    def test_message_roundtrip_property(self, payload, sender, tag):
        msg = Message(tag=tag, sender=sender, payload=payload)
        assert decode_message(encode_message(msg)) == msg
