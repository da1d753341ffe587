"""Tests for MWDriver / MWWorker / MWTask across all three backends."""

import os
import signal
import time

import numpy as np
import pytest

from repro.mw import MWDriver, MWTask, Message, TaskState, decode_message, encode_message
from repro.mw.messages import MSG_RESULT, MSG_TASK
from repro.mw.task import MWTask as Task
from repro.mw.worker import MWWorker


# module-level executors (picklable for the process backend)
def square(work, ctx):
    return work * work


def failing(work, ctx):
    raise RuntimeError("boom")


def flaky(work, ctx):
    """Fails on the first attempt of each value, succeeds later (uses rng
    state as a crude per-worker attempt counter)."""
    # first call on a given worker fails; subsequent calls succeed
    if not hasattr(ctx, "_seen"):
        ctx._seen = set()
    if work not in ctx._seen:
        ctx._seen.add(work)
        raise RuntimeError("first attempt fails")
    return work


def rank_reporter(work, ctx):
    return ctx.rank


def noisy_draw(work, ctx):
    return float(ctx.rng.normal())


def slow_square(work, ctx):
    time.sleep(0.02)
    return work * work


def slow_on_rank_1(work, ctx):
    time.sleep(0.1 if ctx.rank == 1 else 0.001)
    return work


class TestMessages:
    def test_message_roundtrip(self):
        msg = Message(tag=MSG_TASK, sender=0, payload={"task_id": 1, "work": 2})
        out = decode_message(encode_message(msg))
        assert out == msg

    def test_invalid_tag_rejected(self):
        with pytest.raises(ValueError):
            Message(tag="bogus", sender=0)

    def test_negative_sender_rejected(self):
        with pytest.raises(ValueError):
            Message(tag=MSG_TASK, sender=-1)


class TestTaskLifecycle:
    def test_initial_state(self):
        t = Task({"x": 1})
        assert t.state is TaskState.PENDING
        assert not t.done and not t.failed

    def test_done_flow(self):
        t = Task(1)
        t.mark_running(2)
        assert t.worker == 2 and t.attempts == 1
        t.mark_done(42)
        assert t.done and t.result == 42

    def test_retry_flow(self):
        t = Task(1)
        t.mark_running(1)
        t.mark_retry("err")
        assert t.state is TaskState.PENDING
        assert t.worker is None
        assert t.error == "err"

    def test_ids_are_unique(self):
        assert Task(0).task_id != Task(0).task_id


class TestWorker:
    def test_execute_success(self):
        w = MWWorker(1, square)
        msg = w.execute(5, 3)
        assert msg.tag == MSG_RESULT
        assert msg.payload == {"task_id": 5, "result": 9}
        assert w.n_executed == 1

    def test_execute_error_is_contained(self):
        w = MWWorker(1, failing)
        msg = w.execute(5, 3)
        assert msg.tag == "error"
        assert "boom" in msg.payload["error"]
        assert w.n_errors == 1

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError):
            MWWorker(0, square)


@pytest.mark.parametrize("backend", ["inproc", "threaded", "process"])
class TestDriverBackends:
    def test_tasks_complete_with_results(self, backend):
        with MWDriver(square, n_workers=2, backend=backend, seed=0) as driver:
            tasks = [driver.submit(i) for i in range(6)]
            driver.wait_all(timeout=30)
            assert all(t.done for t in tasks)
            assert [t.result for t in tasks] == [i * i for i in range(6)]

    def test_failed_tasks_marked_after_retries(self, backend):
        with MWDriver(failing, n_workers=2, backend=backend, max_retries=1, seed=0) as driver:
            task = driver.submit(1)
            driver.wait_all(timeout=30)
            assert task.failed
            assert "boom" in task.error
            assert task.attempts == 2  # original + 1 retry

    def test_stats_accounting(self, backend):
        with MWDriver(square, n_workers=2, backend=backend, seed=0) as driver:
            for i in range(4):
                driver.submit(i)
            driver.wait_all(timeout=30)
            s = driver.stats()
            assert s["done"] == 4
            assert s["failed"] == 0
            assert s["n_tasks"] == 4

    def test_submit_after_shutdown_rejected(self, backend):
        driver = MWDriver(square, n_workers=1, backend=backend, seed=0)
        driver.shutdown()
        with pytest.raises(RuntimeError):
            driver.submit(1)

    def test_shutdown_idempotent(self, backend):
        driver = MWDriver(square, n_workers=1, backend=backend, seed=0)
        driver.shutdown()
        driver.shutdown()


class TestDriverSchedulingInproc:
    def test_affinity_honoured_when_idle(self):
        with MWDriver(rank_reporter, n_workers=3, backend="inproc", seed=0) as driver:
            tasks = [driver.submit(None, affinity=r) for r in (3, 1, 2)]
            driver.wait_all()
            assert [t.result for t in tasks] == [3, 1, 2]

    def test_invalid_affinity_rejected(self):
        with MWDriver(square, n_workers=2, backend="inproc", seed=0) as driver:
            with pytest.raises(ValueError):
                driver.submit(1, affinity=5)

    def test_worker_rngs_are_independent_streams(self):
        with MWDriver(noisy_draw, n_workers=2, backend="inproc", seed=7) as driver:
            a = driver.submit(None, affinity=1)
            b = driver.submit(None, affinity=2)
            driver.wait_all()
            assert a.result != b.result

    def test_seeded_runs_reproduce(self):
        def run():
            with MWDriver(noisy_draw, n_workers=2, backend="inproc", seed=9) as d:
                tasks = [d.submit(None, affinity=1 + (i % 2)) for i in range(4)]
                d.wait_all()
                return [t.result for t in tasks]

        assert run() == run()

    def test_flaky_task_retried_to_success(self):
        with MWDriver(flaky, n_workers=1, backend="inproc", max_retries=2, seed=0) as driver:
            task = driver.submit(5)
            driver.wait_all()
            assert task.done
            assert task.result == 5
            assert task.attempts == 2

    def test_more_tasks_than_workers(self):
        with MWDriver(square, n_workers=2, backend="inproc", seed=0) as driver:
            tasks = [driver.submit(i) for i in range(20)]
            driver.wait_all()
            assert all(t.done for t in tasks)

    def test_completion_hook_called(self):
        seen = []

        class Hooked(MWDriver):
            def act_on_completed_task(self, task):
                seen.append(task.task_id)

        with Hooked(square, n_workers=1, backend="inproc", seed=0) as driver:
            tasks = [driver.submit(i) for i in range(3)]
            driver.wait_all()
        assert sorted(seen) == sorted(t.task_id for t in tasks)

    def test_invalid_constructor_args(self):
        with pytest.raises(ValueError):
            MWDriver(square, n_workers=0)
        with pytest.raises(ValueError):
            MWDriver(square, backend="carrier-pigeon")
        with pytest.raises(ValueError):
            MWDriver(square, max_retries=-1)


class TestThreadedConcurrency:
    def test_parallel_tasks_overlap(self):
        with MWDriver(slow_square, n_workers=4, backend="threaded", seed=0) as driver:
            start = time.monotonic()
            for i in range(8):
                driver.submit(i)
            driver.wait_all(timeout=30)
            elapsed = time.monotonic() - start
        # 8 tasks x 20ms on 4 workers should take well under 8x serial time
        assert elapsed < 8 * 0.02 * 2

    def test_timeout_raises(self):
        def sleeper(work, ctx):
            time.sleep(1.0)
            return work

        driver = MWDriver(sleeper, n_workers=1, backend="threaded", seed=0)
        try:
            driver.submit(1)
            with pytest.raises(TimeoutError):
                driver.wait_all(timeout=0.05)
        finally:
            driver.shutdown()


class TestProcessFailureInjection:
    def test_dead_worker_task_reassigned(self):
        """Killing a worker process mid-run requeues its tasks to survivors."""
        with MWDriver(slow_square, n_workers=2, backend="process", seed=0) as driver:
            for i in range(6):
                driver.submit(i)
            # kill one worker outright
            victim = driver._procs[1]
            os.kill(victim.pid, signal.SIGKILL)
            driver.wait_all(timeout=60)
            s = driver.stats()
            assert s["done"] == 6
            assert s["live_workers"] == 1


class TestBatchAccounting:
    """Eval-weighted accounting: a batched frame counts its n_evals."""

    def test_n_evals_validated(self):
        with pytest.raises(ValueError):
            Task({"x": 1}, n_evals=0)
        assert Task({"x": 1}).n_evals == 1
        assert Task({"x": 1}, n_evals=7).n_evals == 7

    def test_pump_returns_outstanding_evals_not_frames(self):
        with MWDriver(slow_square, n_workers=1, backend="threaded", seed=0) as driver:
            driver.submit(2, n_evals=5)
            driver.submit(3)
            # both frames still in flight: 5 + 1 evaluations outstanding
            assert driver.pump(timeout=0.0) == 6
            driver.wait_all(timeout=30)
            assert driver.pump(timeout=0.0) == 0

    def test_utilization_rows_weight_evals(self):
        with MWDriver(square, n_workers=2, backend="threaded", seed=0) as driver:
            driver.submit(2, n_evals=4)
            driver.submit(3, n_evals=2)
            driver.wait_all(timeout=30)
            rows = driver.utilization()
            assert sum(r["tasks"] for r in rows) == 2
            assert sum(r["evals"] for r in rows) == 6
            assert all(r["inflight"] == 0 for r in rows)

    def test_inflight_gauge_counts_evals(self):
        with MWDriver(slow_square, n_workers=1, backend="threaded", seed=0) as driver:
            driver.submit(2, n_evals=8)
            driver.pump(timeout=0.0)  # dispatch the frame
            rows = driver.utilization()
            assert sum(r["inflight"] for r in rows) == 8
            driver.wait_all(timeout=30)


class TestQueuedUtilization:
    def test_queued_tasks_keep_utilization_at_most_one(self):
        """Two tasks in flight per rank overlap; each is counted from the
        rank's previous reply, so busy time never exceeds wall time."""
        with MWDriver(slow_square, n_workers=2, backend="threaded", seed=0) as driver:
            for i in range(20):
                driver.submit(i)
            driver.pump(timeout=0.0)
            assert driver.stats()["running"] == 4  # a task queued per rank
            driver.wait_all(timeout=30)
            rows = driver.utilization()
        assert sum(row["tasks"] for row in rows) == 20
        assert all(0.0 < row["utilization"] <= 1.0 for row in rows), rows

    def test_straggler_keeps_one_slot(self):
        """No task queues behind a rank far slower than the fastest."""
        with MWDriver(slow_on_rank_1, n_workers=2, backend="threaded", seed=0) as driver:
            assert driver.capacity() == ([frozenset()] * 4, [frozenset()] * 2)
            for i in range(6):
                driver.submit(i, affinity=1 + i % 2)
            driver.wait_all(timeout=30)
            assert driver._slot_limits() == {1: 1, 2: 2}
            assert driver.capacity()[0] == [frozenset()] * 3


class TestCapsAndConstraints:
    """Hard constraint vectors vs soft affinity (the scheduling seam
    ``campaign serve`` builds on)."""

    def caps_driver(self, executor=rank_reporter, n_workers=3,
                    backend="inproc", **caps):
        worker_caps = {1: ["md"], 2: ["md", "fast"]}  # rank 3: no caps
        worker_caps.update(caps)
        return MWDriver(executor, n_workers=n_workers, backend=backend,
                        seed=0, transport_options={"worker_caps": worker_caps})

    def test_constrained_task_lands_on_capable_worker(self):
        with self.caps_driver() as driver:
            tasks = [driver.submit(None, constraints=["md"]) for _ in range(6)]
            driver.wait_all(timeout=30)
            assert all(t.result in (1, 2) for t in tasks)

    def test_unconstrained_tasks_prefer_plain_workers(self):
        """The fewest-caps eligible worker wins, so unconstrained work
        doesn't burn the capable ranks constrained work needs."""
        with self.caps_driver() as driver:
            task = driver.submit(None)
            driver.wait_all(timeout=30)
            assert task.result == 3

    def test_unsatisfiable_constraints_fail_on_static_transport(self):
        with self.caps_driver() as driver:
            task = driver.submit(None, constraints=["gpu"])
            driver.wait_all(timeout=30)
            assert task.failed
            assert "no live worker satisfies constraints" in task.error
            assert "gpu" in task.error

    def test_constraints_do_not_block_tasks_behind_them(self):
        """A deferred constrained task must not head-of-line block the
        dispatchable tasks submitted after it."""
        with self.caps_driver() as driver:
            doomed = driver.submit(None, constraints=["gpu"])
            fine = [driver.submit(None) for _ in range(4)]
            driver.wait_all(timeout=30)
            assert doomed.failed
            assert all(t.done for t in fine)

    def test_worker_caps_surface_in_utilization(self):
        with self.caps_driver() as driver:
            driver.submit(None)
            driver.wait_all(timeout=30)
            caps = {r["rank"]: r["caps"] for r in driver.utilization()}
            assert caps == {1: ["md"], 2: ["fast", "md"], 3: []}

    def test_dead_affinity_falls_back_with_counter(self):
        """Satellite fix: a task pinned to a dead rank is dispatched
        elsewhere with a warning and a repro_sched_fallbacks_total tick
        (never silently, never stuck)."""
        from repro.telemetry import Telemetry

        telemetry = Telemetry.create()
        with MWDriver(rank_reporter, n_workers=2, backend="process", seed=0,
                      telemetry=telemetry) as driver:
            os.kill(driver._procs[1].pid, signal.SIGKILL)
            deadline = time.monotonic() + 10
            while driver._alive.get(1, False) and time.monotonic() < deadline:
                driver.pump(timeout=0.05)
            assert not driver._alive[1], "death never detected"
            task = driver.submit(None, affinity=1)
            driver.wait_all(timeout=30)
            assert task.done and task.result == 2
        assert telemetry.counter("repro_sched_fallbacks_total").value >= 1

    def test_live_busy_affinity_is_not_a_fallback(self):
        """Waiting for a busy (but alive) preferred rank is normal
        scheduling, not a fallback: the counter must stay silent."""
        from repro.telemetry import Telemetry

        telemetry = Telemetry.create()
        with MWDriver(square, n_workers=2, backend="inproc", seed=0,
                      telemetry=telemetry) as driver:
            tasks = [driver.submit(k, affinity=1) for k in range(4)]
            driver.wait_all(timeout=30)
            assert all(t.done for t in tasks)
        assert telemetry.counter("repro_sched_fallbacks_total").value == 0
