"""Straggler / loss chaos tests for the async campaign path.

The whole-job mw path runs each job on one worker; the async path (the
runner's ``eval`` work units over one
:class:`~repro.core.async_driver.AsyncEvalDriver`) farms individual ask/tell
proposals to the worker pool.  These tests inject faults at that proposal
granularity through the execution chaos seams:

* ``$REPRO_EVAL_SLOW`` ("rank:seconds") makes one worker a straggler — the
  campaign must keep progressing on the other workers and finish far below
  the all-serialized bound.
* ``$REPRO_EVAL_DROP_ONCE`` ("markerpath:pattern") makes one evaluation die
  exactly once — the mw layer must requeue it exactly once (asserted
  through the PR-6 span-id audit log: the dropped proposal shows exactly
  two audit lines with distinct span ids, every other exactly one) and the
  campaign still converges.
"""

import os
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.campaign import Campaign, CampaignSpec, JOB_AUDIT_ENV
from repro.campaign.execution import (
    EVAL_DROP_ONCE_ENV,
    EVAL_SLOW_ENV,
    batch_proposal_work,
    build_job_optimizer,
    mw_eval_executor,
    proposal_work,
)
from repro.core.async_driver import AsyncEvalDriver, EvalSource
from repro.core.base import _AskTellEngine
from repro.mw.driver import MWDriver


def async_spec(n_seeds=4, **overrides) -> CampaignSpec:
    """A small grid of cheap MN jobs, every one needing many evaluations."""
    kwargs = dict(
        name="async-chaos",
        algorithms=["MN"],
        functions=["sphere"],
        dims=[2],
        sigma0s=[1.0],
        seeds=list(range(n_seeds)),
        tau=0.05,
        walltime=1e5,
        max_steps=15,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def audit_key_counts(path) -> Counter:
    """``{audit_key: n_lines}`` from an audit log (proposal keys included)."""
    path = Path(path)
    if not path.exists():
        return Counter()
    return Counter(
        line.split()[0] for line in path.read_text().splitlines() if line.strip()
    )


def audit_spans_for(path, key) -> list:
    """Span ids recorded for one audit key, in execution order."""
    return [
        line.split()[2]
        for line in Path(path).read_text().splitlines()
        if line.strip() and line.split()[0] == key
    ]


class TestAsyncCampaign:
    def test_async_campaign_completes_and_records(self, tmp_path):
        spec = async_spec(n_seeds=4)
        campaign = Campaign(tmp_path / "camp", spec=spec)
        report = campaign.run(
            backend="mw",
            mw_transport="threaded",
            async_mode=True,
            max_workers=3,
            max_inflight=6,
        )
        assert report.n_done == 4
        assert report.n_failed == 0
        status = campaign.status()
        assert status["done"] == 4

    def test_async_resumes_where_it_stopped(self, tmp_path):
        spec = async_spec(n_seeds=4)
        campaign = Campaign(tmp_path / "camp", spec=spec)
        first = campaign.run(
            backend="mw",
            mw_transport="threaded",
            async_mode=True,
            max_workers=2,
            max_jobs=2,
        )
        assert first.n_done == 2
        second = campaign.run(
            backend="mw",
            mw_transport="threaded",
            async_mode=True,
            max_workers=2,
        )
        assert second.n_skipped == 2
        assert second.n_done == 2
        assert campaign.status()["done"] == 4

    def test_rolling_claims_do_not_wait_for_a_long_job(self, tmp_path):
        """A short job claimed after the first batch is recorded while the
        long job of that first batch still runs: claims roll instead of
        waiting at a per-batch barrier."""
        import json

        # seed 0 contracts slowly (beta 0.98) and runs ~250 steps; the
        # other seeds converge in ~20
        spec = async_spec(
            n_seeds=6, algorithms=["DET"], sigma0s=[0.0], tau=1e-3,
            max_steps=400,
            overrides=[{"where": {"seed": 0}, "options": {"beta": 0.98}}],
        )
        jobs = spec.expand()
        campaign = Campaign(tmp_path / "camp", spec=spec)
        report = campaign.run(
            backend="mw", mw_transport="threaded", async_mode=True,
            max_workers=2, batch_size=2,
        )
        assert report.n_done == 6
        lines = (tmp_path / "camp" / "results.jsonl").read_text().splitlines()
        recorded = [rec["job_id"] for rec in map(json.loads, lines)
                    if rec["status"] == "done"]
        long_job, first_claim = jobs[0].job_id, {j.job_id for j in jobs[:2]}
        later = [i for i, job_id in enumerate(recorded) if job_id not in first_claim]
        assert later and later[0] < recorded.index(long_job), recorded

    def test_async_requires_mw_backend(self, tmp_path):
        from repro.campaign import CampaignRunner, open_store

        with pytest.raises(ValueError, match="mw"):
            CampaignRunner(
                async_spec(), open_store(tmp_path), backend="serial", async_mode=True
            )


class TestStragglerChaos:
    def test_straggler_worker_does_not_stall_the_campaign(
        self, tmp_path, monkeypatch
    ):
        """One slow worker (0.25 s per evaluation) must not serialize the
        run: the other two workers keep every other job moving, so the
        wall clock stays far below the straggler-serialized bound."""
        sleep_s = 0.25
        monkeypatch.setenv(EVAL_SLOW_ENV, f"1:{sleep_s}")
        spec = async_spec(n_seeds=6)
        n_evals_lower_bound = 6 * 15  # jobs x max_steps, ignoring waits
        campaign = Campaign(tmp_path / "camp", spec=spec)
        t0 = time.monotonic()
        report = campaign.run(
            backend="mw",
            mw_transport="threaded",
            async_mode=True,
            max_workers=3,
            max_inflight=6,
        )
        elapsed = time.monotonic() - t0
        assert report.n_done == 6
        assert report.n_failed == 0
        # if every evaluation had queued behind the straggler the run would
        # take >= n_evals * sleep; async must beat that by a wide margin
        assert elapsed < 0.5 * n_evals_lower_bound * sleep_s, (
            f"straggler serialized the campaign: {elapsed:.1f}s"
        )

    def test_straggler_sees_nonzero_inflight_in_workers_event(
        self, tmp_path, monkeypatch
    ):
        """`watch --cells` depth: utilization rows carry the in-flight count."""
        from repro.campaign.progress import workers_from_trace
        from repro.telemetry import TELEMETRY_ENV

        monkeypatch.setenv(TELEMETRY_ENV, "1")
        directory = tmp_path / "camp"
        campaign = Campaign(directory, spec=async_spec(n_seeds=4))
        report = campaign.run(
            backend="mw",
            mw_transport="threaded",
            async_mode=True,
            max_workers=2,
            max_inflight=4,
        )
        assert report.n_done == 4
        rows = workers_from_trace(directory)
        assert rows, "no workers event in the telemetry trace"
        for row in rows:
            assert hasattr(row, "inflight")
            assert row.inflight >= 0
            assert "tasks" in row.line()


class TestLossChaos:
    def test_dropped_evaluation_requeued_exactly_once(self, tmp_path, monkeypatch):
        """Kill one evaluation; the mw retry layer requeues it exactly once.

        Counted through the audit log (PR-6 span machinery): the dropped
        proposal's key carries exactly two lines with distinct span ids —
        the killed attempt plus its single requeue — and every other
        proposal exactly one.
        """
        audit = tmp_path / "audit.log"
        marker = tmp_path / "dropped.marker"
        monkeypatch.setenv(JOB_AUDIT_ENV, str(audit))
        # every proposal id p000004 across jobs matches; the marker file
        # guarantees only the first matching evaluation dies
        monkeypatch.setenv(EVAL_DROP_ONCE_ENV, f"{marker}:/p000004")
        spec = async_spec(n_seeds=3)
        campaign = Campaign(tmp_path / "camp", spec=spec)
        report = campaign.run(
            backend="mw",
            mw_transport="threaded",
            async_mode=True,
            max_workers=3,
            max_inflight=6,
        )
        assert report.n_done == 3
        assert report.n_failed == 0
        assert marker.exists(), "the drop chaos never fired"

        counts = audit_key_counts(audit)
        assert counts, "no audit lines written"
        doubled = {k: n for k, n in counts.items() if n == 2}
        assert len(doubled) == 1, f"expected exactly one requeued proposal: {doubled}"
        (requeued_key,) = doubled
        assert "/p000004" in requeued_key
        spans = audit_spans_for(audit, requeued_key)
        assert len(spans) == 2 and spans[0] != spans[1], (
            "requeue must be a distinct execution attempt (fresh span id)"
        )
        assert all(n == 1 for k, n in counts.items() if k != requeued_key), (
            "some other evaluation ran more than once"
        )

    def test_evaluation_failed_beyond_retries_fails_only_its_job(self, tmp_path):
        """A poisoned evaluation (fails every attempt) fails its own job;
        the other jobs complete untouched."""
        spec = async_spec(n_seeds=3)
        jobs = spec.expand()
        poisoned = jobs[0].job_id

        def executor(work, context):
            if work["job_id"] == poisoned:
                raise RuntimeError("poisoned evaluation")
            return mw_eval_executor(work, context)

        driver = MWDriver(executor, n_workers=2, backend="threaded", max_retries=1)
        outcomes = {}
        sources = [
            EvalSource(
                key=job.job_id,
                opt=build_job_optimizer(job),
                make_work=(lambda j: lambda p: proposal_work(j, p))(job),
            )
            for job in jobs
        ]
        try:
            AsyncEvalDriver(driver, max_inflight=4).run(
                sources, lambda s, r, e: outcomes.__setitem__(s.key, (r, e))
            )
        finally:
            driver.shutdown()
        assert outcomes[poisoned][0] is None
        assert "poisoned" in outcomes[poisoned][1]
        for job in jobs[1:]:
            result, error = outcomes[job.job_id]
            assert error is None
            assert result.n_steps > 0

    def test_source_finished_without_a_tell_is_reported(self, tmp_path):
        """A source whose run ended before the driver saw it (here: closed
        up front) never gets a tell; it must still be finalized, once."""
        jobs = async_spec(n_seeds=2).expand()
        sources = [
            EvalSource(key=job.job_id, opt=build_job_optimizer(job),
                       make_work=(lambda j: lambda p: proposal_work(j, p))(job))
            for job in jobs
        ]
        sources[0].opt.ask()
        sources[0].opt.close(reason="closed early")
        beats = []

        def heartbeat():
            beats.append(1)
            if len(beats) > 10_000:
                raise RuntimeError("the driver never finalized every source")

        outcomes = {}
        driver = MWDriver(mw_eval_executor, n_workers=2, backend="inproc")
        try:
            AsyncEvalDriver(driver, max_inflight=4, heartbeat=heartbeat,
                            heartbeat_interval=0.0).run(
                sources, lambda s, r, e: outcomes.setdefault(s.key, []).append((r, e))
            )
        finally:
            driver.shutdown()
        (closed,) = outcomes[jobs[0].job_id]
        assert closed[1] is None and closed[0].reason == "closed early"
        (done,) = outcomes[jobs[1].job_id]
        assert done[1] is None and done[0].n_steps > 0


class TestRoundWorkFirst:
    """Refinements fill only the in-flight budget every open job's round
    proposals leave: required work never waits behind speculation."""

    @staticmethod
    def _holds_unasked_round(src) -> bool:
        # the engine itself, so a run the driver never asked counts as
        # holding its first round
        engine = src.opt._asktell
        return engine is None or bool(engine._fresh)

    @pytest.mark.parametrize("eval_batch", [1, 4])
    def test_no_refinement_while_a_round_proposal_is_unasked(
        self, monkeypatch, eval_batch
    ):
        jobs = async_spec(n_seeds=6, algorithms=["MN", "PC"]).expand()
        sources = [
            EvalSource(key=job.job_id, opt=build_job_optimizer(job),
                       make_work=(lambda j: lambda p: proposal_work(j, p))(job),
                       batch_key=f"{job.function}:{job.dim}")
            for job in jobs
        ]
        shipped = []
        early = []
        top_up, submit = AsyncEvalDriver._top_up, AsyncEvalDriver._submit

        def recording_submit(driver, items):
            shipped.extend(proposal.label for _, proposal in items)
            return submit(driver, items)

        def checked_top_up(driver, live):
            del shipped[:]
            top_up(driver, live)
            if any(label.startswith("refine:") for label in shipped):
                waiting = [src.key for src in live
                           if src.failed_error is None and not src.opt.finished
                           and self._holds_unasked_round(src)]
                if waiting:
                    early.append(waiting)

        monkeypatch.setattr(AsyncEvalDriver, "_submit", recording_submit)
        monkeypatch.setattr(AsyncEvalDriver, "_top_up", checked_top_up)
        refinements = []
        mint = _AskTellEngine._mint_refinements

        def counting_mint(engine, n):
            out = mint(engine, n)
            refinements.extend(out)
            return out

        monkeypatch.setattr(_AskTellEngine, "_mint_refinements", counting_mint)
        jobs_by_key = {job.job_id: job for job in jobs}

        def make_batch(items):
            return batch_proposal_work([(jobs_by_key[src.key], proposal)
                                        for src, proposal in items])

        outcomes = {}
        driver = MWDriver(mw_eval_executor, n_workers=2, backend="inproc")
        try:
            AsyncEvalDriver(driver, max_inflight=12, eval_batch=eval_batch,
                            make_batch_work=make_batch).run(
                sources, lambda s, r, e: outcomes.__setitem__(s.key, (r, e))
            )
        finally:
            driver.shutdown()
        assert refinements, "the drive must mint refinements to test their order"
        assert not early, f"refinements submitted while rounds waited: {early[:3]}"
        assert len(outcomes) == len(jobs)
        assert all(error is None for _, error in outcomes.values())

    @pytest.mark.parametrize("eval_batch", [1, 4])
    def test_det_sources_are_asked_for_round_work_only(self, monkeypatch, eval_batch):
        """DET's pool is not concurrent, so it never mints a refinement:
        with budget to spare, the driver asks each DET source only for
        round proposals it has not handed out yet, never ``ask(budget)``
        beyond them."""
        from repro.core.base import SimplexOptimizer

        jobs = async_spec(n_seeds=4, algorithms=["DET"]).expand()
        jobs_by_key = {job.job_id: job for job in jobs}
        sources = [
            EvalSource(key=job.job_id, opt=build_job_optimizer(job),
                       make_work=(lambda j: lambda p: proposal_work(j, p))(job),
                       batch_key=f"{job.function}:{job.dim}")
            for job in jobs
        ]
        beyond_round = []
        ask = SimplexOptimizer.ask

        def spying_ask(opt, max_proposals=None):
            k = opt.n_unasked
            if max_proposals is None or not 0 < max_proposals <= k:
                beyond_round.append((k, max_proposals))
            return ask(opt, max_proposals)

        monkeypatch.setattr(SimplexOptimizer, "ask", spying_ask)
        outcomes = {}
        driver = MWDriver(mw_eval_executor, n_workers=2, backend="inproc")
        try:
            # far more budget than four d=2 rounds take: a second pass
            # would have something left to hand out on every beat
            AsyncEvalDriver(
                driver, max_inflight=64, eval_batch=eval_batch,
                make_batch_work=lambda items: batch_proposal_work(
                    [(jobs_by_key[src.key], p) for src, p in items]),
            ).run(sources, lambda s, r, e: outcomes.__setitem__(s.key, (r, e)))
        finally:
            driver.shutdown()
        assert len(outcomes) == len(jobs)
        assert all(error is None for _, error in outcomes.values())
        assert not beyond_round, f"asks beyond the round: {beyond_round[:3]}"


class TestBatchedEvaluation:
    """--eval-batch q: frames of q proposals, chaos and stores preserved."""

    @staticmethod
    def _run(tmp_path, name, eval_batch, algorithms=("DET",), n_seeds=4):
        spec = async_spec(n_seeds=n_seeds, algorithms=list(algorithms))
        campaign = Campaign(tmp_path / name, spec=spec)
        report = campaign.run(
            backend="mw",
            mw_transport="threaded",
            async_mode=True,
            max_workers=3,
            max_inflight=8,
            eval_batch=eval_batch,
        )
        assert report.n_failed == 0
        return {
            r["job_id"]: r["result"] for r in campaign.store.completed()
        }

    def test_batched_store_bitwise_equals_unbatched(self, tmp_path):
        """batch=8 and batch=1 runs land bitwise-identical results.

        DET mints no speculative refinements, so the async trajectory is
        deterministic — any divergence would be the batching path
        changing values or rng order.
        """
        single = self._run(tmp_path, "q1", eval_batch=1)
        batched = self._run(tmp_path, "q8", eval_batch=8)
        assert len(single) == 4
        assert batched == single

    def test_batched_campaign_all_algorithms(self, tmp_path):
        """Every algorithm family completes under batched frames."""
        results = self._run(
            tmp_path, "all", eval_batch=4,
            algorithms=["DET", "MN", "PC", "PC+MN", "ANDERSON"], n_seeds=1,
        )
        assert len(results) == 5

    def test_batched_drop_once_requeues_whole_frame(self, tmp_path, monkeypatch):
        """Drop-once under batching kills and requeues an entire frame.

        Every member of the dropped frame shows exactly two audit lines
        with distinct span ids (killed attempt + the one requeue); every
        other evaluation exactly one — exactly-once semantics hold per
        batch.
        """
        audit = tmp_path / "audit.log"
        marker = tmp_path / "dropped.marker"
        monkeypatch.setenv(JOB_AUDIT_ENV, str(audit))
        monkeypatch.setenv(EVAL_DROP_ONCE_ENV, f"{marker}:/p000004")
        spec = async_spec(n_seeds=3)
        campaign = Campaign(tmp_path / "camp", spec=spec)
        report = campaign.run(
            backend="mw",
            mw_transport="threaded",
            async_mode=True,
            max_workers=3,
            max_inflight=8,
            eval_batch=4,
        )
        assert report.n_done == 3
        assert report.n_failed == 0
        assert marker.exists(), "the drop chaos never fired"

        counts = audit_key_counts(audit)
        doubled = {k: n for k, n in counts.items() if n == 2}
        # the whole frame carrying the matching key was requeued: between
        # 1 and eval_batch members, the matching key among them
        assert 1 <= len(doubled) <= 4, doubled
        assert any("/p000004" in k for k in doubled), doubled
        assert set(counts.values()) <= {1, 2}, "an evaluation ran 3+ times"
        for key in doubled:
            spans = audit_spans_for(audit, key)
            assert len(spans) == 2 and spans[0] != spans[1]

    def test_eval_batch_requires_async_mode(self, tmp_path):
        campaign = Campaign(tmp_path / "camp", spec=async_spec(n_seeds=1))
        with pytest.raises(ValueError, match="async"):
            campaign.run(backend="mw", mw_transport="threaded", eval_batch=4)

    def test_eval_batch_and_flush_interval_validated(self, tmp_path):
        campaign = Campaign(tmp_path / "camp", spec=async_spec(n_seeds=1))
        with pytest.raises(ValueError):
            campaign.run(
                backend="mw", mw_transport="threaded",
                async_mode=True, eval_batch=0,
            )
        with pytest.raises(ValueError):
            campaign.run(
                backend="mw", mw_transport="threaded",
                async_mode=True, flush_interval=0.0,
            )
        for backend, batch_size in (("serial", 0), ("serial", -1), ("mw", 0)):
            with pytest.raises(ValueError, match="batch_size"):
                campaign.run(backend=backend, mw_transport="threaded",
                             async_mode=backend == "mw", batch_size=batch_size)


class TestDriverReleasesTasks:
    """The mw driver lets go of every task once its result is taken.

    ``MWDriver.tasks`` used to keep each frame's work payload (its thetas
    and id lists) and reply until the driver was dropped, and one driver
    lives for a whole run, so a long campaign grew without bound.
    """

    @staticmethod
    def finished_tasks_at_shutdown(monkeypatch) -> list:
        held: list = []
        shutdown = MWDriver.shutdown

        def recording_shutdown(driver):
            held.append([t for t in driver.tasks.values() if t.done or t.failed])
            shutdown(driver)

        monkeypatch.setattr(MWDriver, "shutdown", recording_shutdown)
        return held

    def test_async_run_releases_every_task(self, tmp_path, monkeypatch):
        held = self.finished_tasks_at_shutdown(monkeypatch)
        campaign = Campaign(tmp_path / "camp", spec=async_spec(n_seeds=4))
        report = campaign.run(backend="mw", mw_transport="inproc",
                              async_mode=True, max_workers=2, eval_batch=4)
        assert report.n_done == 4
        assert held and not any(held)

    def test_whole_job_serve_releases_every_task(self, tmp_path, monkeypatch):
        from repro.campaign import MultiCampaignMaster
        from repro.telemetry import Telemetry

        held = self.finished_tasks_at_shutdown(monkeypatch)
        Campaign(tmp_path / "camp", spec=async_spec(n_seeds=4))
        master = MultiCampaignMaster([tmp_path / "camp"], transport="inproc",
                                     max_workers=2,
                                     telemetry=Telemetry(enabled=False))
        reports = master.serve(timeout=60)
        assert reports["async-chaos"].n_done == 4
        assert held and not any(held)
