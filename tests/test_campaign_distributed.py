"""Distributed campaign execution: the mw backend and cooperative draining.

Covers the PR-2 tentpole: `CampaignRunner(backend="mw")` dispatching jobs
through `repro.mw.MWDriver`, several runners draining one shared store
without duplicating or losing work, and the interrupted-runner recovery
story at the CLI level.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.campaign import (
    Campaign,
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    mw_job_executor,
    run_job,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def small_spec(**overrides) -> CampaignSpec:
    """A fast 2-algorithm x 3-seed sphere grid (6 jobs)."""
    kwargs = dict(
        name="dist",
        algorithms=["DET", "PC"],
        functions=["sphere"],
        dims=[2],
        sigma0s=[1.0],
        seeds=[0, 1, 2],
        tau=1e-3,
        walltime=1e3,
        max_steps=40,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def reference_results(spec):
    store = ResultStore()
    CampaignRunner(spec, store).run()
    return {r["job_id"]: r["result"] for r in store.records()}


class TestMWBackend:
    def test_mw_executor_round_trips_job_payload(self):
        job = small_spec().expand()[0]
        rec = mw_job_executor(job.to_dict(), context=None)
        expected = run_job(job)
        for volatile in ("elapsed_s", "span_id"):  # wall-clock and the
            rec.pop(volatile)                      # per-attempt span differ
            expected.pop(volatile)
        assert rec == expected

    @pytest.mark.parametrize("transport", ["inproc", "threaded"])
    def test_mw_backend_matches_serial(self, transport):
        spec = small_spec()
        store = ResultStore()
        report = CampaignRunner(
            spec, store, backend="mw", mw_transport=transport, max_workers=2
        ).run()
        assert report.n_done == 6 and report.n_failed == 0
        assert {r["job_id"]: r["result"] for r in store.records()} == reference_results(spec)

    def test_mw_process_transport_matches_serial(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path / "r.jsonl")
        report = CampaignRunner(
            spec, store, backend="mw", mw_transport="process", max_workers=2
        ).run()
        assert report.n_done == 6
        assert {r["job_id"]: r["result"] for r in store.records()} == reference_results(spec)

    @pytest.mark.parametrize("async_mode", [False, True])
    def test_runner_ignores_spec_constraints(self, async_mode):
        """``campaign run`` has no worker capabilities, so a spec's
        constraints (serve placement policy) do not hold its jobs back."""
        spec = small_spec(constraints=["gpu"])
        store = ResultStore()
        report = CampaignRunner(
            spec, store, backend="mw", mw_transport="inproc", max_workers=2,
            async_mode=async_mode,
        ).run()
        assert report.n_done == 6 and report.n_failed == 0

    def test_mw_affinity_pins_jobs_round_robin(self):
        spec = small_spec()
        store = ResultStore()
        report = CampaignRunner(
            spec, store, backend="mw", mw_transport="inproc",
            max_workers=2, mw_affinity=True,
        ).run()
        assert report.n_done == 6
        assert {r["job_id"]: r["result"] for r in store.records()} == reference_results(spec)

    def test_mw_records_bad_jobs_as_failed(self):
        spec = small_spec(
            overrides=[{"where": {"seed": 1, "label": "DET"}, "options": {"bogus": 1}}]
        )
        store = ResultStore()
        report = CampaignRunner(
            spec, store, backend="mw", mw_transport="inproc"
        ).run()
        assert report.n_done == 5 and report.n_failed == 1
        assert "bogus" in store.failed()[0]["error"]

    def test_mw_failure_record_shape(self):
        job = small_spec().expand()[0]

        class DeadTask:
            done = False
            error = "worker died"

        rec = CampaignRunner._mw_failure_record(job, DeadTask())
        assert rec["job_id"] == job.job_id
        assert rec["status"] == "failed"
        assert rec["result"] is None
        assert "worker died" in rec["error"]

    def test_mw_resume_skips_completed(self, tmp_path):
        spec = small_spec()
        store = ResultStore(tmp_path / "r.jsonl")
        CampaignRunner(spec, store, backend="mw", mw_transport="inproc").run(max_jobs=2)
        report = CampaignRunner(spec, store, backend="mw", mw_transport="inproc").run()
        assert report.n_skipped == 2 and report.n_done == 4

    def test_mw_rejects_rich_job_options(self):
        """Rich (non-JSON) options would be silently stringified by the
        codec round-trip; the mw backend must refuse them loudly."""
        from repro.core import ConditionSet

        spec = small_spec(
            algorithms=[{"algorithm": "PC",
                         "options": {"conditions": ConditionSet.only(1)}}]
        )
        runner = CampaignRunner(spec, ResultStore(), backend="mw",
                                mw_transport="inproc")
        with pytest.raises(ValueError, match="non-JSON options"):
            runner.run()

    def test_unknown_backend_and_transport_rejected(self):
        with pytest.raises(ValueError, match="backend must be one of"):
            CampaignRunner(small_spec(), ResultStore(), backend="mpi")
        with pytest.raises(ValueError, match="mw_transport"):
            CampaignRunner(small_spec(), ResultStore(), backend="mw", mw_transport="tcp")


class TestCooperativeDraining:
    def test_interleaved_runners_share_one_store(self, tmp_path, result_lines):
        """Two runner instances alternating on one directory never
        re-execute each other's jobs (the resume skip-set is shared)."""
        spec = small_spec()
        store_a = ResultStore(tmp_path / "r.jsonl")
        store_b = ResultStore(tmp_path / "r.jsonl")
        CampaignRunner(spec, store_a).run(max_jobs=2)
        CampaignRunner(spec, store_b).run(max_jobs=2)
        report = CampaignRunner(spec, store_a).run()
        assert report.n_skipped == 4 and report.n_done == 2
        assert result_lines(tmp_path / "r.jsonl") == 6  # each executed exactly once
        assert store_a.completed_ids() == {j.job_id for j in spec.expand()}

    def test_peer_completions_are_shed_mid_run(self, tmp_path, result_lines):
        """The periodic store re-read drops jobs a peer completed after
        this runner expanded its pending list."""
        spec = small_spec()
        jobs = spec.expand()
        store = ResultStore(tmp_path / "r.jsonl")
        peer = ResultStore(tmp_path / "r.jsonl")
        fired = []

        def peer_completes_job_3(snapshot):
            if not fired:
                fired.append(True)
                peer.record(run_job(jobs[3]))  # a cooperating runner finishes it

        runner = CampaignRunner(spec, store, batch_size=2)
        report = runner.run(progress=peer_completes_job_3)
        assert report.n_shed == 1
        assert report.n_done == 5
        assert report.n_remaining == 0
        assert result_lines(tmp_path / "r.jsonl") == 6  # shed job not re-executed
        assert "shed to peers" in str(report)


class TestConcurrentRunnerProcesses:
    def _cli(self, *args, **kwargs):
        env = dict(os.environ, PYTHONPATH=SRC)
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", *args],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            **kwargs,
        )

    def test_two_processes_drain_one_campaign(self, tmp_path):
        directory = str(tmp_path / "camp")
        spec = small_spec(seeds=list(range(10)))  # 20 jobs
        Campaign(directory, spec=spec)
        procs = [
            self._cli("run", directory, "--backend", "serial", "--batch-size", "1")
            for _ in range(2)
        ]
        for proc in procs:
            out, _ = proc.communicate(timeout=300)
            assert proc.returncode == 0, out.decode()
        campaign = Campaign(directory)
        assert campaign.store.completed_ids() == {j.job_id for j in spec.expand()}
        assert {r["job_id"]: r["result"] for r in campaign.store.completed()} == \
            reference_results(spec)

    def test_killed_runner_recovers_to_identical_store(self, tmp_path):
        """Acceptance: kill one of two concurrent runners mid-flight,
        re-run, and the completed-job set matches an uninterrupted run."""
        directory = str(tmp_path / "camp")
        spec = small_spec(seeds=list(range(10)))  # 20 jobs
        Campaign(directory, spec=spec)
        # a short TTL: a job the victim holds when killed stays leased to
        # it (and skipped by every runner) until the lease lapses
        ttl = ["--lease-ttl", "2"]
        victim = self._cli("run", directory, "--backend", "serial", "--batch-size", "1", *ttl)
        survivor = self._cli("run", directory, "--backend", "serial", "--batch-size", "1", *ttl)
        time.sleep(0.3)
        victim.send_signal(signal.SIGKILL)
        victim.communicate()
        out, _ = survivor.communicate(timeout=300)
        assert survivor.returncode == 0, out.decode()
        deadline = time.time() + 30
        while Campaign(directory).store.leases():
            assert time.time() < deadline, "the killed runner's leases never expired"
            time.sleep(0.1)
        # mop up whatever the killed runner left behind
        mopup = self._cli("run", directory, "--backend", "mw",
                          "--mw-transport", "process", "--max-workers", "2")
        out, _ = mopup.communicate(timeout=300)
        assert mopup.returncode == 0, out.decode()
        campaign = Campaign(directory)
        assert {r["job_id"]: r["result"] for r in campaign.store.completed()} == \
            reference_results(spec)
