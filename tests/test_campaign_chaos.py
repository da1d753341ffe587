"""Fault-injection suite for lease-based campaign draining.

The store records can't prove exactly-once *execution* — last-record-wins
hides duplicates by design — so these tests count actual evaluator calls:
in-process via a monkeypatched ``run_job``, across processes via the
``$REPRO_JOB_AUDIT_LOG`` execution audit log (one ``O_APPEND`` line per
job execution, written by ``repro.campaign.execution`` before each run).

Covered: two racing runners never duplicate an execution (the acceptance
criterion, >= 200 jobs), a SIGKILLed runner's leased jobs are reclaimed
exactly once after expiry, graceful interrupts release claims immediately, and the audit log itself.  Every scenario runs once
per store engine via the parametrized ``store_backend`` fixture — the
lease protocol's guarantees are the engine contract, not a JSONL
implementation detail.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.campaign import (
    Campaign,
    CampaignRunner,
    CampaignSpec,
    JOB_AUDIT_ENV,
    ResultStore,
    open_store,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def fast_spec(n_seeds=25, **overrides) -> CampaignSpec:
    """A grid of ~1 ms sphere jobs (n = 2 * n_seeds)."""
    kwargs = dict(
        name="chaos",
        algorithms=["DET", "PC"],
        functions=["sphere"],
        dims=[2],
        sigma0s=[1.0],
        seeds=list(range(n_seeds)),
        tau=1e-3,
        walltime=1e3,
        max_steps=25,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def audit_entries(path) -> list:
    """``(job_id, run_id, span_id, worker)`` tuples in execution order.

    Empty if the log was never written.  Each line is written whole under
    ``O_APPEND``, so entries from concurrent runners never interleave.
    """
    path = Path(path)
    if not path.exists():
        return []
    return [
        tuple(line.split())
        for line in path.read_text().splitlines()
        if line.strip()
    ]


def audit_ids(path) -> list:
    """Job ids in execution order from an audit log (empty if never written)."""
    return [entry[0] for entry in audit_entries(path)]


def synthetic_run_job(job) -> dict:
    """A store record without the optimizer run (for call-counting fakes)."""
    return {
        "job_id": job.job_id,
        "status": "done",
        "job": job.to_dict(),
        "result": None,
        "error": None,
        "elapsed_s": 0.0,
    }


class TestInProcessRaces:
    def test_two_thread_runners_zero_duplicate_executions(self, store_backend, monkeypatch):
        """Two runners racing the same grid through one store execute
        every job exactly once — counted at the evaluator, not the store."""
        calls = Counter()
        lock = threading.Lock()

        def counting_run_job(job):
            with lock:
                calls[job.job_id] += 1
            return synthetic_run_job(job)

        monkeypatch.setattr("repro.campaign.runner.run_job", counting_run_job)
        spec = fast_spec(n_seeds=50)  # 100 jobs
        reports = [None, None]

        def drain(slot):
            runner = CampaignRunner(
                spec,
                store_backend(),  # each runner gets its own store instance
                batch_size=5,
                runner_id=f"runner-{slot}",  # threads share a pid
            )
            reports[slot] = runner.run()

        threads = [threading.Thread(target=drain, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        expected = {j.job_id for j in spec.expand()}
        assert set(calls) == expected
        assert all(n == 1 for n in calls.values()), calls.most_common(3)
        assert reports[0].n_done + reports[1].n_done == len(expected)
        assert store_backend().completed_ids() == expected

    def test_interrupt_releases_unfulfilled_claims(self, store_backend, monkeypatch):
        """Ctrl-C mid-batch gives the batch's claims back immediately, so a
        peer reclaims without waiting out the TTL."""
        executed = []

        def interrupting_run_job(job):
            if len(executed) == 2:
                raise KeyboardInterrupt
            executed.append(job.job_id)
            return synthetic_run_job(job)

        monkeypatch.setattr("repro.campaign.runner.run_job", interrupting_run_job)
        spec = fast_spec(n_seeds=3)  # 6 jobs
        store = store_backend()
        report = CampaignRunner(spec, store, batch_size=6, lease_ttl=3600).run()
        assert report.interrupted
        assert store.leases() == {}  # released, not left to expire
        # a peer can claim the whole grid right now, hour-long TTL or not
        ids = [j.job_id for j in spec.expand()]
        assert store_backend().claim(ids, "peer", ttl=60) == ids

    def test_expired_peer_lease_requeued_within_one_run(self, store_backend):
        """A crashed peer's expired leases don't force a re-run: the same
        run() call requeues them on a later pass."""
        spec = fast_spec(n_seeds=3)  # 6 jobs
        ids = [j.job_id for j in spec.expand()]
        store = store_backend()
        # a peer claimed half the grid and died long ago
        store.claim(ids[:3], "ghost", ttl=1, now=time.time() - 100)
        report = CampaignRunner(spec, store).run()
        assert report.n_done == 6 and report.n_leased == 0
        assert store.completed_ids() == set(ids)

    def test_audit_log_counts_every_execution(self, tmp_path, monkeypatch):
        log = tmp_path / "audit.log"
        monkeypatch.setenv(JOB_AUDIT_ENV, str(log))
        spec = fast_spec(n_seeds=3)  # 6 jobs
        CampaignRunner(spec, ResultStore()).run()
        assert sorted(audit_ids(log)) == sorted(j.job_id for j in spec.expand())


class TestRunnerProcessChaos:
    def _run_cli(self, directory, *args, audit=None, wait=True, **popen_kwargs):
        env = dict(os.environ, PYTHONPATH=SRC)
        if audit is not None:
            env[JOB_AUDIT_ENV] = str(audit)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "campaign", "run", str(directory), *args],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            **popen_kwargs,
        )
        if not wait:
            return proc
        out, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0, out.decode()
        return out.decode()

    def test_two_racing_runners_one_evaluation_per_job(self, tmp_path, store_backend):
        """Acceptance: a 2-runner campaign over >= 200 jobs performs
        exactly one evaluation per job, whatever the store engine."""
        directory = tmp_path / "camp"
        spec = fast_spec(n_seeds=100)  # 200 jobs
        Campaign(directory, spec=spec, store=store_backend.cli_store_spec)
        audit = tmp_path / "audit.log"
        procs = [
            self._run_cli(directory, "--batch-size", "10", audit=audit, wait=False)
            for _ in range(2)
        ]
        for proc in procs:
            out, _ = proc.communicate(timeout=300)
            assert proc.returncode == 0, out.decode()
        expected = sorted(j.job_id for j in spec.expand())
        assert sorted(audit_ids(audit)) == expected  # exactly once each
        campaign = Campaign(directory)
        assert campaign.store.completed_ids() == set(expected)
        assert campaign.store.engine == {
            "sqlite": "sqlite", "netstore": "store",
        }.get(store_backend.engine, "jsonl")
        # exactly-once holds per *span* too: every execution attempt minted
        # a distinct span id, and each job appears under exactly one of them
        entries = audit_entries(audit)
        spans = [entry[2] for entry in entries]
        assert len(set(spans)) == len(spans)
        # the store_backend fixture enables telemetry, so the audit log
        # must correlate with the runners' job-lifecycle trace: every
        # recorded job event names a span the audit log witnessed
        from repro.telemetry import TELEMETRY_FILENAME, read_trace, validate_trace

        trace_path = directory / TELEMETRY_FILENAME
        validate_trace(trace_path)
        events = list(read_trace(trace_path))
        job_events = [e for e in events if e["event"] == "job"]
        assert {e["job_id"] for e in job_events} == set(expected)
        assert {e["span_id"] for e in job_events} <= set(spans)
        assert {entry[1] for entry in entries} == {
            e["run_id"] for e in events if e["event"] == "run_start"
        }

    def test_killed_runner_leases_reclaimed_exactly_once(self, tmp_path, store_backend):
        """SIGKILL a runner mid-batch: its leases stay live until the TTL
        lapses, then a second runner reclaims each leased job exactly once."""
        directory = tmp_path / "camp"
        # ~120 ms/job x 40 jobs in one batch: a seconds-wide kill window
        # (tau/walltime set so nothing terminates before max_steps)
        spec = fast_spec(n_seeds=20, functions=["rosenbrock"], dims=[4],
                         max_steps=600, tau=1e-9, walltime=1e5)
        Campaign(directory, spec=spec, store=store_backend.cli_store_spec)
        audit = tmp_path / "audit.log"
        ttl = ["--lease-ttl", "2"]
        victim = self._run_cli(directory, "--batch-size", "40", *ttl,
                               audit=audit, wait=False)
        # wait until it is demonstrably mid-batch, then kill -9
        deadline = time.time() + 60
        while len(audit_ids(audit)) < 3:
            assert time.time() < deadline, "victim never started executing"
            assert victim.poll() is None, "victim finished before the kill"
            time.sleep(0.02)
        victim.send_signal(signal.SIGKILL)
        victim.communicate()
        n_before_kill = len(audit_ids(audit))

        store = open_store(directory)
        all_ids = {j.job_id for j in spec.expand()}
        recorded = store.completed_ids()
        orphaned = all_ids - recorded
        assert orphaned, "victim had already recorded everything"
        # the victim's claims are still live: held by a dead process
        leases = store.leases()
        assert set(leases) == orphaned
        # no release ever comes; the leases lapse within the TTL window
        deadline = time.time() + 30
        while store.leases():
            assert time.time() < deadline, "leases never expired"
            time.sleep(0.1)

        self._run_cli(directory, "--batch-size", "40", *ttl, audit=audit)
        post_kill = Counter(audit_ids(audit)[n_before_kill:])
        assert set(post_kill) == orphaned          # reclaimed all of them...
        assert all(n == 1 for n in post_kill.values()), post_kill  # ...once
        assert open_store(directory).completed_ids() == all_ids

    def test_staggered_kill_runners_converge_and_compact(self, tmp_path, store_backend):
        """Two runners killed at staggered times leave a store a final run
        completes and compaction round-trips (the CI chaos-smoke shape)."""
        directory = tmp_path / "camp"
        spec = fast_spec(n_seeds=15, functions=["rosenbrock"], dims=[4],
                         max_steps=400, tau=1e-9, walltime=1e5)  # 30 x ~40 ms
        Campaign(directory, spec=spec, store=store_backend.cli_store_spec)
        audit = tmp_path / "audit.log"
        ttl = ["--lease-ttl", "1"]
        for n_lines in (2, 5):  # kill once early, once mid-drain
            runner = self._run_cli(directory, "--batch-size", "8", *ttl,
                                   audit=audit, wait=False)
            deadline = time.time() + 60
            while len(audit_ids(audit)) < n_lines and runner.poll() is None:
                assert time.time() < deadline
                time.sleep(0.02)
            runner.send_signal(signal.SIGKILL)
            runner.communicate()
        time.sleep(1.2)  # let the orphaned leases lapse
        self._run_cli(directory, "--batch-size", "8", *ttl, audit=audit)
        campaign = Campaign(directory)
        all_ids = {j.job_id for j in spec.expand()}
        assert campaign.store.completed_ids() == all_ids
        summary_before = [c for c in campaign.summary()]
        stats = campaign.compact()
        assert stats.n_records_after == len(all_ids)
        assert Campaign(directory).summary() == summary_before
