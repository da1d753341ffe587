"""Cross-host campaign acceptance: TCP master + standalone mw-worker processes.

The PR-3 acceptance criterion: a campaign run with ``--backend mw
--transport tcp://127.0.0.1:<port>`` served by two separately-launched
``python -m repro mw-worker`` processes completes all jobs and produces a
result store identical (same job ids, same per-job results) to a serial
run of the same spec — with no shared filesystem between master and
workers (the workers never see the campaign directory).
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.campaign import Campaign, CampaignRunner, CampaignSpec, ResultStore
from repro.campaign.scheduler import MultiCampaignMaster
from repro.mw.tcp import run_worker

SRC = str(Path(__file__).resolve().parents[1] / "src")


def free_port() -> int:
    """An OS-assigned localhost port, released for immediate reuse."""
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def small_spec(**overrides) -> CampaignSpec:
    """A fast 2-algorithm x 3-seed sphere grid (6 jobs)."""
    kwargs = dict(
        name="tcp-dist",
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


def spawn(args, **kwargs):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        **kwargs,
    )


class TestTcpCampaignAcceptance:
    def test_two_cli_workers_serve_a_tcp_campaign(self, tmp_path):
        """Both workers are welcomed before the first job can go out, so
        neither finds the 6-job grid already drained (and the master gone)
        when it joins; the master runs here to wait for them."""
        directory = str(tmp_path / "camp")
        spec = small_spec()
        Campaign(directory, spec=spec)
        port = free_port()
        url = f"tcp://127.0.0.1:{port}"
        workers = [spawn(["mw-worker", url]) for _ in range(2)]

        def both_welcomed(driver):
            deadline = time.monotonic() + 60
            while len(driver.transport.stats()["connected"]) < 2:
                assert time.monotonic() < deadline, "workers did not join"
                time.sleep(0.05)

        master = MultiCampaignMaster([directory], transport=url, max_workers=2)
        (report,) = master.serve(timeout=300, on_start=both_welcomed).values()
        assert (report.n_done, report.n_failed, report.n_remaining) == (6, 0, 0), report
        for proc in workers:
            wout, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0, wout.decode()
            assert b"finished" in wout
        campaign = Campaign(directory)
        got = {r["job_id"]: r["result"] for r in campaign.store.completed()}
        assert got == reference_results(spec)

    def test_killed_tcp_worker_triggers_requeue_at_campaign_level(self, tmp_path):
        """SIGKILL one of two workers mid-campaign; the survivor finishes
        everything and the store still matches the serial reference."""
        directory = str(tmp_path / "camp")
        spec = small_spec(seeds=list(range(6)))  # 12 jobs
        Campaign(directory, spec=spec)
        port = free_port()
        url = f"tcp://127.0.0.1:{port}"
        victim = spawn(["mw-worker", url])
        survivor = spawn(["mw-worker", url])
        master = spawn([
            "campaign", "run", directory, "--backend", "mw",
            "--transport", url, "--max-workers", "2",
        ])
        time.sleep(2.0)  # let the campaign get in flight
        victim.send_signal(signal.SIGKILL)
        victim.communicate()
        out, _ = master.communicate(timeout=300)
        assert master.returncode == 0, out.decode()
        survivor.communicate(timeout=60)
        campaign = Campaign(directory)
        got = {r["job_id"]: r["result"] for r in campaign.store.completed()}
        assert got == reference_results(spec)

    def test_workers_launched_before_the_master_connect_late(self, tmp_path):
        """Worker processes may be started first; they retry until the
        master's listener appears."""
        directory = str(tmp_path / "camp")
        spec = small_spec()
        Campaign(directory, spec=spec)
        port = free_port()
        url = f"tcp://127.0.0.1:{port}"
        worker = spawn(["mw-worker", url, "--connect-timeout", "60"])
        time.sleep(1.0)  # master not up yet; the worker must be retrying
        master = spawn([
            "campaign", "run", directory, "--backend", "mw",
            "--transport", url, "--max-workers", "1",
        ])
        out, _ = master.communicate(timeout=300)
        assert master.returncode == 0, out.decode()
        wout, _ = worker.communicate(timeout=60)
        assert worker.returncode == 0, wout.decode()
        campaign = Campaign(directory)
        assert len(campaign.store.completed()) == 6


class TestFirstBeat:
    def test_workers_joined_before_the_first_beat_get_work_in_it(self, tmp_path):
        """Both workers are welcomed before the loop's first beat: that
        beat's dispatch already feeds them, instead of its pump first
        sleeping out the wait to learn of the joins."""
        directory = str(tmp_path / "camp")
        Campaign(directory, spec=small_spec())
        submitted_at_first_pump = []

        def join_two_workers(driver):
            for _ in range(2):
                threading.Thread(target=run_worker, daemon=True,
                                 args=(driver.transport.address,)).start()
            deadline = time.monotonic() + 30
            while len(driver.transport.stats()["connected"]) < 2:
                assert time.monotonic() < deadline, "workers did not join"
                time.sleep(0.01)
            pump = driver.pump

            def first_pump_sees_submissions(timeout=0.05):
                if not submitted_at_first_pump:
                    submitted_at_first_pump.append(driver.n_submitted)
                return pump(timeout)

            driver.pump = first_pump_sees_submissions

        master = MultiCampaignMaster([directory], transport="tcp://127.0.0.1:0",
                                     max_workers=2)
        (report,) = master.serve(timeout=120, on_start=join_two_workers).values()
        assert report.n_done == 6
        assert submitted_at_first_pump == [4]  # two task slots per worker


class TestWatchJson:
    def test_watch_json_snapshots_are_machine_readable(self, tmp_path):
        directory = str(tmp_path / "camp")
        spec = small_spec()
        Campaign(directory, spec=spec)
        runner = CampaignRunner(spec, Campaign(directory).store)
        runner.run(max_jobs=2)
        proc = spawn(["campaign", "watch", directory, "--once", "--json"])
        out, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0, out.decode()
        snap = json.loads(out.decode().strip().splitlines()[-1])
        assert snap["campaign"] == "tcp-dist"
        assert snap["n_total"] == 6
        assert snap["done"] == 2
        assert snap["remaining"] == 4
        assert set(snap) >= {"failed", "elapsed_s", "rate", "eta_s"}
