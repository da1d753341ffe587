"""Integration tests: telemetry threaded through real campaign runs.

Everything here drives actual :class:`~repro.campaign.runner.Campaign`
runs (small sphere grids) and asserts on the artifacts the observability
layer promises: a schema-valid ``telemetry.jsonl``, metrics snapshots
covering runner + store (+ mw) series, span ids that correlate store
records with trace events, and the ``campaign metrics`` CLI on top.
"""

import json

import pytest

from repro.campaign import (
    Campaign,
    CampaignRunner,
    CampaignSpec,
    workers_from_trace,
)
from repro.cli import main as cli_main
from repro.telemetry import (
    TELEMETRY_FILENAME,
    Telemetry,
    last_event,
    merge_snapshots,
    read_trace,
    validate_trace,
)


def tiny_spec(n_seeds=2, **overrides) -> CampaignSpec:
    kwargs = dict(
        name="tele",
        algorithms=["DET", "PC"],
        functions=["sphere"],
        dims=[2],
        sigma0s=[1.0],
        seeds=list(range(n_seeds)),
        tau=1e-3,
        walltime=1e3,
        max_steps=20,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


def metric_names(snapshot) -> set:
    return {
        entry["name"]
        for kind in ("counters", "gauges", "histograms")
        for entry in snapshot[kind]
    }


class TestRunTrace:
    def test_serial_run_produces_valid_trace(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        campaign = Campaign(tmp_path, spec=tiny_spec())
        report = campaign.run()
        assert report.n_done == 4
        path = tmp_path / TELEMETRY_FILENAME
        events = validate_trace(path)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "run_start" and kinds.count("job") == 4
        assert "run_end" in kinds and "metrics" in kinds
        run_start = events[0]
        assert run_start["campaign"] == "tele"
        assert run_start["backend"] == "serial" and run_start["n_total"] == 4

    def test_trace_spans_correlate_with_store_records(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        campaign = Campaign(tmp_path, spec=tiny_spec())
        campaign.run()
        records = {
            r["job_id"]: r
            for r in campaign.store.records()
            if r["status"] == "done"
        }
        events = list(read_trace(tmp_path / TELEMETRY_FILENAME))
        run_id = events[0]["run_id"]
        job_events = {e["job_id"]: e for e in events if e["event"] == "job"}
        assert set(job_events) == set(records)
        for job_id, record in records.items():
            assert record["run_id"] == run_id
            assert job_events[job_id]["span_id"] == record["span_id"]

    def test_disabled_by_default_leaves_no_trace(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        campaign = Campaign(tmp_path, spec=tiny_spec())
        campaign.run()
        assert not (tmp_path / TELEMETRY_FILENAME).exists()

    def test_resumed_campaign_appends_a_second_run(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        campaign = Campaign(tmp_path, spec=tiny_spec())
        campaign.run(max_jobs=2)
        Campaign(tmp_path).run()
        events = validate_trace(tmp_path / TELEMETRY_FILENAME)
        starts = [e for e in events if e["event"] == "run_start"]
        assert len(starts) == 2
        assert len({e["run_id"] for e in starts}) == 2


class TestMetricsCoverage:
    def test_runner_metrics_cover_the_catalogue(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        campaign = Campaign(tmp_path, spec=tiny_spec())
        campaign.run()
        snap = last_event(tmp_path / TELEMETRY_FILENAME, "metrics")["metrics"]
        assert {
            "repro_runner_passes_total",
            "repro_runner_jobs_total",
            "repro_job_seconds",
            "repro_span_seconds",
            "repro_store_op_seconds",
        } <= metric_names(snap)
        jobs_total = [
            c for c in snap["counters"]
            if c["name"] == "repro_runner_jobs_total"
        ]
        assert sum(c["value"] for c in jobs_total) == 4

    def test_store_latency_labelled_by_engine(self, store_backend):
        # the store_backend fixture turns $REPRO_TELEMETRY on
        telemetry = Telemetry.create()
        runner = CampaignRunner(tiny_spec(), store_backend(),
                                telemetry=telemetry)
        runner.run()
        engine = store_backend.engine  # the metrics label is the engine name
        hists = {
            (h["labels"].get("op"), h["labels"].get("engine"))
            for h in telemetry.registry.snapshot()["histograms"]
            if h["name"] == "repro_store_op_seconds"
        }
        assert ("append", engine) in hists
        assert ("claim", engine) in hists


class TestMwWorkers:
    def test_mw_run_reports_worker_utilization(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        campaign = Campaign(tmp_path, spec=tiny_spec(n_seeds=4))
        report = campaign.run(backend="mw", max_workers=2,
                              mw_transport="threaded")
        assert report.n_done == 8
        event = last_event(tmp_path / TELEMETRY_FILENAME, "workers")
        assert event is not None
        rows = workers_from_trace(tmp_path)
        assert [w.rank for w in rows] == [1, 2]
        assert sum(w.tasks for w in rows) == 8
        assert all(w.busy_s >= 0 and 0 <= w.utilization for w in rows)
        snap = last_event(tmp_path / TELEMETRY_FILENAME, "metrics")["metrics"]
        assert {
            "repro_mw_tasks_dispatched_total",
            "repro_mw_replies_total",
        } <= metric_names(snap)

    def test_watch_cells_carries_worker_rows(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        campaign = Campaign(tmp_path, spec=tiny_spec(n_seeds=4))
        campaign.run(backend="mw", max_workers=2, mw_transport="threaded")
        from repro.campaign import watch_campaign

        snap = next(watch_campaign(Campaign(tmp_path), max_ticks=1))
        assert len(snap.workers) == 2
        assert snap.to_dict()["workers"][0]["rank"] == 1


class TestMetricsCli:
    def run_cli(self, *argv):
        return cli_main([str(a) for a in argv])

    def test_prometheus_exposition(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        Campaign(tmp_path, spec=tiny_spec()).run()
        assert self.run_cli("campaign", "metrics", tmp_path) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_runner_jobs_total counter" in out
        assert "# TYPE repro_store_op_seconds histogram" in out
        assert 'repro_store_op_seconds_bucket{engine="jsonl",le="+Inf",op="append"}' in out

    def test_json_snapshot_merges_runs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        Campaign(tmp_path, spec=tiny_spec()).run(max_jobs=2)
        Campaign(tmp_path).run()
        assert self.run_cli("campaign", "metrics", tmp_path, "--json") == 0
        snap = json.loads(capsys.readouterr().out)
        merged_jobs = sum(
            c["value"] for c in snap["counters"]
            if c["name"] == "repro_runner_jobs_total"
        )
        assert merged_jobs == 4  # 2 from each run, summed across snapshots
        # the merged snapshot renders — same path `campaign metrics` prints
        assert merge_snapshots([snap])["counters"]

    def test_errors_without_a_trace(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        Campaign(tmp_path, spec=tiny_spec()).run()
        assert self.run_cli("campaign", "metrics", tmp_path) == 2
        assert "telemetry" in capsys.readouterr().err

    def test_errors_without_snapshots(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        campaign = Campaign(tmp_path, spec=tiny_spec())
        telemetry = Telemetry.create(tmp_path)
        telemetry.event("run_start", campaign="tele", backend="serial",
                        n_total=4)
        telemetry.close()
        assert self.run_cli("campaign", "metrics", tmp_path) == 2
        assert "no metrics snapshots" in capsys.readouterr().err

    def test_run_flag_enables_telemetry(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        spec_path = tmp_path / "grid.json"
        spec_path.write_text(json.dumps(tiny_spec().to_dict()))
        directory = tmp_path / "camp"
        assert self.run_cli("campaign", "run", directory, "--spec", spec_path,
                            "--telemetry") == 0
        assert (directory / TELEMETRY_FILENAME).exists()
        validate_trace(directory / TELEMETRY_FILENAME)
