"""Unit tests for the :mod:`repro.campaign.progress` helpers.

The watch loop and heartbeat share these primitives; the suite pins the
formatting edge cases (negative, NaN, day-scale durations), the JSON
snapshot shape, the stable per-cell ordering, and the first-tick rate
seeding / worker-utilization plumbing added with the telemetry layer.
"""

import json
import math
import os

from repro.campaign.progress import (
    CellProgress,
    ProgressSnapshot,
    WorkerUtilization,
    cells_from_status,
    format_duration,
    seed_rate,
    watch_campaign,
    workers_from_trace,
)
from repro.telemetry import TELEMETRY_FILENAME, TraceWriter


class TestFormatDuration:
    def test_none_is_unknown(self):
        assert format_duration(None) == "?"

    def test_negative_is_unknown(self):
        assert format_duration(-1.0) == "?"
        assert format_duration(-0.4) == "?"

    def test_nan_is_unknown(self):
        assert format_duration(float("nan")) == "?"

    def test_seconds(self):
        assert format_duration(0) == "0s"
        assert format_duration(42.4) == "42s"

    def test_rounds_up_across_the_minute_boundary(self):
        assert format_duration(59.6) == "1m00s"

    def test_minutes(self):
        assert format_duration(192) == "3m12s"

    def test_hours(self):
        assert format_duration(2 * 3600 + 5 * 60) == "2h05m"

    def test_beyond_24h_stays_in_hours(self):
        assert format_duration(25 * 3600) == "25h00m"
        assert format_duration(100 * 3600 + 59 * 60) == "100h59m"


def sample_snapshot(**overrides):
    """A fully-populated snapshot (cells + workers) for shape tests."""
    kwargs = dict(
        campaign="camp",
        n_total=10,
        done=4,
        failed=1,
        elapsed_s=20.0,
        rate=2.0,
        claimed=2,
        cells=(
            CellProgress(
                label="PC", algorithm="PC", function="sphere", dim=2,
                sigma0=1.0, total=5, done=2, failed=1, claimed=2,
            ),
        ),
        workers=(
            WorkerUtilization(
                rank=1, tasks=3, busy_s=1.5, elapsed_s=2.0,
                utilization=0.75, alive=True,
            ),
        ),
    )
    kwargs.update(overrides)
    return ProgressSnapshot(**kwargs)


class TestProgressSnapshot:
    def test_to_dict_round_trips_through_json(self):
        snap = sample_snapshot()
        payload = json.loads(json.dumps(snap.to_dict()))
        assert payload == snap.to_dict()
        rebuilt = ProgressSnapshot(
            campaign=payload["campaign"],
            n_total=payload["n_total"],
            done=payload["done"],
            failed=payload["failed"],
            elapsed_s=payload["elapsed_s"],
            rate=payload["rate"],
            claimed=payload["claimed"],
            cells=tuple(CellProgress(**c) for c in payload["cells"]),
            workers=tuple(WorkerUtilization(**w) for w in payload["workers"]),
        )
        assert rebuilt == snap

    def test_to_dict_materializes_derived_fields(self):
        snap = sample_snapshot()
        payload = snap.to_dict()
        assert payload["remaining"] == 6
        assert payload["eta_s"] == snap.eta_s == 3.0

    def test_eta_is_none_without_a_rate(self):
        assert sample_snapshot(rate=0.0).to_dict()["eta_s"] is None

    def test_eta_is_none_when_drained(self):
        snap = sample_snapshot(done=10, failed=0)
        assert snap.remaining == 0
        assert snap.eta_s is None

    def test_remaining_never_negative(self):
        assert sample_snapshot(done=15).remaining == 0

    def test_line_mentions_worker_free_fields_only(self):
        line = sample_snapshot().line()
        assert "4/10 done" in line and "2.00 jobs/s" in line


def status_dict(cell_keys):
    """A ``Campaign.status()``-shaped dict with the given cell keys."""
    return {
        "name": "camp",
        "n_jobs": 4,
        "done": 1,
        "failed": 0,
        "claimed": 0,
        "cells": {
            key: {"total": 1, "done": 0, "failed": 0, "claimed": 0}
            for key in cell_keys
        },
    }


class TestCellsFromStatus:
    KEYS = [
        ("PC", "PC", "sphere", 2, 1.0),
        ("DET", "DET", "sphere", 2, 1.0),
        ("DET", "DET", "rosenbrock", 4, 0.5),
        ("MN", "MN", "sphere", 8, 2.0),
    ]

    def test_rows_come_back_sorted(self):
        rows = cells_from_status(status_dict(self.KEYS))
        keys = [(c.label, c.algorithm, c.function, c.dim, c.sigma0) for c in rows]
        assert keys == sorted(self.KEYS)

    def test_ordering_is_insertion_independent(self):
        forward = cells_from_status(status_dict(self.KEYS))
        backward = cells_from_status(status_dict(list(reversed(self.KEYS))))
        assert forward == backward

    def test_numeric_fields_are_coerced(self):
        rows = cells_from_status(status_dict([("A", "A", "sphere", "2", "1.5")]))
        assert rows[0].dim == 2 and rows[0].sigma0 == 1.5


class FakeCampaign:
    """The minimal surface ``seed_rate`` / ``watch_campaign`` touch."""

    def __init__(self, directory, store_path=None, status=None):
        self.directory = str(directory)
        self.store = type("S", (), {"path": store_path})()
        self._status = status

    def status(self):
        return self._status


class TestSeedRate:
    def make_campaign(self, tmp_path, window=10.0, status=None):
        spec = tmp_path / "spec.json"
        spec.write_text("{}")
        store = tmp_path / "results.jsonl"
        store.write_text("")
        t0 = spec.stat().st_mtime
        os.utime(store, (t0 + window, t0 + window))
        return FakeCampaign(tmp_path, store_path=store, status=status)

    def test_rate_is_done_over_store_window(self, tmp_path):
        campaign = self.make_campaign(tmp_path, window=10.0)
        assert math.isclose(seed_rate(campaign, 20), 2.0, rel_tol=1e-6)

    def test_zero_done_gives_zero(self, tmp_path):
        assert seed_rate(self.make_campaign(tmp_path), 0) == 0.0

    def test_missing_spec_gives_zero(self, tmp_path):
        campaign = FakeCampaign(tmp_path, store_path=tmp_path / "results.jsonl")
        assert seed_rate(campaign, 5) == 0.0

    def test_pathless_store_gives_zero(self, tmp_path):
        (tmp_path / "spec.json").write_text("{}")
        assert seed_rate(FakeCampaign(tmp_path, store_path=None), 5) == 0.0

    def test_non_positive_window_gives_zero(self, tmp_path):
        campaign = self.make_campaign(tmp_path, window=-5.0)
        assert seed_rate(campaign, 5) == 0.0

    def test_watch_first_tick_rate_is_seeded(self, tmp_path):
        status = status_dict([("PC", "PC", "sphere", 2, 1.0)])
        status["n_jobs"] = 40
        status["done"] = 20
        campaign = self.make_campaign(tmp_path, window=10.0, status=status)
        snap = next(watch_campaign(campaign, max_ticks=1))
        assert math.isclose(snap.rate, 2.0, rel_tol=1e-6)
        assert snap.eta_s is not None


class TestWorkersFromTrace:
    def write_workers(self, directory, rows):
        writer = TraceWriter(
            directory / TELEMETRY_FILENAME, run_id="r1", runner="tester"
        )
        writer.write("workers", workers=rows)
        writer.close()

    def row(self, rank, util, alive=True, tasks=1):
        return {
            "rank": rank, "tasks": tasks, "busy_s": util * 2.0,
            "elapsed_s": 2.0, "utilization": util, "alive": alive,
        }

    def test_no_trace_gives_empty(self, tmp_path):
        assert workers_from_trace(tmp_path) == ()

    def test_no_workers_event_gives_empty(self, tmp_path):
        writer = TraceWriter(tmp_path / TELEMETRY_FILENAME, run_id="r1")
        writer.write("run_start", campaign="c", backend="mw", n_total=1)
        writer.close()
        assert workers_from_trace(tmp_path) == ()

    def test_rows_sorted_by_rank(self, tmp_path):
        self.write_workers(tmp_path, [self.row(2, 0.5), self.row(1, 0.6)])
        rows = workers_from_trace(tmp_path)
        assert [w.rank for w in rows] == [1, 2]

    def test_straggler_below_half_median(self, tmp_path):
        self.write_workers(
            tmp_path,
            [self.row(1, 0.8), self.row(2, 0.9), self.row(3, 0.1)],
        )
        rows = workers_from_trace(tmp_path)
        assert [w.straggler for w in rows] == [False, False, True]

    def test_single_worker_never_straggles(self, tmp_path):
        self.write_workers(tmp_path, [self.row(1, 0.01)])
        assert workers_from_trace(tmp_path)[0].straggler is False

    def test_dead_worker_flagged_in_line(self, tmp_path):
        self.write_workers(tmp_path, [self.row(1, 0.4, alive=False)])
        assert "[dead]" in workers_from_trace(tmp_path)[0].line()
