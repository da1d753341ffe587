"""The pluggable store-backend layer: contract, SQLite engine, migration.

The lease-protocol semantics shared by every engine are covered by the
``any_store`` fixture in ``test_campaign_sharded.py`` and the chaos /
hypothesis suites (via the parametrized ``store_backend`` fixture); this
module covers what is *specific* to the backend layer — the
:class:`StoreBackend` seam itself, SQLite's representation (upsert
dedup, incremental reads, WAL, indexes), engine resolution through
manifests, and ``migrate_store`` (including the acceptance criterion:
a jsonl → sqlite → jsonl round trip reproduces the compacted source
byte-for-byte).
"""

import json
import sqlite3
import threading
import time
from pathlib import Path

import pytest

from repro.campaign import (
    Campaign,
    CampaignSpec,
    ResultStore,
    ShardedResultStore,
    SQLiteStoreBackend,
    StoreBackend,
    migrate_store,
    open_store,
    parse_store_spec,
    read_manifest,
)
from repro.campaign.backends import DB_FILENAME


def small_spec(**overrides) -> CampaignSpec:
    """A fast 2-algorithm x 3-seed sphere grid (6 jobs)."""
    kwargs = dict(
        name="backendtest",
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


class TestContract:
    def test_every_engine_implements_the_abc(self, tmp_path):
        stores = [
            ResultStore(),
            ResultStore(tmp_path / "r.jsonl"),
            ShardedResultStore(tmp_path / "sharded", n_shards=2),
            SQLiteStoreBackend(tmp_path / "sq"),
        ]
        for store in stores:
            assert isinstance(store, StoreBackend)
        with pytest.raises(TypeError):
            StoreBackend()  # abstract: the seam cannot be instantiated

    def test_engine_identifiers(self, tmp_path):
        assert ResultStore().engine == "jsonl"
        assert ShardedResultStore(tmp_path / "s", n_shards=2).engine == "jsonl"
        assert SQLiteStoreBackend(tmp_path / "q").engine == "sqlite"

    def test_counts_agree_across_engines(self, store_backend):
        store = store_backend()
        for i in range(5):
            store.record({"job_id": f"d{i}", "status": "done"})
        for i in range(3):
            store.record({"job_id": f"f{i}", "status": "failed"})
        store.record({"job_id": "f0", "status": "done"})  # retry overwrote
        assert store.counts() == {"total": 8, "done": 6, "failed": 2}

    def test_parse_store_spec(self):
        assert parse_store_spec(None) == (None, None)
        assert parse_store_spec("jsonl") == ("jsonl", None)
        assert parse_store_spec("jsonl:8") == ("jsonl", 8)
        assert parse_store_spec("sqlite") == ("sqlite", None)
        # store:// specs come back whole — the address is the selection
        assert parse_store_spec("store://db.host:9090") == ("store://db.host:9090", None)
        for bad in ("sqlite:4", "jsonl:x", "jsonl:0", "parquet",
                    "store://nohost", "store://h:notaport", "store://h:99999"):
            with pytest.raises(ValueError):
                parse_store_spec(bad)


class TestSQLiteBackend:
    def test_wal_mode_and_schema_indexes(self, tmp_path):
        store = SQLiteStoreBackend(tmp_path)
        conn = sqlite3.connect(store.path)
        (mode,) = conn.execute("PRAGMA journal_mode").fetchone()
        assert mode == "wal"
        indexes = {row[0] for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index'"
        )}
        # indexed by job id (the implicit UNIQUE index) and by cell
        assert any("job_id" in name or "autoindex" in name for name in indexes)
        assert "idx_results_cell" in indexes

    def test_upsert_keeps_first_appearance_order(self, tmp_path):
        store = SQLiteStoreBackend(tmp_path)
        store.record({"job_id": "a", "status": "failed"})
        store.record({"job_id": "b", "status": "done"})
        store.record({"job_id": "a", "status": "done"})  # retry corrects a
        assert [r["job_id"] for r in store.records()] == ["a", "b"]
        assert store.records()[0]["status"] == "done"
        assert len(store) == 2  # no duplicate rows accumulate

    def test_incremental_reads_across_instances(self, tmp_path):
        writer = SQLiteStoreBackend(tmp_path)
        reader = SQLiteStoreBackend(tmp_path)
        writer.record({"job_id": "a", "status": "done"})
        assert {r["job_id"] for r in reader.records()} == {"a"}
        writer.record({"job_id": "b", "status": "done"})
        writer.record({"job_id": "a", "status": "failed"})  # mutation, not insert
        records = {r["job_id"]: r for r in reader.records()}
        assert set(records) == {"a", "b"}
        assert records["a"]["status"] == "failed"  # the update was folded in

    def test_returned_records_are_isolated_copies(self, tmp_path):
        store = SQLiteStoreBackend(tmp_path)
        store.record({"job_id": "a", "status": "done", "result": {"v": 1}})
        store.records()[0]["result"]["v"] = 999
        assert store.records()[0]["result"]["v"] == 1

    def test_cell_index_populated_from_job_payload(self, tmp_path):
        store = SQLiteStoreBackend(tmp_path)
        job = small_spec().expand()[0]
        store.record({"job_id": job.job_id, "status": "done",
                      "job": job.to_dict(), "result": None})
        store.record({"job_id": "synthetic", "status": "done"})
        rows = dict(sqlite3.connect(store.path).execute(
            "SELECT job_id, cell FROM results"
        ).fetchall())
        assert rows["synthetic"] is None
        assert json.loads(rows[job.job_id]) == list(job.cell)

    def test_counts_by_cell_matches_python_side_aggregation(self, tmp_path):
        store = SQLiteStoreBackend(tmp_path)
        jobs = small_spec().expand()  # 2 cells x 3 seeds
        for i, job in enumerate(jobs):
            status = "failed" if i == 0 else "done"
            store.record({"job_id": job.job_id, "status": status,
                          "job": job.to_dict(), "result": None})
        store.record({"job_id": jobs[0].job_id, "status": "done",
                      "job": jobs[0].to_dict(), "result": None})  # retry wins
        store.record({"job_id": "synthetic", "status": "done"})  # no cell
        by_cell = store.counts_by_cell()
        assert set(by_cell) == {job.cell for job in jobs}
        for counts in by_cell.values():
            assert counts == {"total": 3, "done": 3, "failed": 0}

    def test_concurrent_instances_partition_claims(self, tmp_path):
        """Two store instances, two threads, overlapping batches: the
        BEGIN IMMEDIATE transaction partitions them (the flock analogue)."""
        ids = [f"j{i}" for i in range(40)]
        grants = [None, None]
        barrier = threading.Barrier(2)

        def claim(slot):
            try:
                store = SQLiteStoreBackend(tmp_path)
            finally:
                # a thread that failed to open must not strand its peer
                barrier.wait(timeout=30)
            grants[slot] = store.claim(ids, f"r{slot}", ttl=60)

        threads = [threading.Thread(target=claim, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "claim thread hung"
        assert None not in grants, "a claim thread raised"
        assert set(grants[0]) & set(grants[1]) == set()
        assert set(grants[0]) | set(grants[1]) == set(ids)

    def test_compact_prunes_expired_leases_and_shrinks(self, tmp_path):
        store = SQLiteStoreBackend(tmp_path)
        now = time.time()
        for i in range(50):
            store.record({"job_id": f"j{i}", "status": "done",
                          "result": {"pad": "x" * 200}})
        store.claim(["live"], "r1", ttl=3600, now=now)
        store.claim(["expired"], "r1", ttl=1, now=now - 100)
        before = store.compact(now=now)
        assert before.n_records_before == before.n_records_after == 50
        assert set(store.leases(now=now)) == {"live"}
        # mutual exclusion survived compaction
        assert store.claim(["live"], "r2", ttl=60, now=now) == []
        # the expired lease's job is requeueable
        assert store.claim(["expired"], "r2", ttl=60, now=now) == ["expired"]

    def test_manifest_pins_the_engine(self, tmp_path):
        SQLiteStoreBackend(tmp_path)
        manifest = read_manifest(tmp_path)
        assert manifest["engine"] == "sqlite"
        assert (tmp_path / DB_FILENAME).exists()
        with pytest.raises(ValueError, match="migrate-store"):
            ShardedResultStore(tmp_path, n_shards=4)
        ShardedResultStore(tmp_path / "j", n_shards=2)
        with pytest.raises(ValueError, match="migrate-store"):
            SQLiteStoreBackend(tmp_path / "j")


class TestOpenStoreEngines:
    def test_engine_resolution(self, tmp_path):
        # fresh + engine=sqlite -> sqlite store, manifest written
        store = open_store(tmp_path / "a", engine="sqlite")
        assert isinstance(store, SQLiteStoreBackend)
        # manifest wins on re-open with no arguments
        assert isinstance(open_store(tmp_path / "a"), SQLiteStoreBackend)
        # conflicting explicit engine is a clean error
        with pytest.raises(ValueError, match="migrate-store"):
            open_store(tmp_path / "a", engine="jsonl")
        open_store(tmp_path / "b", shards=2)
        with pytest.raises(ValueError, match="migrate-store"):
            open_store(tmp_path / "b", engine="sqlite")
        # sqlite + shards is contradictory
        with pytest.raises(ValueError, match="shard count"):
            open_store(tmp_path / "c", engine="sqlite", shards=4)

    def test_legacy_directory_migrates_to_sqlite_in_place(self, tmp_path):
        legacy = ResultStore(tmp_path / "results.jsonl")
        for i in range(6):
            legacy.record({"job_id": f"j{i}", "status": "done", "result": {"v": i}})
        expected = {r["job_id"]: r for r in legacy.records()}
        store = open_store(tmp_path, engine="sqlite")
        assert isinstance(store, SQLiteStoreBackend)
        assert {r["job_id"]: r for r in store.records()} == expected
        assert not (tmp_path / "results.jsonl").exists()
        assert (tmp_path / "results.jsonl.migrated").exists()
        # idempotent: re-resolving folds nothing new
        again = open_store(tmp_path)
        assert {r["job_id"]: r for r in again.records()} == expected


class TestMigrateStore:
    def _run_campaign(self, directory, **campaign_kwargs):
        campaign = Campaign(directory, spec=small_spec(), **campaign_kwargs)
        campaign.run()
        return campaign

    def test_round_trip_jsonl_sqlite_jsonl_byte_identical(self, tmp_path):
        """Acceptance: migrating jsonl -> sqlite -> jsonl reproduces the
        compacted source file byte-for-byte."""
        src = self._run_campaign(tmp_path / "src")
        src.compact()
        source_bytes = (tmp_path / "src" / "results.jsonl").read_bytes()

        migrate_store(tmp_path / "src", tmp_path / "mid", engine="sqlite")
        migrate_store(tmp_path / "mid", tmp_path / "dst", engine="jsonl")
        Campaign(tmp_path / "dst").compact()
        assert (tmp_path / "dst" / "results.jsonl").read_bytes() == source_bytes

    def test_migrated_campaign_aggregates_identically(self, tmp_path):
        src = self._run_campaign(tmp_path / "src", store="sqlite")
        _, n = migrate_store(tmp_path / "src", tmp_path / "dst", engine="jsonl",
                             shards=4)
        assert n == 6
        dst = Campaign(tmp_path / "dst")  # spec.json travelled along
        assert isinstance(dst.store, ShardedResultStore) and dst.store.n_shards == 4
        assert dst.summary() == src.summary()
        assert dst.status()["done"] == 6
        cmp_a, cmp_b = src.compare("DET", "PC"), dst.compare("DET", "PC")
        assert cmp_a.log_ratios.tolist() == cmp_b.log_ratios.tolist()

    def test_resharding_via_fresh_directory(self, tmp_path):
        src = self._run_campaign(tmp_path / "src", shards=2)
        migrate_store(tmp_path / "src", tmp_path / "dst", engine="jsonl",
                      shards=8)
        dst = Campaign(tmp_path / "dst")
        assert dst.store.n_shards == 8
        assert dst.store.completed_ids() == src.store.completed_ids()
        assert dst.summary() == src.summary()

    def test_leases_are_not_migrated(self, tmp_path):
        store = open_store(tmp_path / "src", engine="sqlite")
        store.record({"job_id": "a", "status": "done"})
        store.claim(["b"], "runner", ttl=3600)
        dst, n = migrate_store(tmp_path / "src", tmp_path / "dst", engine="jsonl")
        assert n == 1
        assert dst.leases() == {}
        assert dst.claim(["b"], "someone-else", ttl=60) == ["b"]

    def test_migrate_is_idempotent(self, tmp_path):
        self._run_campaign(tmp_path / "src")
        _, first = migrate_store(tmp_path / "src", tmp_path / "dst", engine="sqlite")
        _, again = migrate_store(tmp_path / "src", tmp_path / "dst", engine="sqlite")
        assert first == again == 6
        assert len(open_store(tmp_path / "dst")) == 6

    def test_migrate_errors(self, tmp_path):
        with pytest.raises(ValueError, match="no campaign store"):
            migrate_store(tmp_path / "empty", tmp_path / "dst", engine="sqlite")
        self._run_campaign(tmp_path / "src")
        with pytest.raises(ValueError, match="fresh destination"):
            migrate_store(tmp_path / "src", tmp_path / "src", engine="sqlite")


class TestCampaignStoreSelection:
    def test_campaign_sqlite_lifecycle_and_resume(self, tmp_path):
        directory = tmp_path / "camp"
        first = Campaign(directory, spec=small_spec(), store="sqlite")
        report = first.run(max_jobs=2)
        assert report.n_done == 2
        reopened = Campaign(directory)  # engine auto-detected from manifest
        assert isinstance(reopened.store, SQLiteStoreBackend)
        assert reopened.status()["engine"] == "sqlite"
        report = reopened.run()
        assert report.n_done == 4 and report.n_skipped == 2
        # parity with a serial jsonl run of the same spec
        jsonl = Campaign(tmp_path / "flat", spec=small_spec())
        jsonl.run()
        assert jsonl.summary() == reopened.summary()

    def test_store_spec_and_shards_must_agree(self, tmp_path):
        with pytest.raises(ValueError, match="conflicting shard counts"):
            Campaign(tmp_path / "x", spec=small_spec(), shards=2, store="jsonl:4")
        # agreeing spellings are fine
        campaign = Campaign(tmp_path / "y", spec=small_spec(), shards=4,
                            store="jsonl:4")
        assert campaign.store.n_shards == 4
