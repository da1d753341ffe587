"""The pluggable store-backend layer: contract, leases, SQLite, migration.

Covers the :class:`StoreBackend` seam itself, the store-level lease
protocol over every local engine (claim/renew/release, expiry,
last-record-wins with results superseding claims — the ``any_store``
fixture; the chaos and hypothesis suites repeat it through the
parametrized ``store_backend`` fixture), SQLite's representation (upsert
dedup, incremental reads, WAL, indexes), engine resolution through
manifests, the in-place legacy → sqlite migration, and
``migrate_store`` (including the acceptance criterion: a jsonl → sqlite
→ jsonl round trip reproduces the compacted source byte-for-byte, and
the read-only conversion of directories in the retired sharded layout).
"""

import json
import sqlite3
import threading
import time
from pathlib import Path

import pytest

from repro.campaign import (
    Campaign,
    CampaignRunner,
    CampaignSpec,
    ResultStore,
    SQLiteStoreBackend,
    StoreBackend,
    migrate_store,
    open_store,
    parse_store_spec,
    read_manifest,
)
from repro.campaign.backends import DB_FILENAME
from repro.campaign.backends.base import ensure_manifest
from repro.campaign.store import STATUS_CLAIMED
from repro.cli import main
from store_helpers import make_old_sharded_directory


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
            SQLiteStoreBackend(tmp_path / "sq"),
        ]
        for store in stores:
            assert isinstance(store, StoreBackend)
        with pytest.raises(TypeError):
            StoreBackend()  # abstract: the seam cannot be instantiated

    def test_engine_identifiers(self, tmp_path):
        assert ResultStore().engine == "jsonl"
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
        assert parse_store_spec(None) is None
        assert parse_store_spec("jsonl") == "jsonl"
        assert parse_store_spec("sqlite") == "sqlite"
        # store:// specs come back whole — the address is the selection
        assert parse_store_spec("store://db.host:9090") == "store://db.host:9090"
        for bad in ("sqlite:4", "jsonl:8", "jsonl:x", "parquet",
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
            open_store(tmp_path, engine="jsonl")
        ensure_manifest(tmp_path / "n", "store")
        with pytest.raises(ValueError, match="migrate-store"):
            SQLiteStoreBackend(tmp_path / "n")


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
        # fresh + no engine (or jsonl) -> the single file, no manifest
        assert isinstance(open_store(tmp_path / "b"), ResultStore)
        assert isinstance(open_store(tmp_path / "b", engine="jsonl"), ResultStore)
        assert read_manifest(tmp_path / "b") is None
        with pytest.raises(ValueError, match="unknown store engine"):
            open_store(tmp_path / "c", engine="parquet")

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
        _, n = migrate_store(tmp_path / "src", tmp_path / "dst", engine="jsonl")
        assert n == 6
        dst = Campaign(tmp_path / "dst")  # spec.json travelled along
        assert isinstance(dst.store, ResultStore)
        assert dst.summary() == src.summary()
        assert dst.status()["done"] == 6
        cmp_a, cmp_b = src.compare("DET", "PC"), dst.compare("DET", "PC")
        assert cmp_a.log_ratios.tolist() == cmp_b.log_ratios.tolist()

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


@pytest.fixture(params=["memory", "file", "sqlite"])
def any_store(request, tmp_path):
    """The same lease/record API behind every local store engine."""
    if request.param == "memory":
        return ResultStore()
    if request.param == "file":
        return ResultStore(tmp_path / "r.jsonl")
    return SQLiteStoreBackend(tmp_path)


class TestLeases:
    def test_claim_grants_free_jobs_once(self, any_store):
        store = any_store
        assert store.claim(["a", "b"], "r1", ttl=60) == ["a", "b"]
        # a second runner gets nothing; the holder may re-claim its own
        assert store.claim(["a", "b"], "r2", ttl=60) == []
        assert store.claim(["a", "b"], "r1", ttl=60) == ["a", "b"]
        leases = store.leases()
        assert set(leases) == {"a", "b"}
        assert all(l.runner == "r1" for l in leases.values())

    def test_claim_denied_for_completed_jobs(self, any_store):
        store = any_store
        store.record({"job_id": "a", "status": "done"})
        store.record({"job_id": "b", "status": "failed"})
        # done is final; failed is claimable (retry policy is the runner's)
        assert store.claim(["a", "b"], "r1", ttl=60) == ["b"]

    def test_expired_lease_is_requeued_to_new_claimant(self, any_store):
        store = any_store
        t0 = 1000.0
        assert store.claim(["a"], "dead", ttl=5, now=t0) == ["a"]
        assert store.claim(["a"], "r2", ttl=5, now=t0 + 1) == []   # still live
        assert store.claim(["a"], "r2", ttl=5, now=t0 + 10) == ["a"]  # expired
        assert store.leases(now=t0 + 11)["a"].runner == "r2"

    def test_renew_extends_deadline(self, any_store):
        store = any_store
        t0 = 1000.0
        store.claim(["a"], "r1", ttl=5, now=t0)
        store.renew(["a"], "r1", ttl=5, now=t0 + 4)  # heartbeat at t+4
        assert store.claim(["a"], "r2", ttl=5, now=t0 + 6) == []  # lease held
        assert store.leases(now=t0 + 6)["a"].deadline == pytest.approx(t0 + 9)

    def test_stalled_runner_renewal_cannot_clobber_reclaim(self, any_store):
        """A heartbeat arriving after the lease lapsed *and was reclaimed*
        must not steal it back from the new holder."""
        store = any_store
        t0 = 1000.0
        store.claim(["a"], "r1", ttl=5, now=t0)
        assert store.claim(["a"], "r2", ttl=60, now=t0 + 10) == ["a"]  # lapsed
        assert store.renew(["a"], "r1", ttl=60, now=t0 + 11) == []  # too late
        assert store.leases(now=t0 + 12)["a"].runner == "r2"
        assert store.renew(["a"], "r2", ttl=60, now=t0 + 12) == ["a"]
        # a fulfilled claim is not renewed either
        store.record({"job_id": "a", "status": "done"})
        assert store.renew(["a"], "r2", ttl=60, now=t0 + 13) == []

    def test_release_frees_immediately(self, any_store):
        store = any_store
        store.claim(["a", "b"], "r1", ttl=3600)
        store.release(["a"], "r1")
        assert set(store.leases()) == {"b"}
        assert store.claim(["a"], "r2", ttl=60) == ["a"]

    def test_result_record_supersedes_claim(self, any_store):
        store = any_store
        store.claim(["a"], "r1", ttl=3600)
        store.record({"job_id": "a", "status": "done"})
        assert store.leases() == {}
        assert store.completed_ids() == {"a"}

    def test_claim_after_failure_is_live(self, any_store):
        """A re-claim written after a failed record is a live retry lease."""
        store = any_store
        store.claim(["a"], "r1", ttl=3600)
        store.record({"job_id": "a", "status": "failed"})
        assert store.leases() == {}  # the failure fulfilled that claim
        assert store.claim(["a"], "r2", ttl=3600) == ["a"]
        assert store.leases()["a"].runner == "r2"

    def test_lease_lines_never_surface_as_records(self, any_store):
        store = any_store
        store.claim(["a"], "r1", ttl=3600)
        store.record({"job_id": "b", "status": "done"})
        assert [r["job_id"] for r in store.records()] == ["b"]
        assert len(store) == 1

    def test_runner_honours_peer_leases(self, any_store):
        """A runner claims through the store; a peer's live lease is honoured."""
        store = any_store
        spec = small_spec()
        jobs = spec.expand()
        # a live peer holds one job; an abandoned peer's lease is expired
        store.claim([jobs[0].job_id], "peer", ttl=3600)
        store.claim([jobs[1].job_id], "ghost", ttl=1, now=time.time() - 100)
        report = CampaignRunner(spec, store).run()
        assert report.n_done == 5  # the expired claim was requeued to us
        assert report.n_leased == 1 and report.n_remaining == 1
        assert "1 leased to peers" in str(report)
        # the peer finishes its job; the next run completes the campaign
        store.record(
            {"job_id": jobs[0].job_id, "status": "done",
             "job": jobs[0].to_dict(),
             "result": None, "error": None, "elapsed_s": 0.0}
        )
        assert CampaignRunner(spec, store).run().n_skipped == 6

    def test_concurrent_store_instances_partition_claims(self, tmp_path):
        """Two store instances on one file (two runner processes in
        miniature): the flock + in-lock rescan means their claims on the
        same batch partition it, never overlap."""
        path = tmp_path / "r.jsonl"
        a, b = ResultStore(path), ResultStore(path)
        ids = [f"j{i}" for i in range(10)]
        got_a = a.claim(ids[:7], "ra", ttl=60)
        got_b = b.claim(ids, "rb", ttl=60)
        assert set(got_a) & set(got_b) == set()
        assert set(got_a) | set(got_b) == set(ids)

    def test_compact_preserves_live_claims_drops_stale(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        now = time.time()
        store.claim(["live"], "r1", ttl=3600, now=now)
        store.claim(["expired"], "r1", ttl=1, now=now - 100)
        store.claim(["released"], "r1", ttl=3600, now=now)
        store.release(["released"], "r1")
        store.claim(["finished"], "r1", ttl=3600, now=now)
        store.record({"job_id": "finished", "status": "done"})
        stats = store.compact(now=now)
        assert stats.n_records_before == 1 and stats.n_records_after == 1
        raw = (tmp_path / "r.jsonl").read_text()
        statuses = {
            json.loads(line)["job_id"]: json.loads(line)["status"]
            for line in raw.strip().splitlines()
        }
        assert statuses == {"finished": "done", "live": STATUS_CLAIMED}
        # mutual exclusion survived the rewrite
        assert store.claim(["live"], "r2", ttl=60, now=now) == []


class TestLegacyMigration:
    """The in-place legacy ``results.jsonl`` -> sqlite migration
    (``--store sqlite`` on a jsonl directory)."""

    def _legacy_store(self, tmp_path, n=6):
        legacy = ResultStore(tmp_path / "results.jsonl")
        for i in range(n):
            legacy.record({"job_id": f"j{i}", "status": "failed", "result": None})
        for i in range(n):  # duplicates: the retry overwrote the failure
            legacy.record({"job_id": f"j{i}", "status": "done", "result": {"v": i}})
        return legacy

    def test_migration_is_lossless(self, tmp_path):
        legacy = self._legacy_store(tmp_path)
        expected = {r["job_id"]: r for r in legacy.records()}
        migrated = open_store(tmp_path, engine="sqlite")
        assert isinstance(migrated, SQLiteStoreBackend)
        assert {r["job_id"]: r for r in migrated.records()} == expected
        assert not (tmp_path / "results.jsonl").exists()
        assert (tmp_path / "results.jsonl.migrated").exists()

    def test_migration_is_idempotent(self, tmp_path):
        self._legacy_store(tmp_path)
        first = open_store(tmp_path, engine="sqlite")
        snapshot = {r["job_id"]: r for r in first.records()}
        again = open_store(tmp_path, engine="sqlite")  # no legacy file now
        assert {r["job_id"]: r for r in again.records()} == snapshot
        # crash-mid-migration shape: legacy reappears next to the manifest
        relegated = ResultStore(tmp_path / "results.jsonl")
        relegated.record({"job_id": "j0", "status": "done", "result": {"v": 0}})
        resumed = open_store(tmp_path)  # open_store folds the leftover in
        assert {r["job_id"]: r for r in resumed.records()} == snapshot

    def test_concurrent_migrators_race_one_wins_store_intact(self, tmp_path):
        """Regression: two migrators racing on one directory converge —
        whoever loses the park-the-legacy-file rename tolerates it, and
        the migrated store is intact either way."""
        import threading

        self._legacy_store(tmp_path)
        expected = ResultStore(tmp_path / "results.jsonl").completed_ids()
        stores = [None, None]
        barrier = threading.Barrier(2)

        def migrate(slot):
            barrier.wait()  # maximize overlap of the two fold+rename paths
            stores[slot] = open_store(tmp_path, engine="sqlite")

        threads = [threading.Thread(target=migrate, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)

        assert not any(t.is_alive() for t in threads), "migrator thread hung"
        assert all(s is not None for s in stores)  # neither migrator raised
        assert not (tmp_path / "results.jsonl").exists()
        assert (tmp_path / "results.jsonl.migrated").exists()
        for store in stores + [open_store(tmp_path)]:
            assert store.completed_ids() == expected

    def test_migrator_losing_park_rename_still_succeeds(self, tmp_path, monkeypatch):
        """Deterministic shape of the race: the legacy file vanishes (a
        concurrent migrator parked it) between our fold and our rename."""
        self._legacy_store(tmp_path)
        expected = ResultStore(tmp_path / "results.jsonl").completed_ids()
        real_rename = Path.rename

        def stolen_rename(self, target):
            if self.name == "results.jsonl":
                self.unlink()  # the peer parked (and thus removed) it first
                raise FileNotFoundError(self)
            return real_rename(self, target)

        monkeypatch.setattr(Path, "rename", stolen_rename)
        store = open_store(tmp_path, engine="sqlite")  # must not raise
        assert store.completed_ids() == expected
        assert open_store(tmp_path).completed_ids() == expected


class TestOldShardedDirectory:
    """A directory in the retired sharded JSONL layout converts read-only."""

    def _old_directory(self, tmp_path):
        spec = small_spec()
        old = tmp_path / "old"
        expected = make_old_sharded_directory(
            old, [job.job_id for job in spec.expand()]
        )
        spec.save(old / "spec.json")
        return old, expected

    @pytest.mark.parametrize("engine", ["sqlite", "jsonl"])
    def test_migrate_store_converts_losslessly_read_only(
        self, tmp_path, capsys, engine
    ):
        old, expected = self._old_directory(tmp_path)
        before = {path.name: path.read_bytes() for path in old.iterdir()}
        new = tmp_path / "new"
        rc = main(["campaign", "migrate-store", str(old), str(new),
                   "--store", engine])
        out = capsys.readouterr().out
        assert rc == 0 and "4 copied" in out and f"engine    : {engine}" in out
        dst = open_store(new)
        assert dst.engine == engine
        assert {r["job_id"]: r for r in dst.records()} == expected
        assert dst.leases() == {}  # the live lease was not migrated
        leased = small_spec().expand()[4].job_id
        assert dst.claim([leased], "new-runner", ttl=60) == [leased]
        # the source was only read: same files, same bytes
        assert {path.name: path.read_bytes() for path in old.iterdir()} == before
        assert Campaign(new).status()["done"] == 3  # spec.json travelled

    def test_campaign_refuses_old_directory_naming_migrate_store(self, tmp_path):
        old, _ = self._old_directory(tmp_path)
        with pytest.raises(ValueError, match="migrate-store"):
            Campaign(old)
        with pytest.raises(ValueError, match="migrate-store"):
            open_store(old, engine="sqlite")
