"""Tests for the campaign orchestration subsystem."""

import json

import numpy as np
import pytest

from repro.campaign import (
    AlgorithmVariant,
    Campaign,
    CampaignRunner,
    CampaignSpec,
    Job,
    ResultStore,
    canonical_json,
    compare_labels,
    execute_job,
    run_job,
    summarize,
)
from repro.core import ConditionSet


def small_spec(**overrides) -> CampaignSpec:
    """A fast 2-algorithm x 1-function x 3-seed grid (6 jobs)."""
    kwargs = dict(
        name="test",
        algorithms=["DET", AlgorithmVariant("PC", {"k": 1.0}, label="PC(k=1)")],
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


class TestSpec:
    def test_expansion_is_deterministic_product(self):
        spec = small_spec()
        jobs = spec.expand()
        assert len(jobs) == 2 * 1 * 1 * 1 * 3
        assert jobs == spec.expand()
        assert [j.label for j in jobs[:3]] == ["DET"] * 3
        assert [j.seed for j in jobs[:3]] == [0, 1, 2]

    def test_job_ids_stable_and_distinct(self):
        jobs = small_spec().expand()
        ids = [j.job_id for j in jobs]
        assert len(set(ids)) == len(ids)
        assert ids == [j.job_id for j in small_spec().expand()]

    def test_job_id_changes_with_any_identity_field(self):
        base = small_spec().expand()[0]
        changed = small_spec(sigma0s=[2.0]).expand()[0]
        assert base.job_id != changed.job_id

    def test_duplicate_variant_labels_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            CampaignSpec(name="x", algorithms=["PC", "PC"])

    def test_spawned_seeds_deterministic_and_distinct(self):
        spec = small_spec(seeds=None, n_seeds=6, base_seed=7)
        seeds = spec.resolved_seeds()
        assert seeds == spec.resolved_seeds()
        assert len(set(seeds)) == 6
        assert seeds != small_spec(seeds=None, n_seeds=6, base_seed=8).resolved_seeds()

    def test_overrides_apply_where_matched(self):
        spec = small_spec(
            overrides=[{"where": {"label": "PC(k=1)", "seed": 1}, "options": {"k": 2.0}}]
        )
        by_key = {(j.label, j.seed): j for j in spec.expand()}
        assert by_key[("PC(k=1)", 1)].options == {"k": 2.0}
        assert by_key[("PC(k=1)", 0)].options == {"k": 1.0}
        assert by_key[("DET", 1)].options == {}

    def test_canonical_json_handles_rich_options(self):
        a = canonical_json({"conditions": ConditionSet.of(1, 3, 6), "k": 1.0})
        b = canonical_json({"k": 1.0, "conditions": ConditionSet.of(1, 3, 6)})
        assert a == b
        assert "ConditionSet" in a

    def test_spec_json_round_trip(self, tmp_path):
        spec = small_spec()
        path = spec.save(tmp_path / "spec.json")
        loaded = CampaignSpec.load(path)
        assert loaded.same_grid(spec)
        assert [j.job_id for j in loaded.expand()] == [j.job_id for j in spec.expand()]

    def test_save_rejects_rich_options(self, tmp_path):
        spec = small_spec(
            algorithms=[AlgorithmVariant("PC", {"conditions": ConditionSet.only(1)})]
        )
        spec.expand()  # rich options are fine in memory...
        with pytest.raises(ValueError, match="non-JSON options"):
            spec.save(tmp_path / "spec.json")  # ...but must not be persisted

    def test_save_rejects_rich_overrides(self, tmp_path):
        spec = small_spec(
            overrides=[{"where": {"seed": 0},
                        "options": {"conditions": ConditionSet.only(1)}}]
        )
        with pytest.raises(ValueError, match="override"):
            spec.save(tmp_path / "spec.json")


class TestResultStore:
    def test_requires_identity_fields(self):
        with pytest.raises(ValueError):
            ResultStore().record({"status": "done"})

    def test_memory_and_file_round_trip(self, tmp_path):
        for store in (ResultStore(), ResultStore(tmp_path / "r.jsonl")):
            store.record({"job_id": "a", "status": "done", "result": {"x": 1}})
            store.record({"job_id": "b", "status": "failed", "result": None})
            assert {r["job_id"] for r in store.records()} == {"a", "b"}
            assert store.completed_ids() == {"a"}
            assert [r["job_id"] for r in store.failed()] == ["b"]

    def test_last_record_wins(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.record({"job_id": "a", "status": "failed"})
        store.record({"job_id": "a", "status": "done"})
        assert len(store) == 1
        assert store.completed_ids() == {"a"}

    def test_truncated_tail_is_skipped(self, tmp_path):
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        store.record({"job_id": "a", "status": "done"})
        with open(path, "a") as fh:
            fh.write('{"job_id": "b", "stat')  # hard-kill artifact
        assert store.completed_ids() == {"a"}

    def test_append_after_truncated_tail_survives(self, tmp_path):
        path = tmp_path / "r.jsonl"
        ResultStore(path).record({"job_id": "a", "status": "done"})
        with open(path, "a") as fh:
            fh.write('{"job_id": "b", "stat')  # killed mid-write
        resumed = ResultStore(path)  # a fresh runner reopens the store
        resumed.record({"job_id": "c", "status": "done"})
        assert resumed.completed_ids() == {"a", "c"}

    def test_truncated_tail_healed_by_live_instance(self, tmp_path):
        """Multi-writer edge: another writer's kill truncates the tail
        *after* this store instance already appended — the tail check must
        re-run, not be cached once per instance."""
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        store.record({"job_id": "a", "status": "done"})
        with open(path, "a") as fh:
            fh.write('{"job_id": "b", "stat')  # peer killed mid-write
        store.record({"job_id": "c", "status": "done"})  # same live instance
        assert store.completed_ids() == {"a", "c"}

    def test_sees_appends_from_other_writers(self, tmp_path):
        """Cooperative draining: a store picks up records appended by a
        second store instance (another runner process) between reads."""
        path = tmp_path / "r.jsonl"
        reader = ResultStore(path)
        writer = ResultStore(path)
        writer.record({"job_id": "a", "status": "done"})
        assert reader.completed_ids() == {"a"}
        writer.record({"job_id": "b", "status": "done"})
        assert reader.completed_ids() == {"a", "b"}

    def test_returned_records_do_not_alias_the_cache(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.record({"job_id": "a", "status": "done", "result": {"v": 1}})
        rec = store.records()[0]
        rec["result"]["v"] = 999  # caller mutates a nested dict
        assert store.records()[0]["result"]["v"] == 1

    def test_partial_line_not_consumed_early(self, tmp_path):
        """An in-flight (unterminated) line is retried on the next scan,
        not half-parsed and lost."""
        path = tmp_path / "r.jsonl"
        store = ResultStore(path)
        store.record({"job_id": "a", "status": "done"})
        line = '{"job_id": "b", "status": "done"}\n'
        with open(path, "a") as fh:
            fh.write(line[:10])
            fh.flush()
            assert store.completed_ids() == {"a"}  # mid-write snapshot
            fh.write(line[10:])
        assert store.completed_ids() == {"a", "b"}


class TestCompaction:
    def _dup_store(self, tmp_path, n=4, dups=2):
        store = ResultStore(tmp_path / "r.jsonl")
        for _ in range(dups):
            for i in range(n):
                store.record({"job_id": f"j{i}", "status": "done", "result": {"v": i}})
        return store

    def test_compact_preserves_last_record_wins(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        store.record({"job_id": "a", "status": "failed", "result": None})
        store.record({"job_id": "b", "status": "done", "result": {"v": 2}})
        store.record({"job_id": "a", "status": "done", "result": {"v": 1}})
        before = store.records()
        stats = store.compact()
        assert stats.n_records_before == 3 and stats.n_records_after == 2
        assert store.records() == before
        assert store.completed_ids() == {"a", "b"}

    def test_compact_shrinks_duplicated_store(self, tmp_path):
        store = self._dup_store(tmp_path, n=6, dups=3)
        import os
        size_before = os.path.getsize(store.path)
        stats = store.compact()
        assert stats.bytes_before == size_before
        assert stats.bytes_after <= size_before // 2  # >= 2x duplicates removed
        assert os.path.getsize(store.path) == stats.bytes_after
        assert len(store.records()) == 6

    def test_compact_is_idempotent(self, tmp_path):
        store = self._dup_store(tmp_path)
        store.compact()
        first = store.path.read_bytes()
        stats = store.compact()
        assert store.path.read_bytes() == first
        assert stats.n_dropped == 0
        assert stats.bytes_before == stats.bytes_after

    def test_compact_drops_kill_artifacts(self, tmp_path):
        store = self._dup_store(tmp_path)
        with open(store.path, "a") as fh:
            fh.write('{"job_id": "x", "stat')  # truncated tail
        store.compact()
        raw = store.path.read_bytes()
        assert raw.endswith(b"\n")
        assert b'"x"' not in raw  # the artifact is gone, not healed into a record
        import json
        for line in raw.strip().splitlines():
            json.loads(line)  # every surviving line is valid JSON

    def test_compact_empty_and_missing_store(self, tmp_path):
        store = ResultStore(tmp_path / "r.jsonl")
        stats = store.compact()  # file never created
        assert stats.n_records_before == 0 and stats.n_records_after == 0

    def test_compact_in_memory_store(self):
        store = ResultStore()
        store.record({"job_id": "a", "status": "failed"})
        store.record({"job_id": "a", "status": "done"})
        stats = store.compact()
        assert stats.n_records_before == 2 and stats.n_records_after == 1
        assert store.completed_ids() == {"a"}

    def test_other_instance_survives_compaction(self, tmp_path):
        """A writer holding the pre-compaction file reopens and keeps
        appending to the fresh file (inode check), and a reader rescans."""
        path = tmp_path / "r.jsonl"
        writer = ResultStore(path)
        reader = ResultStore(path)
        writer.record({"job_id": "a", "status": "done"})
        writer.record({"job_id": "a", "status": "done"})
        assert reader.completed_ids() == {"a"}  # reader has cached offsets
        ResultStore(path).compact()  # a third process compacts
        writer.record({"job_id": "b", "status": "done"})  # stale writer appends
        assert reader.completed_ids() == {"a", "b"}
        assert ResultStore(path).completed_ids() == {"a", "b"}

    def test_compact_safe_against_concurrent_appender(self, tmp_path):
        """No record appended while compactions run is ever lost."""
        import threading

        path = tmp_path / "r.jsonl"
        main = ResultStore(path)
        main.record({"job_id": "seed", "status": "done"})

        def appender():
            store = ResultStore(path)
            for i in range(200):
                store.record({"job_id": f"t{i}", "status": "done"})

        thread = threading.Thread(target=appender)
        thread.start()
        for _ in range(20):
            main.compact()
        thread.join()
        main.compact()
        expected = {"seed"} | {f"t{i}" for i in range(200)}
        assert main.completed_ids() == expected


class TestExecution:
    def test_execute_job_deterministic(self):
        job = small_spec().expand()[0]
        r1 = execute_job(job)
        r2 = execute_job(job)
        assert r1.best_true == r2.best_true
        assert np.array_equal(r1.best_theta, r2.best_theta)

    def test_run_job_packages_success(self):
        job = small_spec().expand()[0]
        rec = run_job(job)
        assert rec["status"] == "done"
        assert rec["job_id"] == job.job_id
        assert rec["error"] is None
        json.dumps(rec)  # plain-JSON serializable end to end

    def test_run_job_packages_failure(self):
        job = Job(
            campaign="t", label="PC", algorithm="PC", function="sphere",
            dim=2, sigma0=1.0, seed=0, max_steps=40, walltime=1e3,
            options={"bogus_option": 1},
        )
        rec = run_job(job)
        assert rec["status"] == "failed"
        assert "bogus_option" in rec["error"]
        assert rec["result"] is None


class TestRunner:
    def test_serial_run_completes_grid(self):
        spec = small_spec()
        store = ResultStore()
        report = CampaignRunner(spec, store).run()
        assert report.n_done == 6 and report.n_failed == 0
        assert report.n_remaining == 0
        assert store.completed_ids() == {j.job_id for j in spec.expand()}

    def test_resume_skips_completed_jobs(self, tmp_path, result_lines):
        spec = small_spec()
        store = ResultStore(tmp_path / "r.jsonl")
        first = CampaignRunner(spec, store).run(max_jobs=2)
        assert first.n_done == 2 and first.n_remaining == 4
        second = CampaignRunner(spec, store).run()
        assert second.n_skipped == 2 and second.n_done == 4
        # every job recorded exactly once: nothing was re-executed
        assert result_lines(tmp_path / "r.jsonl") == 6

    def test_interrupted_store_identical_to_uninterrupted(self, tmp_path):
        """Satellite: kill mid-campaign (max-jobs cutoff), re-run, compare."""
        spec = small_spec()
        interrupted = ResultStore(tmp_path / "interrupted.jsonl")
        CampaignRunner(spec, interrupted, backend="serial").run(max_jobs=3)
        CampaignRunner(spec, interrupted, backend="serial").run()
        reference = ResultStore(tmp_path / "reference.jsonl")
        CampaignRunner(spec, reference, backend="serial").run()

        def results_by_id(store):
            return {r["job_id"]: r["result"] for r in store.records()}

        assert results_by_id(interrupted) == results_by_id(reference)

    def test_failed_jobs_are_retried_on_resume(self):
        spec = small_spec(
            overrides=[{"where": {"seed": 1, "label": "DET"}, "options": {"bogus": 1}}]
        )
        store = ResultStore()
        report = CampaignRunner(spec, store).run()
        assert report.n_failed == 1
        runner = CampaignRunner(spec, store)
        assert len(runner.pending()) == 1  # the failed job stays pending
        assert runner.run().n_failed == 1  # still broken, still retried


class TestCampaignFacade:
    def test_creates_and_reopens_directory(self, tmp_path):
        spec = small_spec()
        campaign = Campaign(tmp_path / "c", spec=spec)
        assert (tmp_path / "c" / "spec.json").exists()
        campaign.run(max_jobs=2)
        reopened = Campaign(tmp_path / "c")  # no spec needed
        status = reopened.status()
        assert status["n_jobs"] == 6 and status["done"] == 2 and status["pending"] == 4

    def test_rejects_conflicting_spec(self, tmp_path):
        Campaign(tmp_path / "c", spec=small_spec())
        with pytest.raises(ValueError, match="different spec"):
            Campaign(tmp_path / "c", spec=small_spec(sigma0s=[2.0]))

    def test_missing_spec_is_an_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Campaign(tmp_path / "nowhere")


class TestAggregation:
    @pytest.fixture(scope="class")
    def completed_store(self):
        store = ResultStore()
        CampaignRunner(small_spec(), store).run()
        return store

    def test_summarize_cells(self, completed_store):
        summaries = summarize(completed_store.completed())
        assert len(summaries) == 2
        by_label = {s.label: s for s in summaries}
        assert set(by_label) == {"DET", "PC(k=1)"}
        for s in summaries:
            assert s.n_jobs == 3
            assert 0.0 <= s.success_rate <= 1.0
            assert s.mean_final_true >= 0.0 or s.function != "sphere"
            assert s.mean_calls > 0
            assert len(s.as_row()) == len(s.header())

    def test_compare_labels_pairs_by_seed(self, completed_store):
        cmp = compare_labels(completed_store.completed(), "PC(k=1)", "DET")
        assert cmp.n_pairs == 3
        assert cmp.log_ratios.shape == (3,)
        assert cmp.sign.n_effective + cmp.sign.n_ties == 3
        assert cmp.median_ci is not None

    def test_compare_unknown_label_raises(self, completed_store):
        with pytest.raises(ValueError, match="no shared seeds"):
            compare_labels(completed_store.completed(), "PC(k=1)", "NOPE")

    def test_compare_refuses_to_pool_across_cells(self):
        store = ResultStore()
        CampaignRunner(small_spec(sigma0s=[1.0, 2.0]), store).run()
        completed = store.completed()
        with pytest.raises(ValueError, match="pooled=True"):
            compare_labels(completed, "PC(k=1)", "DET")
        narrowed = compare_labels(completed, "PC(k=1)", "DET", sigma0=1.0)
        assert narrowed.n_pairs == 3
        pooled = compare_labels(completed, "PC(k=1)", "DET", pooled=True)
        assert pooled.n_pairs == 6

    def test_paired_minima_in_natural_seed_order(self):
        from repro.campaign import execute_job, paired_minima_from_records

        spec = small_spec(seeds=list(range(11)))  # seed 10 sorts after 9, not after 1
        store = ResultStore()
        CampaignRunner(spec, store).run()
        mins_det, _ = paired_minima_from_records(store.completed(), "DET", "PC(k=1)")
        by_seed = [
            max(execute_job(j).best_true, 0.0)
            for j in spec.expand() if j.label == "DET"
        ]
        assert mins_det.tolist() == by_seed

    def test_status_counts_partition_total(self, tmp_path):
        spec = small_spec(
            overrides=[{"where": {"seed": 1, "label": "DET"}, "options": {"bogus": 1}}]
        )
        campaign = Campaign(tmp_path / "c", spec=spec)
        campaign.run()
        status = campaign.status()
        assert status["done"] + status["failed"] + status["pending"] == status["n_jobs"]
        assert status["failed"] == 1 and status["pending"] == 0
