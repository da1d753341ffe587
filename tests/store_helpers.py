"""Shared store-engine helpers for backend-parity tests.

A module (not conftest) so test files can import it by a unique name —
``import conftest`` is ambiguous from the repo root, where
``benchmarks/conftest.py`` also exists.
"""

from pathlib import Path

#: Local store engines every backend-parity test runs against: the
#: single JSONL file and the SQLite database.
STORE_BACKENDS = ("jsonl", "sqlite")


def open_store_backend(engine, directory):
    """Open a store instance of ``engine`` over ``directory``.

    Shared by the ``store_backend`` fixture and the hypothesis store-op
    properties (which build fresh stores per example, where a
    function-scoped fixture cannot).  Calling it again on the same
    directory reopens the same underlying store — two instances model
    two runner processes.
    """
    from repro.campaign import ResultStore, SQLiteStoreBackend

    directory = Path(directory)
    if engine == "jsonl":
        return ResultStore(directory / "results.jsonl")
    if engine == "sqlite":
        return SQLiteStoreBackend(directory)
    raise ValueError(f"unknown store backend {engine!r}")


def make_old_sharded_directory(directory, job_ids):
    """Build, by hand, a directory in the retired sharded JSONL layout.

    Three ``results-<k>.jsonl`` shards written with ``ResultStore``: shard
    0 holds a retried job (a failure superseded by a success) and one
    more result, shard 1 a result followed by a torn final line, shard 2
    a result and a live lease on a fifth job.  ``job_ids`` needs five
    ids.  Returns the deduplicated records by job id that a lossless
    conversion must reproduce (the lease and the torn line are not
    records).
    """
    import json

    from repro.campaign import ResultStore

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"version": 1, "engine": "jsonl", "n_shards": 3, "hash": "sha1"}
    (directory / "store-manifest.json").write_text(
        json.dumps(manifest, sort_keys=True) + "\n"
    )
    a, b, c, d, leased = job_ids[:5]
    shards = [ResultStore(directory / f"results-{k}.jsonl") for k in range(3)]
    shards[0].record({"job_id": a, "status": "failed", "result": None})
    shards[0].record({"job_id": a, "status": "done", "result": {"v": 0}})
    shards[0].record({"job_id": b, "status": "done", "result": {"v": 1}})
    shards[1].record({"job_id": c, "status": "done", "result": {"v": 2}})
    with open(shards[1].path, "a") as fh:
        fh.write('{"job_id": "torn", "stat')  # a hard kill mid-write
    shards[2].record({"job_id": d, "status": "failed", "result": None})
    shards[2].claim([leased], "old-runner", ttl=3600)
    return {
        a: {"job_id": a, "status": "done", "result": {"v": 0}},
        b: {"job_id": b, "status": "done", "result": {"v": 1}},
        c: {"job_id": c, "status": "done", "result": {"v": 2}},
        d: {"job_id": d, "status": "failed", "result": None},
    }
