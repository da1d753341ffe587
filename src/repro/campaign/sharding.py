"""Sharded result stores for multi-million-job campaigns.

One ``results.jsonl`` serializes every append through a single ``flock``
— fine for thousands of jobs, a bottleneck when dozens of runners drain
millions.  A :class:`ShardedResultStore` spreads the identical JSONL
format (result records + lease lines, see :mod:`repro.campaign.store`)
over ``results-<k>.jsonl`` files, routing each record by a stable hash
of its job id, with a small ``store-manifest.json`` pinning the shard
count.  Every property of the single-file store holds *per shard*:
appends contend only within a shard, incremental reads and the
truncated-tail heal are per-shard (a torn write on one shard never
blocks reads of the others), compaction rewrites shards independently,
and batch claims partition naturally because a claim touches only the
shards its job ids hash to.

The shard of a job is a pure function of (job id, shard count), so every
runner, watcher, and aggregator agrees on the layout with no
coordination beyond the manifest.  Aggregate views (``records``,
``status``, ``summary``, ``compare``) are byte-for-byte insensitive to
the layout: a sharded store round-trips them identically to the legacy
single file.

:func:`open_store` is the single resolution point the campaign façade
and CLI use: it detects an existing layout (manifest beats legacy file,
and the manifest's ``engine`` field picks the implementation — JSONL or
:class:`~repro.campaign.backends.sqlite.SQLiteStoreBackend`), creates
the requested one, and — via :func:`migrate_legacy_store` — losslessly
and idempotently upgrades a legacy ``results.jsonl`` campaign directory
in place when a shard count is requested.  :func:`migrate_store` copies
any store into a *fresh* directory under any engine or shard count (the
resharding and jsonl↔sqlite conversion tool behind ``campaign
migrate-store``).
"""

from __future__ import annotations

import hashlib
import json
import os
import uuid
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.campaign.backends import (
    ENGINE_JSONL,
    ENGINE_SQLITE,
    ENGINE_STORE,
    SQLiteStoreBackend,
    is_store_url,
    open_network_store,
)
from repro.campaign.backends.base import StoreBackend
from repro.campaign.store import CompactionStats, Lease, ResultStore

#: Manifest file pinning a directory's store engine (and shard layout).
MANIFEST_FILENAME = "store-manifest.json"
#: The single-file layout this module migrates away from.
LEGACY_RESULTS_FILENAME = "results.jsonl"
#: Suffix the migrated legacy file is parked under (kept, not deleted).
MIGRATED_SUFFIX = ".migrated"
#: The campaign spec file copied along by :func:`migrate_store`.
_SPEC_FILENAME = "spec.json"

_MANIFEST_VERSION = 1


def read_manifest(directory) -> Optional[dict]:
    """The parsed ``store-manifest.json`` of ``directory``, or ``None``.

    Manifests written before engines existed carry no ``engine`` field;
    they are reported as ``jsonl`` (the only engine that existed then).
    """
    path = Path(directory) / MANIFEST_FILENAME
    if not path.exists():
        return None
    manifest = json.loads(path.read_text())
    manifest.setdefault("engine", ENGINE_JSONL)
    return manifest


def ensure_manifest(directory, engine: str, n_shards: Optional[int] = None) -> dict:
    """Validate or create ``directory``'s manifest for ``engine``.

    An existing manifest must name the same engine — the representations
    cannot coexist, so reopening a directory under a different engine is
    a hard error pointing at ``campaign migrate-store``.  Returns the
    (existing or freshly written) manifest dict.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = read_manifest(directory)
    if manifest is not None:
        if manifest["engine"] != engine:
            raise ValueError(
                f"store at {directory} uses the {manifest['engine']!r} "
                f"engine; cannot reopen it as {engine!r} — use "
                f"'campaign migrate-store' to convert"
            )
        return manifest
    manifest = {"version": _MANIFEST_VERSION, "engine": engine}
    if engine == ENGINE_JSONL:
        manifest.update({"n_shards": int(n_shards), "hash": "sha1"})
    _write_manifest_file(directory / MANIFEST_FILENAME, manifest)
    return manifest


def _write_manifest_file(path: Path, manifest: dict) -> None:
    """Atomically create the manifest (concurrent creators converge).

    The temp name is unique per *writer*, not per process: two threads of
    one process sharing a name would interleave writes into one temp file
    and the loser's ``os.replace`` would find it already moved.
    """
    payload = json.dumps(manifest, sort_keys=True) + "\n"
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}.{uuid.uuid4().hex}")
    tmp.write_text(payload)
    os.replace(tmp, path)


def shard_filename(index: int) -> str:
    """The JSONL filename of shard ``index`` (``results-<k>.jsonl``)."""
    return f"results-{index}.jsonl"


def shard_index(job_id: str, n_shards: int) -> int:
    """Stable shard of ``job_id`` among ``n_shards``.

    SHA-1 based (like job ids themselves), so the routing is identical
    across processes, hosts, and Python versions — never ``hash()``,
    which is salted per process.
    """
    digest = hashlib.sha1(job_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") % n_shards


class ShardedResultStore(StoreBackend):
    """The :class:`~repro.campaign.store.ResultStore` API over N shards.

    Parameters
    ----------
    directory:
        Campaign directory holding ``store-manifest.json`` and the
        ``results-<k>.jsonl`` shard files (created as needed).  The
        manifest must name the ``jsonl`` engine (or predate engines).
    n_shards:
        Shard count when creating a fresh layout.  When a manifest
        already exists it wins; passing a *different* explicit count is
        an error (resharding means :func:`migrate_store` into a fresh
        directory).
    """

    #: Latency series label: the wrapper reports as ``"sharded"`` and the
    #: inner per-shard stores are silenced, so shard fan-out is measured
    #: once, at the layer the runner actually calls.
    metrics_engine = "sharded"

    def __init__(self, directory, n_shards: Optional[int] = None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        manifest = read_manifest(self.directory)
        if manifest is not None:
            if manifest["engine"] != ENGINE_JSONL:
                raise ValueError(
                    f"store at {self.directory} uses the "
                    f"{manifest['engine']!r} engine; cannot open it as "
                    f"sharded jsonl — use 'campaign migrate-store' to convert"
                )
            existing = int(manifest["n_shards"])
            if n_shards is not None and int(n_shards) != existing:
                raise ValueError(
                    f"store at {self.directory} is already sharded into "
                    f"{existing} shards; cannot reopen with n_shards={n_shards}"
                )
            n_shards = existing
        else:
            if n_shards is None:
                raise ValueError(
                    f"no {MANIFEST_FILENAME} in {self.directory} and no "
                    f"n_shards given"
                )
            if int(n_shards) < 1:
                raise ValueError(f"n_shards must be >= 1, got {n_shards}")
            ensure_manifest(self.directory, ENGINE_JSONL, n_shards=int(n_shards))
        self.n_shards = int(n_shards)
        self.shards: List[ResultStore] = [
            ResultStore(self.directory / shard_filename(k))
            for k in range(self.n_shards)
        ]
        from repro.telemetry import NULL_TELEMETRY

        for shard in self.shards:
            shard.telemetry = NULL_TELEMETRY  # the wrapper reports, not each shard

    @property
    def path(self) -> Path:
        """The directory holding the shards (display / identification)."""
        return self.directory

    def shard_for(self, job_id: str) -> ResultStore:
        """The shard store a job's records live in."""
        return self.shards[shard_index(job_id, self.n_shards)]

    def _group_by_shard(self, job_ids: Sequence[str]) -> Dict[int, List[str]]:
        groups: Dict[int, List[str]] = {}
        for jid in job_ids:
            groups.setdefault(shard_index(jid, self.n_shards), []).append(jid)
        return groups

    # -- the ResultStore API, fanned out ----------------------------------

    def record(self, record: dict) -> None:
        """Append one job record to the shard its ``job_id`` hashes to."""
        if "job_id" not in record or "status" not in record:
            raise ValueError("record needs 'job_id' and 'status' fields")
        with self._timed("append"):
            self.shard_for(record["job_id"]).record(record)

    def record_many(self, records: Sequence[dict]) -> None:
        """Append a batch of records, one locked write per touched shard."""
        groups: Dict[int, List[dict]] = {}
        for rec in records:
            if "job_id" not in rec or "status" not in rec:
                raise ValueError("record needs 'job_id' and 'status' fields")
            index = shard_index(rec["job_id"], self.n_shards)
            groups.setdefault(index, []).append(rec)
        with self._timed("append"):
            for index, recs in groups.items():
                self.shards[index].record_many(recs)

    def records(self) -> List[dict]:
        """All result records across shards, deduplicated per job id.

        Order is shard-major (shard 0's records first), first appearance
        within each shard — stable, but different from a single file's
        append order; every aggregate consumer (status/summary/compare)
        is order-insensitive.
        """
        out: List[dict] = []
        for shard in self.shards:
            out.extend(shard.records())
        return out

    def completed(self) -> List[dict]:
        """Records of jobs that finished successfully, across shards."""
        out: List[dict] = []
        for shard in self.shards:
            out.extend(shard.completed())
        return out

    def failed(self) -> List[dict]:
        """Latest-attempt failure records across shards."""
        out: List[dict] = []
        for shard in self.shards:
            out.extend(shard.failed())
        return out

    def completed_ids(self) -> Set[str]:
        """Ids of successfully finished jobs (the resume skip-set)."""
        out: Set[str] = set()
        for shard in self.shards:
            out |= shard.completed_ids()
        return out

    def claim(
        self,
        job_ids: Sequence[str],
        runner: str,
        ttl: float,
        now: Optional[float] = None,
    ) -> List[str]:
        """Claim the free subset of ``job_ids``; see :meth:`ResultStore.claim`.

        Each shard's portion is claimed under that shard's own lock, so a
        batch claim touches only the shards it hashes to and concurrent
        claimants contend per shard, not globally.  Granted ids are
        returned in input order.
        """
        granted: Set[str] = set()
        with self._timed("claim"):
            for index, ids in self._group_by_shard(job_ids).items():
                granted.update(self.shards[index].claim(ids, runner, ttl, now=now))
        return [jid for jid in job_ids if jid in granted]

    def renew(
        self,
        job_ids: Sequence[str],
        runner: str,
        ttl: float,
        now: Optional[float] = None,
    ) -> List[str]:
        """Extend still-held leases; see :meth:`ResultStore.renew`."""
        renewed: Set[str] = set()
        for index, ids in self._group_by_shard(job_ids).items():
            renewed.update(self.shards[index].renew(ids, runner, ttl, now=now))
        return [jid for jid in job_ids if jid in renewed]

    def release(self, job_ids: Sequence[str], runner: str) -> None:
        """Give up held claims; see :meth:`ResultStore.release`."""
        for index, ids in self._group_by_shard(job_ids).items():
            self.shards[index].release(ids, runner)

    def leases(self, now: Optional[float] = None) -> Dict[str, Lease]:
        """Live (claimed, unexpired) leases across all shards."""
        live: Dict[str, Lease] = {}
        for shard in self.shards:
            live.update(shard.leases(now=now))
        return live

    def compact(self, now: Optional[float] = None) -> CompactionStats:
        """Compact every shard independently; returns the summed stats.

        Shard rewrites are not one atomic operation, but each shard's is,
        and shards share no job ids — an interruption leaves some shards
        compacted and the rest untouched, all valid.
        """
        stats = CompactionStats(0, 0, 0, 0)
        with self._timed("compact"):
            for shard in self.shards:
                stats = stats + shard.compact(now=now)
        return stats

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardedResultStore {self.directory} "
            f"shards={self.n_shards} n={len(self)}>"
        )


def _fold_legacy_file(store: StoreBackend, directory: Path) -> StoreBackend:
    """Fold a leftover legacy ``results.jsonl`` into ``store`` and park it.

    The shared tail of every in-place migration: the legacy file's
    deduplicated records are appended (last-record-wins makes this
    idempotent, including after a crash between the fold and the
    rename), then the file is renamed to ``results.jsonl.migrated`` so
    nothing re-reads it.  A concurrent migrator may win the rename race;
    its fold equals ours, so losing it is fine.
    """
    legacy = directory / LEGACY_RESULTS_FILENAME
    if legacy.exists():
        _copy_records(ResultStore(legacy), store)
        try:
            legacy.rename(legacy.with_name(legacy.name + MIGRATED_SUFFIX))
        except FileNotFoundError:
            pass  # a concurrent migrator parked it first; their fold == ours
    return store


def _copy_records(src: StoreBackend, dst: StoreBackend, batch: int = 1000) -> int:
    """Append ``src``'s deduplicated records to ``dst`` in batches.

    ``record_many`` batches bound the engine-side critical section (one
    locked write / transaction per chunk, not per record).  Returns how
    many records were copied.
    """
    records = src.records()
    for start in range(0, len(records), batch):
        dst.record_many(records[start:start + batch])
    return len(records)


def migrate_legacy_store(directory, n_shards: Optional[int] = None) -> ShardedResultStore:
    """Upgrade a legacy single-file store to the sharded layout, in place.

    Folds the deduplicated result records of ``results.jsonl`` into the
    shards (creating the manifest if needed), then parks the legacy file
    as ``results.jsonl.migrated`` so nothing re-reads it.  Lossless: the
    sharded store's deduplicated records equal the legacy store's
    (truncated-tail artifacts were never records to begin with).
    Idempotent: appends dedup last-record-wins, so re-running — including
    after a crash between the fold and the rename — converges to the
    same store.  In-flight lease lines are *not* migrated (migrate when
    no runner is active; an abandoned claim would only have expired
    anyway).  Run it directly, or implicitly via :func:`open_store` with
    a ``shards`` count on a legacy directory.
    """
    directory = Path(directory)
    sharded = ShardedResultStore(directory, n_shards=n_shards)
    _fold_legacy_file(sharded, directory)
    return sharded


def open_store(directory, shards: Optional[int] = None,
               engine: Optional[str] = None) -> StoreBackend:
    """Resolve a campaign directory's result store (any engine, any layout).

    The single resolution point used by the campaign façade and the CLI:

    * an ``engine`` that is a ``store://host:port`` URL opens the
      network client (:func:`~repro.campaign.backends.netstore.
      open_network_store`), pinning the directory's manifest to the
      server so later opens reconnect without the URL;
    * a ``store-manifest.json`` wins — its ``engine`` field picks the
      implementation (``sqlite`` → :class:`SQLiteStoreBackend`,
      ``jsonl`` → :class:`ShardedResultStore`, ``store`` → the network
      client at the manifest's URL), and an interrupted migration's
      leftover legacy file is folded in first.  Passing a *different*
      explicit ``engine`` is an error pointing at ``campaign
      migrate-store``.
    * otherwise, ``engine="sqlite"`` creates the SQLite store —
      migrating a legacy ``results.jsonl`` in place if one exists;
    * otherwise, ``shards=N`` requests the sharded JSONL layout — a
      fresh one, or a migration of the legacy file;
    * otherwise the legacy single-file store, which is also the default
      for brand-new directories (small campaigns stay simple).

    Returns a :class:`~repro.campaign.backends.base.StoreBackend`; all
    engines expose the same interface.
    """
    directory = Path(directory)
    if engine is not None and is_store_url(engine):
        if shards is not None:
            raise ValueError(
                f"the store:// engine has no shard count (got shards={shards}); "
                f"sharding is the server's business"
            )
        return open_network_store(engine, directory=directory)
    manifest = read_manifest(directory)
    existing_engine = None if manifest is None else manifest["engine"]
    if existing_engine == ENGINE_STORE:
        if engine is not None:
            raise ValueError(
                f"store at {directory} already uses the {ENGINE_STORE!r} "
                f"engine (server {manifest.get('url')!r}); cannot open it "
                f"as {engine!r} — use 'campaign migrate-store' to convert"
            )
        if shards is not None:
            raise ValueError(
                f"the store:// engine has no shard count (got shards={shards})"
            )
        return open_network_store(manifest["url"], directory=directory)
    if engine is None and shards is not None:
        engine = ENGINE_JSONL  # a shard count implies the jsonl engine
    if engine is not None and existing_engine is not None and engine != existing_engine:
        raise ValueError(
            f"store at {directory} already uses the {existing_engine!r} "
            f"engine; cannot open it as {engine!r} — use "
            f"'campaign migrate-store' to convert"
        )
    engine = engine if existing_engine is None else existing_engine
    if engine == ENGINE_SQLITE:
        if shards is not None:
            raise ValueError(
                f"the sqlite engine has no shard count (got shards={shards})"
            )
        return _fold_legacy_file(SQLiteStoreBackend(directory), directory)
    if existing_engine is not None:
        if (directory / LEGACY_RESULTS_FILENAME).exists():
            return migrate_legacy_store(directory, shards)
        return ShardedResultStore(directory, n_shards=shards)
    if shards is not None:
        return migrate_legacy_store(directory, int(shards))
    return ResultStore(directory / LEGACY_RESULTS_FILENAME)


def migrate_store(source, dest, engine: Optional[str] = None,
                  shards: Optional[int] = None) -> Tuple[StoreBackend, int]:
    """Copy a campaign store into a fresh directory under a new engine/layout.

    The tool behind ``campaign migrate-store``: resharding
    (``engine="jsonl"`` with a new ``shards`` count) and engine
    conversion (jsonl ↔ sqlite) are the same operation — open the source
    read-only, open (or create) the destination with the requested
    engine, and append the source's deduplicated records in
    first-appearance order.  Lossless down to the bytes: records travel
    as canonical sorted-key JSON in every engine, so a jsonl → sqlite →
    jsonl round trip reproduces the compacted source byte-for-byte.
    Idempotent: re-running after an interruption converges (appends
    dedup last-record-wins).  In-flight leases are *not* migrated —
    migrate when no runner is active.  ``spec.json`` is copied verbatim
    when the source has one and the destination does not.

    Returns ``(destination store, records copied)``.
    """
    source, dest = Path(source), Path(dest)
    if source.resolve() == dest.resolve():
        raise ValueError(
            f"migrate-store needs a fresh destination directory, got the "
            f"source itself ({source})"
        )
    if read_manifest(source) is None and not (source / LEGACY_RESULTS_FILENAME).exists():
        raise ValueError(f"no campaign store at {source}")
    src_store = open_store(source)
    dst_store = open_store(dest, shards=shards, engine=engine)
    n_copied = _copy_records(src_store, dst_store)
    src_spec = source / _SPEC_FILENAME
    dst_spec = dest / _SPEC_FILENAME
    if src_spec.exists() and not dst_spec.exists():
        dst_spec.write_bytes(src_spec.read_bytes())
    return dst_store, n_copied
