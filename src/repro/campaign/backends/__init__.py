"""Pluggable result-store engines behind the :class:`StoreBackend` contract.

The campaign layer talks to its durable substrate through exactly one
seam — :class:`~repro.campaign.backends.base.StoreBackend` — and this
package owns that seam plus the engines that implement it:

* ``jsonl`` — :class:`~repro.campaign.store.ResultStore`, one
  append-only ``results.jsonl`` coordinated by ``flock`` (the default
  for new directories);
* ``sqlite`` — :class:`~repro.campaign.backends.sqlite.SQLiteStoreBackend`,
  one WAL-mode database coordinated by transactions;
* ``store://host:port`` —
  :class:`~repro.campaign.backends.netstore.NetworkStoreBackend`, a
  framed-TCP client of a ``campaign store-serve`` process
  (:class:`~repro.campaign.backends.netstore.StoreServer`), for runners
  with *no shared filesystem* at all.

A campaign directory's engine is pinned by the ``engine`` field of its
``store-manifest.json`` (``jsonl`` directories have none) and resolved
by :func:`open_store`; users select one with ``campaign run --store
jsonl|sqlite|store://host:port`` (parsed by :func:`parse_store_spec`)
and convert between local engines with ``campaign migrate-store``
(:func:`migrate_store`).
"""

from pathlib import Path
from typing import List, Optional, Tuple

from repro._lazy import lazy_exports as _lazy_exports
from repro.campaign.backends.base import (
    ENGINE_STORE,
    LEASE_STATUSES,
    MANIFEST_FILENAME,
    STATUS_CLAIMED,
    STATUS_DONE,
    STATUS_FAILED,
    STATUS_RELEASED,
    CompactionStats,
    Lease,
    StoreBackend,
    is_store_url,
    read_manifest,
)

# The engines are imported where they are opened, and re-exported
# lazily.  Every module of the store layer imports backends.base, which
# runs this package first: a campaign worker needs only the record
# statuses, and a top-level import of the jsonl engine
# (repro.campaign.store) here would be a cycle whenever that module is
# the first one imported.
__getattr__, __dir__ = _lazy_exports(__name__, {
    "repro.campaign.backends.netstore": (
        "NetworkStoreBackend",
        "NetworkStoreError",
        "StoreServer",
        "open_network_store",
        "parse_store_url",
    ),
    "repro.campaign.backends.sqlite": (
        "DB_FILENAME",
        "SQLiteStoreBackend",
    ),
})

#: The single-file JSONL engine.
ENGINE_JSONL = "jsonl"
#: The SQLite engine.
ENGINE_SQLITE = "sqlite"
#: Every engine a store manifest (or ``--store``) may name
#: (``ENGINE_STORE`` appears in specs as a full ``store://host:port`` URL).
STORE_ENGINES = (ENGINE_JSONL, ENGINE_SQLITE, ENGINE_STORE)

#: The JSONL engine's file, and the file an in-place migration parks.
LEGACY_RESULTS_FILENAME = "results.jsonl"
#: Suffix the migrated legacy file is parked under (kept, not deleted).
MIGRATED_SUFFIX = ".migrated"
#: The campaign spec file copied along by :func:`migrate_store`.
_SPEC_FILENAME = "spec.json"


def parse_store_spec(spec):
    """Parse a ``--store`` engine spec into the engine to open.

    Accepted forms: ``"jsonl"``, ``"sqlite"``, ``"store://host:port"``
    (the network engine — returned whole, since the address is part of
    the selection); ``None`` passes through (auto-detect / default).
    Raises ``ValueError`` on anything else, so a typo'd CLI flag fails
    before any store is touched.
    """
    if spec is None:
        return None
    if is_store_url(spec):
        from repro.campaign.backends.netstore import parse_store_url

        parse_store_url(spec)  # validate host:port up front
        return str(spec)
    if spec in (ENGINE_JSONL, ENGINE_SQLITE):
        return spec
    raise ValueError(
        f"unknown store engine {spec!r}; expected one of "
        f"{STORE_ENGINES} (store as store://host:port)"
    )


def _fold_legacy_file(store: StoreBackend, directory: Path) -> StoreBackend:
    """Fold a leftover legacy ``results.jsonl`` into ``store`` and park it.

    The in-place migration behind ``--store sqlite`` on a jsonl
    directory: the legacy file's deduplicated records are appended
    (last-record-wins makes this idempotent, including after a crash
    between the fold and the rename), then the file is renamed to
    ``results.jsonl.migrated`` so nothing re-reads it.  A concurrent
    migrator may win the rename race; its fold equals ours, so losing it
    is fine.  In-flight lease lines are *not* migrated.
    """
    from repro.campaign.store import ResultStore

    legacy = directory / LEGACY_RESULTS_FILENAME
    if legacy.exists():
        _copy_records(ResultStore(legacy).records(), store)
        try:
            legacy.rename(legacy.with_name(legacy.name + MIGRATED_SUFFIX))
        except FileNotFoundError:
            pass  # a concurrent migrator parked it first; their fold == ours
    return store


def _copy_records(records: List[dict], dst: StoreBackend, batch: int = 1000) -> int:
    """Append ``records`` to ``dst`` in batches; returns how many.

    ``record_many`` batches bound the engine-side critical section (one
    locked write / transaction per chunk, not per record).
    """
    for start in range(0, len(records), batch):
        dst.record_many(records[start:start + batch])
    return len(records)


def _is_old_sharded(manifest: Optional[dict]) -> bool:
    """Whether ``manifest`` pins the retired sharded JSONL layout.

    The ``jsonl`` engine writes no manifest, so a manifest naming it
    (with the ``n_shards`` count of its ``results-<k>.jsonl`` files) can
    only come from a directory created by an older version.
    """
    return manifest is not None and manifest["engine"] == ENGINE_JSONL


def _old_sharded_records(directory: Path, manifest: dict) -> List[dict]:
    """Read-only: the records of an old sharded JSONL directory.

    Every job id hashed to exactly one ``results-<k>.jsonl`` shard, so
    concatenating the per-shard deduplicated records is the directory's
    record set (lease lines and a torn final line are skipped, as in any
    JSONL read).  Nothing in ``directory`` is written.
    """
    from repro.campaign.store import ResultStore

    records: List[dict] = []
    for k in range(int(manifest["n_shards"])):
        records.extend(ResultStore(directory / f"results-{k}.jsonl").records())
    return records


def open_store(directory, engine: Optional[str] = None) -> StoreBackend:
    """Resolve a campaign directory's result store (any engine).

    The single resolution point used by the campaign façade and the CLI:

    * an ``engine`` that is a ``store://host:port`` URL opens the
      network client (:func:`~repro.campaign.backends.netstore.
      open_network_store`), pinning the directory's manifest to the
      server so later opens reconnect without the URL;
    * a ``store-manifest.json`` wins — ``sqlite`` opens
      :class:`SQLiteStoreBackend` (folding in an interrupted migration's
      leftover legacy file first), ``store`` the network client at the
      manifest's URL.  Passing a *different* explicit ``engine`` is an
      error pointing at ``campaign migrate-store``;
    * otherwise, ``engine="sqlite"`` creates the SQLite store —
      migrating a legacy ``results.jsonl`` in place if one exists;
    * otherwise the single-file JSONL store, which is also the default
      for brand-new directories (small campaigns stay simple).

    A directory in the retired sharded layout is refused with a pointer
    at ``campaign migrate-store``, which reads it.  Returns a
    :class:`~repro.campaign.backends.base.StoreBackend`; all engines
    expose the same interface.
    """
    from repro.campaign.backends.netstore import open_network_store

    directory = Path(directory)
    if engine is not None and is_store_url(engine):
        return open_network_store(engine, directory=directory)
    manifest = read_manifest(directory)
    if _is_old_sharded(manifest):
        raise ValueError(
            f"store at {directory} uses the old sharded jsonl layout "
            f"({manifest.get('n_shards')} results-<k>.jsonl shards), which "
            f"this version only reads to convert it: run 'campaign "
            f"migrate-store {directory} DST --store sqlite|jsonl'"
        )
    existing = None if manifest is None else manifest["engine"]
    if engine is not None and existing is not None and engine != existing:
        raise ValueError(
            f"store at {directory} already uses the {existing!r} "
            f"engine; cannot open it as {engine!r} — use "
            f"'campaign migrate-store' to convert"
        )
    if existing == ENGINE_STORE:
        return open_network_store(manifest["url"], directory=directory)
    if (existing or engine) == ENGINE_SQLITE:
        from repro.campaign.backends.sqlite import SQLiteStoreBackend

        return _fold_legacy_file(SQLiteStoreBackend(directory), directory)
    if existing is not None or engine not in (None, ENGINE_JSONL):
        raise ValueError(f"unknown store engine {existing or engine!r}")
    from repro.campaign.store import ResultStore

    return ResultStore(directory / LEGACY_RESULTS_FILENAME)


def migrate_store(source, dest, engine: Optional[str] = None) -> Tuple[StoreBackend, int]:
    """Copy a campaign store into a fresh directory under a new engine.

    The tool behind ``campaign migrate-store``: open the source
    read-only, open (or create) the destination with the requested
    engine, and append the source's deduplicated records in
    first-appearance order.  Lossless down to the bytes: records travel
    as canonical sorted-key JSON in every engine, so a jsonl → sqlite →
    jsonl round trip reproduces the compacted source byte-for-byte.
    Idempotent: re-running after an interruption converges (appends
    dedup last-record-wins).  In-flight leases are *not* migrated —
    migrate when no runner is active.  ``spec.json`` is copied verbatim
    when the source has one and the destination does not.  A source in
    the retired sharded JSONL layout is read shard by shard and never
    written to; this is the only way such a directory is still read.

    Returns ``(destination store, records copied)``.
    """
    source, dest = Path(source), Path(dest)
    if source.resolve() == dest.resolve():
        raise ValueError(
            f"migrate-store needs a fresh destination directory, got the "
            f"source itself ({source})"
        )
    manifest = read_manifest(source)
    if manifest is None and not (source / LEGACY_RESULTS_FILENAME).exists():
        raise ValueError(f"no campaign store at {source}")
    if _is_old_sharded(manifest):
        records = _old_sharded_records(source, manifest)
    else:
        records = open_store(source).records()
    dst_store = open_store(dest, engine=engine)
    n_copied = _copy_records(records, dst_store)
    src_spec = source / _SPEC_FILENAME
    dst_spec = dest / _SPEC_FILENAME
    if src_spec.exists() and not dst_spec.exists():
        dst_spec.write_bytes(src_spec.read_bytes())
    return dst_store, n_copied


__all__ = [
    "DB_FILENAME",
    "ENGINE_JSONL",
    "ENGINE_SQLITE",
    "ENGINE_STORE",
    "LEASE_STATUSES",
    "MANIFEST_FILENAME",
    "STATUS_CLAIMED",
    "STATUS_DONE",
    "STATUS_FAILED",
    "STATUS_RELEASED",
    "STORE_ENGINES",
    "CompactionStats",
    "Lease",
    "NetworkStoreBackend",
    "NetworkStoreError",
    "SQLiteStoreBackend",
    "StoreBackend",
    "StoreServer",
    "is_store_url",
    "migrate_store",
    "open_network_store",
    "open_store",
    "parse_store_spec",
    "parse_store_url",
    "read_manifest",
]
