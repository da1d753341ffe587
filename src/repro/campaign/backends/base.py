"""The store contract every campaign result-store engine implements.

:class:`StoreBackend` is the seam between the campaign layer and its
durable substrate.  :class:`~repro.campaign.runner.CampaignRunner`,
:mod:`~repro.campaign.progress`, :mod:`~repro.campaign.aggregate`, and
the CLI depend on exactly this surface — append a result record, claim /
renew / release leases, read the deduplicated records back (engines are
expected to make repeated reads cheap, e.g. incrementally), compact, and
count — and on nothing else, so an engine is free to choose any storage
representation that preserves the semantics spelled out on each method.

Three engines ship with the package:

* :class:`~repro.campaign.store.ResultStore` — the original append-only
  JSONL file (``results.jsonl``) with ``flock``-guarded appends,
  truncated-tail heal, and last-record-wins dedup; also the in-memory
  store when constructed without a path.
* :class:`~repro.campaign.backends.sqlite.SQLiteStoreBackend` — a
  transactional SQLite database (WAL mode) for campaigns that outgrow
  filesystem-level coordination.
* :class:`~repro.campaign.backends.netstore.NetworkStoreBackend` — a
  ``store://host:port`` client of a ``campaign store-serve`` process.

This module also owns the small value types the contract speaks in
(:class:`Lease`, :class:`CompactionStats`) and the record/lease status
constants, plus the ``store-manifest.json`` helpers that pin a
directory's engine, so concrete engines depend only on this module,
never on each other.
"""

from __future__ import annotations

import abc
import json
import os
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.telemetry import Telemetry

#: Result-record statuses (durable job outcomes).
STATUS_DONE = "done"
STATUS_FAILED = "failed"
#: Lease-line statuses (claim bookkeeping, not job outcomes).
STATUS_CLAIMED = "claimed"
STATUS_RELEASED = "released"
LEASE_STATUSES = (STATUS_CLAIMED, STATUS_RELEASED)

#: Manifest file pinning a directory's store engine.
MANIFEST_FILENAME = "store-manifest.json"
_MANIFEST_VERSION = 1

#: The engine identifier ``store-manifest.json`` records for a campaign
#: directory whose results live behind a ``store://`` server.
ENGINE_STORE = "store"

#: URL scheme selecting the network engine in ``--store`` specs.
STORE_URL_PREFIX = "store://"


def is_store_url(spec: Any) -> bool:
    """Whether ``spec`` is a ``store://host:port`` engine spec."""
    return isinstance(spec, str) and spec.startswith(STORE_URL_PREFIX)


def read_manifest(directory) -> Optional[dict]:
    """The parsed ``store-manifest.json`` of ``directory``, or ``None``.

    Manifests written before engines existed carry no ``engine`` field;
    they are reported as ``jsonl`` (the only engine that existed then).
    A manifest that does not parse as a JSON object raises
    ``ValueError`` naming its path.
    """
    path = Path(directory) / MANIFEST_FILENAME
    if not path.exists():
        return None
    try:
        manifest = json.loads(path.read_text())
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"unreadable store manifest {path}: {exc}") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"unreadable store manifest {path}: not a JSON object")
    manifest.setdefault("engine", "jsonl")
    return manifest


def ensure_manifest(directory, engine: str) -> dict:
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


@dataclass(frozen=True)
class Lease:
    """One live claim: ``runner`` owns ``job_id`` until ``deadline``.

    ``deadline`` is wall-clock epoch seconds; a lease whose deadline has
    passed is *expired* and its job is requeueable by any runner.
    """

    job_id: str
    runner: str
    deadline: float

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether the deadline has passed (``now`` defaults to wall clock)."""
        return (time.time() if now is None else now) >= self.deadline


@dataclass(frozen=True)
class CompactionStats:
    """What one :meth:`StoreBackend.compact` call did.

    Record counts cover *result* records only (lease lines are pure
    bookkeeping — stale ones are silently dropped, live ones preserved);
    the byte counts cover the whole on-disk representation.
    """

    n_records_before: int   # raw stored result records, duplicates included
    n_records_after: int    # one per job id
    bytes_before: int
    bytes_after: int

    @property
    def n_dropped(self) -> int:
        """Duplicate / superseded result records removed by the rewrite."""
        return self.n_records_before - self.n_records_after

    def __str__(self) -> str:
        return (
            f"{self.n_records_before} -> {self.n_records_after} records "
            f"({self.n_dropped} dropped), "
            f"{self.bytes_before} -> {self.bytes_after} bytes"
        )


class StoreBackend(abc.ABC):
    """Abstract result store: what the campaign layer requires of an engine.

    The semantic contract, shared by every implementation and exercised
    engine-by-engine by the test suite's parametrized ``store_backend``
    fixture:

    * **Append / dedup** — :meth:`record` durably appends one job
      outcome; when a job id recurs, the *latest* record wins (a re-run
      may correct an earlier failure without rewriting history).
    * **Leases** — :meth:`claim` atomically grants the free subset of a
      batch (no completed job, no other runner's live lease) under one
      engine-level critical section, so concurrent claimants *partition*
      a batch; :meth:`renew` extends only leases the runner still holds;
      :meth:`release` frees claims immediately; an unrenewed lease
      expires at its wall-clock deadline and the job becomes requeueable.
      A result record supersedes the claim it fulfils.
    * **Reads** — :meth:`records` returns the deduplicated result
      records in first-appearance order, lease bookkeeping excluded;
      repeated reads must be cheap enough to poll (the JSONL engine
      reads incrementally, SQLite folds rows changed since the last
      read).  Mutating a returned record must not corrupt the store.
    * **Compaction** — :meth:`compact` drops duplicate records and stale
      lease state without changing any observable read, atomically with
      respect to concurrent writers.

    Engines also expose :attr:`engine` (the manifest identifier) and a
    ``path`` attribute or property naming their on-disk location.

    Every engine additionally reports latency through the shared
    :attr:`telemetry` context: implementations wrap their append /
    claim / compact critical sections with :meth:`_timed`, which feeds
    the per-engine ``repro_store_op_seconds`` histogram.  The default
    telemetry resolves from ``$REPRO_TELEMETRY`` and is a no-op when
    unset; the campaign runner assigns its own context so store metrics
    land in the same registry (and ``telemetry.jsonl``) as runner spans.
    """

    #: Engine identifier recorded in ``store-manifest.json`` and shown by
    #: ``campaign status``; concrete engines override as appropriate.
    engine: str = "jsonl"

    #: Label the engine's latency series carries in the metrics registry;
    #: distinct from :attr:`engine` where they differ (the ``store://``
    #: client reports as ``"netstore"``, not ``"store"``).
    metrics_engine: str = "jsonl"

    @property
    def telemetry(self):
        """The telemetry context store operations report through.

        Lazily resolved from ``$REPRO_TELEMETRY`` on first use (the
        shared no-op instance when unset); assignable, so a runner can
        route store metrics into its own registry.
        """
        got = getattr(self, "_telemetry", None)
        if got is None:
            got = Telemetry.from_env()
            self._telemetry = got
        return got

    @telemetry.setter
    def telemetry(self, value) -> None:
        """Route this store's metrics through ``value``."""
        self._telemetry = value

    def _timed(self, op: str):
        """Timer context observing ``repro_store_op_seconds{op=,engine=}``."""
        return self.telemetry.timer(
            "repro_store_op_seconds",
            "Latency of store backend operations.",
            op=op,
            engine=self.metrics_engine,
        )

    # -- writing -----------------------------------------------------------

    @abc.abstractmethod
    def record(self, record: dict) -> None:
        """Durably append one job record (must carry ``job_id`` and ``status``)."""

    def record_many(self, records: Sequence[dict]) -> None:
        """Durably append a batch of job records.

        Semantically ``record`` in a loop; engines override to batch the
        whole append into one critical section (one locked write for
        JSONL, one transaction for SQLite) — the campaign runner records
        per batch, so this is the append hot path.
        """
        for rec in records:
            self.record(rec)

    # -- leases ------------------------------------------------------------

    @abc.abstractmethod
    def claim(
        self,
        job_ids: Sequence[str],
        runner: str,
        ttl: float,
        now: Optional[float] = None,
    ) -> List[str]:
        """Atomically claim the free subset of ``job_ids`` for ``runner``.

        Granted ids come back in input order; a job already completed or
        validly leased to another runner is silently skipped, and an
        expired lease is requeued to the new claimant.  ``now`` (epoch
        seconds) is injectable for tests; the deadline is ``now + ttl``.
        """

    @abc.abstractmethod
    def renew(
        self,
        job_ids: Sequence[str],
        runner: str,
        ttl: float,
        now: Optional[float] = None,
    ) -> List[str]:
        """Extend ``runner``'s still-held leases to ``now + ttl``.

        Returns the ids actually renewed; a lease that lapsed and was
        reclaimed by a peer (or fulfilled by a result) is not clobbered.
        """

    @abc.abstractmethod
    def release(self, job_ids: Sequence[str], runner: str) -> None:
        """Give up claims on ``job_ids`` without a result (graceful interrupt)."""

    @abc.abstractmethod
    def leases(self, now: Optional[float] = None) -> Dict[str, Lease]:
        """Live (claimed, unexpired) leases by job id."""

    # -- reading -----------------------------------------------------------

    @abc.abstractmethod
    def records(self) -> List[dict]:
        """All result records, deduplicated by job id (last record wins)."""

    def completed(self) -> List[dict]:
        """Records of jobs that finished successfully."""
        return [r for r in self.records() if r.get("status") == STATUS_DONE]

    def failed(self) -> List[dict]:
        """Records of jobs whose latest attempt failed (retried on re-run)."""
        return [r for r in self.records() if r.get("status") == STATUS_FAILED]

    def completed_ids(self) -> Set[str]:
        """Ids of jobs that finished successfully (the resume skip-set)."""
        return {r["job_id"] for r in self.completed()}

    def counts(self) -> Dict[str, int]:
        """Result-record tallies: ``{"total", "done", "failed"}``.

        ``total`` counts distinct job ids with any result record; engines
        with a cheaper path than a full read (SQLite) override this.
        """
        total = done = failed = 0
        for rec in self.records():
            total += 1
            status = rec.get("status")
            done += status == STATUS_DONE
            failed += status == STATUS_FAILED
        return {"total": total, "done": done, "failed": failed}

    # -- maintenance -------------------------------------------------------

    @abc.abstractmethod
    def compact(self, now: Optional[float] = None) -> CompactionStats:
        """Drop duplicate records and stale lease state; returns the stats."""

    def close(self) -> None:
        """Release the engine's connections; a no-op for engines that hold
        none between calls (JSONL).  Idempotent."""

    def __len__(self) -> int:
        return len(self.records())
