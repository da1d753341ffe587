"""A transactional SQLite result-store engine.

The JSONL engine coordinates runners through filesystem primitives —
``O_APPEND`` whole-line writes under an exclusive ``flock`` — which is
exactly what the paper's MW architecture *avoids*: results are supposed
to flow through a resource manager, not a shared POSIX file.  This
module is the first non-filesystem engine behind the
:class:`~repro.campaign.backends.base.StoreBackend` seam:
``results.sqlite`` inside the campaign directory, coordinated by SQLite
transactions instead of file locks.

Design points:

* **WAL journal mode** — readers (``status``, ``watch``, aggregation)
  never block writers and vice versa, which is the polling pattern of a
  watched campaign.
* **One transaction per batch** — a batch claim is a single
  ``BEGIN IMMEDIATE`` transaction: the write lock is taken *up front*,
  the free subset is computed inside it, and the lease rows land before
  commit, so two runners claiming overlapping batches partition them —
  the same guarantee the JSONL engine gets from ``flock`` plus an
  in-lock re-scan.  Renewals and releases are transactional the same
  way.
* **Last-record-wins by upsert** — ``job_id`` is unique in the
  ``results`` table, so a re-recorded job *replaces* its row in place
  (keeping its original insertion position, which is what keeps
  ``records()`` in first-appearance order, same as JSONL).  There is no
  duplicate accumulation for :meth:`SQLiteStoreBackend.compact` to drop;
  compaction prunes stale leases, checkpoints the WAL, and vacuums.
* **Indexed by job id and cell** — the unique ``job_id`` index serves
  claims and dedup; a secondary index on the job's aggregation cell
  serves per-cell queries on multi-million-row stores.
* **Incremental reads** — every insert/update stamps a monotonically
  increasing ``mut`` counter; :meth:`SQLiteStoreBackend.records` folds
  only rows stamped after its previous read into an id-keyed cache, so
  polling a big store costs the delta, not the table.
* **Thread and fork hygiene** — connections are per-thread and
  per-process (a forked worker or another thread, such as an in-process
  :class:`~repro.campaign.backends.netstore.StoreServer`, silently gets
  its own), so no two of them ever share a connection.

Record payloads are stored as canonical (sorted-key) JSON text — the
byte-for-byte line format of the JSONL engine — which is what makes
:func:`~repro.campaign.backends.migrate_store` round-trips lossless down
to the compacted bytes.
"""

from __future__ import annotations

import copy
import json
import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.campaign.backends.base import (
    STATUS_DONE,
    STATUS_FAILED,
    CompactionStats,
    Lease,
    StoreBackend,
    ensure_manifest,
)
from repro.campaign.spec import CELL_FIELDS

#: The database file inside a campaign directory.
DB_FILENAME = "results.sqlite"

#: Seconds a connection waits on a locked database before giving up.
#: Generous: a claim transaction is sub-millisecond, so a long wait only
#: ever means heavy runner contention, where waiting is the right call.
DEFAULT_BUSY_TIMEOUT = 30.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    seq     INTEGER PRIMARY KEY AUTOINCREMENT,
    job_id  TEXT NOT NULL UNIQUE,
    status  TEXT NOT NULL,
    cell    TEXT,
    mut     INTEGER NOT NULL,
    payload TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_results_status ON results(status);
CREATE INDEX IF NOT EXISTS idx_results_cell ON results(cell);
CREATE INDEX IF NOT EXISTS idx_results_mut ON results(mut);
CREATE TABLE IF NOT EXISTS leases (
    job_id   TEXT PRIMARY KEY,
    runner   TEXT NOT NULL,
    deadline REAL NOT NULL
);
"""


def _cell_key(record: dict) -> Optional[str]:
    """The job's aggregation-cell key as canonical JSON, if derivable.

    The same tuple as :attr:`repro.campaign.spec.Job.cell` (shared
    :data:`~repro.campaign.spec.CELL_FIELDS` definition), pulled from
    the record's embedded job dict.  Synthetic records without one
    (tests, foreign stores) index as NULL.
    """
    job = record.get("job")
    if not isinstance(job, dict):
        return None
    try:
        cell = [job[name] for name in CELL_FIELDS]
    except KeyError:
        return None
    return json.dumps(cell, sort_keys=True)


class SQLiteStoreBackend(StoreBackend):
    """The :class:`~repro.campaign.backends.base.StoreBackend` contract
    over one SQLite database.

    Parameters
    ----------
    directory:
        Campaign directory; the database lives at
        ``<directory>/results.sqlite`` (created as needed, WAL mode).
        The directory's ``store-manifest.json`` must either be absent
        (it is written) or already name the ``sqlite`` engine — opening
        a directory pinned to another engine as SQLite is a hard error,
        because the representations cannot coexist (use ``campaign
        migrate-store`` to convert).
    busy_timeout:
        Seconds a statement waits on a locked database.
    """

    engine = "sqlite"
    metrics_engine = "sqlite"

    def __init__(self, directory, busy_timeout: float = DEFAULT_BUSY_TIMEOUT) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        ensure_manifest(self.directory, engine=self.engine)
        self._db_path = self.directory / DB_FILENAME
        self._busy_timeout = float(busy_timeout)
        self._local = threading.local()
        # Incremental-read cache: id-keyed records in first-appearance
        # order plus the highest mutation stamp folded so far.
        self._by_id: Dict[str, dict] = {}
        self._mut = 0
        self._cache_lock = threading.Lock()
        # Every connection this process has opened (one per thread), keyed
        # to the pid that opened it so close() never touches a forked
        # parent's handles through inherited state.
        self._conns_lock = threading.Lock()
        self._conns: Dict[sqlite3.Connection, int] = {}
        # executescript commits as it goes; IF NOT EXISTS makes concurrent
        # creators converge without an explicit transaction.
        self._conn().executescript(_SCHEMA)

    # -- connection management --------------------------------------------

    def _conn(self) -> sqlite3.Connection:
        """This thread's connection, reopened after a fork.

        SQLite connections must not be shared across threads or carried
        across ``fork()``; keying on (thread, pid) means any other
        thread and any forked pool worker transparently get their own.
        """
        conn = getattr(self._local, "conn", None)
        if conn is None or self._local.pid != os.getpid():
            conn = sqlite3.connect(
                self._db_path,
                timeout=self._busy_timeout,
                isolation_level=None,  # autocommit; we issue BEGIN explicitly
                # Usage stays strictly per-thread (thread-local keying);
                # relaxing the check only lets close() reach connections
                # other threads opened.
                check_same_thread=False,
            )
            self._enable_wal(conn)
            conn.execute("PRAGMA synchronous=NORMAL")
            self._local.conn = conn
            self._local.pid = os.getpid()
            with self._conns_lock:
                self._conns[conn] = os.getpid()
        return conn

    def _enable_wal(self, conn: sqlite3.Connection) -> None:
        """Switch ``conn``'s database to WAL, waiting out concurrent openers.

        SQLite answers a contended journal-mode change with "database is
        locked" at once instead of through the busy handler, so two
        threads or processes creating the same database race here; retry
        within the same ``busy_timeout`` every other statement gets.
        """
        deadline = time.monotonic() + self._busy_timeout
        while True:
            try:
                conn.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as exc:
                if "locked" not in str(exc) or time.monotonic() >= deadline:
                    raise
                time.sleep(0.01)

    @contextmanager
    def _txn(self) -> Iterator[sqlite3.Connection]:
        """One ``BEGIN IMMEDIATE`` transaction: the write lock is taken up
        front, so every read inside sees (and keeps seeing) the state the
        writes will land on — the claim path's correctness hinge."""
        conn = self._conn()
        conn.execute("BEGIN IMMEDIATE")
        try:
            yield conn
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")

    def close(self) -> None:
        """Close every connection this process opened, whatever the thread.

        Every thread opens its own connection through :meth:`_conn`;
        closing only the calling thread's would leak the rest (and their
        WAL read marks) until process exit.  Callers must quiesce those
        threads first, since a closed connection raises on use.  Connections a forked parent opened are skipped (the child
        inherits the tracking dict, not usable handles).
        """
        with self._conns_lock:
            mine = [c for c, pid in self._conns.items() if pid == os.getpid()]
            for conn in mine:
                del self._conns[conn]
        for conn in mine:
            try:
                conn.close()
            except sqlite3.Error:  # pragma: no cover - already-closed race
                pass
        self._local.conn = None

    @property
    def path(self) -> Path:
        """The database file (display / identification)."""
        return self._db_path

    # -- writing -----------------------------------------------------------

    @staticmethod
    def _upsert(conn: sqlite3.Connection, record: dict) -> None:
        """Insert-or-replace one record row and supersede its lease."""
        payload = json.dumps(record, sort_keys=True)
        conn.execute(
            """
            INSERT INTO results (job_id, status, cell, mut, payload)
            VALUES (?, ?, ?, (SELECT IFNULL(MAX(mut), 0) + 1 FROM results), ?)
            ON CONFLICT (job_id) DO UPDATE SET
                status  = excluded.status,
                cell    = excluded.cell,
                mut     = excluded.mut,
                payload = excluded.payload
            """,
            (record["job_id"], record["status"], _cell_key(record), payload),
        )
        conn.execute("DELETE FROM leases WHERE job_id = ?", (record["job_id"],))

    def record(self, record: dict) -> None:
        """Upsert one job record; the write supersedes any lease for its job.

        The payload is stored as canonical sorted-key JSON — byte-equal
        to the JSONL engine's line format, so store migrations round-trip
        losslessly.  A replaced row keeps its original ``seq`` (insertion
        position) and takes a fresh ``mut`` stamp so incremental readers
        pick the change up.
        """
        if "job_id" not in record or "status" not in record:
            raise ValueError("record needs 'job_id' and 'status' fields")
        with self._timed("append"), self._txn() as conn:
            self._upsert(conn, record)

    def record_many(self, records: Sequence[dict]) -> None:
        """Upsert a batch of records in one ``BEGIN IMMEDIATE`` transaction.

        One commit for the whole batch instead of one per record — the
        append half of the one-transaction-per-batch discipline (claims
        are the other half), and the reason batch appends here keep pace
        with the JSONL engine's single locked write.
        """
        records = list(records)
        for rec in records:
            if "job_id" not in rec or "status" not in rec:
                raise ValueError("record needs 'job_id' and 'status' fields")
        if not records:
            return
        with self._timed("append"), self._txn() as conn:
            for rec in records:
                self._upsert(conn, rec)

    # -- leases ------------------------------------------------------------

    def claim(
        self,
        job_ids: Sequence[str],
        runner: str,
        ttl: float,
        now: Optional[float] = None,
    ) -> List[str]:
        """Claim the free subset of ``job_ids`` in one immediate transaction.

        See :meth:`StoreBackend.claim` for the semantics.  The whole
        batch — grantability checks and lease upserts — happens inside a
        single ``BEGIN IMMEDIATE`` transaction, so concurrent claimants
        of overlapping batches partition them.
        """
        now = time.time() if now is None else float(now)
        deadline = now + float(ttl)
        granted: List[str] = []
        with self._timed("claim"), self._txn() as conn:
            for jid in job_ids:
                row = conn.execute(
                    "SELECT status FROM results WHERE job_id = ?", (jid,)
                ).fetchone()
                if row is not None and row[0] == STATUS_DONE:
                    continue  # completed jobs are never grantable
                lease = conn.execute(
                    "SELECT runner, deadline FROM leases WHERE job_id = ?", (jid,)
                ).fetchone()
                if lease is not None and lease[0] != runner and lease[1] > now:
                    continue  # a live claim blocks everyone but its holder
                conn.execute(
                    "INSERT OR REPLACE INTO leases (job_id, runner, deadline) "
                    "VALUES (?, ?, ?)",
                    (jid, runner, deadline),
                )
                granted.append(jid)
        return granted

    def renew(
        self,
        job_ids: Sequence[str],
        runner: str,
        ttl: float,
        now: Optional[float] = None,
    ) -> List[str]:
        """Extend still-held leases; see :meth:`StoreBackend.renew`.

        Ownership is checked by the ``UPDATE``'s ``WHERE`` clause inside
        the transaction: a lease a peer reclaimed (its ``runner`` column
        changed) or a result fulfilled (its row is gone — :meth:`record`
        deletes it) simply matches nothing.
        """
        now = time.time() if now is None else float(now)
        deadline = now + float(ttl)
        held: List[str] = []
        if not job_ids:
            return held
        with self._txn() as conn:
            for jid in job_ids:
                cur = conn.execute(
                    "UPDATE leases SET deadline = ? "
                    "WHERE job_id = ? AND runner = ?",
                    (deadline, jid, runner),
                )
                if cur.rowcount:
                    held.append(jid)
        return held

    def release(self, job_ids: Sequence[str], runner: str) -> None:
        """Drop claims on ``job_ids`` immediately (graceful-interrupt path)."""
        if not job_ids:
            return
        with self._txn() as conn:
            conn.executemany(
                "DELETE FROM leases WHERE job_id = ?",
                [(jid,) for jid in job_ids],
            )

    def leases(self, now: Optional[float] = None) -> Dict[str, Lease]:
        """Live (claimed, unexpired) leases by job id.

        Expired rows are treated as absent (they are pruned lazily, by
        the next claim on the job or by :meth:`compact`).
        """
        now = time.time() if now is None else float(now)
        rows = self._conn().execute(
            "SELECT job_id, runner, deadline FROM leases WHERE deadline > ?",
            (now,),
        ).fetchall()
        return {jid: Lease(jid, runner, deadline) for jid, runner, deadline in rows}

    # -- reading -----------------------------------------------------------

    def records(self) -> List[dict]:
        """All result records in first-appearance order, read incrementally.

        Only rows whose mutation stamp is newer than the previous read
        are fetched and folded into the id-keyed cache; a replaced row
        keeps its original position (dict update preserves insertion
        order), matching the JSONL engine's ordering exactly.  Returned
        records are deep copies — mutating them cannot corrupt the cache.
        """
        with self._cache_lock:
            rows = self._conn().execute(
                "SELECT job_id, mut, payload FROM results WHERE mut > ? "
                "ORDER BY seq",
                (self._mut,),
            ).fetchall()
            for jid, mut, payload in rows:
                self._by_id[jid] = json.loads(payload)
                if mut > self._mut:
                    self._mut = mut
            return [copy.deepcopy(r) for r in self._by_id.values()]

    def records_since(self, since: int) -> "Tuple[int, List[dict]]":
        """Rows mutated after stamp ``since``, plus the new high stamp.

        The raw half of the mutation-stamp protocol :meth:`records` is
        built on, exposed so *remote* readers (the ``store://`` server)
        can ship a caller only the delta: rows whose ``mut`` exceeds
        ``since``, in ``seq`` (first-appearance) order, and the highest
        stamp seen — the caller folds them into its own id-keyed cache
        and passes the stamp back next time.  ``since=0`` is a full read.
        """
        stamp = int(since)
        out: List[dict] = []
        rows = self._conn().execute(
            "SELECT mut, payload FROM results WHERE mut > ? ORDER BY seq",
            (stamp,),
        ).fetchall()
        for mut, payload in rows:
            out.append(json.loads(payload))
            if mut > stamp:
                stamp = mut
        return stamp, out

    def completed_ids(self) -> Set[str]:
        """Ids of successfully finished jobs, straight off the status index."""
        rows = self._conn().execute(
            "SELECT job_id FROM results WHERE status = ?", (STATUS_DONE,)
        ).fetchall()
        return {jid for (jid,) in rows}

    def counts(self) -> Dict[str, int]:
        """Result tallies via ``GROUP BY status`` — no row materialization."""
        rows = self._conn().execute(
            "SELECT status, COUNT(*) FROM results GROUP BY status"
        ).fetchall()
        by_status = dict(rows)
        return {
            "total": sum(by_status.values()),
            "done": by_status.get(STATUS_DONE, 0),
            "failed": by_status.get(STATUS_FAILED, 0),
        }

    def counts_by_cell(self) -> Dict[tuple, Dict[str, int]]:
        """Per-cell ``{"total", "done", "failed"}`` tallies off the cell index.

        The aggregate the dashboards poll, answered by ``GROUP BY cell``
        without materializing a single record row — on multi-million-row
        stores this is the reason the ``cell`` column is indexed.
        Records whose payload carried no job dict (synthetic tests,
        foreign stores) are excluded; cell keys are the
        :attr:`~repro.campaign.spec.Job.cell` tuples.
        """
        rows = self._conn().execute(
            """
            SELECT cell,
                   COUNT(*),
                   SUM(status = ?),
                   SUM(status = ?)
            FROM results WHERE cell IS NOT NULL GROUP BY cell
            """,
            (STATUS_DONE, STATUS_FAILED),
        ).fetchall()
        return {
            tuple(json.loads(cell)): {"total": total, "done": done, "failed": failed}
            for cell, total, done, failed in rows
        }

    # -- maintenance -------------------------------------------------------

    def _disk_bytes(self) -> int:
        """Current database footprint (main file + WAL)."""
        total = 0
        for suffix in ("", "-wal"):
            try:
                total += os.path.getsize(f"{self._db_path}{suffix}")
            except OSError:
                pass
        return total

    def compact(self, now: Optional[float] = None) -> CompactionStats:
        """Prune stale leases, checkpoint the WAL, and vacuum.

        Upserts dedup continuously, so unlike the JSONL engine there are
        never duplicate result records to drop —
        ``n_records_before == n_records_after`` always.  What compaction
        reclaims here is expired lease rows, the accumulated WAL, and
        free pages; like every engine's compact it changes no observable
        read.
        """
        now = time.time() if now is None else float(now)
        bytes_before = self._disk_bytes()
        with self._timed("compact"):
            with self._txn() as conn:
                conn.execute("DELETE FROM leases WHERE deadline <= ?", (now,))
                (n_records,) = conn.execute(
                    "SELECT COUNT(*) FROM results"
                ).fetchone()
            conn = self._conn()
            conn.execute("VACUUM")
            # VACUUM itself writes through the WAL; truncate it afterwards so
            # the measured footprint is the real steady-state database size.
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        return CompactionStats(
            n_records, n_records, bytes_before, self._disk_bytes()
        )

    # -- misc --------------------------------------------------------------

    def __len__(self) -> int:
        (n,) = self._conn().execute("SELECT COUNT(*) FROM results").fetchone()
        return n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SQLiteStoreBackend {self._db_path} n={len(self)}>"
