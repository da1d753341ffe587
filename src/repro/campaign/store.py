"""Durable result store for campaigns: job records plus claim leases.

This module is the original **JSONL engine** behind the
:class:`~repro.campaign.backends.base.StoreBackend` contract (see
:mod:`repro.campaign.backends` for the seam and the other engines; the
shared :class:`Lease`/:class:`CompactionStats` value types and status
constants live there and are re-exported here).

Results live in an append-only JSONL file (``results.jsonl``) inside the
campaign directory: one JSON object per line, written with ``O_APPEND`` in a
single ``write`` call so concurrent writers (several runner processes —
or hosts sharing a filesystem — pointed at the same campaign) interleave
whole lines, never fragments.  Append-only also makes interrupt-safety
trivial — a killed run leaves a valid store containing exactly the jobs
that finished.

The log carries two kinds of lines, distinguished by ``status``:

* **result records** (``done`` / ``failed`` / anything else) — the
  durable outcome of a job, deduplicated last-record-wins per job id;
* **lease lines** (``claimed`` / ``released``) — lightweight claim
  bookkeeping written by :meth:`ResultStore.claim`, :meth:`renew` and
  :meth:`release`.  A claim names the claiming runner and a wall-clock
  ``deadline``; the latest lease line per job wins, a result record
  supersedes any earlier lease line for its job, and a claim whose
  deadline has passed counts as expired (requeueable).  Claims are
  granted under the same exclusive ``flock`` as appends, with a re-scan
  inside the critical section, so two runners can never both hold a live
  lease on one job.  Deadlines are epoch seconds: across hosts the
  scheme only needs clocks that agree to within the lease TTL, which is
  why TTLs should be generous (tens of seconds) rather than tight.

The reader is forgiving: a truncated final line (the one failure mode a
hard kill can produce) is skipped, and when the same job id appears more
than once the *last* record wins, so a re-run may correct an earlier
failure without rewriting history.  Reads are incremental — the store
remembers how far into the file it has parsed and only folds in newly
appended lines — which is what keeps the cooperative multi-runner
re-read cheap even for 100k-job campaigns.

Long-lived stores accumulate duplicate records (retried failures,
overlapping runners) and stale lease lines; :meth:`ResultStore.compact`
rewrites the log one-line-per-job (keeping only live, unexpired claims)
into a fresh file and atomically renames it over the old one.  Appends
and compaction both take an exclusive ``flock`` (an append is a
microsecond-scale critical section), so on a local filesystem no append
can race the rename, and the ends-mid-line tail check can never
interleave with another writer's partial write; a writer that opened the
pre-compaction inode detects the swap and reopens.
(``flock`` degrades to advisory-or-absent on some network filesystems —
run compaction when no runner is writing if the store lives on NFS.)

``ResultStore()`` with no path is an in-memory store for ephemeral sweeps
(the benchmark harness) and tests.  When many runners contend for one
file, the SQLite engine (:mod:`repro.campaign.backends.sqlite`) or a
``store://`` server coordinates them instead.
"""

from __future__ import annotations

import copy
import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.campaign.backends.base import (
    LEASE_STATUSES,
    STATUS_CLAIMED,
    STATUS_DONE,
    STATUS_FAILED,
    STATUS_RELEASED,
    CompactionStats,
    Lease,
    StoreBackend,
)

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

__all__ = [
    "LEASE_STATUSES",
    "STATUS_CLAIMED",
    "STATUS_DONE",
    "STATUS_FAILED",
    "STATUS_RELEASED",
    "CompactionStats",
    "Lease",
    "ResultStore",
]


class ResultStore(StoreBackend):
    """Append-only job-result log keyed by stable job id.

    Parameters
    ----------
    path:
        JSONL file backing the store; parent directories are created.
        ``None`` keeps records in memory (ephemeral sweeps and tests).
    """

    def __init__(self, path=None) -> None:
        self.path: Optional[Path] = None if path is None else Path(path)
        self._memory: List[dict] = []
        # Incremental-read state: id-keyed caches of everything parsed so
        # far (result records and lease lines separately), the byte offset
        # of the first unparsed line, and the (st_dev, st_ino) identity of
        # the file those offsets refer to (compaction replaces the inode,
        # invalidating them).
        self._by_id: Dict[str, dict] = {}
        self._lease_by_id: Dict[str, dict] = {}
        self._offset = 0
        self._src: Optional[Tuple[int, int]] = None
        # File size observed right after our own last append; while the
        # size still matches, the tail is known to end in a newline.
        self._clean_size: Optional[int] = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)

    # -- writing ----------------------------------------------------------

    def _fd_is_current(self, fd: int) -> bool:
        """Whether ``fd`` still refers to the file at ``self.path``.

        False when a concurrent :meth:`compact` renamed a fresh file over
        the path between our ``open`` and ``flock`` — writing through the
        stale descriptor would append to the unlinked old inode and lose
        the record.
        """
        try:
            st_path = os.stat(self.path)
        except FileNotFoundError:
            return False
        st_fd = os.fstat(fd)
        return (st_fd.st_dev, st_fd.st_ino) == (st_path.st_dev, st_path.st_ino)

    def _needs_leading_newline(self, fd: int) -> bool:
        """Whether the file currently ends mid-line (a hard kill during a write).

        Without this check the next append would concatenate onto the
        truncated tail, corrupting a *good* record as well.  Re-checked
        whenever the file has changed size since our own last append —
        another writer's kill can truncate the tail at any time, so a
        once-per-instance check is not enough (the multi-writer edge).
        The ``_clean_size`` shortcut is sound because it is captured under
        the same exclusive lock as the write: no peer can slip a partial
        line in between our write and our ``fstat``.
        """
        size = os.fstat(fd).st_size
        if size == 0:
            return False
        if size == self._clean_size:
            return False  # unchanged since our last append, which ended in \n
        if hasattr(os, "pread"):
            return os.pread(fd, 1, size - 1) != b"\n"
        with open(self.path, "rb") as fh:  # pragma: no cover - non-POSIX
            fh.seek(size - 1)
            return fh.read(1) != b"\n"

    def _write_locked(self, fd: int, payload: str) -> None:
        """Append ``payload`` (newline-terminated lines) under the held lock."""
        if self._needs_leading_newline(fd):
            payload = "\n" + payload
        os.write(fd, payload.encode("utf-8"))
        self._clean_size = os.fstat(fd).st_size

    def _append_payload(self, payload: str) -> None:
        """Append pre-encoded JSONL under an exclusive ``flock``.

        The open/lock/recheck loop shared by :meth:`record`,
        :meth:`renew` and :meth:`release`: a single ``O_APPEND`` write,
        so concurrent writers interleave whole lines, never race a
        compaction rename, and the tail check + write happen atomically
        with respect to other (locking) writers.
        """
        while True:
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
            try:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_EX)
                    if not self._fd_is_current(fd):
                        continue  # compacted underneath us; reopen
                self._write_locked(fd, payload)
                return
            finally:
                os.close(fd)

    def record(self, record: dict) -> None:
        """Append one job record (must carry ``job_id`` and ``status``)."""
        if "job_id" not in record or "status" not in record:
            raise ValueError("record needs 'job_id' and 'status' fields")
        with self._timed("append"):
            if self.path is None:
                self._memory.append(dict(record))
                return
            self._append_payload(json.dumps(record, sort_keys=True) + "\n")

    def record_many(self, records: Sequence[dict]) -> None:
        """Append a batch of records as one locked multi-line write.

        One open/flock/write cycle instead of one per record — the
        runner's per-batch append path.  All-or-nothing with respect to
        concurrent writers (the payload is a single ``write``), and a
        hard kill mid-write can tear at most the final line, exactly as
        with single appends.
        """
        records = list(records)
        for rec in records:
            if "job_id" not in rec or "status" not in rec:
                raise ValueError("record needs 'job_id' and 'status' fields")
        if not records:
            return
        with self._timed("append"):
            if self.path is None:
                self._memory.extend(dict(r) for r in records)
                return
            self._append_payload(
                "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
            )

    # -- leases ------------------------------------------------------------

    @staticmethod
    def _claim_line(job_id: str, runner: str, deadline: float) -> dict:
        return {
            "job_id": job_id,
            "status": STATUS_CLAIMED,
            "runner": runner,
            "deadline": deadline,
        }

    @staticmethod
    def _grantable(
        job_id: str,
        runner: str,
        now: float,
        by_id: Dict[str, dict],
        leases: Dict[str, dict],
    ) -> bool:
        """Whether ``runner`` may claim ``job_id`` given the folded state.

        Completed jobs are never grantable; failed jobs are (retry policy
        lives in the runner).  A live claim blocks everyone but its
        holder; released or expired claims block nobody.
        """
        rec = by_id.get(job_id)
        if rec is not None and rec.get("status") == STATUS_DONE:
            return False
        lease = leases.get(job_id)
        if lease is None or lease.get("status") != STATUS_CLAIMED:
            return True
        if lease.get("runner") == runner:
            return True  # renewing / re-claiming our own lease
        return float(lease.get("deadline", 0.0)) <= now

    def claim(
        self,
        job_ids: Sequence[str],
        runner: str,
        ttl: float,
        now: Optional[float] = None,
    ) -> List[str]:
        """Atomically claim the free subset of ``job_ids`` for ``runner``.

        A job is granted unless it is already completed or another runner
        holds a live (unexpired) lease on it; expired leases are silently
        requeued to the new claimant.  The check and the claim-line
        append happen under one exclusive ``flock`` with a re-scan inside
        the critical section, so concurrent claimants of the same batch
        partition it — no job is ever granted twice.  Returns the granted
        ids in input order.  ``now`` (epoch seconds) is injectable for
        tests; the deadline written is ``now + ttl``.
        """
        now = time.time() if now is None else float(now)
        deadline = now + float(ttl)
        with self._timed("claim"):
            return self._claim_locked(job_ids, runner, now, deadline)

    def _claim_locked(
        self,
        job_ids: Sequence[str],
        runner: str,
        now: float,
        deadline: float,
    ) -> List[str]:
        """The :meth:`claim` body (split out so the timer wraps it whole)."""
        if self.path is None:
            by_id, leases = self._memory_state()
            granted = [
                jid for jid in job_ids
                if self._grantable(jid, runner, now, by_id, leases)
            ]
            for jid in granted:
                self._memory.append(self._claim_line(jid, runner, deadline))
            return granted
        while True:
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
            try:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_EX)
                    if not self._fd_is_current(fd):
                        continue  # compacted underneath us; reopen
                self._scan()  # safe: we hold the lock, nobody can append
                granted = [
                    jid for jid in job_ids
                    if self._grantable(jid, runner, now, self._by_id, self._lease_by_id)
                ]
                if granted:
                    payload = "".join(
                        json.dumps(self._claim_line(jid, runner, deadline),
                                   sort_keys=True) + "\n"
                        for jid in granted
                    )
                    self._write_locked(fd, payload)
                    for jid in granted:  # keep the cache coherent pre-rescan
                        self._lease_by_id[jid] = self._claim_line(jid, runner, deadline)
                return granted
            finally:
                os.close(fd)

    def _held_by(
        self,
        job_ids: Sequence[str],
        runner: str,
        by_id: Dict[str, dict],
        leases: Dict[str, dict],
    ) -> List[str]:
        """The subset of ``job_ids`` whose current lease belongs to ``runner``.

        The renewal ownership check: a lease that lapsed and was
        reclaimed by a peer (or fulfilled by a result) must not be
        clobbered by a stalled runner's late heartbeat.
        """
        held = []
        for jid in job_ids:
            if jid in by_id:
                continue  # fulfilled: a result superseded the claim
            lease = leases.get(jid)
            if (
                lease is not None
                and lease.get("status") == STATUS_CLAIMED
                and lease.get("runner") == runner
            ):
                held.append(jid)
        return held

    def renew(
        self,
        job_ids: Sequence[str],
        runner: str,
        ttl: float,
        now: Optional[float] = None,
    ) -> List[str]:
        """Extend ``runner``'s leases on ``job_ids`` to ``now + ttl``.

        Only leases the runner *still holds* are renewed (checked under
        the same exclusive lock as the append): if a lease lapsed —
        e.g. this runner stalled past the TTL — and a peer reclaimed
        the job, the late heartbeat must not clobber the peer's claim.
        Returns the ids actually renewed; the heartbeat path calls this
        every ``ttl / 3`` seconds, and the cost is one incremental scan
        plus one append.
        """
        now = time.time() if now is None else float(now)
        deadline = now + float(ttl)
        if not job_ids:
            return []
        if self.path is None:
            by_id, leases = self._memory_state()
            held = self._held_by(job_ids, runner, by_id, leases)
            for jid in held:
                self._memory.append(self._claim_line(jid, runner, deadline))
            return held
        while True:
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
            try:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_EX)
                    if not self._fd_is_current(fd):
                        continue  # compacted underneath us; reopen
                self._scan()  # safe: we hold the lock, nobody can append
                held = self._held_by(job_ids, runner, self._by_id, self._lease_by_id)
                if held:
                    payload = "".join(
                        json.dumps(self._claim_line(jid, runner, deadline),
                                   sort_keys=True) + "\n"
                        for jid in held
                    )
                    self._write_locked(fd, payload)
                    for jid in held:
                        self._lease_by_id[jid] = self._claim_line(jid, runner, deadline)
                return held
            finally:
                os.close(fd)

    def release(self, job_ids: Sequence[str], runner: str) -> None:
        """Give up ``runner``'s claims on ``job_ids`` without a result.

        Written on graceful interrupt so peers can reclaim immediately
        instead of waiting out the TTL; a hard-killed runner never gets
        to call this, which is exactly what expiry is for.
        """
        lines = [
            {"job_id": jid, "status": STATUS_RELEASED, "runner": runner}
            for jid in job_ids
        ]
        if not lines:
            return
        if self.path is None:
            self._memory.extend(lines)
            return
        self._append_payload(
            "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
        )

    def leases(self, now: Optional[float] = None) -> Dict[str, Lease]:
        """Live (claimed, unexpired) leases by job id.

        Released, expired, and result-superseded claims are excluded — a
        job in this mapping is exactly one some runner is entitled to be
        executing right now.
        """
        now = time.time() if now is None else float(now)
        if self.path is None:
            _, lease_map = self._memory_state()
        else:
            self._scan()
            lease_map = self._lease_by_id
        live: Dict[str, Lease] = {}
        for jid, rec in lease_map.items():
            if rec.get("status") != STATUS_CLAIMED:
                continue
            lease = Lease(jid, str(rec.get("runner", "")),
                          float(rec.get("deadline", 0.0)))
            if not lease.expired(now):
                live[jid] = lease
        return live

    # -- reading ----------------------------------------------------------

    def _reset_cache(self) -> None:
        self._by_id = {}
        self._lease_by_id = {}
        self._offset = 0
        self._src = None

    @staticmethod
    def _parse_line(raw: bytes) -> Optional[dict]:
        """One JSONL line -> record dict, or ``None`` for junk/truncation."""
        raw = raw.strip()
        if not raw:
            return None
        try:
            rec = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None  # truncated tail from a hard kill
        if not isinstance(rec, dict) or "job_id" not in rec:
            return None
        return rec

    @classmethod
    def _fold_one(
        cls, rec: dict, by_id: Dict[str, dict], leases: Dict[str, dict]
    ) -> bool:
        """Fold one parsed record into the two id-keyed maps.

        The single definition of the dedup discipline: lease lines
        (``claimed``/``released``) go to ``leases`` last-line-wins;
        anything else is a result record, last-record-wins in ``by_id``
        *and* superseding any earlier lease line for that job (a result
        is the lease's fulfilment).  A lease line folded after a result
        stands on its own — that is a later re-claim (e.g. retrying a
        failure).  Returns True for result records (the countable kind).
        """
        jid = rec["job_id"]
        if rec.get("status") in LEASE_STATUSES:
            leases[jid] = rec
            return False
        by_id[jid] = rec
        leases.pop(jid, None)
        return True

    @classmethod
    def _fold_lines(
        cls, data: bytes, by_id: Dict[str, dict], leases: Dict[str, dict]
    ) -> int:
        """Fold raw JSONL bytes into the id-keyed maps (see :meth:`_fold_one`).

        Shared by the incremental scanner and compaction.  Returns how
        many parseable *result* records were folded (duplicates included).
        """
        n_results = 0
        for raw in data.split(b"\n"):
            rec = cls._parse_line(raw)
            if rec is not None:
                n_results += cls._fold_one(rec, by_id, leases)
        return n_results

    def _memory_state(self) -> Tuple[Dict[str, dict], Dict[str, dict]]:
        """Fold the in-memory record list into (results, leases) maps."""
        by_id: Dict[str, dict] = {}
        leases: Dict[str, dict] = {}
        for rec in self._memory:
            self._fold_one(rec, by_id, leases)
        return by_id, leases

    def _scan(self) -> None:
        """Fold lines appended since the last read into the id-keyed caches.

        Detects file replacement (compaction by another process) or
        truncation via the inode identity and size, and rescans from the
        start in that case.  Only complete (newline-terminated) lines are
        consumed, so a partial line being written right now is retried on
        the next scan instead of being half-parsed.
        """
        if self.path is None:
            return
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            self._reset_cache()
            return
        with fh:
            st = os.fstat(fh.fileno())
            src = (st.st_dev, st.st_ino)
            if self._src != src or st.st_size < self._offset:
                self._reset_cache()
                self._src = src
            if st.st_size == self._offset:
                return
            fh.seek(self._offset)
            data = fh.read()
        end = data.rfind(b"\n")
        if end < 0:
            return  # only a partial line so far
        self._offset += end + 1
        self._fold_lines(data[:end], self._by_id, self._lease_by_id)

    def records(self) -> List[dict]:
        """All result records, deduplicated by job id (last record wins).

        Lease lines are bookkeeping, not results, and are never returned
        here — aggregation and status consumers see exactly what they saw
        before leases existed.  Order is first appearance of each id,
        which compaction preserves — aggregation output is identical
        before and after a compact.  Returned records are deep copies:
        mutating them cannot corrupt the store's read cache.
        """
        if self.path is None:
            by_id, _ = self._memory_state()
            return [copy.deepcopy(r) for r in by_id.values()]
        self._scan()
        return [copy.deepcopy(r) for r in self._by_id.values()]

    def completed(self) -> List[dict]:
        """Records of jobs that finished successfully."""
        return [r for r in self.records() if r.get("status") == STATUS_DONE]

    def failed(self) -> List[dict]:
        """Records of jobs whose latest attempt failed (retried on re-run)."""
        return [r for r in self.records() if r.get("status") == STATUS_FAILED]

    def completed_ids(self) -> Set[str]:
        """Ids of jobs that finished successfully (the resume skip-set)."""
        if self.path is None:
            return {r["job_id"] for r in self.completed()}
        self._scan()
        return {
            rid
            for rid, rec in self._by_id.items()
            if rec.get("status") == STATUS_DONE
        }

    # -- compaction --------------------------------------------------------

    @classmethod
    def _compact_body(
        cls,
        by_id: Dict[str, dict],
        leases: Dict[str, dict],
        now: float,
    ) -> str:
        """The rewritten log: result records plus still-live claim lines."""
        lines = [json.dumps(rec, sort_keys=True) + "\n" for rec in by_id.values()]
        for jid, rec in leases.items():
            if rec.get("status") != STATUS_CLAIMED:
                continue  # released: nothing to preserve
            if float(rec.get("deadline", 0.0)) <= now:
                continue  # expired: the job is requeueable, drop the line
            lines.append(json.dumps(rec, sort_keys=True) + "\n")
        return "".join(lines)

    def compact(self, now: Optional[float] = None) -> CompactionStats:
        """Rewrite the log one-line-per-job (last record wins), atomically.

        The deduplicated records are written to a sibling temp file,
        fsynced, and renamed over the live store, all under an exclusive
        ``flock`` so no concurrent append can fall between the read and
        the rewrite.  Record order (first appearance of each id) and the
        per-record bytes are preserved, so ``summary``/``compare`` output
        is identical before and after; truncated kill artifacts, stale
        duplicate records, and released/expired/superseded lease lines
        are dropped (live claims survive, so compacting under active
        runners loses no mutual exclusion).  Idempotent: compacting a
        compacted store is a no-op rewrite.  Returns a
        :class:`CompactionStats`.
        """
        now = time.time() if now is None else float(now)
        with self._timed("compact"):
            return self._compact_now(now)

    def _compact_now(self, now: float) -> CompactionStats:
        """The :meth:`compact` body (split out so the timer wraps it whole)."""
        if self.path is None:
            by_id, leases = self._memory_state()
            n_before = sum(
                1 for r in self._memory if r.get("status") not in LEASE_STATUSES
            )
            self._memory = list(by_id.values()) + [
                rec for rec in leases.values()
                if rec.get("status") == STATUS_CLAIMED
                and float(rec.get("deadline", 0.0)) > now
            ]
            return CompactionStats(n_before, len(by_id), 0, 0)
        while True:
            try:
                fd = os.open(self.path, os.O_RDWR)
            except FileNotFoundError:
                return CompactionStats(0, 0, 0, 0)
            try:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_EX)
                    if not self._fd_is_current(fd):
                        continue  # lost a race with another compactor; reopen
                with os.fdopen(fd, "rb", closefd=False) as fh:
                    data = fh.read()
                by_id: Dict[str, dict] = {}
                leases: Dict[str, dict] = {}
                n_before = self._fold_lines(data, by_id, leases)
                body = self._compact_body(by_id, leases, now).encode("utf-8")
                tmp = self.path.with_name(self.path.name + f".compact.{os.getpid()}")
                tfd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
                try:
                    os.write(tfd, body)
                    os.fsync(tfd)
                finally:
                    os.close(tfd)
                os.replace(tmp, self.path)
                self._reset_cache()
                self._clean_size = None
                return CompactionStats(n_before, len(by_id), len(data), len(body))
            finally:
                os.close(fd)

    # -- misc --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = "memory" if self.path is None else str(self.path)
        return f"<ResultStore {where} n={len(self)}>"
