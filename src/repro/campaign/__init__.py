"""Campaign orchestration: durable, parallel, resumable experiment sweeps.

The layer between one ``optimize()`` call and a paper-scale study:
a declarative :class:`CampaignSpec` expands into :class:`Job` records with
stable ids, a :class:`CampaignRunner` executes the pending ones one at a
time in its own process (``backend="serial"``) or distributes them through the
:class:`~repro.mw.MWDriver` master-worker layer (``backend="mw"``), a
:class:`ResultStore` records each outcome append-only (so interrupted
campaigns resume instead of restarting), and the aggregation helpers
reduce the store back to the paper's per-cell and paired statistics.

Any number of runner processes or hosts cooperatively drain one campaign
directory: claim **leases** in the store (:meth:`ResultStore.claim`,
granted under the store lock, renewed by the runner's loop, expiring when a
runner is killed) guarantee each job is executed exactly once.  The
store itself is a pluggable **engine** behind the
:class:`~repro.campaign.backends.base.StoreBackend` contract
(:mod:`.backends`, resolved by :func:`open_store`): the append-only
JSONL file, a transactional **SQLite** database
(:class:`SQLiteStoreBackend`, ``--store sqlite``) that coordinates
through the database instead of filesystem locks, or a **network**
store (:class:`NetworkStoreBackend`, ``--store store://host:port``)
speaking framed TCP to a ``campaign store-serve`` process
(:class:`StoreServer`), so runners need no shared filesystem at all.
:func:`migrate_store` converts a campaign between engines losslessly
(including directories an older version wrote); :meth:`ResultStore.compact`
keeps long-lived stores readable; :mod:`.progress` provides the live
heartbeat, per-cell progress, and watch loops.

Many campaigns can also share **one** worker fleet: ``campaign serve``
(:class:`MultiCampaignMaster`, :mod:`.scheduler`) drains any number of
campaign directories through a single master, sharing dispatch slots by
deficit-weighted round-robin and placing each tenant's jobs only on
workers whose capability vectors cover the tenant's constraints.

CLI: ``python -m repro campaign
run|serve|status|watch|metrics|summary|compare|compact|migrate-store|store-serve``.
Run with ``--telemetry`` (or ``$REPRO_TELEMETRY=1``) to record
:mod:`repro.telemetry` metrics and a job-lifecycle trace alongside the
results; ``campaign metrics`` reads them back.
See ``docs/CAMPAIGNS.md`` for the end-to-end guide and
``docs/ARCHITECTURE.md`` for how this subsystem fits the rest.
"""

from repro._lazy import lazy_exports as _lazy_exports

# Lazy, so a process that needs one corner of the campaign layer (a
# `store-serve` needs only the engines, a worker only `.execution`)
# imports only that corner.
_EXPORTS = {
    "repro.campaign.backends": (
        "ENGINE_JSONL",
        "ENGINE_SQLITE",
        "ENGINE_STORE",
        "MANIFEST_FILENAME",
        "STORE_ENGINES",
        "NetworkStoreBackend",
        "NetworkStoreError",
        "SQLiteStoreBackend",
        "StoreBackend",
        "StoreServer",
        "migrate_store",
        "open_store",
        "parse_store_spec",
        "read_manifest",
    ),
    "repro.campaign.aggregate": (
        "CellSummary",
        "PairedComparison",
        "compare_labels",
        "paired_minima_from_records",
        "summarize",
    ),
    "repro.campaign.execution": (
        "JOB_AUDIT_ENV",
        "RUN_ID_ENV",
        "execute_job",
        "job_function",
        "mw_job_executor",
        "run_job",
    ),
    "repro.campaign.progress": (
        "CellProgress",
        "ProgressSnapshot",
        "WorkerUtilization",
        "cells_from_status",
        "format_duration",
        "seed_rate",
        "watch_campaign",
        "workers_from_trace",
    ),
    "repro.campaign.runner": (
        "DEFAULT_LEASE_TTL",
        "MW_TRANSPORTS",
        "RESULTS_FILENAME",
        "RUNNER_BACKENDS",
        "SPEC_FILENAME",
        "Campaign",
        "CampaignReport",
        "CampaignRunner",
        "default_runner_id",
    ),
    "repro.campaign.scheduler": (
        "CampaignScheduler",
        "MultiCampaignMaster",
        "TenantQueue",
        "serve_status",
    ),
    "repro.campaign.spec": (
        "AlgorithmVariant",
        "CampaignSpec",
        "Job",
        "canonical_json",
    ),
    "repro.campaign.store": (
        "STATUS_CLAIMED",
        "STATUS_DONE",
        "STATUS_FAILED",
        "STATUS_RELEASED",
        "CompactionStats",
        "Lease",
        "ResultStore",
    ),
}
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)

__all__ = [name for names in _EXPORTS.values() for name in names]
