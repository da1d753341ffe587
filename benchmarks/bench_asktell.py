"""Master CPU per job on the ask/tell path.

Runs the grid shape of the ``tcp-q32-mixed`` workload (ANDERSON and DET
on the sphere surface, dims 4 and 16 mixed, 25 seeds, 8 steps,
``--eval-batch 32``, claim batches of 30, ``--max-inflight 64``) as an
in-process async :class:`~repro.campaign.Campaign` run and reports its
CPU time per job, measured with :func:`time.process_time` — the minimum
over ``--repeats`` runs.  The inproc workers evaluate inside the timed
process, so the number includes their (vectorized, cheap) evaluation
time; everything else is what the master pays per proposal: ask, tell,
noise merges, frame building and the store.  On a shared host process
time still drifts between runs, so compare two trees by alternating
single runs (``--repeats 1``) of each and taking the median pair ratio.

It also prints a digest of every record's job id, ``best_true``,
``best_estimate`` and ``n_underlying_calls``: a change that claims to
keep every trajectory must leave it unchanged.  One more, untimed run
counts the refinement share (``TELL_EXTRA`` tells over all tells) and
the mw frames per job, so a change in how much speculative work the
master handles is visible next to its CPU figure.

Usage::

    PYTHONPATH=src python benchmarks/bench_asktell.py
    PYTHONPATH=src python benchmarks/bench_asktell.py --repeats 9

Not a CI gate; report before/after numbers with the change.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.campaign import Campaign  # noqa: E402 - path bootstrap above
from repro.campaign.spec import CampaignSpec  # noqa: E402
from repro.core.async_driver import AsyncEvalDriver  # noqa: E402
from repro.core.base import TELL_EXTRA, SimplexOptimizer  # noqa: E402

#: The ``tcp-q32-mixed`` grid and scheduling shape.
SPEC = dict(algorithms=["ANDERSON", "DET"], functions=["sphere"], dims=[4, 16],
            sigma0s=[0.3], seeds=list(range(25)), max_steps=8)
RUN = dict(backend="mw", mw_transport="inproc", max_workers=2,
           async_mode=True, eval_batch=32, batch_size=30, max_inflight=64)


def records_digest(records) -> str:
    """Short hex digest of what each job's trajectory determines."""
    h = hashlib.sha256()
    for rec in sorted(records, key=lambda r: r["job_id"]):
        res = rec["result"]
        h.update(json.dumps([rec["job_id"], res["best_true"], res["best_estimate"],
                             res["n_underlying_calls"]]).encode())
    return h.hexdigest()[:16]


def run_once() -> tuple:
    """One fresh campaign run; returns (CPU seconds, jobs, digest)."""
    spec = CampaignSpec(name="asktell", **SPEC)
    with tempfile.TemporaryDirectory(prefix="bench-asktell-") as tmp:
        campaign = Campaign(Path(tmp) / spec.name, spec=spec, store="sqlite")
        try:
            t0 = time.process_time()
            campaign.run(**RUN)
            cpu = time.process_time() - t0
            records = list(campaign.store.records())
        finally:
            campaign.store.close()
    return cpu, len(records), records_digest(records)


@contextlib.contextmanager
def counting_tells():
    """Count tell statuses (through ``tell_many``, the driver's fan-in)
    and the async driver's frames while the block runs."""
    counts: Counter = Counter()
    tell_many, run = SimplexOptimizer.tell_many, AsyncEvalDriver.run

    def counted_tell_many(opt, items):
        statuses = tell_many(opt, items)
        counts.update(statuses)
        return statuses

    def counted_run(driver, sources, on_finished):
        stats = run(driver, sources, on_finished)
        counts["frames"] += stats["frames"]
        return stats

    SimplexOptimizer.tell_many = counted_tell_many
    AsyncEvalDriver.run = counted_run
    try:
        yield counts
    finally:
        SimplexOptimizer.tell_many = tell_many
        AsyncEvalDriver.run = run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="runs to take the minimum over (default 5)")
    args = parser.parse_args(argv)
    runs = [run_once() for _ in range(args.repeats)]
    with counting_tells() as counts:
        _, _, counted_digest = run_once()
    digests = {digest for _, _, digest in runs} | {counted_digest}
    if len(digests) != 1:
        print(f"error: runs disagree on the record digest: {sorted(digests)}",
              file=sys.stderr)
        return 1
    cpu, n_jobs, digest = min(runs)
    print(f"master CPU per job: {1e3 * cpu / n_jobs:.2f} ms "
          f"(min of {args.repeats} runs of {n_jobs} jobs; "
          f"all: {', '.join(f'{1e3 * c / n_jobs:.2f}' for c, _, _ in runs)})")
    n_tells = sum(n for status, n in counts.items() if status != "frames")
    print(f"refinement share: {counts[TELL_EXTRA] / max(n_tells, 1):.3f} "
          f"({counts[TELL_EXTRA]} TELL_EXTRA of {n_tells} tells)")
    print(f"frames per job: {counts['frames'] / n_jobs:.1f}")
    print(f"record digest: {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
