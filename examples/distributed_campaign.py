#!/usr/bin/env python
"""Distributed campaign demo: two runners, one store, compaction, watching.

Builds a 24-job campaign in a shared directory, then demonstrates the
multi-runner story from docs/CAMPAIGNS.md:

1. two runner *processes* started on the same directory with the ``mw``
   backend (master-worker driver; worker crashes requeue their tasks) —
   each claims small batches of jobs in the shared store before running
   them, so the two partition the grid and no job runs twice,
2. a ``watch``-style progress snapshot read from the directory while the
   runners work (here taken after they finish, since the demo jobs are
   fast),
3. store compaction (claim lines and superseded records collapse to one
   line per job),
4. the per-cell summary, byte-identical before and after compaction.

Everything here maps 1:1 onto the CLI::

    python -m repro campaign run   DIR --backend mw --progress   # on each host
    python -m repro campaign watch DIR
    python -m repro campaign compact DIR
    python -m repro campaign summary DIR

Run:  python examples/distributed_campaign.py [directory]
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

from repro.analysis import format_table
from repro.campaign import Campaign, CampaignSpec, CellSummary, watch_campaign

SRC = Path(__file__).resolve().parents[1] / "src"


def runner_process(directory: Path) -> subprocess.Popen:
    """One cooperating runner: the CLI on the mw backend."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "campaign", "run", str(directory),
            "--backend", "mw", "--mw-transport", "process",
            "--max-workers", "2", "--batch-size", "2", "--progress",
        ],
        env=env,
    )


def main() -> None:
    directory = Path(
        sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="dist-campaign-")
    )
    spec = CampaignSpec(
        name="distributed-demo",
        algorithms=[{"algorithm": "PC", "options": {"k": 1.0}}, "MN"],
        functions=["sphere", "rosenbrock"],
        dims=[3],
        sigma0s=[100.0],
        n_seeds=6,
        base_seed=42,
        tau=1e-3,
        walltime=2e4,
        max_steps=300,
    )
    campaign = Campaign(directory, spec=spec)
    print(f"campaign directory: {directory}")
    print(f"jobs              : {len(spec.expand())}\n")

    print("-- two cooperating runner processes on the mw backend --")
    runners = [runner_process(directory), runner_process(directory)]
    for proc in runners:
        proc.wait()

    print("\n-- progress snapshot (what `campaign watch` tails) --")
    for snapshot in watch_campaign(campaign, max_ticks=1):
        print(snapshot.line())

    print("\n-- compaction --")
    summary_before = [s.as_row() for s in campaign.summary()]
    print(campaign.compact())
    summary_after = [s.as_row() for s in campaign.summary()]
    assert summary_before == summary_after, "compaction must not change results"
    print("summary identical before and after compaction")

    print("\n-- per-cell summary --")
    print(format_table(CellSummary.header(), summary_after))


if __name__ == "__main__":
    main()
