#!/usr/bin/env python
"""Durable campaign demo: interrupt, resume, aggregate.

Builds a 20-job campaign (2 algorithms x 2 test functions x 5 seeds) in a
directory, then demonstrates the lifecycle the CLI exposes:

1. a *partial* run (``max_jobs`` simulates Ctrl-C / a killed batch job),
2. a resumed run on the ``process`` backend that skips the completed jobs,
3. the per-cell summary and a paired comparison read from the store.

Everything here maps 1:1 onto the CLI::

    python -m repro campaign run  DIR --algorithms PC MN --functions sphere rosenbrock \
        --dims 3 --sigma0s 100 --n-seeds 5 --backend mw --transport process
    python -m repro campaign status  DIR
    python -m repro campaign summary DIR
    python -m repro campaign compare DIR PC MN

Run:  python examples/campaign_sweep.py [directory]
"""

import sys
import tempfile
from pathlib import Path

from repro.analysis import format_table
from repro.campaign import Campaign, CampaignSpec, CellSummary


def main() -> None:
    directory = Path(
        sys.argv[1] if len(sys.argv) > 1 else tempfile.mkdtemp(prefix="campaign-")
    )
    spec = CampaignSpec(
        name="demo-sweep",
        algorithms=[{"algorithm": "PC", "options": {"k": 1.0}}, "MN"],
        functions=["sphere", "rosenbrock"],
        dims=[3],
        sigma0s=[100.0],
        n_seeds=5,          # SeedSequence-spawned: reproducible on any backend
        base_seed=42,
        tau=1e-3,
        walltime=2e4,
        max_steps=300,
    )
    campaign = Campaign(directory, spec=spec)

    print(f"campaign directory: {directory}\n")
    print("-- partial run (simulated interruption after 7 jobs) --")
    print(campaign.run(max_jobs=7))

    print("\n-- resumed run on mw worker processes (skips completed jobs) --")
    print(campaign.run(backend="mw", mw_transport="process", max_workers=2))

    print("\n-- per-cell summary --")
    summaries = campaign.summary()
    print(format_table(CellSummary.header(), [s.as_row() for s in summaries]))

    print("\n-- paired comparison: PC vs MN, per function --")
    for function in spec.functions:
        cmp = campaign.compare("PC", "MN", function=function)
        print(
            f"{function:>10s}: {cmp.n_pairs} shared seeds, median log10 ratio "
            f"{cmp.median:+.3f} (negative = PC wins), "
            f"sign-test p = {cmp.sign.p_value:.4f}"
        )


if __name__ == "__main__":
    main()
