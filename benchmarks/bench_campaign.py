"""End-to-end campaign throughput benchmark for batched evaluation.

Runs a real (small) campaign grid — ANDERSON on the sphere surface, the
algorithm whose large refinement rounds exercise the ask/tell pipeline
hardest — through the production :class:`~repro.campaign.Campaign` path
for a grid of (transport, store, ``--eval-batch``) cells, and reports
end-to-end jobs/s per cell plus the headline *batch speedup*: jobs/s at
``--eval-batch 32`` over jobs/s at ``--eval-batch 1`` on the tcp+sqlite
cell.

Every cell pins the same ``--max-inflight`` so both batch legs run the
same speculative pipeline depth (near-identical evaluations per job);
the speedup therefore isolates what batching the wire and the tell
fan-in buys, not a change in optimizer behaviour.

Usage::

    PYTHONPATH=src python benchmarks/bench_campaign.py
    PYTHONPATH=src python benchmarks/bench_campaign.py --json BENCH_campaign.json
    PYTHONPATH=src python benchmarks/bench_campaign.py \\
        --check benchmarks/baselines/bench_campaign.json --tolerance 0.40

``--json`` writes the measurements for the CI artifact; ``--check``
compares the gated cell's jobs/s *and* the batch speedup ratio against a
committed baseline and exits non-zero when either regressed by more than
``--tolerance`` (the CI bench-campaign gate).  The speedup ratio is the
robust number on shared CI machines — both legs run on the same box, so
machine speed divides out.
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.campaign import Campaign  # noqa: E402 - path bootstrap above
from repro.campaign.spec import CampaignSpec  # noqa: E402
from repro.core.async_driver import AsyncEvalDriver  # noqa: E402

#: The cell the regression gate checks (others are context).
GATED_TRANSPORT = "tcp"
GATED_STORE = "sqlite"

#: The batch sizes whose jobs/s ratio is the headline speedup.
SPEEDUP_BASE = 1
SPEEDUP_BATCH = 32

#: Default cell grid: (transport, store, eval_batch).
DEFAULT_CELLS = (
    ("threaded", "jsonl", 1),
    ("threaded", "jsonl", 32),
    ("tcp", "sqlite", 1),
    ("tcp", "sqlite", 8),
    ("tcp", "sqlite", 32),
)


def free_port() -> int:
    """An OS-assigned free TCP port (released before use; benign race)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def run_cell(
    transport: str,
    store: str,
    eval_batch: int,
    *,
    seeds: int,
    max_steps: int,
    dim: int,
    workers: int,
    max_inflight: int,
) -> dict:
    """One benchmark cell: a full campaign run, timed end to end.

    Returns jobs/s plus the driver's own evaluation counters (captured by
    wrapping :meth:`AsyncEvalDriver.run`) so the report can show evals/s
    and evals/job — the honesty columns proving both batch legs did the
    same optimization work.
    """
    stats: dict = {}
    orig_run = AsyncEvalDriver.run

    def capture_run(self, sources, on_finished):
        out = orig_run(self, sources, on_finished)
        for key, value in out.items():
            stats[key] = stats.get(key, 0) + value
        return out

    spec = CampaignSpec(
        name="bench",
        algorithms=["ANDERSON"],
        functions=["sphere"],
        dims=[dim],
        seeds=list(range(seeds)),
        sigma0s=[0.3],
        max_steps=max_steps,
    )
    procs: list = []
    tmp = Path(tempfile.mkdtemp(prefix="bench-campaign-"))
    AsyncEvalDriver.run = capture_run
    try:
        if transport == "tcp":
            port = free_port()
            mw_transport = f"tcp://127.0.0.1:{port}"
            env = dict(os.environ)
            env["PYTHONPATH"] = str(REPO_ROOT / "src")
            procs = [
                subprocess.Popen(
                    [
                        sys.executable, "-m", "repro", "mw-worker", mw_transport,
                        "--connect-timeout", "60",
                        "--executor", "repro.campaign.execution:mw_eval_executor",
                    ],
                    env=env,
                    stdout=subprocess.DEVNULL,
                )
                for _ in range(workers)
            ]
        else:
            mw_transport = transport

        campaign = Campaign(tmp, spec=spec, store=store)
        t0 = time.perf_counter()
        report = campaign.run(
            backend="mw",
            mw_transport=mw_transport,
            max_workers=workers,
            async_mode=True,
            eval_batch=eval_batch,
            batch_size=seeds,
            max_inflight=max_inflight,
        )
        elapsed = time.perf_counter() - t0
        for proc in procs:
            proc.wait(timeout=30)
            procs = []
    finally:
        AsyncEvalDriver.run = orig_run
        for proc in procs:
            proc.kill()
        import shutil

        shutil.rmtree(tmp, ignore_errors=True)

    if report.n_failed:
        raise RuntimeError(
            f"cell {transport}+{store}+q{eval_batch}: "
            f"{report.n_failed} jobs failed"
        )
    evals = int(stats.get("submitted", 0))
    frames = int(stats.get("frames", 0))
    return {
        "transport": transport,
        "store": store,
        "eval_batch": eval_batch,
        "n_jobs": report.n_done,
        "elapsed_s": round(elapsed, 3),
        "jobs_per_s": round(report.n_done / elapsed, 3),
        "evals_per_s": round(evals / elapsed, 1),
        "evals_per_job": round(evals / max(1, report.n_done), 1),
        "avg_frame_fill": round(evals / max(1, frames), 2),
    }


def cell_key(transport: str, store: str, eval_batch: int) -> str:
    return f"{transport}+{store}+q{eval_batch}"


def run_cell_isolated(
    transport: str, store: str, eval_batch: int, args: argparse.Namespace
) -> dict:
    """Run one cell in a fresh interpreter and parse its JSON result.

    Isolation keeps cells honest: a prior cell's worker threads
    (threaded transport runs workers in-process) must not share the
    interpreter with — and steal cycles from — the cell being timed.
    """
    proc = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()),
            "--run-one-cell", transport, store, str(eval_batch),
            "--seeds", str(args.seeds),
            "--max-steps", str(args.max_steps),
            "--dim", str(args.dim),
            "--workers", str(args.workers),
            "--max-inflight", str(args.max_inflight),
        ],
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"cell {cell_key(transport, store, eval_batch)} failed:\n"
            f"{proc.stdout}\n{proc.stderr}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def run_benchmark(args: argparse.Namespace) -> dict:
    cells = {}
    for transport, store, eval_batch in DEFAULT_CELLS:
        key = cell_key(transport, store, eval_batch)
        print(f"running {key} ...", flush=True)
        cells[key] = run_cell_isolated(transport, store, eval_batch, args)
        c = cells[key]
        print(
            f"  {c['jobs_per_s']:.2f} jobs/s  {c['evals_per_s']:,.0f} evals/s  "
            f"{c['evals_per_job']:,.0f} evals/job  "
            f"frame fill {c['avg_frame_fill']:.1f}",
            flush=True,
        )

    base = cells[cell_key(GATED_TRANSPORT, GATED_STORE, SPEEDUP_BASE)]
    batch = cells[cell_key(GATED_TRANSPORT, GATED_STORE, SPEEDUP_BATCH)]
    speedup = batch["jobs_per_s"] / base["jobs_per_s"]
    results = {
        "benchmark": "bench_campaign",
        "config": {
            "algorithm": "ANDERSON",
            "function": "sphere",
            "dim": args.dim,
            "seeds": args.seeds,
            "max_steps": args.max_steps,
            "workers": args.workers,
            "max_inflight": args.max_inflight,
        },
        "cells": cells,
        "batch_speedup": round(speedup, 2),
    }
    print(
        f"batch speedup [{GATED_TRANSPORT}+{GATED_STORE}] "
        f"q{SPEEDUP_BATCH} vs q{SPEEDUP_BASE}: {speedup:.1f}x"
    )
    return results


def check_regression(results: dict, baseline_path: Path, tolerance: float) -> int:
    """Compare the gated cell and speedup to the baseline; 0 = pass."""
    baseline = json.loads(baseline_path.read_text())
    gated = cell_key(GATED_TRANSPORT, GATED_STORE, SPEEDUP_BATCH)
    rc = 0

    base_jps = baseline["cells"][gated]["jobs_per_s"]
    cur_jps = results["cells"][gated]["jobs_per_s"]
    floor = base_jps * (1.0 - tolerance)
    verdict = "ok" if cur_jps >= floor else "REGRESSION"
    print(
        f"bench-campaign [{gated}]: {cur_jps:.2f} jobs/s vs baseline "
        f"{base_jps:.2f} (floor {floor:.2f} at {tolerance:.0%} tolerance) "
        f"-> {verdict}"
    )
    rc |= 0 if cur_jps >= floor else 1

    base_ratio = baseline["batch_speedup"]
    cur_ratio = results["batch_speedup"]
    ratio_floor = base_ratio * (1.0 - tolerance)
    verdict = "ok" if cur_ratio >= ratio_floor else "REGRESSION"
    print(
        f"bench-campaign [batch_speedup]: {cur_ratio:.1f}x vs baseline "
        f"{base_ratio:.1f}x (floor {ratio_floor:.1f}x) -> {verdict}"
    )
    rc |= 0 if cur_ratio >= ratio_floor else 1
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=16,
                        help="jobs per cell (grid seeds; default 16)")
    parser.add_argument("--max-steps", type=int, default=25,
                        help="optimizer steps per job (default 25)")
    parser.add_argument("--dim", type=int, default=16,
                        help="surface dimension (default 16)")
    parser.add_argument("--workers", type=int, default=3,
                        help="worker count per cell (default 3)")
    parser.add_argument("--max-inflight", type=int, default=64,
                        help="pinned pipeline depth for every cell (default 64)")
    parser.add_argument("--json", type=Path, default=None, metavar="PATH",
                        help="write results JSON to PATH")
    parser.add_argument("--check", type=Path, default=None, metavar="BASELINE",
                        help="compare against a baseline JSON; non-zero exit "
                             "on regression")
    parser.add_argument("--tolerance", type=float, default=0.40,
                        help="allowed fractional drop vs baseline "
                             "(default 0.40)")
    parser.add_argument("--run-one-cell", nargs=3, default=None,
                        metavar=("TRANSPORT", "STORE", "Q"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.run_one_cell:
        transport, store, q = args.run_one_cell
        cell = run_cell(
            transport,
            store,
            int(q),
            seeds=args.seeds,
            max_steps=args.max_steps,
            dim=args.dim,
            workers=args.workers,
            max_inflight=args.max_inflight,
        )
        print(json.dumps(cell))
        return 0

    results = run_benchmark(args)
    if args.json:
        args.json.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {args.json}")
    if args.check:
        return check_regression(results, args.check, args.tolerance)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
