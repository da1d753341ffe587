"""The two workloads and how one round of each is run and checked.

Every workload is a closed loop: a round's whole grid exists at start,
one master process drives it through the production code path with two
``mw-worker`` processes over tcp, and the round ends when every job is
recorded.  Inputs come only from the workload seed: round ``r`` of seed
``s`` draws its grid seeds from ``Random(f"{s}:{r}")``.
"""

from __future__ import annotations

import json
import random
import shutil
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from perfbench.fleet import EXECUTORS, Fleet
from perfbench.hooks import LayerState, Probe
from perfbench.report import RoundResult
from repro.campaign import Campaign
from repro.campaign.execution import execute_job
from repro.campaign.scheduler import MultiCampaignMaster
from repro.campaign.spec import CampaignSpec, Job

#: Worker processes per round (the machine's core count; one master).
N_WORKERS = 2
#: Master listen URL: port 0, the bound port is read back after start.
LISTEN = "tcp://127.0.0.1:0"
#: A round that runs longer than this fails loudly instead of hanging.
ROUND_TIMEOUT_S = 120.0
#: Initial simplex size of every job.
SIGMA0 = 0.3
#: Claim lease ttl on the serve workload: short enough that the
#: heartbeat renews (every ttl / 3) several times per round.
SERVE_LEASE_TTL_S = 3.0


@dataclass(frozen=True)
class CampaignLoad:
    """``Campaign.run`` in async mode over tcp, with a local sqlite store."""

    name: str
    algorithms: Tuple[str, ...]
    dims: Tuple[int, ...]
    n_seeds: int
    eval_batch: int
    batch_size: int
    max_inflight: int
    max_steps: int
    executor = "eval"


@dataclass(frozen=True)
class ServeLoad:
    """``MultiCampaignMaster.serve`` of weighted tenants over one store-serve."""

    name: str
    tenants: Tuple[Tuple[str, str, float], ...]   # (name, algorithm, weight)
    dim: int
    n_seeds: int
    batch_size: int
    max_steps: int
    executor = "job"


#: The async runner flushes a claimed batch's records together when the
#: batch ends, so its jobs share one latency.  The claim batch sizes put
#: the p50 and p90 ranks in the middle of one batch's latencies, not on
#: the edge between two, and keep each batch shorter than the runner's
#: default 2 s flush interval, which would otherwise split it.
WORKLOADS = {
    "tcp-q32-mixed": CampaignLoad(
        name="tcp-q32-mixed", algorithms=("ANDERSON", "DET"), dims=(4, 16),
        n_seeds=25, eval_batch=32, batch_size=30, max_inflight=64,
        max_steps=8,
    ),
    "serve-netstore": ServeLoad(
        name="serve-netstore", tenants=(("pc", "PC", 2.0), ("det", "DET", 1.0)),
        dim=2, n_seeds=200, batch_size=8, max_steps=3,
    ),
}

#: Steps per job in ``--tiny`` smoke runs (grid sizes are kept, so every
#: percentile still has its samples).
TINY_MAX_STEPS = 3


def grid_seeds(seed: int, round_index: int, n: int) -> List[int]:
    """``n`` distinct job seeds for one round, a function of the seed only."""
    return random.Random(f"{seed}:{round_index}").sample(range(2**31), n)


def round_specs(load, seed: int, round_index: int,
                tiny: bool) -> List[Tuple[CampaignSpec, float]]:
    """The campaign specs (with tenant weights) one round runs."""
    seeds = grid_seeds(seed, round_index, load.n_seeds)
    max_steps = TINY_MAX_STEPS if tiny else load.max_steps
    if isinstance(load, CampaignLoad):
        spec = CampaignSpec(
            name=load.name, algorithms=list(load.algorithms), functions=["sphere"],
            dims=list(load.dims), sigma0s=[SIGMA0], seeds=seeds,
            max_steps=max_steps,
        )
        return [(spec, 1.0)]
    return [
        (CampaignSpec(
            name=name, algorithms=[algorithm], functions=["sphere"],
            dims=[load.dim], sigma0s=[SIGMA0], seeds=seeds,
            max_steps=max_steps,
        ), weight)
        for name, algorithm, weight in load.tenants
    ]


def _normalized(result: dict) -> dict:
    """A result as it reads back from a store (JSON round trip)."""
    return json.loads(json.dumps(result))


def reference_results(jobs: Sequence[Job]) -> Dict[str, dict]:
    """Serial ``execute_job`` results of the given jobs, store-normalized."""
    return {job.job_id: _normalized(execute_job(job).to_dict()) for job in jobs}


def check_round(jobs: Sequence[Job], stored: Dict[str, dict], probe: Probe,
                references: Dict[str, dict]) -> Tuple[List[str], List[str]]:
    """Failed job ids and problem messages for one finished round.

    ``stored`` maps job id to the record the store holds.  Each job must
    be recorded exactly once, as done, and (where a reference exists)
    with a result equal to the serial run's.  Records for ids outside the
    grid are problems too.
    """
    failed: List[str] = []
    problems: List[str] = []
    grid = {job.job_id for job in jobs}
    for job_id in sorted(set(probe.record_counts) - grid):
        problems.append(f"record for job {job_id} outside the grid")
    for job in jobs:
        job_id = job.job_id
        n = probe.record_counts.get(job_id, 0)
        rec = stored.get(job_id)
        if n == 0 or rec is None:
            problem = "missing"
        elif n > 1:
            problem = f"recorded {n} times"
        elif rec["status"] != "done":
            problem = f"failed: {rec.get('error')}"
        elif job_id in references and rec["result"] != references[job_id]:
            problem = "result differs from a serial execute_job"
        else:
            continue
        failed.append(job_id)
        problems.append(f"{job.label} seed {job.seed} ({job_id}): {problem}")
    return failed, problems


class _RoundTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise _RoundTimeout(f"round exceeded {ROUND_TIMEOUT_S:g}s")


def run_round(load, seed: int, round_index: int, workdir: Path, root: Path,
              probe: Probe, layer_state: LayerState, traced: bool,
              tiny: bool) -> RoundResult:
    """Run one round from a fresh directory and fleet; check its outputs.

    Set-up runs from the call to the first task dispatch: store open (and
    ``store-serve`` start), grid expansion, worker spawn and hello.  The
    timed window runs from the first claim to the last durable record.
    References and checks run after it.
    """
    round_dir = workdir / f"round-{round_index}"
    shutil.rmtree(round_dir, ignore_errors=True)
    worker_out = round_dir / "workers"
    worker_out.mkdir(parents=True)
    specs = round_specs(load, seed, round_index, tiny)
    probe.reset()
    layer_state.reset_round()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, ROUND_TIMEOUT_S)
    fleet = Fleet(root, round_dir / "logs",
                  env={"PERFBENCH_WORKER_OUT": str(worker_out)})
    try:
        probe.fleet = fleet
        probe.executor = EXECUTORS[(load.executor, traced)]
        start = time.perf_counter()
        if isinstance(load, CampaignLoad):
            jobs, stored = _run_campaign(load, specs[0][0], round_dir)
        else:
            jobs, stored = _run_serve(load, specs, round_dir, fleet)
    except _RoundTimeout as exc:
        raise RuntimeError(f"{load.name} round {round_index}: {exc}\n"
                           f"{fleet.log_tail()}") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        probe.fleet = None
        fleet.stop()
    if probe.first_dispatch is None or probe.last_record is None:
        raise RuntimeError(f"{load.name} round {round_index} dispatched or "
                           f"recorded nothing")
    checked = jobs if load.executor == "job" else [
        job for job in jobs if job.algorithm == "DET"
    ]
    failed, problems = check_round(jobs, stored, probe, reference_results(checked))
    done = [stored[job.job_id] for job in jobs
            if stored.get(job.job_id, {}).get("status") == "done"]
    workers = [json.loads(p.read_text()) for p in sorted(worker_out.glob("*.json"))]
    result = RoundResult(
        traced=traced,
        setup_s=probe.first_dispatch - start,
        window_s=probe.last_record - probe.first_claim,
        cpu_s=probe.cpu_last_record - probe.cpu_first_claim,
        n_jobs=len(jobs),
        n_done=len(done),
        failed_ids=failed,
        problems=problems,
        latencies=[probe.recorded[j] - probe.claimed[j]
                   for j in probe.recorded if j in probe.claimed],
        evals=sum(int(rec["result"]["n_underlying_calls"]) for rec in done),
        best_true=[(f'{rec["job"]["function"]}:{rec["job"]["dim"]}',
                    float(rec["result"]["best_true"])) for rec in done],
        record_lags=[probe.recorded[j] - t
                     for j, t in layer_state.finished.items()
                     if j in probe.recorded],
        drivers=list(probe.drivers.values()),
        workers=workers,
    )
    shutil.rmtree(round_dir, ignore_errors=True)
    return result


def _run_campaign(load: CampaignLoad, spec: CampaignSpec,
                  round_dir: Path) -> Tuple[List[Job], Dict[str, dict]]:
    campaign = Campaign(round_dir / spec.name, spec=spec, store="sqlite")
    try:
        report = campaign.run(
            backend="mw", mw_transport=LISTEN, max_workers=N_WORKERS,
            async_mode=True, eval_batch=load.eval_batch,
            batch_size=load.batch_size, max_inflight=load.max_inflight,
        )
        if report.interrupted:
            raise KeyboardInterrupt
        return campaign.jobs(), {rec["job_id"]: rec
                                 for rec in campaign.store.records()}
    finally:
        campaign.store.close()


def _run_serve(load: ServeLoad, specs, round_dir: Path,
               fleet: Fleet) -> Tuple[List[Job], Dict[str, dict]]:
    url = fleet.start_store_server(round_dir / "store")
    directories = []
    weights = {}
    for spec, weight in specs:
        directory = round_dir / spec.name
        Campaign(directory, spec=spec, store=url).store.close()
        directories.append(directory)
        weights[spec.name] = weight
    master = MultiCampaignMaster(
        directories, transport=LISTEN, max_workers=N_WORKERS, weights=weights,
        batch_size=load.batch_size, lease_ttl=SERVE_LEASE_TTL_S,
    )
    try:
        master.serve(timeout=ROUND_TIMEOUT_S)
        jobs: List[Job] = []
        stored: Dict[str, dict] = {}
        for tenant in master.tenants.values():
            jobs.extend(tenant.campaign.jobs())
            # Tenants share one server, so each client sees every record.
            stored.update((rec["job_id"], rec)
                          for rec in tenant.campaign.store.records())
        return jobs, stored
    finally:
        for tenant in master.tenants.values():
            tenant.campaign.store.close()
