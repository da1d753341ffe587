"""Job execution: the §3.2/§3.3 controlled-noise protocol, jobified.

One :class:`~repro.campaign.spec.Job` maps to one optimizer run: draw the
initial simplex from the job's seed stream, wrap the test function with
``resample``-mode Gaussian noise from an *independent* stream (so paired
comparisons across algorithms share initial simplexes, as in the paper's
figures), run under tolerance + walltime + step-cap termination.

The seed discipline is part of the job's identity: the same job produces
bitwise-identical results on any backend, in any execution order, which is
what lets an interrupted-and-resumed campaign reproduce an uninterrupted
run exactly.

Async mode (``campaign run --async``) drops the work unit from a whole job
to a single ask/tell proposal: :func:`proposal_work` serializes one
deterministic surface evaluation, :func:`mw_eval_executor` answers it on a
worker, and the master merges noise at tell time.  The chaos seams
(``$REPRO_EVAL_SLOW``, ``$REPRO_EVAL_DROP_ONCE``) and the ``slow_*``
executor variants exist so tests and CI can inject stragglers and lost
evaluations at that granularity.
"""

from __future__ import annotations

import os
import time
from typing import Optional

import numpy as np

from repro.campaign.backends.base import STATUS_DONE, STATUS_FAILED
from repro.campaign.spec import Job
from repro.core.driver import make_optimizer
from repro.core.state import OptimizationResult
from repro.core.termination import default_termination
from repro.functions import get_function, random_vertices
from repro.functions.suite import TestFunction
from repro.noise import StochasticFunction
from repro.telemetry import new_span_id

#: Offset decoupling the noise stream from the initial-state stream.
NOISE_SEED_OFFSET = 1_000_003

#: Environment variable naming an execution audit log.  When set, every
#: job execution appends one ``O_APPEND`` line (so entries from any
#: number of runner processes interleave whole) to that file *before*
#: running — the ground truth for "how many times was this job actually
#: evaluated", which store records cannot answer (last-record-wins hides
#: duplicates).  Each line is ``job_id run_id span_id worker``: the run
#: id identifies the ``run()`` call that dispatched the execution (via
#: ``$REPRO_RUN_ID``), the span id is fresh per execution attempt and
#: also rides the store record and the telemetry trace's ``job`` event,
#: so audit entries correlate with traces and exactly-once can be
#: asserted *per span*.  The trailing ``worker`` token is placement
#: evidence — ``rank:cap1,cap2`` (or just ``rank``, or ``-`` when no
#: worker context exists, e.g. the serial backend) — which is how the CI
#: scheduler-smoke job proves constrained jobs only ran on
#: capability-matching workers.  Fields are whitespace-free, so
#: ``line.split()`` indexes 0–2 parse identically to the three-field
#: format older logs used.  The chaos test suite and the CI chaos-smoke
#: job assert exactly-once execution through this log.
JOB_AUDIT_ENV = "REPRO_JOB_AUDIT_LOG"

#: Environment variable carrying the dispatching run's id into executing
#: processes (the runner exports it; pool / mw workers inherit it).
RUN_ID_ENV = "REPRO_RUN_ID"


def worker_token(context) -> str:
    """Whitespace-free placement token for a worker context, ``"-"`` if none.

    ``rank:cap1,cap2`` when the worker declared capabilities, bare
    ``rank`` when it declared none — the audit log's fourth field.
    """
    rank = getattr(context, "rank", None)
    if rank is None:
        return "-"
    caps = sorted(getattr(context, "caps", None) or ())
    return f"{rank}:{','.join(caps)}" if caps else str(rank)


def _audit_execution(job_id: str, run_id: str, span_id: str,
                     worker: str = "-") -> None:
    """Append ``job_id run_id span_id worker`` to ``$REPRO_JOB_AUDIT_LOG``, if set."""
    path = os.environ.get(JOB_AUDIT_ENV)
    if not path:
        return
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, f"{job_id} {run_id} {span_id} {worker}\n".encode("utf-8"))
    finally:
        os.close(fd)


def job_function(job: Job) -> TestFunction:
    """The deterministic test function a job optimizes."""
    return get_function(job.function, job.dim)


def build_job_optimizer(job: Job, record_trace: bool = False):
    """Construct (but do not run) the optimizer a job describes.

    The seed discipline lives here: initial simplex from ``job.seed``, noise
    from the decoupled ``job.seed + NOISE_SEED_OFFSET`` stream.  ``execute_job``
    runs the returned optimizer to termination; the async campaign driver
    instead drives it through the ask/tell seam, farming each proposal out as
    its own mw task.
    """
    f = job_function(job)
    init_rng = np.random.default_rng(job.seed)
    vertices = random_vertices(job.dim, low=job.low, high=job.high, rng=init_rng)
    noise_rng = np.random.default_rng(job.seed + NOISE_SEED_OFFSET)
    func = StochasticFunction(f, sigma0=job.sigma0, mode=job.noise_mode, rng=noise_rng)
    termination = default_termination(
        tau=job.tau, walltime=job.walltime, max_steps=job.max_steps
    )
    return make_optimizer(
        job.algorithm,
        func,
        vertices,
        termination=termination,
        record_trace=record_trace,
        **job.options,
    )


def execute_job(job: Job, record_trace: bool = False) -> OptimizationResult:
    """Run one job's optimizer to termination (deterministic in the job)."""
    return build_job_optimizer(job, record_trace=record_trace).run()


def run_job(job: Job) -> dict:
    """Execute a job and package the outcome as a store record.

    Module-level (picklable) so the ``process`` backend can ship it to
    workers; exceptions become ``failed`` records instead of poisoning the
    whole batch.
    """
    return _run_job_record(job)


def mw_job_executor(work: dict, context) -> dict:
    """MW executor adapter: run one job payload, return its store record.

    ``work`` is a :meth:`Job.to_dict` payload (plain JSON, so it rides the
    mw codec across the ``process`` transport) and ``context`` is the
    worker's :class:`~repro.mw.worker.WorkerContext` — the job's *result*
    is a deterministic function of the job alone (which is what makes
    cooperative multi-runner draining safe: whichever runner or host
    executes a job appends the identical record), but the context's rank
    and capability vector are stamped on the audit line and record as
    placement evidence.

    Module-level so process-transport workers can import it by reference.
    """
    return _run_job_record(Job.from_dict(work), worker=worker_token(context))


def _run_job_record(job: Job, worker: str = "-") -> dict:
    run_id = os.environ.get(RUN_ID_ENV, "-")
    span_id = new_span_id()
    _audit_execution(job.job_id, run_id, span_id, worker)
    t0 = time.perf_counter()
    try:
        result = execute_job(job)
    except Exception as exc:  # noqa: BLE001 - one bad job must not kill the sweep
        return {
            "job_id": job.job_id,
            "status": STATUS_FAILED,
            "job": job.to_dict(),
            "result": None,
            "error": f"{type(exc).__name__}: {exc}",
            "elapsed_s": time.perf_counter() - t0,
            "run_id": run_id,
            "span_id": span_id,
            "worker": worker,
        }
    return {
        "job_id": job.job_id,
        "status": STATUS_DONE,
        "job": job.to_dict(),
        "result": result.to_dict(),
        "error": None,
        "elapsed_s": time.perf_counter() - t0,
        "run_id": run_id,
        "span_id": span_id,
        "worker": worker,
    }


# -- proposal-granular execution (async mode) ---------------------------------

#: Chaos seam: ``"rank:seconds"`` — the worker with that rank sleeps the
#: given seconds before answering each evaluation.  Models a straggler
#: node; the async chaos suite uses it to show that one slow worker no
#: longer stalls every other job at an iteration barrier.
EVAL_SLOW_ENV = "REPRO_EVAL_SLOW"

#: Chaos seam: ``"markerpath:pattern"`` — the first evaluation whose audit
#: key (``job_id/proposal_id``) contains ``pattern`` raises instead of
#: answering, exactly once globally (the marker file is created with
#: ``O_CREAT | O_EXCL``, so concurrent workers race for a single drop).
#: Models a lost work unit; the mw layer's retry machinery must requeue it.
EVAL_DROP_ONCE_ENV = "REPRO_EVAL_DROP_ONCE"


def proposal_work(job: Job, proposal) -> dict:
    """Wire payload for one ask/tell proposal (plain JSON for the mw codec).

    Ships only what the worker needs to compute the *deterministic* surface
    value: the function name, dimension and the proposal's theta.  No noise
    state crosses the wire — noise is applied master-side at merge time
    (:meth:`~repro.noise.stochastic.StochasticFunction.merge_external_batch`),
    which is what keeps the job's rng stream independent of reply order.
    """
    return {
        "kind": "eval",
        "job_id": job.job_id,
        "proposal_id": proposal.id,
        "function": job.function,
        "dim": job.dim,
        "theta": [float(x) for x in np.asarray(proposal.theta, dtype=float)],
        "dt": float(proposal.dt),
        "label": proposal.label,
    }


def batch_proposal_work(pairs) -> dict:
    """Wire payload for a batched frame of proposals (``--eval-batch q``).

    ``pairs`` is a list of ``(job, proposal)`` tuples that must all share
    one function name and dimension — the unit a single vectorized
    ``TestFunction.batch`` call can evaluate.  The payload is *columnar*
    (one ``(q, d)`` theta array, parallel id lists) rather than a list of
    per-proposal dicts: the ndarray crosses the codec as one raw-bytes
    tag, so frame encoding cost stays flat in ``q`` instead of growing a
    struct call per field.  Column order is the frame order: the executor
    returns ``values`` aligned with it, and the async driver's tell
    fan-in splits them back to per-proposal ids.

    Only what the worker consumes crosses the wire: ids (for the audit and
    drop-once chaos seams) and thetas.  Per-proposal ``dt``/``label`` stay
    master-side in the driver's task map — they are merge-time inputs, not
    evaluation inputs.
    """
    first_job = pairs[0][0]
    for job, _ in pairs:
        if job.function != first_job.function or job.dim != first_job.dim:
            raise ValueError(
                f"batch frame mixes objectives: {job.function}:{job.dim} "
                f"vs {first_job.function}:{first_job.dim}"
            )
    return {
        "kind": "eval_batch",
        "function": first_job.function,
        "dim": first_job.dim,
        "job_ids": [job.job_id for job, _ in pairs],
        "proposal_ids": [proposal.id for _, proposal in pairs],
        "thetas": np.ascontiguousarray([p.theta for _, p in pairs], dtype=float),
    }


def _mw_eval_batch(work: dict, context) -> dict:
    """Evaluate one ``eval_batch`` frame: per-item audit, one vectorized call.

    Chaos semantics hold *per batch*: every member is audited (fresh span
    each) before the seams fire, and a drop-once hit on any member raises
    for the whole frame — the mw layer requeues it, so each member of a
    dropped frame shows exactly two audit lines with distinct spans.  The
    straggler sleep scales by the item count, costing what ``q`` scalar
    evaluations would have.

    The reply carries ``span_ids``/``keys`` only while the audit seam is
    active — on the hot path the reply is just the values vector, so the
    per-frame codec cost stays flat in ``q`` in both directions.
    """
    audited = bool(os.environ.get(JOB_AUDIT_ENV))
    keys = [
        f"{job_id}/{proposal_id}"
        for job_id, proposal_id in zip(work["job_ids"], work["proposal_ids"])
    ]
    span_ids = []
    if audited:
        run_id = os.environ.get(RUN_ID_ENV, "-")
        worker = worker_token(context)
        for key in keys:
            span_id = new_span_id()
            _audit_execution(key, run_id, span_id, worker)
            span_ids.append(span_id)

    drop_spec = os.environ.get(EVAL_DROP_ONCE_ENV)
    if drop_spec:
        marker, _, pattern = drop_spec.rpartition(":")
        if marker and pattern:
            for key in keys:
                if pattern not in key:
                    continue
                try:
                    os.close(
                        os.open(marker, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
                    )
                except FileExistsError:
                    pass  # someone already took the one drop
                else:
                    raise RuntimeError(f"chaos: dropped evaluation {key}")

    slow_spec = os.environ.get(EVAL_SLOW_ENV)
    if slow_spec:
        rank_s, _, seconds_s = slow_spec.partition(":")
        if rank_s and seconds_s and int(rank_s) == getattr(context, "rank", -1):
            time.sleep(float(seconds_s) * len(keys))

    f = get_function(work["function"], int(work["dim"]))
    thetas = np.ascontiguousarray(work["thetas"], dtype=float)
    values = f.batch(thetas)
    reply = {
        "kind": "eval_batch",
        "values": [float(v) for v in values],
    }
    if audited:
        reply["span_ids"] = span_ids
        reply["keys"] = keys
    return reply


def mw_eval_executor(work: dict, context) -> dict:
    """MW executor adapter for one proposal evaluation (async mode).

    Audits the attempt (key ``job_id/proposal_id``, fresh span id) *before*
    the chaos seams fire, so a dropped evaluation still leaves its audit
    line — that is how the chaos suite counts "requeued exactly once":
    exactly two audit lines with distinct spans for the dropped proposal,
    one line for every other.  A payload of ``kind == "eval_batch"``
    (built by :func:`batch_proposal_work`) dispatches to the vectorized
    batch kernel instead.  Module-level so process/tcp workers can import
    it by reference (``mw-worker --executor``).
    """
    if work.get("kind") == "eval_batch":
        return _mw_eval_batch(work, context)
    job_id = work["job_id"]
    proposal_id = work["proposal_id"]
    key = f"{job_id}/{proposal_id}"
    run_id = os.environ.get(RUN_ID_ENV, "-")
    span_id = new_span_id()
    _audit_execution(key, run_id, span_id, worker_token(context))

    drop_spec = os.environ.get(EVAL_DROP_ONCE_ENV)
    if drop_spec:
        marker, _, pattern = drop_spec.rpartition(":")
        if marker and pattern and pattern in key:
            try:
                os.close(os.open(marker, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644))
            except FileExistsError:
                pass  # someone already took the one drop
            else:
                raise RuntimeError(f"chaos: dropped evaluation {key}")

    slow_spec = os.environ.get(EVAL_SLOW_ENV)
    if slow_spec:
        rank_s, _, seconds_s = slow_spec.partition(":")
        if rank_s and seconds_s and int(rank_s) == getattr(context, "rank", -1):
            time.sleep(float(seconds_s))

    f = get_function(work["function"], int(work["dim"]))
    value = float(f(np.asarray(work["theta"], dtype=float)))
    return {"proposal_id": proposal_id, "job_id": job_id, "value": value, "span_id": span_id}


def slow_mw_job_executor(work: dict, context) -> dict:
    """``mw_job_executor`` on a worker whose *evaluations* run slow.

    Emulates the same straggler as :func:`slow_mw_eval_executor` at job
    granularity: after running the job it sleeps ``$REPRO_EVAL_SLOW_S``
    seconds **per underlying function call** the job performed, exactly
    the extra time a per-evaluation slowdown would have cost inline.
    Handed to a single worker via ``mw-worker --executor`` in the
    whole-job leg of the CI async-smoke job: the straggler then holds a
    whole job, while the async leg only ever waits on one of its
    evaluations at a time.
    """
    record = mw_job_executor(work, context)
    per_eval = float(os.environ.get("REPRO_EVAL_SLOW_S", "1.0"))
    calls = int((record.get("result") or {}).get("n_underlying_calls", 1))
    time.sleep(per_eval * max(1, calls))
    return record


def slow_mw_eval_executor(work: dict, context) -> dict:
    """``mw_eval_executor`` plus a per-evaluation sleep of ``$REPRO_EVAL_SLOW_S``.

    The async-leg straggler of the CI async-smoke job: the slow worker holds
    one proposal at a time while the fast workers keep the other jobs moving,
    so the async wall clock stays near the fast workers' throughput.  For a
    batched frame the sleep scales by the item count — the time ``q``
    scalar evaluations would have cost.
    """
    n = len(work["job_ids"]) if work.get("kind") == "eval_batch" else 1
    time.sleep(float(os.environ.get("REPRO_EVAL_SLOW_S", "1.0")) * n)
    return mw_eval_executor(work, context)
