"""Turn measured rounds into the benchmark's end-to-end and per-layer metrics.

Every metric here is defined once, in ``catalogue.json`` beside this file;
this module computes them from :class:`RoundResult` records and the
layer tracer's totals.
"""

from __future__ import annotations

import resource
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from perfbench.stats import percentile, share_err

#: Span-name prefix -> layer, for the ``layer.<name>.self_frac`` shares.
#: Waits (``*.recv_wait``) are idle time, not a layer's work, and the
#: entry points, fleet launch and teardown belong to no layer.
LAYERS = {
    "core.": "core",
    "async_driver.": "async_driver",
    "mw.tcp.": "mw_tcp",
    "mw.driver.": "mw_driver",
    "runner.on_finished": "runner",
    "scheduler.": "scheduler",
    "store.": "store",
}
ENTRY_SPANS = ("runner.run", "master.serve")
OUTSIDE_SPANS = ("setup.fleet", "teardown.shutdown")
WAIT_SPANS = ("mw.tcp.recv_wait", "mw.driver.recv_wait")


@dataclass
class RoundResult:
    """One round: a fresh grid run to completion on a fresh fleet."""

    traced: bool
    setup_s: float
    window_s: float           # first claim -> last record durable
    cpu_s: float              # master CPU over the same window
    n_jobs: int
    n_done: int
    failed_ids: List[str]
    problems: List[str]
    latencies: List[float]    # per job: claim granted -> record durable
    evals: int                # sum of result.n_underlying_calls
    best_true: List[Tuple[str, float]]   # (objective "function:dim", value)
    record_lags: List[float] = field(default_factory=list)   # traced only
    drivers: List[dict] = field(default_factory=list)
    workers: List[dict] = field(default_factory=list)        # traced only


def jobs_per_s(rounds: List[RoundResult]) -> float:
    """Median over rounds of jobs done per second of timed window."""
    return statistics.median(r.n_done / r.window_s for r in rounds)


def _run_percentile(rounds: List[RoundResult], pct: int) -> float:
    latencies = [x for r in rounds for x in r.latencies]
    value = percentile(latencies, pct)
    if value is None:
        raise ValueError(
            f"{len(latencies)} job latencies are too few for a p{pct} with "
            f"10 samples beyond it"
        )
    return value


def end_to_end(rounds: List[RoundResult]) -> Dict[str, float]:
    """The end-to-end metrics over untraced rounds.

    Rates are medians over rounds, so one round slowed by the machine
    moves them little.  Latency percentiles are taken over every job of
    the run: a claimed batch's jobs share one latency, so one round's
    percentile is a single batch's duration, while the run's pools a
    few dozen batches.  The final error is the median over every job of
    the run per objective, averaged over objectives: pooled, the errors
    of two dimensions form two clusters and the median would fall in
    the gap between them.
    """
    by_objective: Dict[str, List[float]] = {}
    for r in rounds:
        for objective, value in r.best_true:
            by_objective.setdefault(objective, []).append(value)
    return {
        "jobs_per_s": jobs_per_s(rounds),
        "evals_per_s": statistics.median(r.evals / r.window_s for r in rounds),
        "job_latency_p50_s": _run_percentile(rounds, 50),
        "job_latency_p90_s": _run_percentile(rounds, 90),
        "final_error_median": statistics.mean(
            statistics.median(values) for values in by_objective.values()
        ),
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "master_peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this (the master) process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(untraced: List[RoundResult], traced: List[RoundResult],
              totals: Dict[str, dict], counts: Dict[str, float],
              queue_waits: List[float], dispatches: list,
              weights: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of a traced invocation.

    ``untraced`` rounds give the master's CPU share and the tracing
    overhead baseline; everything else comes from ``traced`` rounds.
    """
    def t(name: str, key: str = "s") -> float:
        return totals.get(name, {}).get(key, 0)

    master_s = (sum(t(n) for n in ENTRY_SPANS)
                - sum(t(n) for n in OUTSIDE_SPANS))
    layer_self: Dict[str, float] = {layer: 0.0 for layer in LAYERS.values()}
    for name, row in totals.items():
        if name in WAIT_SPANS:
            continue
        for prefix, layer in LAYERS.items():
            if name.startswith(prefix):
                layer_self[layer] += row["self_s"]

    rows = [row for r in traced for d in r.drivers for row in d["utilization"]]
    busy_s = sum(row["busy_s"] for row in rows)
    worker_evals = sum(row["evals"] for row in rows)
    exec_s = sum(w["exec_s"] for r in traced for w in r.workers)
    lags = [x for r in traced for x in r.record_lags]
    cpu_s = sum(r.cpu_s for r in untraced)

    metrics = {
        "master.cpu_s": cpu_s,
        "master.cpu_frac": _ratio(cpu_s, sum(r.window_s for r in untraced)),
        "master.unaccounted_frac": _ratio(sum(t(n, "self_s") for n in ENTRY_SPANS),
                                          master_s),
        "core.ask.calls": t("core.ask", "calls"),
        "core.ask.s": t("core.ask"),
        "core.tell.calls": t("core.tell", "calls"),
        "core.tell.s": t("core.tell"),
        "core.tell.stale_frac": _ratio(counts.get("core.tell.stale", 0),
                                       counts.get("core.tell.statuses", 0)),
        "core.tell.extra_frac": _ratio(counts.get("core.tell.extra", 0),
                                       counts.get("core.tell.statuses", 0)),
        "async_driver.run.calls": t("async_driver.run", "calls"),
        "async_driver.run.s": t("async_driver.run"),
        "async_driver.frames": counts.get("async_driver.frames", 0),
        "async_driver.frame_fill": _ratio(counts.get("async_driver.submitted", 0),
                                          counts.get("async_driver.frames", 0)),
        "mw.tcp.send_frame.calls": t("mw.tcp.send_frame", "calls"),
        "mw.tcp.send_frame.s": t("mw.tcp.send_frame"),
        "mw.tcp.recv_frame.calls": t("mw.tcp.recv_frame", "calls"),
        "mw.tcp.recv_frame.s": t("mw.tcp.recv_frame") - t("mw.tcp.recv_wait"),
        "mw.tcp.bytes_out": counts.get("mw.tcp.bytes_out", 0),
        "mw.tcp.frames_per_eval": _ratio(t("mw.tcp.send_frame", "calls"),
                                         worker_evals),
        "mw.driver.submit.s": t("mw.driver.submit"),
        "mw.driver.pump.calls": t("mw.driver.pump", "calls"),
        "mw.driver.pump.self_s": t("mw.driver.pump", "self_s"),
        "mw.driver.pump.wait_s": t("mw.driver.recv_wait"),
        "mw.driver.requeues": sum(d["requeues"] for r in traced for d in r.drivers),
        "mw.worker.busy_frac": _ratio(busy_s, sum(row["elapsed_s"] for row in rows)),
        "mw.worker.evals": worker_evals,
        "worker.exec.s": exec_s,
        "worker.overhead_frac": 1.0 - _ratio(exec_s, busy_s),
        "runner.claim_batches": counts.get("runner.claim_batches", 0),
        "runner.record_lag_p50_s": percentile(lags, 50) or 0.0,
        "scheduler.select.calls": t("scheduler.select", "calls"),
        "scheduler.select.s": t("scheduler.select"),
        "scheduler.queue_wait_p50_s": percentile(queue_waits, 50) or 0.0,
        "scheduler.share_err": share_err(dispatches, weights),
        "store.claim.calls": t("store.claim", "calls"),
        "store.claim.s": t("store.claim"),
        "store.record_many.calls": t("store.record_many", "calls"),
        "store.record_many.s": t("store.record_many"),
        "store.record_many.rows": counts.get("store.record_many.rows", 0),
        "store.renew.calls": t("store.renew", "calls"),
        "store.renew.s": t("store.renew"),
        "store.errors": (sum(row["errors"] for name, row in totals.items()
                             if name.startswith("store."))
                         + counts.get("store.reconnects", 0)),
        "trace.overhead_frac": 1.0 - _ratio(jobs_per_s(traced),
                                            jobs_per_s(untraced)),
    }
    for layer, own in layer_self.items():
        metrics[f"layer.{layer}.self_frac"] = _ratio(own, master_s)
    return metrics


def summary_line(rounds: List[RoundResult]) -> str:
    """One human line on what the rounds covered (sample counts included)."""
    n_lat = sum(len(r.latencies) for r in rounds)
    return (f"{len(rounds)} rounds, {sum(r.n_done for r in rounds)} jobs done, "
            f"{sum(r.evals for r in rounds)} evals, "
            f"{sum(r.window_s for r in rounds):.2f} s timed; "
            f"{n_lat} latency samples")
