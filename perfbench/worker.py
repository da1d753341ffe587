"""Worker-side executors for traced rounds: time each call, report at exit.

A traced round launches its ``mw-worker`` processes with ``--executor
perfbench.worker:traced_eval_executor`` (or ``traced_job_executor``).
Each wraps the program's own executor, adds up the seconds spent inside
it, and, when the worker process exits, writes its totals as JSON into
the directory named by ``$PERFBENCH_WORKER_OUT``.  The master compares
them with its dispatch-to-reply busy time to split worker execution from
wire, codec and queueing.
"""

from __future__ import annotations

import atexit
import json
import os
import time
from pathlib import Path

from repro.campaign.execution import mw_eval_executor, mw_job_executor

#: Directory the per-worker totals files are written into.
OUT_ENV = "PERFBENCH_WORKER_OUT"


class _Totals:
    """This worker process's executor call count and seconds inside it."""

    def __init__(self) -> None:
        self.calls = 0
        self.exec_s = 0.0
        self.registered = False

    def add(self, seconds: float) -> None:
        if not self.registered:
            self.registered = True
            atexit.register(self.write)
        self.calls += 1
        self.exec_s += seconds

    def write(self) -> None:
        out = os.environ.get(OUT_ENV)
        if out:
            path = Path(out) / f"worker-{os.getpid()}.json"
            path.write_text(json.dumps({"calls": self.calls,
                                        "exec_s": self.exec_s}))


_TOTALS = _Totals()


def _timed(executor, work, context):
    start = time.perf_counter()
    try:
        return executor(work, context)
    finally:
        _TOTALS.add(time.perf_counter() - start)


def traced_eval_executor(work: dict, context) -> dict:
    """:func:`~repro.campaign.execution.mw_eval_executor`, timed."""
    return _timed(mw_eval_executor, work, context)


def traced_job_executor(work: dict, context) -> dict:
    """:func:`~repro.campaign.execution.mw_job_executor`, timed."""
    return _timed(mw_job_executor, work, context)
