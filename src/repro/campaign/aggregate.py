"""Aggregation over campaign result stores.

Turns flat job records into the shapes the paper reports:

* :func:`summarize` — per-cell (variant x function x dim x sigma0) means of
  the §3.2 performance triple (N, R, D) via
  :func:`repro.analysis.metrics.evaluate_runs`, plus success rate, mean
  converged true value, mean underlying-function-call cost, and mean
  virtual walltime.
* :func:`compare_labels` — seed-for-seed paired comparison of two
  algorithm variants (the Figs. 3.5-3.7 protocol): log10 ratios of
  converged minima, an exact sign test, and a bootstrap CI on the median
  ratio, both from :mod:`repro.analysis.stats`.

Everything operates on plain record dicts as returned by
``StoreBackend.records()`` — never on a store's representation — so
aggregation works identically on a live campaign directory, a finished
one, an in-memory store, and every engine (JSONL, SQLite, ``store://``); a
migrated store reproduces its tables exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.analysis.histograms import log_ratio
from repro.analysis.metrics import evaluate_runs
from repro.analysis.stats import BootstrapCI, SignTestResult, bootstrap_median_ci, sign_test
from repro.core.state import OptimizationResult
from repro.functions import get_function

#: Termination reasons that count as converged for the success rate.
SUCCESS_REASONS = ("tolerance",)


@dataclass(frozen=True)
class CellSummary:
    """Aggregates over the completed jobs of one grid cell."""

    label: str
    algorithm: str
    function: str
    dim: int
    sigma0: float
    n_jobs: int
    success_rate: float       # fraction terminating by tolerance (eq. 2.9)
    mean_iterations: float    # N
    mean_value_error: float   # R
    mean_distance: float      # D
    mean_final_true: float    # converged value on the noise-free surface
    mean_calls: float         # underlying function evaluations per job
    mean_walltime: float      # virtual seconds per job

    def as_row(self) -> list:
        """Row form for ``format_table`` (pairs with :meth:`header`)."""
        return [
            self.label,
            self.function,
            self.dim,
            f"{self.sigma0:g}",
            self.n_jobs,
            round(self.success_rate, 3),
            round(self.mean_iterations, 1),
            round(self.mean_final_true, 4),
            round(self.mean_calls, 1),
            round(self.mean_walltime, 1),
        ]

    @staticmethod
    def header() -> list:
        """Column names matching :meth:`as_row`."""
        return [
            "variant",
            "function",
            "dim",
            "sigma0",
            "n",
            "success",
            "mean steps",
            "mean true min",
            "mean calls",
            "mean walltime",
        ]


def _cell_key(job: dict) -> Tuple[str, str, str, int, float]:
    return (
        job["label"],
        job["algorithm"],
        job["function"],
        int(job["dim"]),
        float(job["sigma0"]),
    )


def summarize(records: Iterable[dict]) -> List[CellSummary]:
    """Per-cell summaries over completed job records, in stable cell order."""
    cells: Dict[Tuple, List[dict]] = {}
    for rec in records:
        if rec.get("result") is None:
            continue
        cells.setdefault(_cell_key(rec["job"]), []).append(rec)
    summaries: List[CellSummary] = []
    for key in sorted(cells):
        label, algorithm, function, dim, sigma0 = key
        recs = cells[key]
        results = [OptimizationResult.from_dict(r["result"]) for r in recs]
        agg = evaluate_runs(results, get_function(function, dim))
        n_success = sum(1 for r in results if r.reason in SUCCESS_REASONS)
        summaries.append(
            CellSummary(
                label=label,
                algorithm=algorithm,
                function=function,
                dim=dim,
                sigma0=sigma0,
                n_jobs=len(results),
                success_rate=n_success / len(results),
                mean_iterations=agg.mean_iterations,
                mean_value_error=agg.mean_value_error,
                mean_distance=agg.mean_distance,
                mean_final_true=float(np.mean([r.best_true for r in results])),
                mean_calls=float(np.mean([r.n_underlying_calls for r in results])),
                mean_walltime=float(np.mean([r.walltime for r in results])),
            )
        )
    return summaries


@dataclass(frozen=True)
class PairedComparison:
    """Seed-for-seed comparison of variant A vs variant B (A wins < 0)."""

    label_a: str
    label_b: str
    n_pairs: int
    log_ratios: np.ndarray            # log10(min_a / min_b) per shared seed
    sign: SignTestResult              # "A ties or beats B" exact test
    median_ci: Optional[BootstrapCI]  # bootstrap CI on the median ratio

    @property
    def median(self) -> float:
        """Median log10 ratio (negative favours variant A)."""
        return float(np.median(self.log_ratios))


def _matches_cell(
    job: dict,
    function: Optional[str],
    dim: Optional[int],
    sigma0: Optional[float],
) -> bool:
    if function is not None and job["function"] != function:
        return False
    if dim is not None and int(job["dim"]) != int(dim):
        return False
    if sigma0 is not None and float(job["sigma0"]) != float(sigma0):
        return False
    return True


def paired_minima_from_records(
    records: Iterable[dict],
    label_a: str,
    label_b: str,
    function: Optional[str] = None,
    dim: Optional[int] = None,
    sigma0: Optional[float] = None,
    pooled: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """Converged true minima of two variants over their shared seeds.

    Pairs on (function, dim, sigma0, seed) in natural seed order; seeds
    present for only one variant are dropped, so partially-resumed
    campaigns compare cleanly.  The paper's panels (Figs. 3.5-3.7) never
    pool ratios across conditions, so when the shared pairs span more than
    one (function, dim, sigma0) cell this raises — narrow with the
    ``function``/``dim``/``sigma0`` filters, or pass ``pooled=True`` to
    aggregate across cells deliberately.
    """
    mins: Dict[str, Dict[Tuple, float]] = {label_a: {}, label_b: {}}
    for rec in records:
        job = rec["job"]
        if job["label"] not in mins or rec.get("result") is None:
            continue
        if not _matches_cell(job, function, dim, sigma0):
            continue
        key = (job["function"], int(job["dim"]), float(job["sigma0"]), int(job["seed"]))
        mins[job["label"]][key] = max(float(rec["result"]["best_true"]), 0.0)
    shared = sorted(set(mins[label_a]) & set(mins[label_b]))
    if not shared:
        raise ValueError(
            f"no shared seeds between variants {label_a!r} and {label_b!r}"
        )
    cells = {k[:3] for k in shared}
    if len(cells) > 1 and not pooled:
        raise ValueError(
            f"pairs span {len(cells)} cells {sorted(cells)}; narrow with "
            f"function/dim/sigma0 filters or pass pooled=True"
        )
    a = np.array([mins[label_a][k] for k in shared], dtype=float)
    b = np.array([mins[label_b][k] for k in shared], dtype=float)
    return a, b


def compare_labels(
    records: Iterable[dict],
    label_a: str,
    label_b: str,
    tie_width: float = 0.5,
    rng: Optional[int] = 0,
    function: Optional[str] = None,
    dim: Optional[int] = None,
    sigma0: Optional[float] = None,
    pooled: bool = False,
) -> PairedComparison:
    """Full paired analysis of two variants from completed records."""
    mins_a, mins_b = paired_minima_from_records(
        records, label_a, label_b,
        function=function, dim=dim, sigma0=sigma0, pooled=pooled,
    )
    ratios = np.array(
        [log_ratio(a, b) for a, b in zip(mins_a, mins_b)], dtype=float
    )
    ci = bootstrap_median_ci(ratios, rng=rng) if ratios.size >= 2 else None
    return PairedComparison(
        label_a=label_a,
        label_b=label_b,
        n_pairs=int(ratios.size),
        log_ratios=ratios,
        sign=sign_test(ratios, tie_width=tie_width),
        median_ci=ci,
    )
