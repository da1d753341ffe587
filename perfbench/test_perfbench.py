"""Tests for the benchmark's own helpers, catalogue, and command contract.

The smoke tests run ``run.py --tiny`` (few steps per job, full grids) for
every workload in both modes, so each takes a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

from perfbench.hooks import LayerState, Probe, install_layer_trace
from perfbench.spans import Tracer
from perfbench.stats import percentile, share_err
from perfbench.workloads import WORKLOADS, check_round, round_specs
from repro.mw.driver import MWDriver

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CATALOGUE = json.loads((HERE / "catalogue.json").read_text())
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 300


# -- percentile rule ---------------------------------------------------------

def test_percentile_needs_ten_samples_beyond():
    assert percentile(list(range(100)), 90) == 89
    assert percentile(list(range(99)), 90) is None
    assert percentile(list(range(20)), 50) == 9
    assert percentile(list(range(19)), 50) is None
    assert percentile([], 50) is None


def test_percentile_is_nearest_rank_on_unsorted_input():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 20          # 100 samples
    assert percentile(values, 50) == 3.0
    assert percentile(values, 90) == 5.0


def test_percentile_rejects_out_of_range_pct():
    with pytest.raises(ValueError):
        percentile([1.0] * 100, 100)


# -- span self time ----------------------------------------------------------

class _FakeTransport:
    def __init__(self, clock):
        self.clock = clock

    def recv(self):
        self.clock[0] += 3.0


class _FakeDriver:
    def __init__(self, clock):
        self.clock = clock
        self.transport = _FakeTransport(clock)

    def pump(self):
        self.clock[0] += 1.0
        self.transport.recv()
        self.clock[0] += 0.5


def test_self_time_is_pump_minus_transport_recv():
    clock = [0.0]
    tracer = Tracer(clock=lambda: clock[0])
    original = _FakeDriver.pump
    tracer.wrap(_FakeDriver, "pump", "mw.driver.pump")
    tracer.wrap(_FakeTransport, "recv", "mw.driver.recv_wait")
    driver = _FakeDriver(clock)
    driver.pump()
    driver.pump()
    tracer.uninstall()
    totals = tracer.totals()
    assert totals["mw.driver.pump"] == {"calls": 2, "s": 9.0, "self_s": 3.0,
                                        "errors": 0}
    assert totals["mw.driver.recv_wait"]["self_s"] == 6.0
    assert _FakeDriver.pump is original
    spans = {name: (span_id, parent)
             for span_id, parent, name, *_ in tracer._states[0].spans}
    assert spans["mw.driver.recv_wait"][1] == spans["mw.driver.pump"][0]


def test_spans_on_other_threads_are_not_children():
    clock = [0.0]
    tracer = Tracer(clock=lambda: clock[0])

    def inner():
        clock[0] += 2.0

    def outer():
        thread = threading.Thread(target=tracer.traced("inner", inner))
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()

    tracer.traced("outer", outer)()
    totals = tracer.totals()
    assert totals["outer"]["self_s"] == 2.0
    assert totals["inner"]["self_s"] == 2.0


def test_raising_call_counts_an_error_and_propagates():
    tracer = Tracer()

    def boom():
        raise OSError("store gone")

    with pytest.raises(OSError):
        tracer.traced("store.claim", boom)()
    assert tracer.totals()["store.claim"]["errors"] == 1


def test_layer_trace_and_probe_uninstall_restore_the_program():
    originals = (MWDriver.pump, MWDriver.submit, MWDriver.shutdown)
    probe = Probe()
    probe.install()
    tracer = Tracer()
    install_layer_trace(tracer, LayerState())
    assert MWDriver.pump is not originals[0]
    tracer.uninstall()
    probe.uninstall()
    assert (MWDriver.pump, MWDriver.submit, MWDriver.shutdown) == originals


# -- scheduler share error ---------------------------------------------------

def test_share_err_exact_drr_cycle_is_zero():
    weights = {"pc": 2.0, "det": 1.0}
    dispatches = [("pc", True), ("det", True), ("pc", True)] * 10
    assert share_err(dispatches, weights) == pytest.approx(0.0)


def test_share_err_counts_only_fully_backlogged_slots():
    weights = {"a": 1.0, "b": 1.0}
    dispatches = [("a", True)] * 3 + [("b", True)] + [("a", False)] * 50
    assert share_err(dispatches, weights) == pytest.approx(0.25)
    assert share_err([("a", False)], weights) == 0.0


# -- output checks -----------------------------------------------------------

def test_check_round_flags_missing_duplicate_failed_and_mismatch():
    spec, _ = round_specs(WORKLOADS["tcp-q32-mixed"], seed=3, round_index=0, tiny=True)[0]
    jobs = spec.expand()[:5]
    ok, missing, dup, failed, wrong = jobs
    probe = Probe()
    probe.record_counts = Counter({ok.job_id: 1, dup.job_id: 2, failed.job_id: 1,
                                   wrong.job_id: 1, "stranger": 1})
    good = {"x": 1.0}
    stored = {
        ok.job_id: {"status": "done", "result": good},
        dup.job_id: {"status": "done", "result": good},
        failed.job_id: {"status": "failed", "result": None, "error": "boom"},
        wrong.job_id: {"status": "done", "result": {"x": 2.0}},
    }
    references = {ok.job_id: good, wrong.job_id: good}
    bad, problems = check_round(jobs, stored, probe, references)
    assert bad == [missing.job_id, dup.job_id, failed.job_id, wrong.job_id]
    assert len(problems) == 5 and "outside the grid" in problems[0]


# -- catalogue vs BENCHMARK.json ---------------------------------------------

def test_benchmark_json_matches_catalogue():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert BENCHMARK["paths"] == ["perfbench"]
    assert BENCHMARK["workloads"] == [
        {"name": w["name"], "why": w["why"]} for w in CATALOGUE["workloads"]
    ]
    assert BENCHMARK["end_to_end"] == [
        {k: m[k] for k in ("name", "unit", "better", "bound")}
        for m in CATALOGUE["end_to_end"]
    ]
    assert BENCHMARK["per_layer"] == [
        {k: m[k] for k in ("name", "unit", "better")}
        for m in CATALOGUE["per_layer"]
    ]
    assert sorted(w["name"] for w in CATALOGUE["workloads"]) == sorted(WORKLOADS)


def test_catalogue_maps_each_layer_metric_to_an_e2e_metric_and_workload():
    e2e = {m["name"] for m in CATALOGUE["end_to_end"]}
    workloads = {w["name"] for w in CATALOGUE["workloads"]} | {"all"}
    for metric in CATALOGUE["per_layer"]:
        assert metric["moves"] in e2e, metric["name"]
        assert metric["workload"] in workloads, metric["name"]
        assert metric["definition"] and metric["layer"], metric["name"]
    setup = [m for m in CATALOGUE["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in CATALOGUE["end_to_end"]
    )


# -- the command contract ----------------------------------------------------

def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 200
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in CATALOGUE[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines), name


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "tcp-q32-mixed", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
