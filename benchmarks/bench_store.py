"""Claim+append throughput microbenchmark across store engines.

Simulates the hot path of a lease-coordinated campaign runner — claim a
batch of job ids, then append one result record per claimed job — for
each store engine (single-file JSONL, SQLite, and the ``store://``
network engine over a real localhost socket to a ``campaign
store-serve`` subprocess) at
campaign-realistic volume (10k jobs by default), and reports jobs/s.

This is the number the ROADMAP's scaling work steers by: it is what
bounds how fast a fleet of runners can drain a grid, independent of how
expensive the jobs themselves are.

Usage::

    PYTHONPATH=src python benchmarks/bench_store.py
    PYTHONPATH=src python benchmarks/bench_store.py --jobs 10000 \\
        --json BENCH_store.json
    PYTHONPATH=src python benchmarks/bench_store.py \\
        --check benchmarks/baselines/bench_store.json --tolerance 0.30

``--json`` writes the measurements for the CI artifact; ``--check``
compares the SQLite engine's claim+append throughput against a committed
baseline and exits non-zero when it regressed by more than
``--tolerance`` (the CI bench-regression gate).  When the run measures
both ``sqlite`` and ``netstore``, ``--check`` also enforces the network
engine's *relative* budget: one framed round trip per batch must keep
it within ``--netstore-factor`` (default 2x) of the same-run local
SQLite throughput — a ratio, so machine speed cancels out.  The ratio
is the median over ``--rounds`` interleaved sqlite/netstore pairs (the
main measurement is the first pair), so one noisy pair cannot flip the
verdict.  Other engines are reported for context but not gated — their
absolute numbers swing more with filesystem behaviour than with code
changes.

``--telemetry`` attaches an *enabled* metrics registry to every store
(what a ``--telemetry`` campaign run does), so the loop also pays for
the latency histograms.  ``--overhead-gate FRACTION`` measures both
modes interleaved (best of ``--rounds`` each) on the gated engine and
fails when enabling telemetry costs more than ``FRACTION`` of the
disabled throughput — the CI guard keeping instrumentation
cheap-by-default::

    PYTHONPATH=src python benchmarks/bench_store.py --overhead-gate 0.05
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.campaign import open_store  # noqa: E402 - path bootstrap above
from repro.telemetry import Telemetry  # noqa: E402

#: The engine whose throughput the regression gate checks.
GATED_ENGINE = "sqlite"

#: Seconds the ``store-serve`` subprocess may take to listen, or to stop.
SERVER_START_TIMEOUT_S = 30.0


def make_store(engine: str, directory: Path):
    """A fresh store of ``engine`` rooted at ``directory``.

    Resolved through :func:`repro.campaign.open_store` — the same
    production path campaigns use — so the benchmark measures exactly
    what a runner would touch.
    """
    if engine == "jsonl":
        return open_store(directory)
    if engine == "sqlite":
        return open_store(directory, engine="sqlite")
    if engine == "netstore":
        # A real localhost socket in front of the gated engine: what the
        # measurement prices is exactly the wire protocol's overhead.
        # The server is its own process, as in production, so it does not
        # share this interpreter with the client it answers.
        from repro.campaign.backends import NetworkStoreBackend

        server, address = start_store_server(directory / "served")
        store = NetworkStoreBackend(address)
        store._bench_cleanup = lambda: stop_store_server(server)
        return store
    raise ValueError(f"unknown engine {engine!r}")


def start_store_server(directory: Path) -> Tuple[subprocess.Popen, str]:
    """Start ``campaign store-serve`` (sqlite) on a port-0 listen.

    Returns the process and the bound ``store://`` URL, read from the
    address line the server prints first.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "campaign", "store-serve",
         str(directory), "--listen", "127.0.0.1:0", "--store", "sqlite"],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
    )
    deadline = time.monotonic() + SERVER_START_TIMEOUT_S
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
            stop_store_server(proc)
            raise RuntimeError(f"store-serve printed no address within "
                               f"{SERVER_START_TIMEOUT_S:g}s")
        line = proc.stdout.readline()
        if not line:
            stop_store_server(proc)
            raise RuntimeError("store-serve exited before listening")
        if " at store://" in line:
            return proc, line.rsplit(" at ", 1)[1].strip()


def stop_store_server(proc: subprocess.Popen) -> None:
    """Stop a store server with SIGINT (its clean stop), killing it if stuck."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=SERVER_START_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def synthetic_record(job_id: str) -> dict:
    """A store record shaped like a real campaign outcome."""
    return {
        "job_id": job_id,
        "status": "done",
        "job": {"label": "PC", "algorithm": "PC", "function": "sphere",
                "dim": 4, "sigma0": 1.0, "seed": 0},
        "result": {"best_estimate": 1e-6, "n_steps": 120, "reason": "tolerance"},
        "error": None,
        "elapsed_s": 0.01,
    }


def bench_engine(engine: str, n_jobs: int, batch: int,
                 telemetry: bool = False) -> dict:
    """Time the claim+append loop for one engine; returns the measurement.

    With ``telemetry`` an enabled registry is attached to the store, so
    every claim and append also feeds the ``repro_store_op_seconds``
    histogram — the instrumented configuration the overhead gate prices.
    """
    job_ids = [f"job-{i:08d}" for i in range(n_jobs)]
    with tempfile.TemporaryDirectory(prefix=f"bench-store-{engine}-") as tmp:
        store = make_store(engine, Path(tmp))
        try:
            if telemetry:
                store.telemetry = Telemetry.create()
            n_claimed = 0
            t0 = time.perf_counter()
            for start in range(0, n_jobs, batch):
                ids = job_ids[start:start + batch]
                granted = store.claim(ids, "bench-runner", ttl=3600.0)
                # one record_many per batch, exactly like CampaignRunner
                store.record_many([synthetic_record(jid) for jid in granted])
                n_claimed += len(granted)
            elapsed = time.perf_counter() - t0
            assert n_claimed == n_jobs, (n_claimed, n_jobs)
            assert len(store.completed_ids()) == n_jobs
        finally:
            # the netstore engine's server is a subprocess: never leave it
            cleanup = getattr(store, "_bench_cleanup", None)
            if cleanup is not None:
                store.close()
                cleanup()
    return {
        "engine": engine,
        "n_jobs": n_jobs,
        "batch": batch,
        "telemetry": bool(telemetry),
        "elapsed_s": elapsed,
        "claim_append_jobs_per_s": n_jobs / elapsed,
    }


def overhead_gate(args) -> int:
    """Price enabled telemetry on the gated engine; 0 = within budget.

    Each round runs the disabled and enabled configurations back to
    back and compares them *within* the round, so slow-disk or noisy-
    neighbour drift cancels out of the ratio; the gate passes if the
    best round kept at least ``1 - gate`` of its own disabled
    throughput.  (Independent best-ofs would let one lucky disabled
    round fail a genuinely-cheap instrumented path.)
    """
    rounds = []
    for _ in range(args.rounds):
        off = bench_engine(GATED_ENGINE, args.jobs, args.batch,
                           telemetry=False)["claim_append_jobs_per_s"]
        on = bench_engine(GATED_ENGINE, args.jobs, args.batch,
                          telemetry=True)["claim_append_jobs_per_s"]
        rounds.append((off, on))
    off, on = max(rounds, key=lambda pair: pair[1] / pair[0])
    overhead = 1.0 - on / off
    verdict = "ok" if overhead <= args.overhead_gate else "TOO SLOW"
    print(
        f"telemetry-overhead [{GATED_ENGINE}]: off {off:,.0f} jobs/s, "
        f"on {on:,.0f} jobs/s -> {overhead:+.1%} overhead in the best of "
        f"{args.rounds} paired rounds (budget {args.overhead_gate:.0%}) "
        f"-> {verdict}"
    )
    return 0 if verdict == "ok" else 1


def check_regression(results: dict, baseline_path: Path, tolerance: float) -> int:
    """Compare the gated engine against the baseline; 0 = pass, 1 = fail."""
    baseline = json.loads(baseline_path.read_text())
    base = baseline["engines"][GATED_ENGINE]["claim_append_jobs_per_s"]
    current = results["engines"][GATED_ENGINE]["claim_append_jobs_per_s"]
    floor = base * (1.0 - tolerance)
    verdict = "ok" if current >= floor else "REGRESSION"
    print(
        f"bench-regression [{GATED_ENGINE}]: {current:,.0f} jobs/s vs "
        f"baseline {base:,.0f} (floor {floor:,.0f} at "
        f"{tolerance:.0%} tolerance) -> {verdict}"
    )
    return 0 if current >= floor else 1


def check_netstore_factor(results: dict, args) -> int:
    """Gate the network engine relative to same-run local SQLite.

    A ratio within one run, not an absolute baseline: the two engines
    share the machine, the backing database, and the batch size, so
    what's left is the cost of one framed round trip per batch.  The
    gated ratio is the median of ``args.rounds`` interleaved pairs — the
    main measurement plus ``rounds - 1`` fresh ones.  0 = pass (or
    nothing to compare), 1 = the wire costs too much.
    """
    engines = results["engines"]
    if "netstore" not in engines or GATED_ENGINE not in engines:
        return 0
    pairs = [(engines[GATED_ENGINE]["claim_append_jobs_per_s"],
              engines["netstore"]["claim_append_jobs_per_s"])]
    for _ in range(args.rounds - 1):
        pairs.append(tuple(
            bench_engine(engine, args.jobs, args.batch,
                         telemetry=args.telemetry)["claim_append_jobs_per_s"]
            for engine in (GATED_ENGINE, "netstore")
        ))
    ratio = statistics.median(net / local for local, net in pairs)
    floor = 1.0 / args.netstore_factor
    verdict = "ok" if ratio >= floor else "TOO SLOW"
    print(
        f"netstore-factor: median netstore/{GATED_ENGINE} ratio {ratio:.3f} "
        f"over {len(pairs)} interleaved pairs (floor {floor:.3f} at "
        f"{args.netstore_factor:g}x budget; pairs: "
        + ", ".join(f"{net:,.0f}/{local:,.0f}" for local, net in pairs)
        + f") -> {verdict}"
    )
    return 0 if ratio >= floor else 1


def main(argv=None) -> int:
    """Run the benchmark; see the module docstring for the modes."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=10_000,
                        help="jobs per engine (default 10000)")
    parser.add_argument("--batch", type=int, default=100,
                        help="claim/append batch size (default 100)")
    parser.add_argument("--engines", nargs="+",
                        default=["jsonl", "sqlite", "netstore"],
                        choices=["jsonl", "sqlite", "netstore"])
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the measurements as JSON")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="baseline JSON to gate the sqlite engine against")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional throughput drop (default 0.30)")
    parser.add_argument("--netstore-factor", type=float, default=2.0,
                        metavar="FACTOR",
                        help="with --check, require the netstore engine to "
                             "stay within FACTOR x of same-run local sqlite "
                             "(default 2.0)")
    parser.add_argument("--telemetry", action="store_true",
                        help="attach an enabled metrics registry to every "
                             "store (the instrumented configuration)")
    parser.add_argument("--overhead-gate", type=float, default=None,
                        metavar="FRACTION",
                        help="measure telemetry on vs off interleaved on the "
                             "gated engine; fail if enabling costs more than "
                             "FRACTION of throughput (e.g. 0.05)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="interleaved pairs: --overhead-gate takes the "
                             "best pair, --check's netstore factor the "
                             "median pair (default 3)")
    args = parser.parse_args(argv)

    if args.overhead_gate is not None:
        return overhead_gate(args)

    results = {"n_jobs": args.jobs, "batch": args.batch,
               "telemetry": args.telemetry, "engines": {}}
    mode = " (telemetry on)" if args.telemetry else ""
    print(f"claim+append throughput, {args.jobs} jobs, "
          f"batches of {args.batch}{mode}:")
    for engine in args.engines:
        measurement = bench_engine(engine, args.jobs, args.batch,
                                   telemetry=args.telemetry)
        results["engines"][engine] = measurement
        print(
            f"  {engine:<20} {measurement['claim_append_jobs_per_s']:>12,.0f} jobs/s"
            f"  ({measurement['elapsed_s']:.2f}s)"
        )

    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {args.json}")
    if args.check:
        if GATED_ENGINE not in results["engines"]:
            print(f"--check requires the {GATED_ENGINE} engine to be benchmarked",
                  file=sys.stderr)
            return 2
        rc = check_regression(results, Path(args.check), args.tolerance)
        return rc or check_netstore_factor(results, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
