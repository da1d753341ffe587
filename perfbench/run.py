"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload tcp-q32-mixed --seed 1 --seconds 55 --trace 0

Runs rounds of the workload (each a fresh grid on a fresh fleet) until
``--seconds`` have passed, at least :data:`MIN_ROUNDS` of them, and checks
every round's outputs.  Writes a result file stamped with the machine and
software versions under ``.perfbench/results/`` and prints, as the last
line of stdout, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics,
writing the traced rounds' spans to ``.perfbench/spans-<workload>.jsonl``.

Exit codes: 0 when every check passed, 1 when one failed (no metrics are
reported), 2 on bad usage or a checkout without the program's sources,
130 on interrupt.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"
CATALOGUE = ROOT / "perfbench" / "catalogue.json"
#: Rounds per run at least: set-up is a median over rounds, and a traced
#: run needs untraced and traced rounds to compare (``--tiny``: two).
MIN_ROUNDS = 3


def git_commit() -> str:
    """The checkout's commit, or ``unknown`` outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def stamp(args: argparse.Namespace) -> dict:
    """Where and on what the numbers were measured."""
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def measure(args: argparse.Namespace, workdir: Path):
    """Run the rounds; returns ``(rounds, metrics or None, tracer)``."""
    from perfbench import report
    from perfbench.hooks import LayerState, Probe, install_layer_trace
    from perfbench.spans import Tracer
    from perfbench.workloads import WORKLOADS, run_round

    load = WORKLOADS[args.workload]
    probe = Probe()
    tracer = Tracer()
    layer_state = LayerState()
    rounds = []
    probe.install()
    try:
        deadline = time.perf_counter() + args.seconds
        min_rounds = 2 if args.tiny else MIN_ROUNDS
        while len(rounds) < min_rounds or time.perf_counter() < deadline:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            if traced:
                install_layer_trace(tracer, layer_state)
            try:
                result = run_round(load, args.seed, len(rounds), workdir, ROOT,
                                   probe, layer_state, traced, args.tiny)
            finally:
                tracer.uninstall()
            rounds.append(result)
            print(f"round {len(rounds) - 1}{' traced' if traced else ''}: "
                  f"{result.n_done}/{result.n_jobs} jobs, {result.evals} evals in "
                  f"{result.window_s:.3f} s, set-up {result.setup_s:.3f} s",
                  flush=True)
            if result.problems:
                return rounds, None, tracer
    finally:
        probe.uninstall()
    untraced = [r for r in rounds if not r.traced]
    if not args.trace:
        return rounds, report.end_to_end(untraced), tracer
    traced_rounds = [r for r in rounds if r.traced]
    return rounds, report.per_layer(
        untraced, traced_rounds, tracer.totals(), tracer.counts(),
        layer_state.queue_waits, layer_state.dispatches, layer_state.weights,
    ), tracer


def main(argv=None) -> int:
    catalogue = json.loads(CATALOGUE.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in catalogue["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to keep starting rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size: few steps per job")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}; run "
              f"from a full checkout", file=sys.stderr)
        return 2

    def on_term(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, on_term)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in catalogue[kind]}
    workdir = OUT / f"work-{os.getpid()}"
    try:
        rounds, metrics, tracer = measure(args, workdir)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    from perfbench.report import summary_line

    problems = [p for r in rounds for p in r.problems]
    attempted = sum(r.n_jobs for r in rounds)
    failed = sum(len(r.failed_ids) for r in rounds)
    print(f"{args.workload} seed {args.seed}: {summary_line(rounds)}; "
          f"failed_frac {failed / attempted:.4g} ({failed} of {attempted} jobs)")
    result = {
        "stamp": stamp(args), "attempted": attempted, "failed": failed,
        "problems": problems, "metrics": metrics,
        "rounds": [{"traced": r.traced, "setup_s": r.setup_s,
                    "window_s": r.window_s, "jobs": r.n_done, "evals": r.evals}
                   for r in rounds],
    }
    if metrics is not None and set(metrics) != set(units):
        raise RuntimeError(f"metrics drifted from {CATALOGUE.name}: "
                           f"{sorted(set(metrics) ^ set(units))}")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    for name, value in (metrics or {}).items():
        print(f"  {name:<30} {value:14.6g} {units[name]}")
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results_dir / f"{tag}.json").write_text(json.dumps(result, indent=2) + "\n")
    if args.trace:
        n = tracer.write(OUT / f"spans-{args.workload}.jsonl")
        print(f"wrote {n} spans to {OUT / f'spans-{args.workload}.jsonl'}")
    correct = not problems and metrics is not None
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in (metrics or {}).items()} if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    # Import the benchmark as a package from the root, never its modules as
    # top-level names from this script's directory.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    raise SystemExit(main())
