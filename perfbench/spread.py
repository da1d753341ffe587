"""Run-to-run spread of the benchmark: one workload over several seeds.

    python3 perfbench/spread.py --workload tcp-q32-mixed --seeds 1 2 3 4 5

Runs ``run.py`` once per seed (sequentially, each in a fresh interpreter,
for ``run_seconds`` from ``BENCHMARK.json``) and prints, per metric, the
median and the quartile spread (inter-quartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) next to the
metric's bound.  A spread above a third of its bound is flagged.  Exits
non-zero if any run failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    benchmark = json.loads(BENCHMARK.read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in benchmark[kind]}
    values = {name: [] for name in bounds}
    walls = []
    for seed in args.seeds:
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(benchmark["run_seconds"]),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        walls.append(time.monotonic() - start)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: run failed (rc {proc.returncode})\n"
                  f"{proc.stdout[-3000:]}\n{proc.stderr[-3000:]}")
            return 1
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed}: {walls[-1]:.1f} s wall", flush=True)
    print(f"{args.workload}: {len(args.seeds)} runs, wall median "
          f"{statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) < 2 or not median:
            print(f"  {name:<30} median {median:12.6g}")
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(median)
        bound = bounds[name]
        flag = "  <-- above bound/3" if bound and spread > bound / 3 else ""
        bound_s = f" (bound {bound})" if bound else ""
        print(f"  {name:<30} median {median:12.6g}  spread {spread:7.4f}"
              f"{bound_s}{flag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
