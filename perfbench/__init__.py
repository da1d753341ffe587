"""The repository benchmark: two campaign workloads, end to end and per layer.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the checkout root.  ``perfbench/catalogue.json`` defines every workload
and metric; ``BENCHMARK.json`` at the root is checked against it.
"""
