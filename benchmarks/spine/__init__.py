"""The measurement spine: end-to-end and per-hop benchmark of the data plane.

``BENCHMARK.json`` at the repo root is the contract (workloads, metric
names, units, regression bounds); ``README.md`` here says why each workload
exists and how the metrics interact.  Entry points:

* ``python3 benchmarks/spine/run.py --workload W --seed N --seconds S --trace 0|1``
  — one measured run, result as one JSON object on the last line;
* ``PYTHONPATH=src python -m benchmarks.spine`` — every workload, every
  metric by name with its unit, plus an environment fingerprint;
* ``python -m benchmarks.spine compare A.json B.json`` — the regression gate.
"""
