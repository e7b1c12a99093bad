"""The repo benchmark: six workloads over the public ``repro`` entry points.

``BENCHMARK.json`` at the repo root is the contract; ``bench/README.md``
says what every workload and metric is for and how to read the trace.

* :mod:`bench.workloads` — the six workloads (build / run / check);
* :mod:`bench.harness`   — the rep loop, metric tables and the result line;
* :mod:`bench.tracer`    — in-memory spans and self-time arithmetic;
* :mod:`bench.layers`    — the class-level wrappers a traced run installs;
* :mod:`bench.compare`   — ``bench check A.json B.json``.

Importing this package imports nothing from ``repro``: the program is
loaded (and that load timed as part of ``setup_s``) by the harness.
"""
