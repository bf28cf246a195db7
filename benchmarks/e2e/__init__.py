"""The repo's benchmark: five workloads, end-to-end and per-layer metrics.

See ``README.md`` in this directory; ``BENCHMARK.json`` at the repo root
is the machine-readable contract and ``run.py`` is the one command.
"""
