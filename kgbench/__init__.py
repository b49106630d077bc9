"""Benchmark of kgray: seeded workloads, output checks and a traced
per-layer run.  Entry point: ``python3 kgbench/run.py``."""
