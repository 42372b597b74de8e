"""Benchmark of the exact and near-dup jobs; entry point ``run.py``."""
