"""Closed-loop benchmark for mucofix; run it with ``python3 perfbench/run.py``."""
