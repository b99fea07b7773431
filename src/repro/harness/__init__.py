"""Experiment harness.

Builds complete simulated systems (disks -> striping -> cache/TIP -> kernel
-> application), runs the paper's three benchmarks in their three variants,
and formats the paper's tables and figures from the collected statistics.
"""
