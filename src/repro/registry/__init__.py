"""Persistent run registry: ledger and regression gate.

A local, crash-safe ledger of every harness run — results and invariant
verdicts — keyed by ``(app, params_digest, seed, chaos_profile,
code_version)``, one flat record per run, sweep cell, oracle cell and
variant, or fuzz case.  On top of it sits a regression detector
(:mod:`repro.registry.regression`).

This package never imports from :mod:`repro.harness` at module level:
the harness runner and cell engine import it, so the registry stays a
dependency leaf.
"""
