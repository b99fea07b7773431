"""Persistent run registry: ledger, lineage, regression gate.

A local, crash-safe ledger of every harness run — results, trace
summaries, invariant verdicts — keyed by ``(app, params_digest, seed,
chaos_profile, code_version)`` with parent/child lineage links for sweep
cells, oracle variants and fuzz cases.  On top of it sit a similarity
layer (:mod:`repro.registry.similarity`) and a regression detector
(:mod:`repro.registry.regression`).

This package never imports from :mod:`repro.harness` at module level:
the harness runner and cell engine import it, so the registry stays a
dependency leaf.
"""
