"""Structured tracing, metrics, and hint-lifecycle observability.

Public surface:

* :class:`~repro.trace.tracer.Tracer` / :data:`~repro.trace.tracer.NULL_TRACER`
  — the ring-buffered event recorder and its shared disabled stand-in;
* :class:`~repro.trace.lifecycle.HintLifecycle` — per-hint state machine
  (disclosed -> prefetch issued -> filled -> consumed | cancelled | wasted);
* :func:`~repro.trace.phases.stall_breakdown` — the always-on cycle ledger;
* :class:`~repro.trace.analyzer.TraceAnalyzer` — derived metrics
  (median hint lead time, overlapped speculation, disk utilization);
* :mod:`~repro.trace.export` — JSONL and Chrome ``trace_event`` writers.
"""
