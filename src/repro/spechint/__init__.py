"""SpecHint: automatic I/O hint generation through speculative execution.

This package is the paper's primary contribution, reimplemented over the
SpecVM substrate:

* :mod:`repro.spechint.tool` — the binary modification tool: builds shadow
  code with software-enforced copy-on-write around loads/stores, redirects
  control transfers, substitutes hint calls for reads, strips output
  routines, and emits the transformation statistics of Table 3;
* :mod:`repro.spechint.cow` — the software copy-on-write map (configurable
  region size, 1024 B default);
* :mod:`repro.spechint.hintlog` — the hint log through which the original
  and speculating threads cooperate to detect off-track speculation;
* :mod:`repro.spechint.runtime` — the per-process runtime: speculative
  reads and hint issue, user-space emulation of open/close/lseek against a
  speculative fd table, the restart protocol and signal handling;
* :mod:`repro.spechint.gate` — every reason speculation may not run or
  restart: the watchdog's trips, the degraded-mode suspension, the
  isolation quarantine and the Section 5 cancel-based throttle;
* :mod:`repro.spechint.report` — transformation statistics;
* :mod:`repro.spechint.auditor` — the isolation auditor: write-containment
  guard, tamper-evident audit table and restart-boundary snapshots.
"""
