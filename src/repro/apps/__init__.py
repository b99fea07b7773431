"""Benchmark applications from the TIP benchmark suite, as SpecVM programs.

Each application comes in two source variants:

* **plain** — the unmodified program (run as the paper's *Original*, and
  fed to the SpecHint tool to produce the *Speculating* executable);
* **manual** — the programmer-hinted version (the paper's *Manual*),
  issuing TIP hints at the points Patterson's restructured applications do.

The applications' access patterns are the paper's:

* :mod:`repro.apps.agrep` — sequential whole-file reads over many files,
  fully determined by the argument list (no data dependence);
* :mod:`repro.apps.gnuld` — header -> symbol-header -> symbol-table read
  chains per object file (strong data dependence), then debug and
  section passes driven by in-memory tables;
* :mod:`repro.apps.xdataslice` — strided scanline reads of random slices
  through a large out-of-core 3-D dataset (no data dependence, little
  locality).

Each module builds an app in two parts: ``build_<app>_files(fs, workload)``
lays out the files one cell reads in that cell's file system, and
``build_<app>_program(workload, manual_hints)`` assembles the program, a
function of the workload alone, which ``repro.harness.runner`` does once
per process.
"""
