"""Reproduction of *Automatic I/O Hint Generation through Speculative
Execution* (Fay Chang and Garth A. Gibson, OSDI 1999).

Quickstart::

    from repro import run_one, Variant

    original = run_one("agrep", Variant.ORIGINAL)
    speculating = run_one("agrep", Variant.SPECULATING)
    print(f"{speculating.improvement_over(original):.0f}% faster")

Package map (see DESIGN.md for the full inventory):

* ``repro.spechint`` — the contribution: the binary transformation tool
  and the speculation runtime;
* ``repro.tip`` — the TIP informed prefetching and caching manager;
* ``repro.vm`` — the SpecVM execution substrate (ISA, assembler, machine);
* ``repro.kernel`` / ``repro.fs`` / ``repro.storage`` — kernel, file
  system, and disk-array substrates;
* ``repro.apps`` — Agrep, Gnuld and XDataSlice benchmark programs;
* ``repro.harness`` — experiment drivers for every table and figure.
"""

from repro.harness.config import ExperimentConfig, Variant
from repro.harness.experiments import (
    improvements,
    run_matrix,
    run_one,
    run_sweep,
)
from repro.harness.results import RunResult
from repro.harness.runner import build_system, run_experiment
from repro.params import SystemConfig
from repro.spechint.tool import SpecHintTool

__version__ = "1.0.0"

__all__ = [
    "ExperimentConfig",
    "Variant",
    "RunResult",
    "SystemConfig",
    "SpecHintTool",
    "build_system",
    "run_experiment",
    "run_one",
    "run_matrix",
    "run_sweep",
    "improvements",
    "__version__",
]
