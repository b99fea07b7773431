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

import importlib

__version__ = "1.0.0"

#: The package's public names and the module defining each.  A name is
#: imported on first use (:func:`__getattr__`), so ``import repro`` loads
#: nothing else and a process pays only for the modules it runs.
_EXPORTS = {
    "ExperimentConfig": "repro.harness.config",
    "Variant": "repro.harness.config",
    "RunResult": "repro.harness.results",
    "SystemConfig": "repro.params",
    "SpecHintTool": "repro.spechint.tool",
    "build_system": "repro.harness.runner",
    "run_experiment": "repro.harness.runner",
    "run_one": "repro.harness.experiments",
    "run_sweep": "repro.harness.experiments",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> object:
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
