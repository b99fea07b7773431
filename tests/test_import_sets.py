"""What a process loads: each entry point imports only what it runs.

Every check runs in a fresh interpreter, since this one has imported
everything already.  A subpackage ``__init__`` that re-exports its subtree,
or a module-level import of something only one command uses, shows up
here as a module that should not be loaded.
"""

import json
import os
import pkgutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(ROOT, "src")

#: What a matrix cell (``repro.harness.runner``) has no use for.
NOT_FOR_A_CELL = (
    *(f"repro.harness.{name}" for name in (
        "experiments", "fuzz", "oracle", "parallel", "checkpoint",
        "invariants", "tables", "shapes")),
    *(f"repro.registry.{name}" for name in (
        "store", "record", "recorder", "regression", "similarity")),
    "repro.faults.generate",
    "repro.faults.shrink",
    "repro.analysis",
    *(f"repro.analysis.{name}" for name in (
        "driver", "absint", "cfg", "dataflow", "taint", "fixtures")),
    "repro.trace.export",
    "repro.trace.analyzer",
    "multiprocessing",
)

#: The simulator, which neither building the parser nor reading the
#: registry runs.
SIMULATOR_PREFIXES = (
    "repro.harness.runner", "repro.kernel.", "repro.vm.machine", "repro.tip.",
    "repro.storage.", "repro.spechint.",
)


def loaded_after(source):
    """Names in ``sys.modules`` once ``source`` ran in a new interpreter."""
    probe = source + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    out = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True,
        text=True, timeout=60, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": SRC_DIR},
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


def repro_modules(modules):
    return {m for m in modules if m.startswith("repro.")}


def simulator_modules(modules):
    return sorted(m for m in modules if m.startswith(SIMULATOR_PREFIXES))


def test_import_repro_loads_no_other_repro_module():
    assert sorted(repro_modules(loaded_after("import repro"))) == []


def test_quickstart_names_resolve_on_first_use():
    loaded = loaded_after(
        "import repro\n"
        "from repro import Variant, run_one\n"
        "assert run_one.__module__ == 'repro.harness.experiments'\n"
        "assert Variant is repro.Variant\n"
    )
    assert "repro.harness.experiments" in loaded


def test_a_matrix_cell_loads_none_of_the_tooling():
    loaded = loaded_after("import repro.harness.runner")
    assert sorted(loaded.intersection(NOT_FOR_A_CELL)) == []


def test_a_cell_loads_no_module_the_runner_did_not():
    """What every cell runs loads with the runner, before the cell loop
    starts (imported inside the first speculating cell, the speculation
    runtime made the whole ``spec_matrix`` loop measurably slower)."""
    runner = "import repro.harness.runner\n"
    cells = (
        runner
        + "from repro.harness.config import ExperimentConfig, Variant\n"
        "for variant in Variant:\n"
        "    repro.harness.runner.run_experiment(ExperimentConfig(\n"
        "        app='agrep', variant=variant, workload_scale=0.1))\n"
    )
    assert sorted(repro_modules(loaded_after(cells))
                  - repro_modules(loaded_after(runner))) == []


def test_the_cli_loads_no_simulator_to_build_its_parser():
    loaded = loaded_after("import repro.cli\nrepro.cli.build_parser()")
    assert simulator_modules(loaded) == []


def test_runs_list_loads_no_simulator(tmp_path):
    registry = str(tmp_path / "reg.jsonl")
    open(registry, "w").close()  # a query reads an existing ledger
    loaded = loaded_after(
        "from repro.cli import main\n"
        f"assert main(['runs', 'list', '--registry', {registry!r}]) == 0\n"
    )
    assert "repro.registry.store" in loaded
    assert simulator_modules(loaded) == []


def test_every_module_imports_on_its_own():
    """No package ``__init__`` imports its subtree, so an import cycle could
    hide behind the order a test session happens to import in."""
    import repro

    failures = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue  # runs the CLI when imported
        try:
            loaded_after(f"import {info.name}")
        except subprocess.CalledProcessError as error:
            failures[info.name] = error.stderr.strip().splitlines()[-1]
    assert failures == {}
