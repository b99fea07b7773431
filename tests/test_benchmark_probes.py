"""The end-to-end benchmark's probes must still resolve in the source.

``benchmarks/e2e/layers.py`` attributes host time to phases by looking
functions up from outside, as ``(path inside the package, function-name
prefix)`` pairs.  A rename would not break the benchmark — the phase
would read ``null`` and be listed under ``probe_missing`` — so this test
turns it into a failure here instead.  The benchmark files are only read.
"""

import ast
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")


def _load_layers():
    spec = importlib.util.spec_from_file_location(
        "e2e_layers", os.path.join(ROOT, "benchmarks", "e2e", "layers.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _defined_functions():
    """``(path relative to the package, function name)`` of every def."""
    for directory, _dirs, files in os.walk(PACKAGE):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            rel = os.path.relpath(path, PACKAGE).replace(os.sep, "/")
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield rel, node.name


def test_every_probed_function_resolves_under_src():
    layers = _load_layers()
    probes = {target for targets in layers.PHASES.values()
              for target in targets}
    probes.add(layers._CELL_FUNCTION)
    defined = list(_defined_functions())
    # Same rule as layers.fold_phases: path prefix and name prefix.
    missing = sorted(
        (path, prefix) for path, prefix in probes
        if not any(rel.startswith(path) and name.startswith(prefix)
                   for rel, name in defined)
    )
    assert missing == []
