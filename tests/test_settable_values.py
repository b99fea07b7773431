"""Every configuration field is set by someone.

A field of the configuration dataclasses (``params.py`` and
``ExperimentConfig``) is a value a caller may vary.  One that nobody
varies is a constant with a setter's cost: it widens every config, moves
``params_digest`` and asks a reader to wonder who changes it.  This test
walks the Python files under ``src/``, ``tests/`` and ``benchmarks/`` and
collects every *setter* of a field name:

* a keyword argument of that name in any call -- a constructor, a
  ``dataclasses.replace``, ``SystemConfig.replace`` or
  ``ExperimentConfig.with_``;
* an entry of ``faults/generate.py::SPEC_OVERRIDE_FIELDS``, the spec
  fields a fuzz case overrides through ``dataclasses.replace(**...)``.

A field's declaration is an annotated assignment, never a setter.  Each
field needs a setter in ``src/``.  A field only tests or benchmarks set
must be listed in ``SET_ONLY_BY_TESTS``; that list may only shrink, so a
listed field that gains a setter in ``src/`` fails here until it is taken
off the list.
"""

import ast
import dataclasses
import os
from typing import Dict, Set

import pytest

from repro.faults.generate import SPEC_OVERRIDE_FIELDS
from repro.harness.config import ExperimentConfig
from repro.params import (
    ArrayParams,
    CacheParams,
    CpuParams,
    DiskParams,
    SpecHintParams,
    SystemConfig,
    TipParams,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ("src", "tests", "benchmarks")

CONFIGS = (CpuParams, DiskParams, ArrayParams, CacheParams, TipParams,
           SpecHintParams, SystemConfig, ExperimentConfig)

#: Fields with no setter in ``src/``.  The first eight are degraded-mode
#: and scheduler bounds the property tests draw; as module constants that
#: tests patch, the knob would still be there, only hidden.  The disk time
#: scale is 4.0 everywhere the program runs; a workload-scale ladder that
#: keeps the paper's disk timing would set it to 1.
SET_ONLY_BY_TESTS = frozenset({
    "ArrayParams.retry_max_attempts",
    "ArrayParams.prefetch_retry_attempts",
    "ArrayParams.retry_backoff_cycles",
    "ArrayParams.request_timeout_cycles",
    "ArrayParams.rebuild_bandwidth_share",
    "TipParams.prefetch_horizon",
    "TipParams.max_inflight_per_disk",
    "SpecHintParams.restart_poll_interval",
    "ExperimentConfig.disk_time_scale",
})


def config_fields() -> Dict[str, str]:
    """``{"Class.field": "field"}`` for every configuration field."""
    return {f"{cls.__name__}.{field.name}": field.name
            for cls in CONFIGS for field in dataclasses.fields(cls)}


def _python_files():
    for top in SCANNED:
        for folder, _, files in os.walk(os.path.join(ROOT, top)):
            for name in sorted(files):
                if name.endswith(".py"):
                    yield top, os.path.join(folder, name)


def setters() -> Dict[str, Set[str]]:
    """Per field name, the trees (``src``, ``tests``, ``benchmarks``) that
    set it."""
    found: Dict[str, Set[str]] = {}
    for top, path in _python_files():
        with open(path) as handle:
            tree = ast.parse(handle.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.keyword) and node.arg is not None:
                found.setdefault(node.arg, set()).add(top)
    for name in SPEC_OVERRIDE_FIELDS:
        found.setdefault(name, set()).add("src")
    return found


@pytest.fixture(scope="module")
def found():
    return setters()


def test_every_field_has_a_setter_in_src(found):
    unset = sorted(qualified for qualified, name in config_fields().items()
                   if qualified not in SET_ONLY_BY_TESTS
                   and "src" not in found.get(name, ()))
    assert not unset, \
        f"config fields nothing in src/ sets (make them constants): {unset}"


def test_fields_set_only_by_tests_are_set_by_tests(found):
    fields = config_fields()
    unset = sorted(qualified for qualified in SET_ONLY_BY_TESTS
                   if not found.get(fields.get(qualified), set())
                   & {"tests", "benchmarks"})
    assert not unset, f"listed fields no test or benchmark sets: {unset}"


def test_the_test_only_list_may_only_shrink(found):
    fields = config_fields()
    stale = sorted(qualified for qualified in SET_ONLY_BY_TESTS
                   if qualified not in fields
                   or "src" in found.get(fields[qualified], ()))
    assert not stale, \
        f"listed fields that are gone or now have a setter in src/: {stale}"
