"""The cell engine: run sealed simulation cells, serially or sharded.

Every sweep cell (one ``(sweep point, app, variant)`` triple), oracle
cell, chaos cell and fuzz cell is a sealed deterministic simulation —
independent seeding means any subset can run anywhere, in any order, and
merge into a result set byte-identical to a serial run.  That is exactly
the "cell as the unit of parallelism" model of Simics' threading
commands: the serialised mode is the deterministic reference, and the
cells are safe to shard across processes.

:func:`run_cells` is the one pipeline every grid goes through.  It is
the policy layer above :mod:`repro.harness.supervisor`:

* cells are picklable ``(key, fn, args)`` specs whose runners return
  JSON-safe payloads (``RunResult.to_jsonable()`` and friends);
* ``jobs <= 1`` runs them in an in-process loop — the supervisor with
  zero workers — and ``jobs > 1`` on the supervised pool; a pool that
  fails to start degrades to the in-process loop, same results, same
  checkpoint format;
* it integrates the crash-safe :class:`SweepCheckpoint`: whoever ran a
  cell — this process, or the pool worker that computed it — appends it
  to the one checkpoint journal, once, so a SIGKILL of the parent or of
  a worker loses at most the cells in flight and the next run, serial
  or parallel, resumes from the same file; the journal is compacted to
  its canonical bytes when the run ends;
* the finished outcome feeds the persistent run registry.

What a cell costs besides its simulation is paid per process and per
dataset, not per cell: the in-process loop (and each pool worker) freezes
the heap it starts with, so the collection that ends every cell
(``supervisor.run_cell``) walks the cell and not the imports, and
consecutive cells of one app are built over the same input buffers
(``apps/datasets.py``; a file a cell writes becomes that cell's own copy).
The freeze ends with the loop, however the loop ends.

The determinism guard (tests + ``benchmarks/bench_parallel_sweep.py``)
asserts the parallel result set is byte-identical to serial across all
chaos profiles.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import os
import sys
from typing import Callable, Dict, List, Optional

from repro.errors import QuarantinedCell
from repro.harness.checkpoint import (
    SweepCheckpoint,
    append_cell,
    unwind_on_signals,
)
from repro.harness.supervisor import (
    CellSpec,
    Supervisor,
    SupervisorConfig,
    SupervisorOutcome,
    SupervisorStats,
    run_cell,
)
from repro.registry.recorder import record_results

#: Payload a cell runner returns: a JSON-safe dict (RunResult or
#: differential-cell serialization) that crosses the result pipe verbatim.
Payload = Dict[str, object]


def run_cells(
    cells: List[CellSpec],
    jobs: int = 1,
    checkpoint_path: Optional[str] = None,
    identity: str = "sweep",
    resume: bool = False,
    progress: Optional[Callable[[str, bool], None]] = None,
    config: Optional[SupervisorConfig] = None,
    on_event: Optional[Callable[[str], None]] = None,
    registry_path: Optional[str] = None,
    registry_meta: Optional[Dict[str, object]] = None,
) -> SupervisorOutcome:
    """Run cell specs, checkpointing and recording their payloads.

    Without ``checkpoint_path`` this is a plain loop (or pool).  With it,
    each finished cell is one durable append to the checkpoint journal;
    with ``resume`` also set, previously checkpointed cells — whichever
    process of a killed run appended them — are restored instead of
    re-run.  ``progress`` (if given) is called with ``(key, was_resumed)``
    per cell.  While a checkpoint is active, SIGINT/SIGTERM end the run
    in an orderly way (pool torn down, conventional exit status); the
    journal needs no flush, so an interrupted sweep resumes cleanly.

    With ``jobs <= 1`` the cells run in-process, in order: the
    deterministic reference.  With ``jobs > 1`` they run on the
    supervised pool — crashed and hung cells are rescheduled, poisoned
    cells are quarantined instead of sinking the sweep — with identical
    results; a pool that cannot start degrades to the in-process loop.

    With ``registry_path`` set, every cell payload (fresh and restored
    alike — recording is idempotent, content-addressed) lands in the
    persistent run registry under the ``registry_meta`` record context
    (kind, parent run id), and the registry is compacted to its canonical
    byte form — so a serial run and a ``--jobs N`` run of the same cells
    produce byte-identical registries.  A failing registry update is
    reported through ``on_event``; results and checkpoint are unaffected.
    """
    if on_event is None:
        def on_event(message: str) -> None:
            print(f"  [supervisor] {message}", file=sys.stderr)

    config = dataclasses.replace(config or SupervisorConfig(), jobs=jobs)

    checkpoint: Optional[SweepCheckpoint] = None
    if checkpoint_path is not None:
        # Resuming a checkpoint that does not exist yet is a fresh start:
        # there is nothing to restore, so begin from scratch.
        checkpoint = SweepCheckpoint(
            checkpoint_path, identity,
            resume=resume and os.path.exists(checkpoint_path),
        )

    # Restore already-completed cells before any worker spawns.
    restored: Dict[str, Payload] = {}
    remaining: List[CellSpec] = []
    for spec in cells:
        key = spec[0]
        if checkpoint is not None and key in checkpoint:
            restored[key] = checkpoint.payload(key)
            if progress is not None:
                progress(key, True)
        else:
            remaining.append(spec)

    def on_result(key: str, payload: Payload, journaled: bool = False) -> None:
        if checkpoint is not None:
            checkpoint.record_payload(key, payload, durable=not journaled)
        if progress is not None:
            progress(key, False)

    # The guard turns a signal into an exception that unwinds through
    # the pool teardown.
    guard = (
        unwind_on_signals()
        if checkpoint is not None
        else contextlib.nullcontext()
    )
    with guard:
        outcome = None
        if jobs > 1:
            outcome = _run_supervised(remaining, config, checkpoint,
                                      on_result, on_event)
        if outcome is None:
            # Zero workers: same cells, same checkpointing, in order.
            outcome = SupervisorOutcome(
                stats=SupervisorStats(mode="serial", jobs=1)
            )
            # Everything alive now outlives the loop (the imports, the
            # caller's state): frozen, it is not re-walked by the
            # collection that ends every cell.
            gc.collect()
            gc.freeze()
            try:
                for key, fn, args in remaining:
                    payload = run_cell(fn, args)
                    outcome.results[key] = payload
                    outcome.stats.cells_completed += 1
                    on_result(key, payload)
            finally:
                gc.unfreeze()

    outcome.results.update(restored)
    outcome.stats.cells_restored = len(restored)
    if checkpoint is not None:
        checkpoint.compact()
    if registry_path is not None:
        try:
            record_results(registry_path, outcome.results, registry_meta)
        except Exception as exc:
            on_event(f"run registry update failed ({exc!r}); "
                     f"results and checkpoint are unaffected")
    return outcome


def _run_supervised(
    cells: List[CellSpec],
    config: SupervisorConfig,
    checkpoint: Optional[SweepCheckpoint],
    on_result: Callable[..., None],
    on_event: Callable[[str], None],
) -> Optional[SupervisorOutcome]:
    """Run ``cells`` on the supervised pool; None if it cannot start."""
    journal = on_quarantine = None
    if checkpoint is not None:
        journal = functools.partial(append_cell, checkpoint.path)
        on_quarantine = checkpoint.record_quarantine
    supervisor = Supervisor(
        cells, config, journal=journal,
        on_result=functools.partial(on_result, journaled=True),
        on_quarantine=on_quarantine, on_event=on_event,
    )
    try:
        supervisor.start()
    except Exception as exc:  # pool startup failure: degrade, don't die
        on_event(f"worker pool failed to start ({exc!r}); "
                 f"degrading to serial execution")
        return None
    return supervisor.run()


def require_complete(outcome: SupervisorOutcome, what: str = "sweep") -> None:
    """Raise typed :class:`QuarantinedCell` when any cell was poisoned.

    Called by consumers that need the *complete* result set (matrix
    assembly, report formatting).  The message carries each quarantined
    cell's final traceback tail so the failure is diagnosable from the
    one-line CLI error; the full records live in the checkpoint.
    """
    if not outcome.quarantined:
        return
    lines = []
    for key, record in sorted(outcome.quarantined.items()):
        tb = str(record.get("traceback", "")).strip().splitlines()
        last = tb[-1] if tb else "unknown failure"
        failures = record.get("failures", [])
        lines.append(f"{key!r} ({len(failures)} failures; last: {last})")
    raise QuarantinedCell(
        f"{what} completed with {len(outcome.quarantined)} quarantined "
        f"cell(s): " + "; ".join(lines)
    )
