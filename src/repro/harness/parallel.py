"""The cell engine: run sealed simulation cells, serially or sharded.

Every sweep cell (one ``(sweep point, app, variant)`` triple), oracle
cell, chaos cell, fuzz cell and ``repro paper`` cell is a sealed
deterministic simulation — independent seeding means any subset can run
anywhere, in any order, and merge into a result set byte-identical to a
serial run.  That is exactly the "cell as the unit of parallelism" model
of Simics' threading commands: the serialised mode is the deterministic
reference, and the cells are safe to shard across processes.

:func:`run_cells` is the one pipeline every grid goes through:

* cells are picklable ``(key, fn, args)`` specs whose runners return
  JSON-safe payloads (``RunResult.to_jsonable()`` and friends);
* ``jobs <= 1`` runs them in an in-process loop and ``jobs > 1`` on a
  pool of worker processes, one pipe each; a pool that fails to start
  degrades to the in-process loop, same results, same checkpoint format;
* both follow the loop's failure policy.  A cell that raises ends the run
  with its exception and a cell that hangs hangs: cells are
  deterministic, so another attempt would raise or hang again.  The one
  failure only a pool has — a worker that dies (OOM kill, ``SIGKILL``) —
  re-runs its cell on a fresh worker, and :data:`MAX_DEATHS_IN_A_ROW`
  deaths with no cell finished in between end the run with a typed
  :class:`~repro.errors.WorkerCrash`;
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
(:func:`run_cell`) walks the cell and not the imports, and consecutive
cells of one app are built over the same input buffers
(``apps/datasets.py``; a file a cell writes becomes that cell's own copy).
The freeze ends with the loop, however the loop ends.

The determinism guard (``tests/test_parallel_supervisor.py``) asserts the
parallel result set is byte-identical to serial, and to a pinned digest,
for a cache sweep plus a grid over every profile that kills no disk.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import os
import signal
import sys
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Tuple,
)

from repro.errors import WorkerCrash
from repro.harness.checkpoint import (
    SweepCheckpoint,
    append_cell,
    unwind_on_signals,
)
from repro.registry.recorder import record_results

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.context import BaseContext
    from multiprocessing.process import BaseProcess

#: Payload a cell runner returns: a JSON-safe dict (RunResult or
#: differential-cell serialization) that crosses the result pipe verbatim.
Payload = Dict[str, object]

#: One schedulable unit: key, a picklable callable, its arguments.  The
#: callable must be a module-level function (pickled by reference) and
#: must return a JSON-safe dict — payloads cross the result pipe and are
#: recorded verbatim into checkpoints.
CellSpec = Tuple[str, Callable[..., Payload], Tuple[object, ...]]

#: Appends one finished cell to the checkpoint journal (in a worker).
Journal = Callable[[str, Payload], None]

#: Worker deaths in a row, with no cell finished in between, that end a
#: parallel run: by then the interpreter or the machine is broken, not a
#: cell.  Cells finished before are in the checkpoint.
MAX_DEATHS_IN_A_ROW = 5


@dataclass
class EngineStats:
    """Counters describing how a run of cells went."""

    mode: str = "serial"  # "serial" | "parallel"
    jobs: int = 1
    cells_completed: int = 0
    cells_restored: int = 0
    worker_crashes: int = 0
    workers_spawned: int = 0

    def to_jsonable(self) -> Dict[str, object]:
        return dict(self.__dict__)


@dataclass
class EngineOutcome:
    """Every cell's payload, by key, and how the run went."""

    results: Dict[str, Payload] = field(default_factory=dict)
    stats: EngineStats = field(default_factory=EngineStats)


def run_cell(fn: Callable[..., Dict[str, object]],
             args: Tuple[object, ...]) -> Dict[str, object]:
    """Run one cell in this process and reclaim what it built.

    A finished cell's simulated system is cyclic garbage: its cache and
    ledgers, its address-space mapping, its file system's names (the run
    released the files themselves when it ended).  Left to the
    allocation-driven collector, several cells' worth pile up before a
    full collection happens to run; collecting here keeps memory at one
    cell's footprint.  Measured on the ``fuzz_cli`` / ``sweep_cli``
    benchmark commands, each launched from a small parent (a child's peak
    RSS starts at its forking parent's resident size): 28.1 / 32.6 MB peak
    with this collect, 29.3 / 33.6-34.4 MB without — the unwritten
    inputs, most of a cell's bytes, are mappings shared with the dataset
    slot (``apps/datasets.py``), which collects when it evicts.

    The loops that call this (``_run_serial``, ``_worker_main``) freeze
    what was alive before their first cell, so the collection walks what
    the cell allocated and not everything the process ever imported
    (1.3 ms a call, not 6).

    A cell that raises is reclaimed too.  Its system is a local of a frame
    the traceback holds, and whoever catches the exception may keep it (a
    worker formats it, which needs no locals), so the finished frames are
    cleared before the collection.
    """
    try:
        return fn(*args)
    except BaseException as exc:
        traceback.clear_frames(exc.__traceback__)
        raise
    finally:
        gc.collect()


def run_cells(
    cells: List[CellSpec],
    jobs: int = 1,
    checkpoint_path: Optional[str] = None,
    identity: str = "sweep",
    resume: bool = False,
    progress: Optional[Callable[[str, bool], None]] = None,
    on_event: Optional[Callable[[str], None]] = None,
    registry_path: Optional[str] = None,
    registry_meta: Optional[Dict[str, object]] = None,
) -> EngineOutcome:
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
    deterministic reference.  With ``jobs > 1`` they run on ``jobs``
    worker processes with identical results and the same failure policy
    (see the module docstring); a pool that cannot start degrades to the
    in-process loop.

    With ``registry_path`` set, every cell payload (fresh and restored
    alike — recording is idempotent, content-addressed) lands in the
    persistent run registry under the ``registry_meta`` record context
    (the record kind, e.g. ``{"kind": "sweep-cell"}``), and the registry
    is compacted to its canonical byte form — so a serial run and a
    ``--jobs N`` run of the same cells produce byte-identical registries.
    A failing registry update is reported through ``on_event``; results
    and checkpoint are unaffected.
    """
    if on_event is None:
        def on_event(message: str) -> None:
            print(f"  [supervisor] {message}", file=sys.stderr)

    checkpoint: Optional[SweepCheckpoint] = None
    journal: Optional[Journal] = None
    if checkpoint_path is not None:
        # Resuming a checkpoint that does not exist yet is a fresh start:
        # there is nothing to restore, so begin from scratch.
        checkpoint = SweepCheckpoint(
            checkpoint_path, identity,
            resume=resume and os.path.exists(checkpoint_path),
        )
        journal = functools.partial(append_cell, checkpoint.path)

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

    outcome = EngineOutcome(stats=EngineStats(mode="parallel", jobs=jobs))

    def finish(key: str, payload: Payload, journaled: bool) -> None:
        outcome.results[key] = payload
        outcome.stats.cells_completed += 1
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
        if jobs <= 1 or not _run_pool(remaining, jobs, journal, finish,
                                      on_event, outcome.stats):
            outcome.stats = EngineStats()
            _run_serial(remaining, finish)

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


def _run_serial(cells: List[CellSpec],
                finish: Callable[[str, Payload, bool], None]) -> None:
    """The in-process loop: same cells, same checkpointing, in order."""
    # Everything alive now outlives the loop (the imports, the caller's
    # state), and so does each payload the loop keeps: frozen, neither is
    # re-walked by the collection that ends every cell.
    gc.collect()
    gc.freeze()
    try:
        for key, fn, args in cells:
            finish(key, run_cell(fn, args), False)
            gc.freeze()
    finally:
        gc.unfreeze()


# ---------------------------------------------------------------------------
# The pool: one process and one pipe per worker
# ---------------------------------------------------------------------------

@dataclass
class _Worker:
    """Parent-side handle of one worker process."""

    process: BaseProcess
    conn: Connection
    #: The cell this worker is running, None while it is idle.
    cell: Optional[CellSpec] = None


def _worker_main(conn: Connection, journal: Optional[Journal]) -> None:
    """Worker process: run the cells the parent sends until it sends None.

    Each finished cell is appended to the journal, then reported as
    ``("done", key, payload)``; a cell that raises is reported as
    ``("raised", exception, traceback text)`` and ends the worker.
    """
    # The parent owns interruption: a terminal Ctrl-C goes to the parent,
    # which tears the pool down deliberately.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),),
                     daemon=True).start()
    # A worker lives for its cells: what the imports left behind is frozen
    # for good, so ``run_cell``'s collection walks only the cell.
    gc.collect()
    gc.freeze()
    with contextlib.suppress(EOFError, OSError):  # the parent is gone
        for key, fn, args in iter(conn.recv, None):
            try:
                payload = run_cell(fn, args)
                if journal is not None:
                    # Persist before reporting: a parent SIGKILL between
                    # these two steps loses nothing — the next run reads
                    # the journal.
                    journal(key, payload)
            except BaseException as exc:  # re-raised by the parent
                detail = traceback.format_exc()
                try:
                    conn.send(("raised", exc, detail))
                except Exception:  # an exception that does not pickle
                    conn.send(("raised", RuntimeError(repr(exc)), detail))
                return
            conn.send(("done", key, payload))


def _exit_with_parent(parent_pid: int) -> None:
    """Daemon thread: end this worker, even mid-cell, once the parent dies."""
    while os.getppid() == parent_pid:
        time.sleep(0.5)
    os._exit(2)


def _start_worker(ctx: BaseContext, journal: Optional[Journal]) -> _Worker:
    parent_end, child_end = ctx.Pipe()
    process = ctx.Process(target=_worker_main, args=(child_end, journal),
                          daemon=True)
    process.start()
    # Only the worker holds its end now, so its death is EOF on ours.
    child_end.close()
    return _Worker(process, parent_end)


def _run_pool(
    cells: List[CellSpec],
    jobs: int,
    journal: Optional[Journal],
    finish: Callable[[str, Payload, bool], None],
    on_event: Callable[[str], None],
    stats: EngineStats,
) -> bool:
    """Run ``cells`` on ``jobs`` workers; False if the pool cannot start.

    The parent sleeps in ``connection.wait`` on every worker's pipe and
    process sentinel: a report, a death or a signal wakes it, and nothing
    else does.  No lock is shared between processes — each pipe joins the
    parent to one worker — so a worker killed at any instant can break
    only its own pipe, which the parent then closes.
    """
    # Imported here: the serial loop, which most runs take, never needs it.
    import multiprocessing
    from multiprocessing.connection import wait

    # fork when available (cheap, inherits test-registered cell
    # runners), else spawn.
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    workers: List[_Worker] = []
    try:
        try:
            for _ in range(min(jobs, len(cells))):
                workers.append(_start_worker(ctx, journal))
        except Exception as exc:  # pool startup failure: degrade, don't die
            on_event(f"worker pool failed to start ({exc!r}); "
                     f"degrading to serial execution")
            return False
        stats.workers_spawned = len(workers)

        pending: Deque[CellSpec] = deque(cells)
        left = len(cells)
        deaths = 0  # in a row, with no cell finished in between
        while left:
            for worker in workers:
                if worker.cell is None and pending:
                    worker.cell = pending.popleft()
                    # A worker that died idle fails the send; its sentinel
                    # reports the death below.
                    with contextlib.suppress(OSError):
                        worker.conn.send(worker.cell)
            ready = set(wait([w.conn for w in workers]
                             + [w.process.sentinel for w in workers]))
            for worker in list(workers):
                if not ready & {worker.conn, worker.process.sentinel}:
                    continue
                report = _receive(worker)
                if report is None:
                    # Dead: a crash, or a kill between append and report.
                    workers.remove(worker)
                    worker.process.join()
                    worker.conn.close()
                    stats.worker_crashes += 1
                    deaths += 1
                    if worker.cell is not None:
                        pending.appendleft(worker.cell)
                        on_event(f"worker died (exitcode "
                                 f"{worker.process.exitcode}) running "
                                 f"{worker.cell[0]!r}; re-running the cell")
                    if deaths >= MAX_DEATHS_IN_A_ROW:
                        raise WorkerCrash(
                            f"worker pool unhealthy: {deaths} worker deaths "
                            f"in a row without a finished cell; aborting "
                            f"(finished cells are checkpointed)"
                        )
                    workers.append(_start_worker(ctx, journal))
                    stats.workers_spawned += 1
                elif report[0] == "raised":
                    _, exc, detail = report
                    raise exc from RuntimeError(
                        f"raised in a worker process:\n{detail}")
                else:
                    _, key, payload = report
                    worker.cell = None
                    left -= 1
                    deaths = 0
                    finish(key, payload, True)
    finally:
        _stop(workers)
    return True


def _receive(worker: _Worker) -> Optional[Tuple[Any, ...]]:
    """The worker's next report, or None if it died without one."""
    try:
        return worker.conn.recv() if worker.conn.poll() else None
    except (EOFError, OSError):
        return None


def _stop(workers: List[_Worker]) -> None:
    """Tear the pool down: idle workers are told to stop, busy ones killed."""
    for worker in workers:
        if worker.cell is None:
            with contextlib.suppress(OSError):
                worker.conn.send(None)
        else:
            worker.process.kill()
    for worker in workers:
        worker.process.join(timeout=2.0)
        worker.process.kill()  # a no-op on a worker that has exited
        worker.process.join()
        worker.conn.close()
