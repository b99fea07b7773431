"""Exception hierarchy for the SpecHint reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures without catching unrelated built-in
exceptions.  Subsystem-specific errors are grouped below by the package that
raises them.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


# ---------------------------------------------------------------------------
# Simulation core
# ---------------------------------------------------------------------------

class SimulationError(ReproError):
    """A violation of discrete-event simulation invariants.

    Raised, for example, when an event is scheduled in the past or when the
    engine is asked to run after it has been torn down.
    """


# ---------------------------------------------------------------------------
# Storage substrate
# ---------------------------------------------------------------------------

class StorageError(ReproError):
    """Base class for disk/striping errors."""


class InvalidBlockError(StorageError):
    """An I/O request addressed a block outside the device."""


# ---------------------------------------------------------------------------
# Fault injection / degraded mode
# ---------------------------------------------------------------------------

class FaultError(ReproError):
    """Base class for *injected* failures and their consequences.

    Keeping these distinct from the rest of the hierarchy separates "the
    chaos plan did what it was told" from simulation-invariant bugs: a
    FaultError escaping a run means the degradation machinery (retries,
    silent prefetch dropping, the speculation watchdog) gave up, not that
    the simulator is broken.
    """


class InvalidFaultPlan(FaultError):
    """A serialized fault plan could not be deserialized.

    Raised by :meth:`repro.faults.plan.FaultPlan.from_jsonable` on unknown
    keys, wrong value types, or out-of-range rates/windows — a corrupt or
    hand-edited reproducer file must fail with a typed error naming the
    offending key, never a bare ``KeyError``.
    """


class DiskFaultError(FaultError):
    """A disk access completed with an injected (transient or offline) error."""


class IOTimeoutError(FaultError):
    """An I/O request exceeded its per-request timeout and was aborted."""


class RetriesExhausted(FaultError):
    """A demand read kept failing after every allowed retry attempt."""


class DataLossError(FaultError):
    """A stripe row became unrecoverable — data is gone, not merely slow.

    Raised when a block lives on a permanently dead disk and the array has
    no redundancy, or when a second disk dies before the rebuild resilvered
    the row (the classic RAID-5 double fault).  This is the one storage
    failure that must be *loud*: silently returning stale or zeroed blocks
    would corrupt application output, so every path that discovers an
    unrecoverable row raises this typed error instead of degrading.
    """


# ---------------------------------------------------------------------------
# File system substrate
# ---------------------------------------------------------------------------

class FileSystemError(ReproError):
    """Base class for simulated file system errors."""


class FileNotFoundInFS(FileSystemError):
    """A path lookup failed."""


class FileExistsInFS(FileSystemError):
    """A file creation collided with an existing path."""


class BadFileDescriptor(FileSystemError):
    """An operation used a closed or never-opened file descriptor."""


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------

class KernelError(ReproError):
    """Base class for simulated kernel errors."""


class InvalidSyscall(KernelError):
    """A program invoked an unknown or forbidden system call."""


# ---------------------------------------------------------------------------
# SpecVM (execution substrate)
# ---------------------------------------------------------------------------

class VMError(ReproError):
    """Base class for SpecVM errors."""


class AssemblyError(VMError):
    """The assembler rejected a program (unknown opcode, bad label...)."""


class MachineFault(VMError):
    """A *normal-execution* machine fault.

    Faults during speculative execution are not raised as exceptions out of
    the machine; they are converted to simulated signals and handled by the
    SpecHint runtime, mirroring the paper's signal-handler design.
    """


class IllegalAddress(MachineFault):
    """A load/store touched an unmapped address during normal execution."""


class ArithmeticFault(MachineFault):
    """Division (or modulus) by zero during normal execution."""


# ---------------------------------------------------------------------------
# SpecHint (the contribution)
# ---------------------------------------------------------------------------

class SpecHintError(ReproError):
    """Base class for binary-transformation errors."""


class UnsupportedBinary(SpecHintError):
    """The input binary violates SpecHint's restrictions.

    The paper's tool is restricted to single-threaded, statically linked
    binaries that retain relocation information; our tool enforces the
    analogous restrictions on SpecVM binaries.
    """


class IsolationViolation(SpecHintError):
    """The speculation isolation invariant was broken.

    The paper's entire safety argument rests on one property: speculative
    pre-execution can never alter the original thread's state.  The
    isolation auditor enforces it — a speculative write that escapes the
    COW containment map, a tampered audit table, or a restart-boundary
    digest mismatch all raise this error.  The runtime responds by
    quarantining speculation for the process (never by corrupting the
    run): losing speculation costs performance, never correctness.
    """


# ---------------------------------------------------------------------------
# Static analysis
# ---------------------------------------------------------------------------

class AnalysisError(ReproError):
    """The static binary analysis could not produce a sound result.

    Raised when an internal invariant of the analysis pipeline breaks
    (e.g. the abstract-interpretation fixpoint fails to converge) or when
    it is asked to analyze a binary it cannot reason about.  Never raised
    for ordinary imprecision — an unprovable fact degrades to UNKNOWN and
    the transformation stays conservative.
    """


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------

class HarnessError(ReproError):
    """Experiment configuration or bookkeeping error."""


class OracleMismatch(HarnessError):
    """The differential correctness oracle found a divergence.

    A speculating run must be byte-identical in output and identical in
    demand-read sequence to the spec-off run of the same workload and
    seed, under every fault profile.  Any difference is a correctness
    bug in the speculation machinery, not a tuning problem.
    """


class CheckpointError(HarnessError):
    """A harness checkpoint file is missing, corrupt, or incompatible."""


class WorkerCrash(HarnessError):
    """Worker processes of a parallel run keep dying.

    A single death is handled by the cell engine (the cell re-runs on a
    fresh worker); this error escapes only when workers die again and
    again with no cell finished in between, and the run aborts.  Cells
    finished before are in the checkpoint, so the run resumes without
    losing them.
    """


class FuzzError(HarnessError):
    """Chaos-fuzzing engine misuse or a broken reproducer file.

    Raised for invalid fuzz budgets/apps, unreadable or version-mismatched
    corpus reproducers, and unknown speculation-parameter override keys.
    Invariant *violations* found by fuzzing are never raised — they are
    data (:class:`repro.harness.invariants.Violation` records with
    structured witnesses) so a campaign can collect, shrink, and report
    every one of them.
    """


# ---------------------------------------------------------------------------
# Run registry
# ---------------------------------------------------------------------------

class RegistryError(ReproError):
    """The persistent run registry is corrupt, incompatible, or misused.

    Raised for unknown ``schema_version`` values in serialized
    :class:`~repro.harness.results.RunResult` payloads and registry
    records, unreadable registry files, and malformed record fields — a
    ledger written by a future (or corrupted) version of the code must
    fail loudly instead of deserializing into silently-wrong records.
    """


class UnknownRunError(RegistryError):
    """A registry query named a run id (or prefix) that matches no record.

    Also raised for ambiguous prefixes: ``repro runs show`` accepts any
    unique prefix of a content-addressed run id, and a prefix matching
    two records is an error, never a silent first-match.
    """


# ---------------------------------------------------------------------------
# Tracing / observability
# ---------------------------------------------------------------------------

class TraceError(ReproError):
    """Invalid tracing configuration or export request.

    Raised for unknown trace categories, unwritable export targets, and
    malformed analyzer queries.  Never raised from the recording hot path:
    a tracer that could fail mid-run would violate the zero-perturbation
    guarantee, so recording is infallible by construction.
    """
