"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import pytest

from repro.fs.filesystem import FileSystem
from repro.harness.runner import System, build_system
from repro.kernel.process import Process
from repro.sim.clock import SimClock
from repro.trace.lifecycle import CANCELLED, CONSUMED, HintLifecycle, HintRecord
from repro.params import (
    ArrayParams,
    CacheParams,
    SpecHintParams,
    SystemConfig,
    TipParams,
)
from repro.vm.assembler import Assembler
from repro.vm.binary import Binary
from repro.vm.isa import SYS_EXIT, Reg
from repro.vm.stdlib import emit_stdlib


class TipStandIn:
    """A bare :class:`HintLifecycle` with the TIP manager's part played by
    hand: the stand-in creates each hint's record, keeps the key index the
    ledger reads, and takes a record out of it before ending it."""

    def __init__(self, clock: SimClock,
                 capacity: int = HintLifecycle.DEFAULT_CAPACITY) -> None:
        self.clock = clock
        self.index: Dict[Tuple[int, int], List[HintRecord]] = {}
        self.ledger = HintLifecycle(clock, self.index, capacity=capacity)

    def disclose(self, seq: int, keys: Sequence[Tuple[int, int]],
                 pid: int) -> List[HintRecord]:
        """Queue ``keys[i]`` with seq ``seq + i``; returns the records."""
        records = [HintRecord(seq + i, key, pid, self.clock.now)
                   for i, key in enumerate(keys)]
        for record in records:
            self.index.setdefault(record.key, []).append(record)
        self.ledger.disclosed(records)
        return records

    def end(self, record: HintRecord, terminal: str, detail: str = "") -> None:
        """Dequeue ``record`` and end it in ``terminal``."""
        same_key = self.index[record.key]
        same_key.remove(record)
        if not same_key:
            del self.index[record.key]
        if terminal == CONSUMED:
            self.ledger.consumed(record)
        elif terminal == CANCELLED:
            self.ledger.cancelled(record)
        else:
            self.ledger.wasted(record, detail)

    def open_for(self, pid: int) -> int:
        """Open hints of one process: its records still in the index."""
        return sum(record.pid == pid for records in self.index.values()
                   for record in records)


def small_system_config(
    ndisks: int = 4,
    cache_blocks: int = 64,
    ignore_hints: bool = False,
    ncpus: int = 1,
    spechint: Optional[SpecHintParams] = None,
) -> SystemConfig:
    """A small, fast system configuration for unit/integration tests."""
    return SystemConfig(
        array=ArrayParams(ndisks=ndisks),
        cache=CacheParams(capacity_blocks=cache_blocks),
        tip=TipParams(ignore_hints=ignore_hints),
        spechint=spechint or SpecHintParams(),
        ncpus=ncpus,
    )


def digest_of(value: object) -> str:
    """sha256 of a JSON-safe value in canonical form (keys sorted): what
    every pinned result digest in the suite is."""
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def make_populated_fs(nfiles: int = 4, blocks_each: int = 4) -> FileSystem:
    """A file system with a few files of known content."""
    fs = FileSystem()
    for i in range(nfiles):
        payload = bytes([(i + j) % 256 for j in range(blocks_each * 8192)])
        fs.create(f"f{i}.dat", payload)
    return fs


def make_system(
    fs: Optional[FileSystem] = None,
    config: Optional[SystemConfig] = None,
) -> System:
    """A fully wired small system."""
    if fs is None:
        fs = make_populated_fs()
    return build_system(config or small_system_config(), fs)


def assemble(build: Callable[[Assembler], None], name: str = "test",
             with_stdlib: bool = False) -> Binary:
    """Assemble a tiny program.

    ``build`` receives the assembler inside an open ``main`` function;
    it must end with an exit (or the helper's trailing exit runs).
    """
    asm = Assembler(name)
    if with_stdlib:
        emit_stdlib(asm)
    asm.entry("main")
    with asm.function("main"):
        build(asm)
        asm.li(Reg.a0, 0)
        asm.syscall(SYS_EXIT)
    return asm.finish()


def run_program(
    build: Callable[[Assembler], None],
    fs: Optional[FileSystem] = None,
    config: Optional[SystemConfig] = None,
    with_stdlib: bool = False,
) -> Tuple[System, Process]:
    """Assemble, spawn and run a tiny program; returns (system, process)."""
    system = make_system(fs, config)
    binary = assemble(build, with_stdlib=with_stdlib)
    process = system.kernel.spawn(binary)
    system.kernel.run()
    return system, process


@pytest.fixture
def system() -> System:
    return make_system()


@pytest.fixture
def fs() -> FileSystem:
    return make_populated_fs()
