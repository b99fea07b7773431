"""Inodes and the simulated file system.

A new, empty file system is created for each experiment (the paper: "A new
file system was created to hold the files used in our experiments"), so
files are allocated contiguously in the striped logical block address space.

File *contents* are real bytes.  Benchmark programs read headers, follow
offsets stored inside the data, and compute on what they read — which is what
makes Gnuld's data-dependent access pattern (and the erroneous hints it
induces under speculation) come out of the simulation rather than being
scripted.
"""

from __future__ import annotations

from typing import Dict, List, NoReturn, Optional, Union

from repro.errors import (
    FileExistsInFS,
    FileNotFoundInFS,
    FileSystemError,
    InvalidBlockError,
)
from repro.params import BLOCK_SIZE


#: What a file can be created from (see ``Inode``).
FileData = Union[bytes, bytearray, memoryview]


class _Released:
    """What a released inode holds instead of its bytes.

    Every way the inode reaches its data — a slice to read, ``len`` for
    the size, iteration to copy before a write — raises, so the live
    paths need no test of their own for a file system that has ended.
    """

    __slots__ = ()

    def _closed(self, *_args: object) -> NoReturn:
        raise FileSystemError("file used after its file system was released")

    __getitem__ = __len__ = __iter__ = _closed


_RELEASED = _Released()


class Inode:
    """One file: metadata plus contents.

    Who owns the bytes is read off the type of ``data`` (DESIGN.md
    section 5.1).  A ``bytearray`` is adopted: it becomes the file's
    storage and the caller must not touch it again.  ``bytes`` and a
    read-only ``memoryview`` cannot be written through, so they are kept as
    they are and may back any number of inodes; the first ``write_at``
    replaces them by a private ``bytearray``.  Anything else is copied.
    The dataset generators hand every cell of one app the same read-only
    views of anonymous mappings, so an input file's bytes are not on the
    malloc heap, and its mapping is unmapped once the last inode and the
    dataset slot have let go of it (``FileSystem.release``).
    """

    __slots__ = ("ino", "path", "data", "first_lbn")

    def __init__(
        self, ino: int, path: str, data: FileData, first_lbn: int
    ) -> None:
        self.ino = ino
        self.path = path
        sealed_view = (isinstance(data, memoryview) and data.readonly
                       and data.nbytes == len(data))
        if not (sealed_view or isinstance(data, (bytes, bytearray))):
            data = bytearray(data)
        self.data = data
        #: First logical block in the striped address space; the file's
        #: blocks are contiguous from here.
        self.first_lbn = first_lbn

    @property
    def size(self) -> int:
        """File size in bytes."""
        return len(self.data)

    @property
    def nblocks(self) -> int:
        """Number of file system blocks occupied (ceil(size / BLOCK_SIZE))."""
        return max(1, -(-len(self.data) // BLOCK_SIZE))

    def lbn_of_block(self, file_block: int) -> int:
        """Logical block number of the file's ``file_block``-th block."""
        if file_block < 0 or file_block >= self.nblocks:
            raise InvalidBlockError(
                f"file block {file_block} outside {self.path!r} ({self.nblocks} blocks)"
            )
        return self.first_lbn + file_block

    def read_at(self, offset: int, length: int) -> bytes:
        """Bytes [offset, offset+length), truncated at end of file."""
        if offset < 0:
            raise InvalidBlockError(f"negative read offset {offset}")
        return bytes(self.data[offset:offset + length])

    def write_at(self, offset: int, payload: bytes) -> None:
        """Overwrite/extend contents at ``offset`` (write-behind, no I/O)."""
        if offset < 0:
            raise InvalidBlockError(f"negative write offset {offset}")
        data = self.data
        if not isinstance(data, bytearray):
            # Shared until written: the buffer may back other inodes.
            data = self.data = bytearray(data)
        end = offset + len(payload)
        if end > len(data):
            data.extend(b"\x00" * (end - len(data)))
        data[offset:end] = payload

    def __repr__(self) -> str:
        size = "released" if self.data is _RELEASED else f"{self.size}B"
        return f"Inode({self.ino}, {self.path!r}, {size} @ lbn {self.first_lbn})"


class FileSystem:
    """Name space and block allocation over the striped array address space.

    Files are internally contiguous, but successive files are separated by
    pseudo-random allocation gaps (``allocation_jitter_blocks``): even a
    freshly created file system does not lay 1349 source files end to end,
    and those gaps are what make cross-file access pay disk positioning
    costs, as on the paper's testbed.
    """

    def __init__(self, allocation_jitter_blocks: int = 0, seed: int = 0) -> None:
        self._by_path: Dict[str, Inode] = {}
        self._by_ino: List[Inode] = []
        self._next_lbn = 0
        self._jitter = allocation_jitter_blocks
        self._rng = None
        if allocation_jitter_blocks > 0:
            from repro.sim.rng import DeterministicRng

            self._rng = DeterministicRng(seed, "fs-allocation")

    def create(self, path: str, data: FileData) -> Inode:
        """Create a file with the given contents; blocks are allocated
        contiguously, after a pseudo-random inter-file gap.  Nothing is
        copied here: a ``bytearray`` becomes the file's storage (the caller
        must not touch it again), ``bytes`` or a read-only view are shared
        until the file is first written (see :class:`Inode`)."""
        if path in self._by_path:
            raise FileExistsInFS(path)
        if self._rng is not None and self._by_ino:
            self._next_lbn += self._rng.randint(0, self._jitter)
        inode = Inode(len(self._by_ino), path, data, self._next_lbn)
        self._next_lbn += inode.nblocks
        self._by_path[path] = inode
        self._by_ino.append(inode)
        return inode

    def lookup(self, path: str) -> Inode:
        """Resolve a path to its inode."""
        inode = self._by_path.get(path)
        if inode is None:
            raise FileNotFoundInFS(path)
        return inode

    def lookup_or_none(self, path: str) -> Optional[Inode]:
        """Resolve a path, returning None when absent (used by hint calls,
        which must not fault on a speculatively-computed garbage name)."""
        return self._by_path.get(path)

    def inode(self, ino: int) -> Inode:
        """Resolve an inode number."""
        if ino < 0 or ino >= len(self._by_ino):
            raise FileNotFoundInFS(f"ino {ino}")
        return self._by_ino[ino]

    @property
    def total_blocks(self) -> int:
        """Blocks allocated so far — the size the striped array must cover."""
        return max(1, self._next_lbn)

    @property
    def nfiles(self) -> int:
        return len(self._by_ino)

    def paths(self) -> List[str]:
        """All file paths in creation order."""
        return [inode.path for inode in self._by_ino]

    def release(self) -> None:
        """End the file system: every inode lets go of its bytes.

        Names and block addresses stay; reading, writing or sizing a file
        raises :class:`~repro.errors.FileSystemError` from now on.  Only
        references are dropped — a buffer is never cleared or resized,
        because an unwritten input is shared with the dataset slot and so
        with the next file system built over the same dataset
        (``apps/datasets.py``).
        """
        for inode in self._by_ino:
            inode.data = _RELEASED  # type: ignore[assignment]
