"""Deterministic synthetic dataset generators.

The paper's inputs are scaled down roughly 8x (see DESIGN.md section 2) but
keep their structural properties:

* **Agrep corpus** — many small-to-medium text files (the paper greps 1349
  Digital UNIX kernel source files occupying 2928 blocks); file sizes are
  heavy-tailed like real source trees;
* **Gnuld objects** — object files with a file header pointing at a symbol
  header pointing at symbol/string tables that in turn locate debug blobs
  and sections (the offset-chasing structure that creates Gnuld's data
  dependences);
* **XDataSlice dataset** — one large z-major 3-D voxel file read far
  beyond file-cache capacity.

The paper runs every benchmark as original, speculating and manual over the
same files, and sweeps cache size and disk count over them too.  Generating
the bytes is therefore separate from creating the files: each
``generate_*`` function takes the bytes from :data:`LAST_DATASET` — which
generates them when its arguments differ from the last call's — and lays
them out in the file system it was handed.

A generator writes every file's bytes straight into anonymous private
mappings (:class:`Mappings`, the backing ``vm/memory.py`` uses for an
address space) and hands out read-only views of them.  An
:class:`~repro.fs.filesystem.Inode` shares such a view until it is first
written, so consecutive cells of one app read the same memory and none of
them can change what the next one reads; and a dataset goes back to the OS
the moment its last view dies — the slot moved on and the file systems
built over it were released — instead of staying on the malloc heap.
"""

from __future__ import annotations

import gc
import mmap
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, TypeVar

from repro.fs.filesystem import FileSystem, Inode
from repro.sim.rng import DeterministicRng

_T = TypeVar("_T")


class _LastDataset:
    """The one dataset this process keeps: the last one generated.

    One entry by construction — there is no size to choose.  A sweep runs
    the sweep points and variants of one app next to each other, so the
    last dataset is the one the next cell wants.  A fuzz campaign
    interleaves its apps by case index and regenerates at each change of
    app.  Any other is evicted
    *before* its successor is generated, so the slot never holds two (a
    dataset is tens of MB and sets a cell's peak memory); besides the
    slot, only file systems that are still in use keep a dataset alive —
    a finished run has released its own (``FileSystem.release``) — and
    a dataset's mappings are unmapped when its last view dies.
    """

    __slots__ = ("_key", "_dataset")

    def __init__(self) -> None:
        self._key: Tuple[object, ...] = ()
        self._dataset: object = None

    def get(self, generate: Callable[..., _T], *args: object) -> _T:
        """``generate(*args)``, from the slot when that was the last call.

        The key is the generator and every argument it was given, so no
        input that shapes the bytes can be left out of it.  What is
        returned is shared with every later caller that asks for the same:
        hand its buffers to ``FileSystem.create`` and keep no other
        reference to them.
        """
        key = (generate, *args)
        if key != self._key:
            if self._dataset is not None:
                self._key, self._dataset = (), None
                # A run releases its file system when it ends, but views of
                # the dataset can still be held by an unreachable cycle that
                # never went through a run, and a mapping is only unmapped
                # when its last view dies.  In a loop that does not collect
                # per cell, whether the allocation-driven collector gets to
                # it before the next dataset exists is luck (peak RSS of a
                # pass of eight full-scale cells, before runs released their
                # files: 59 to 71 MB by where a young collection happened to
                # fall, 50 MB with this).
                gc.collect()
            self._dataset = generate(*args)
            self._key = key
        return self._dataset  # type: ignore[return-value]


#: The process's dataset slot.  Only the ``generate_*`` functions (here and
#: in ``apps/postgres.py``) call it.
LAST_DATASET = _LastDataset()

#: Files smaller than this are packed back to back into shared mappings of
#: this size; a larger file gets a mapping of its own.  Measured on the
#: full-scale agrep and gnuld datasets (232 files, 12.6 MB): a mapping per
#: file costs 232 mappings and each file's partly used last page (peak RSS
#: of a matrix pass 0.1-0.3 MB higher); 1 MB packs them into 13 mappings;
#: generating both took 66-70 ms at every size from 64 KB to 4 MB, within
#: the run-to-run spread.  The unused tail of a mapping is never touched,
#: so it is address space, not memory.
PACK_BYTES = 1 << 20

#: ``random_fill`` draws a file's bytes this many at a time.  A multiple of
#: four, so the stream is the one a single ``rng.bytes(len(view))`` draws
#: (``randbytes`` takes 32-bit words in order).  Filling a 10.5 MB mapping
#: (gnuld's dataset) in one draw peaks at 21 MB of heap — the bytes and
#: the ``int`` ``randbytes`` builds them from — and takes 48 ms; in 64 KB
#: steps it peaks at 135 KB and takes 30 ms (16 KB: 30 ms, 4 KB: 62 ms,
#: 1 MB: 40 ms).
FILL_BYTES = 1 << 16


class Mappings:
    """The anonymous mappings one dataset's files are written into.

    Private (``ACCESS_COPY``: a forked worker's writes stay its own) and
    zero-filled on first touch.  ``file(n)`` hands out ``n`` fresh bytes: a
    file smaller than :data:`PACK_BYTES` goes after the last one in the
    current shared mapping, or starts the next when it does not fit, so no
    file spans two mappings.  Callers seal what they wrote with
    ``toreadonly()``; a mapping is unmapped when its last view dies.
    """

    __slots__ = ("_shared", "_used")

    def __init__(self) -> None:
        self._shared: Optional[memoryview] = None
        self._used = 0

    def file(self, size: int) -> memoryview:
        """A writable, zero-filled view of ``size`` bytes of its own."""
        if size >= PACK_BYTES:
            return memoryview(mmap.mmap(-1, size, access=mmap.ACCESS_COPY))
        if self._shared is None or self._used + size > PACK_BYTES:
            self._shared = memoryview(
                mmap.mmap(-1, PACK_BYTES, access=mmap.ACCESS_COPY))
            self._used = 0
        view = self._shared[self._used:self._used + size]
        self._used += size
        return view


def random_fill(rng: DeterministicRng, view: memoryview) -> None:
    """``view[:] = rng.bytes(len(view))``, :data:`FILL_BYTES` at a time."""
    for start in range(0, len(view), FILL_BYTES):
        step = view[start:start + FILL_BYTES]
        step[:] = rng.bytes(len(step))


# Gnuld object-file layout (u64 little-endian fields) -------------------------

OBJ_MAGIC = 0x6F626A31  # "obj1"

#: File header: magic, symhdr_off, file_size.
OBJ_HEADER_BYTES = 24
#: Symbol header: symtab_off, symtab_bytes, strtab_off, strtab_bytes,
#: nsections, ndebug.
OBJ_SYMHDR_BYTES = 48
#: One symbol-table record: (offset, length).
OBJ_RECORD_BYTES = 16


def _u64(value: int) -> bytes:
    return (value & ((1 << 64) - 1)).to_bytes(8, "little")


# ---------------------------------------------------------------------------
# Agrep
# ---------------------------------------------------------------------------

def generate_agrep_corpus(
    fs: FileSystem,
    nfiles: int,
    seed: int,
    min_kb: int = 2,
    max_kb: int = 120,
    directory: str = "src",
) -> List[Inode]:
    """Create ``nfiles`` text files with a heavy-tailed size distribution."""
    files = LAST_DATASET.get(
        _agrep_files, nfiles, seed, min_kb, max_kb, directory)
    return [fs.create(path, data) for path, data in files]


def _agrep_files(
    nfiles: int, seed: int, min_kb: int, max_kb: int, directory: str
) -> List[Tuple[str, memoryview]]:
    rng = DeterministicRng(seed, "agrep-corpus")
    mappings = Mappings()
    files = []
    for i in range(nfiles):
        size = rng.pareto_int(1.3, min_kb * 1024, max_kb * 1024)
        text = mappings.file(size)
        random_fill(rng, text)
        files.append((f"{directory}/file{i:04d}.c", text.toreadonly()))
    return files


# ---------------------------------------------------------------------------
# Gnuld
# ---------------------------------------------------------------------------

@dataclass
class ObjectFileSpec:
    """Shape of one generated object file."""

    path: str
    size: int
    nsections: int
    ndebug: int
    section_offsets: List[int] = field(default_factory=list)
    section_lengths: List[int] = field(default_factory=list)
    debug_offsets: List[int] = field(default_factory=list)
    debug_lengths: List[int] = field(default_factory=list)
    #: Relocation blobs, one per section, located via a pointer stored in
    #: the first 16 bytes of the section itself (data dependence that
    #: persists through the section pass, as in the real linker).
    reloc_offsets: List[int] = field(default_factory=list)
    reloc_lengths: List[int] = field(default_factory=list)


def generate_gnuld_objects(
    fs: FileSystem,
    nfiles: int,
    seed: int,
    max_sections: int = 9,
    directory: str = "obj",
) -> List[ObjectFileSpec]:
    """Create linkable object files with the paper's offset-chasing layout.

    Layout of each file::

        [file header][...][symbol header][symbol table][string table]
        [debug blobs...][sections...]

    The symbol header is placed at a file-dependent offset (recorded in the
    file header) so that reading it *requires* the header's contents —
    the data dependence that limits speculative Gnuld.
    """
    files = LAST_DATASET.get(
        _gnuld_files, nfiles, seed, max_sections, directory)
    for spec, blob in files:
        fs.create(spec.path, blob)
    return [spec for spec, _ in files]


def _gnuld_files(
    nfiles: int, seed: int, max_sections: int, directory: str
) -> List[Tuple[ObjectFileSpec, memoryview]]:
    rng = DeterministicRng(seed, "gnuld-objects")
    mappings = Mappings()
    files = []
    for i in range(nfiles):
        nsections = rng.randint(4, max_sections)
        ndebug = rng.randint(6, 9)
        # The symbol header lands a few blocks into the file — reading it
        # requires the file header's contents *and* a separate disk block.
        # Every position is strongly file-dependent so that stale offsets
        # (speculation reading last file's header out of the buffer) point
        # at the *wrong* blocks, as they would in a real link.
        symhdr_off = rng.randint(1 * 8192, 4 * 8192) & ~511
        symtab_bytes = (nsections + ndebug) * OBJ_RECORD_BYTES + rng.randint(512, 2048)
        strtab_bytes = rng.randint(512, 1536)

        # Symbol and string tables live past the symbol header, in their
        # own block neighbourhood (string table adjacent to symbol table,
        # giving the block reuse the paper's Gnuld shows).
        symtab_off = symhdr_off + (rng.randint(1 * 8192, 5 * 8192) & ~511)
        strtab_off = symtab_off + symtab_bytes
        cursor = strtab_off + strtab_bytes + rng.randint(0, 16 * 1024)

        debug_offsets, debug_lengths = [], []
        for _ in range(ndebug):
            length = rng.randint(64, 384)
            debug_offsets.append(cursor)
            debug_lengths.append(length)
            cursor += length + rng.randint(0, 256)

        section_offsets, section_lengths = [], []
        cursor += rng.randint(0, 12 * 1024)
        for _ in range(nsections):
            length = max(64, rng.randint(1024, 12 * 1024))
            section_offsets.append(cursor)
            section_lengths.append(length)
            cursor += length + rng.randint(0, 4096)

        # Relocation area: one blob per section, scattered near the end of
        # the file.  Each section's first 16 bytes point at its blob.
        reloc_offsets, reloc_lengths = [], []
        cursor += rng.randint(0, 8 * 1024)
        for _ in range(nsections):
            length = rng.randint(512, 2048)
            reloc_offsets.append(cursor)
            reloc_lengths.append(length)
            cursor += length + rng.randint(0, 4096)

        size = cursor + rng.randint(0, 512)
        blob = mappings.file(size)
        random_fill(rng, blob)

        for off, r_off, r_len in zip(section_offsets, reloc_offsets, reloc_lengths):
            blob[off:off + 8] = _u64(r_off)
            blob[off + 8:off + 16] = _u64(r_len)

        blob[0:8] = _u64(OBJ_MAGIC)
        blob[8:16] = _u64(symhdr_off)
        blob[16:24] = _u64(size)

        sym = symhdr_off
        blob[sym:sym + 8] = _u64(symtab_off)
        blob[sym + 8:sym + 16] = _u64(symtab_bytes)
        blob[sym + 16:sym + 24] = _u64(strtab_off)
        blob[sym + 24:sym + 32] = _u64(strtab_bytes)
        blob[sym + 32:sym + 40] = _u64(nsections)
        blob[sym + 40:sym + 48] = _u64(ndebug)

        cursor = symtab_off
        for off, length in zip(section_offsets, section_lengths):
            blob[cursor:cursor + 8] = _u64(off)
            blob[cursor + 8:cursor + 16] = _u64(length)
            cursor += OBJ_RECORD_BYTES
        for off, length in zip(debug_offsets, debug_lengths):
            blob[cursor:cursor + 8] = _u64(off)
            blob[cursor + 8:cursor + 16] = _u64(length)
            cursor += OBJ_RECORD_BYTES

        spec = ObjectFileSpec(
            path=f"{directory}/module{i:04d}.o",
            size=size,
            nsections=nsections,
            ndebug=ndebug,
            section_offsets=section_offsets,
            section_lengths=section_lengths,
            debug_offsets=debug_offsets,
            debug_lengths=debug_lengths,
            reloc_offsets=reloc_offsets,
            reloc_lengths=reloc_lengths,
        )
        files.append((spec, blob.toreadonly()))
    return files


# ---------------------------------------------------------------------------
# XDataSlice
# ---------------------------------------------------------------------------

def generate_xds_dataset(
    fs: FileSystem,
    dim: int,
    seed: int,
    path: str = "data/volume.xds",
    voxel_bytes: int = 4,
) -> Inode:
    """Create the z-major ``dim**3`` voxel dataset file.

    Voxel values are irrelevant to control flow, so the bulk is zeros with
    a thin deterministic sprinkle for realism.
    """
    return fs.create(path, LAST_DATASET.get(_xds_volume, dim, seed, voxel_bytes))


def _xds_volume(dim: int, seed: int, voxel_bytes: int) -> memoryview:
    rng = DeterministicRng(seed, "xds-dataset")
    size = dim * dim * dim * voxel_bytes
    blob = Mappings().file(size)
    # Sprinkle a deterministic pattern so reads return non-trivial data.
    for _ in range(min(4096, size // 64)):
        pos = rng.randint(0, size - 1)
        blob[pos] = rng.randint(1, 255)
    # Built in place and sealed: a read-only view costs no second copy.
    return blob.toreadonly()


def xds_slice_plan(
    dim: int,
    nslices: int,
    seed: int,
) -> List[int]:
    """(axis, position) pairs for the slice sequence, flattened.

    axis 0 = x (worst locality: one voxel run per scanline), 1 = y
    (strided scanlines), 2 = z (one contiguous plane).  XDataSlice's
    benchmark retrieves random slices; we bias away from x slices, whose
    read count would dwarf the others.
    """
    rng = DeterministicRng(seed, "xds-slices")
    plan = []
    for _ in range(nslices):
        axis = rng.choice([1, 1, 2, 1, 2])  # y-heavy mix like the paper's runs
        position = rng.randint(0, dim - 1)
        plan.extend((axis, position))
    return plan
