"""Process address space.

Layout (one flat anonymous mapping, ranges validated on access)::

    0x0000_0000 .. 0x0000_FFFF   unmapped guard (null dereferences fault)
    0x0001_0000 .. data_end      data segment (globals from the binary)
    data_end    .. heap break    heap (grows via sbrk)
    stack_limit .. 0x0080_0000   stack (grows down from STACK_TOP)
    0x0090_0000 .. spec break    speculative heap (the allocator SpecHint
                                 links in for the speculating thread so
                                 speculation cannot leak process memory)

The speculative heap is private to the speculating thread; writes there are
invisible to the original thread simply because the original thread never
addresses that range.
"""

from __future__ import annotations

import mmap
from typing import Callable, Optional

from repro.errors import IllegalAddress

DATA_BASE = 0x0001_0000
STACK_TOP = 0x0080_0000
DEFAULT_STACK_BYTES = 0x0004_0000  # 256 KB
SPEC_HEAP_BASE = 0x0090_0000
SPEC_HEAP_MAX = 0x00A0_0000
SPACE_SIZE = SPEC_HEAP_MAX

MASK64 = (1 << 64) - 1


class AddressSpace:
    """Memory of one simulated process."""

    def __init__(self, data_image: bytes, stack_bytes: int = DEFAULT_STACK_BYTES) -> None:
        #: A private anonymous mapping, not a ``bytearray`` (DESIGN §5.1):
        #: pages are zero on first touch and go back to the OS with the
        #: space, never onto the malloc heap.  ``ACCESS_COPY`` keeps a forked
        #: worker's copy its own.  A store of the wrong length raises.
        self._mem = mmap.mmap(-1, SPACE_SIZE, access=mmap.ACCESS_COPY)
        self._mem[DATA_BASE:DATA_BASE + len(data_image)] = data_image

        self.data_start = DATA_BASE
        #: Heap break; sbrk moves it up.  The heap begins at the page-aligned
        #: end of the data segment.
        self.brk = DATA_BASE + ((len(data_image) + 0xFFF) & ~0xFFF)
        self.heap_max = STACK_TOP - stack_bytes - 0x1_0000
        self.stack_limit = STACK_TOP - stack_bytes
        self.stack_top = STACK_TOP

        #: Speculative-heap break (used by the SpecHint runtime's allocator).
        self.spec_brk = SPEC_HEAP_BASE

        #: Isolation write guard: when armed (speculating thread on CPU),
        #: every mutation of main memory is reported *before* it lands so
        #: the auditor can veto writes that escape COW containment.
        self.write_guard: Optional[Callable[[int, int], None]] = None

    def _guarded(self, addr: int, length: int) -> None:
        guard = self.write_guard
        if guard is not None:
            guard(addr, length)

    # -- validity ---------------------------------------------------------------

    def mapped(self, addr: int, length: int) -> bool:
        """True when [addr, addr+length) lies inside one mapped segment.

        The range test: :meth:`check_range` (and through it every typed
        accessor) and the COW map, which turns a miss into a speculation
        fault instead, all decide validity here.  Translated blocks inline
        its stack and data-segment halves for their fast path
        (``_WORD_MAPPED`` / ``_BYTE_MAPPED`` in :mod:`repro.vm.blocks`,
        with the layout bound per process) and call an accessor, and so
        this test, for every other address.
        """
        end = addr + length
        return length >= 0 and (
            self.data_start <= addr and end <= self.brk
            or self.stack_limit <= addr and end <= self.stack_top
            or SPEC_HEAP_BASE <= addr and end <= self.spec_brk
        )

    def check_range(self, addr: int, length: int) -> None:
        """Raise :class:`IllegalAddress` unless [addr, addr+length) is mapped."""
        if not self.mapped(addr, length):
            if length < 0:
                raise IllegalAddress(f"negative length {length} at {addr:#x}")
            raise IllegalAddress(f"access to unmapped [{addr:#x}, {addr + length:#x})")

    def segment_end(self, addr: int) -> Optional[int]:
        """Exclusive end of the mapped segment containing ``addr``.

        Returns None for unmapped addresses.  Used to detect ranges that
        would cross a segment boundary (e.g. a speculative string scan
        running off the end of the heap into the guard gap).
        """
        if self.data_start <= addr < self.brk:
            return self.brk
        if self.stack_limit <= addr < self.stack_top:
            return self.stack_top
        if SPEC_HEAP_BASE <= addr < self.spec_brk:
            return self.spec_brk
        return None

    # -- sbrk --------------------------------------------------------------------

    def sbrk(self, increment: int) -> int:
        """Grow (or query, with 0) the heap; returns the old break."""
        old = self.brk
        new = self.brk + increment
        if increment < 0 or new > self.heap_max:
            raise IllegalAddress(f"sbrk({increment}) beyond heap limit {self.heap_max:#x}")
        self.brk = new
        return old

    def spec_sbrk(self, increment: int) -> int:
        """The speculating thread's private allocator."""
        old = self.spec_brk
        new = self.spec_brk + increment
        if increment < 0 or new > SPEC_HEAP_MAX:
            raise IllegalAddress(f"spec sbrk({increment}) beyond {SPEC_HEAP_MAX:#x}")
        self.spec_brk = new
        return old

    # -- typed access (validated) --------------------------------------------------

    def load_word(self, addr: int) -> int:
        self.check_range(addr, 8)
        return int.from_bytes(self._mem[addr:addr + 8], "little")

    def store_word(self, addr: int, value: int) -> None:
        self._guarded(addr, 8)
        self.check_range(addr, 8)
        self._mem[addr:addr + 8] = (value & MASK64).to_bytes(8, "little")

    def load_byte(self, addr: int) -> int:
        self.check_range(addr, 1)
        return self._mem[addr]

    def store_byte(self, addr: int, value: int) -> None:
        self._guarded(addr, 1)
        self.check_range(addr, 1)
        self._mem[addr] = value & 0xFF

    def read_bytes(self, addr: int, length: int) -> bytes:
        self.check_range(addr, length)
        return bytes(self._mem[addr:addr + length])

    def write_bytes(self, addr: int, payload: bytes) -> None:
        self._guarded(addr, len(payload))
        self.check_range(addr, len(payload))
        self._mem[addr:addr + len(payload)] = payload

    def read_cstring(self, addr: int, max_len: int = 4096) -> bytes:
        """NUL-terminated byte string starting at ``addr``."""
        self.check_range(addr, 1)
        end = min(addr + max_len, SPACE_SIZE)
        raw = self._mem[addr:end]
        nul = raw.find(b"\x00")
        if nul < 0:
            raise IllegalAddress(f"unterminated string at {addr:#x}")
        result = bytes(raw[:nul])
        self.check_range(addr, len(result) + 1)
        return result

    # -- raw access (no validity check; used by the COW machinery which
    #    performs its own checks and must read "stale" bytes freely) -------------

    def raw_read(self, addr: int, length: int) -> bytes:
        return bytes(self._mem[addr:addr + length])

    def raw_write(self, addr: int, payload: bytes) -> None:
        self._guarded(addr, len(payload))
        self._mem[addr:addr + len(payload)] = payload
